// Spans recorded by the benchmark around its calls into the library.
//
// A traced workload gives each thread its own Tracer; a ScopedSpan opens a
// span on construction and closes it on destruction, so nesting follows
// the call structure and the open span at construction time becomes the
// parent. Spans stay in memory until the run ends, when they are merged,
// reduced to per-layer self times and written out as a Chrome trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  /// A string literal: span names are fixed at the call sites.
  const char* name{""};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  /// Index of the enclosing span in the same vector; -1 for a root.
  std::int64_t parent{-1};
  /// The operation (schedule, sweep pass, request) the span belongs to;
  /// every span of one operation shares it.
  std::uint64_t request{0};
  int thread{0};
};

/// One thread's span recorder. Not thread-safe: one per thread.
class Tracer {
 public:
  explicit Tracer(int thread) : thread_(thread) {}

  /// Tags the spans opened from now on with `request`.
  void set_request(std::uint64_t request) { request_ = request; }

  std::size_t open(const char* name);
  void close(std::size_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t request_{0};
  int thread_{0};
};

/// Records one span on `tracer` for its lifetime; a null tracer records
/// nothing, so one code path serves traced and untraced callers.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->open(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

/// Appends `part` to `*all`, re-basing its parent indices.
void merge_spans(std::vector<Span>* all, const std::vector<Span>& part);

/// Self time of every span in ns: its duration minus the part of its
/// interval that the union of its children's intervals covers (children
/// are clipped to the parent and overlapping children count once).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

struct LayerTotals {
  std::int64_t total_ns{0};
  std::int64_t self_ns{0};
};

/// Duration and self time summed per span name.
std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans);

/// Share of the spans named `name` that their children cover:
/// 1 - self / total; 1 when no such span ran.
double child_coverage(const std::map<std::string, LayerTotals>& totals,
                      const std::string& name);

/// Writes the spans of the first 2000 operations (request ids below 2000)
/// as Chrome trace JSON ("X" events, microseconds), so a long run leaves a
/// file of bounded size. `parent` in each event's args indexes `spans`.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
