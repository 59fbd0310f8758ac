#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "measure.hpp"
#include "report/json.hpp"

namespace perfbench {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.request = request_;
  span.thread = thread_;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  // Read the clock last so the span's own bookkeeping stays outside it.
  spans_.back().start_ns = now_ns();
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  const std::int64_t end = now_ns();
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("spans must close in reverse order of opening");
  }
  open_.pop_back();
  spans_[index].end_ns = end;
}

void merge_spans(std::vector<Span>* all, const std::vector<Span>& part) {
  const auto base = static_cast<std::int64_t>(all->size());
  for (Span span : part) {
    if (span.parent >= 0) span.parent += base;
    all->push_back(std::move(span));
  }
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const auto p = static_cast<std::size_t>(span.parent);
    if (p >= spans.size()) throw std::out_of_range("span parent index");
    children[p].emplace_back(span.start_ns, span.end_ns);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t start = spans[i].start_ns;
    const std::int64_t end = spans[i].end_ns;
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t cursor = start;  // everything before it is accounted for
    for (const auto& [child_start, child_end] : intervals) {
      const std::int64_t from = std::max(child_start, cursor);
      const std::int64_t to = std::min(child_end, end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = (end - start) - covered;
  }
  return self;
}

std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = totals[spans[i].name];
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

double child_coverage(const std::map<std::string, LayerTotals>& totals,
                      const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.total_ns <= 0) return 1.0;
  return 1.0 - static_cast<double>(it->second.self_ns) /
                   static_cast<double>(it->second.total_ns);
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  constexpr std::uint64_t kWrittenRequests = 2000;
  std::int64_t epoch = 0;
  if (!spans.empty()) {
    epoch = std::min_element(spans.begin(), spans.end(),
                             [](const Span& a, const Span& b) {
                               return a.start_ns < b.start_ns;
                             })
                ->start_ns;
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    if (s.request >= kWrittenRequests) continue;
    paraconv::report::JsonValue args = paraconv::report::JsonValue::object();
    args.set("request", static_cast<std::int64_t>(s.request));
    args.set("parent", s.parent);
    paraconv::report::JsonValue event = paraconv::report::JsonValue::object();
    event.set("name", s.name);
    event.set("ph", "X");
    event.set("pid", 1);
    event.set("tid", s.thread);
    event.set("ts", static_cast<double>(s.start_ns - epoch) / 1000.0);
    event.set("dur", static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    event.set("args", std::move(args));
    out << (first ? "\n" : ",\n") << event.dump();
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
