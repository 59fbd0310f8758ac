// What the three workloads share: run settings, the output check and its
// error accounting, the pinned reference files, and the metric tables.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/para_conv.hpp"
#include "measure.hpp"
#include "pipeline.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  /// Directory of the pinned <workload>.ref files.
  std::string reference_dir;
  /// Scratch directory for checkpoints, reports, spill files and traces.
  std::string work_dir;
  /// Rewrite the reference file from the library instead of measuring.
  bool write_reference{false};
};

/// Threaded workloads run this long untimed before they measure: the first
/// seconds of a process's sweep passes ran up to twice as slow.
inline constexpr double kWarmupSeconds = 5.0;

/// Set-ups are timed in groups of kSetupsPerGroup: one set-up takes about a
/// millisecond, so setup_s is taken over groups, not single set-ups.
/// Traced runs time kSetupGroups groups at the start. Untraced runs time
/// one there and one each time the calibration kernel runs, so that the
/// set-ups see the same host as the rest of the run.
inline constexpr int kSetupGroups = 15;
inline constexpr int kSetupsPerGroup = 20;
inline constexpr int kSetupRepeats = kSetupGroups * kSetupsPerGroup;

template <typename Setup>
class SetupTimer {
 public:
  using Result = std::invoke_result_t<Setup&>;

  explicit SetupTimer(Setup setup) : setup_(std::move(setup)) {}

  /// Runs kSetupsPerGroup set-ups and records their summed time /
  /// kSetupsPerGroup. `keep` receives each set-up's result; the previous
  /// one is freed outside the timed part, so freed memory is reused as in
  /// a steady state.
  void group(Result* keep) {
    Clock::duration total{0};
    for (int i = 0; i < kSetupsPerGroup; ++i) {
      const Clock::time_point t0 = Clock::now();
      Result built = setup_();
      total += Clock::now() - t0;
      *keep = std::move(built);
    }
    per_setup_s_.push_back(std::chrono::duration<double>(total).count() /
                           kSetupsPerGroup);
  }

  /// setup_s: the median over the groups. Requires a group.
  double setup_s() const { return percentile(per_setup_s_, 50); }

 private:
  Setup setup_;
  std::vector<double> per_setup_s_;
};

/// Counts operations attempted and failed. Thread-safe.
class Checks {
 public:
  /// One attempted operation; `ok` false counts it failed, and the first
  /// few failures keep `what` for the report.
  void record(bool ok, const std::string& what);
  /// `expected` must equal `actual` byte for byte.
  void expect_equal(const std::string& what, const std::string& expected,
                    const std::string& actual);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_{0};         // GUARDED-BY(mu_)
  std::uint64_t failed_{0};            // GUARDED-BY(mu_)
  std::vector<std::string> failures_;  // GUARDED-BY(mu_)
};

/// Expected outputs pinned at the commit that defined the benchmark, in
/// <reference_dir>/<workload>.ref: one "<key>\t<value>" line per output.
/// In write mode the same calls pin the outputs instead of checking them.
class OutputCheck {
 public:
  /// Loads the reference file unless config.write_reference; throws when
  /// it is missing or malformed.
  OutputCheck(const RunConfig& config, Checks* checks);

  /// Counts one attempted operation whose output is `actual`; it fails
  /// unless `actual` equals the pinned value byte for byte. Returns whether
  /// it passed. Thread-safe in check mode.
  bool check(const std::string& key, const std::string& actual);

  /// Writes the reference file in write mode; no-op otherwise.
  void save() const;

 private:
  const RunConfig& config_;
  Checks* checks_;
  std::map<std::string, std::string> pinned_;
  std::vector<std::string> order_;
};

/// Shortest decimal text that reads back as exactly `value`.
std::string exact(double value);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end and per-layer metrics, in BENCHMARK.json order.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// A finished run: metric values by name, lines for the reader, checks.
struct Outcome {
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;
  Checks checks;
};

/// Adds per-layer metrics from span totals, each divided by `units` (the
/// number of passes, requests or set-ups the spans cover): self time as
/// "<span>_ms" for every layer span, and for core.schedule its inclusive
/// time plus its self time as core.schedule_unattributed_ms.
void add_layer_times(const std::map<std::string, LayerTotals>& totals,
                     double units, Outcome* outcome);

/// Sim metrics over one result set, checked against the pinned "sim"
/// line: geomean of SPARTA / Para-CONV total time and mean R_max.
void add_sim_metrics(const std::vector<double>& speedups,
                     const std::vector<double>& r_max, OutputCheck* check,
                     Outcome* outcome);

/// trace.coverage: the lowest child coverage among the parent spans that
/// ran (core.schedule, dse.cell, serve.request); a value below 0.95 fails
/// the run's checks.
void add_coverage(const std::map<std::string, LayerTotals>& totals,
                  Outcome* outcome);

/// The decomposition check on one input: the call-by-call pipeline must
/// rebuild core::ParaConv::schedule's result byte for byte. Returns what
/// the allocation step saw, for the alloc.* counts.
struct Decomposed {
  std::size_t items{0};
  DpSize dp;
};
Decomposed check_decomposition(const paraconv::graph::TaskGraph& g,
                               const paraconv::pim::PimConfig& config,
                               paraconv::core::PackerKind packer,
                               std::int64_t iterations, const std::string& key,
                               Checks* checks);

/// Milliseconds from `start` to now.
double ms_since(Clock::time_point start);

void run_paper(const RunConfig& config, Outcome* outcome);
void run_zoo(const RunConfig& config, Outcome* outcome);
void run_serve(const RunConfig& config, Outcome* outcome);

}  // namespace perfbench
