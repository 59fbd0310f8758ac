// Measurement arithmetic shared by every workload: clocks, nearest-rank
// percentiles, the geometric mean, peak resident memory and the host-speed
// calibration.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two instants.
double elapsed_ms(Clock::time_point start, Clock::time_point end);

/// 1-based nearest rank of the `percent`-th percentile among `n` samples:
/// ceil(percent / 100 * n), computed in integers. Requires n >= 1 and
/// percent in [1, 100].
std::size_t nearest_rank(std::size_t n, int percent);

/// Samples strictly above the `percent`-th nearest-rank percentile.
std::size_t samples_beyond(std::size_t n, int percent);

/// Smallest sample count whose `percent`-th percentile has at least
/// `beyond` samples above it (1000 for p99 with 10 beyond).
std::size_t samples_needed(int percent, std::size_t beyond);

/// Nearest-rank percentile of `samples` (copied and sorted). Requires a
/// non-empty sample set.
double percentile(std::vector<double> samples, int percent);

/// The median input's time when a fixed set of inputs is timed
/// repeatedly: the nearest-rank median, across inputs, of each input's
/// median sample. Every input needs at least one sample.
double median_input(const std::vector<std::vector<double>>& per_input);

/// Geometric mean of strictly positive values.
double geomean(const std::vector<double>& values);

double mean(const std::vector<double>& values);

/// Peak resident set size in MB (2^20 bytes) from the text of a
/// /proc/<pid>/status file: its VmHWM line. nullopt when the line is
/// missing or malformed.
std::optional<double> parse_peak_rss_mb(const std::string& proc_status);

/// This process's peak resident set size in MB: VmHWM from
/// /proc/self/status, falling back to getrusage's ru_maxrss, minus the
/// calibration buffers built so far (they stay resident to the end).
double peak_rss_mb();

/// Reference time over the median of `kernel_ms`: what a time measured
/// alongside those kernel runs is multiplied by, and a rate divided by.
double calibration_factor(double reference_ms, const std::vector<double>& kernel_ms);

inline constexpr double kCalibrationIntervalSeconds = 1.0;

/// Host-speed calibration. The benchmark's host is shared, and its speed
/// drifts by tens of percent over seconds to minutes. The drift is not the
/// same for all code: other tenants on the same physical core slow
/// cache-resident code most, and memory traffic slows code that waits on
/// memory. So each workload times the fixed kernel of its own kind between
/// its passes, and reports each end-to-end time scaled by factor(), that
/// is in ms of a host on which the kernel takes its reference time (about
/// its median on the 4-vCPU VM where the benchmark was defined). A change
/// to the program leaves the kernel as it is, so it shows in full.
enum class CalibrationKind {
  /// Waits on memory: 2^15 dependent random reads over a 16 MB buffer, a
  /// sequential pass over 8 MB of it, and a 2^20-step dependent integer
  /// multiply chain. Reference 10.5 ms. For paper_run, whose time is the
  /// allocation DP over tables of up to 182 MB.
  kMemory,
  /// The kMemory kernel, then one that keeps a core busy: 2^20 steps of
  /// four independent random read-modify-write streams over a 1 MB buffer,
  /// which fits in a core's L2 cache, with a data-dependent branch. Timed
  /// together; reference 18.5 ms. For zoo_sweep and serve_mix, which spend
  /// their time both in cache-resident graph code (SPARTA, packing) and in
  /// the allocation DP.
  kMixed,
};

class Calibration {
 public:
  /// Builds the kernel's buffer, which stays resident until destruction.
  explicit Calibration(CalibrationKind kind);

  /// Runs the kernel once and records its wall time.
  void sample();

  /// sample() when there is no sample yet or the last one began at least
  /// kCalibrationIntervalSeconds ago; returns whether it sampled. The
  /// kernel evicts the workload's data from the caches, so the loops sample
  /// at this pace, not every pass.
  bool sample_if_due();

  /// calibration_factor(reference time, the samples so far). Requires a
  /// sample.
  double factor() const;

  /// "<kind> calibration: median <ms> ms over <n> samples, factor <f>",
  /// for the run's notes.
  std::string describe() const;

 private:
  CalibrationKind kind_;
  std::vector<std::uint32_t> memory_words_;
  std::vector<std::uint32_t> core_words_;
  std::vector<double> kernel_ms_;
  Clock::time_point last_{};
};

}  // namespace perfbench
