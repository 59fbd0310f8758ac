#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

constexpr std::size_t kMemoryWords = std::size_t{1} << 22;  // 16 MB
constexpr std::size_t kChaseSteps = std::size_t{1} << 15;
constexpr std::size_t kChainSteps = std::size_t{1} << 20;
constexpr std::size_t kCoreWords = std::size_t{1} << 18;  // 1 MB
constexpr std::size_t kCoreSteps = std::size_t{1} << 20;

/// The kernels' median wall time in ms, about as measured on the 4-vCPU VM
/// where the benchmark was defined: 10.5 ms for the memory kernel and 8 ms
/// for the core one. Fixed: changing one rescales every end-to-end time of
/// the workloads that use it.
double reference_ms(CalibrationKind kind) {
  return kind == CalibrationKind::kMemory ? 10.5 : 10.5 + 8.0;
}

/// Bytes of every calibration buffer built so far; they stay resident.
std::atomic<std::size_t> g_calibration_bytes{0};
/// Keeps the kernels' results live.
volatile std::uint64_t g_sink = 0;

std::uint64_t memory_kernel(const std::vector<std::uint32_t>& words,
                            std::uint64_t seed) {
  const std::size_t mask = words.size() - 1;
  auto at = static_cast<std::uint32_t>(seed);
  for (std::size_t i = 0; i < kChaseSteps; ++i) {
    at = words[(at ^ i) & mask];
  }
  std::uint64_t sum = at;
  for (std::size_t i = 0; i < words.size() / 2; ++i) sum += words[i] ^ i;
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < kChainSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return sum + x;
}

std::uint64_t core_kernel(std::vector<std::uint32_t>& words, std::uint64_t seed) {
  const std::size_t mask = words.size() - 1;
  std::uint64_t a = seed;
  std::uint64_t b = seed + 1;
  std::uint64_t c = seed + 2;
  std::uint64_t d = seed + 3;
  for (std::size_t i = 0; i < kCoreSteps; ++i) {
    a = a * 6364136223846793005ULL + 1;
    b = b * 6364136223846793005ULL + 3;
    c = c * 6364136223846793005ULL + 5;
    d = d * 6364136223846793005ULL + 7;
    words[(a >> 40) & mask] += 1;
    words[(b >> 40) & mask] ^= static_cast<std::uint32_t>(i);
    words[(c >> 40) & mask] += static_cast<std::uint32_t>(d >> 50);
    if ((words[(d >> 40) & mask] & 1U) != 0) a ^= b;
  }
  return a + words[seed & mask];
}

}  // namespace

double elapsed_ms(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

std::size_t nearest_rank(std::size_t n, int percent) {
  if (n == 0 || percent < 1 || percent > 100) {
    throw std::invalid_argument("nearest_rank needs n >= 1, percent 1..100");
  }
  const auto p = static_cast<std::size_t>(percent);
  return (p * n + 99) / 100;
}

std::size_t samples_beyond(std::size_t n, int percent) {
  return n - nearest_rank(n, percent);
}

std::size_t samples_needed(int percent, std::size_t beyond) {
  std::size_t n = 1;
  while (samples_beyond(n, percent) < beyond) ++n;
  return n;
}

double percentile(std::vector<double> samples, int percent) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  const std::size_t rank = nearest_rank(samples.size(), percent);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median_input(const std::vector<std::vector<double>>& per_input) {
  std::vector<double> medians;
  medians.reserve(per_input.size());
  for (const std::vector<double>& samples : per_input) {
    medians.push_back(percentile(samples, 50));
  }
  return percentile(std::move(medians), 50);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean of no values");
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) throw std::invalid_argument("geomean needs values > 0");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("mean of no values");
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::optional<double> parse_peak_rss_mb(const std::string& proc_status) {
  std::istringstream in(proc_status);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    long long kb = -1;
    std::string unit;
    if (!(fields >> kb >> unit) || kb < 0 || unit != "kB") return std::nullopt;
    return static_cast<double>(kb) / 1024.0;
  }
  return std::nullopt;
}

double peak_rss_mb() {
  const double calibration_mb =
      static_cast<double>(g_calibration_bytes.load()) / (1 << 20);
  std::ifstream file("/proc/self/status");
  if (file) {
    std::ostringstream text;
    text << file.rdbuf();
    if (const auto mb = parse_peak_rss_mb(text.str())) return *mb - calibration_mb;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0 - calibration_mb;
}

double calibration_factor(double reference_ms, const std::vector<double>& kernel_ms) {
  return reference_ms / percentile(kernel_ms, 50);
}

Calibration::Calibration(CalibrationKind kind) : kind_(kind) {
  // Random words, so that the dependent reads go all over the buffer.
  memory_words_.resize(kMemoryWords);
  std::uint64_t x = 0;
  for (std::uint32_t& word : memory_words_) {
    x += 0x9E3779B97F4A7C15ULL;  // splitmix64
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    word = static_cast<std::uint32_t>((z ^ (z >> 31)) >> 32);
  }
  if (kind == CalibrationKind::kMixed) core_words_.assign(kCoreWords, 0);
  g_calibration_bytes +=
      (memory_words_.size() + core_words_.size()) * sizeof(std::uint32_t);
}

void Calibration::sample() {
  const Clock::time_point t0 = Clock::now();
  last_ = t0;
  const std::uint64_t seed = kernel_ms_.size() + 1;
  std::uint64_t result = memory_kernel(memory_words_, seed);
  if (kind_ == CalibrationKind::kMixed) result += core_kernel(core_words_, seed);
  kernel_ms_.push_back(elapsed_ms(t0, Clock::now()));
  g_sink = g_sink + result;
}

bool Calibration::sample_if_due() {
  if (!kernel_ms_.empty() &&
      elapsed_ms(last_, Clock::now()) < kCalibrationIntervalSeconds * 1000.0) {
    return false;
  }
  sample();
  return true;
}

double Calibration::factor() const {
  return calibration_factor(reference_ms(kind_), kernel_ms_);
}

std::string Calibration::describe() const {
  std::ostringstream out;
  out << (kind_ == CalibrationKind::kMemory ? "memory" : "mixed")
      << " calibration: median " << percentile(kernel_ms_, 50)
      << " ms over " << kernel_ms_.size() << " samples, factor " << factor();
  return out.str();
}

}  // namespace perfbench
