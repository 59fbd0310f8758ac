#include "requests.hpp"

#include <stdexcept>
#include <utility>

#include "cnn/workload.hpp"
#include "graph/paper_benchmarks.hpp"
#include "report/json.hpp"

namespace perfbench {
namespace {

constexpr int kHotPaperPes[] = {16, 32};
constexpr int kHotZooBatches[] = {1, 8};
constexpr int kHotZooPes = 32;
constexpr int kHeavyPes = 256;

std::uint64_t next(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Uniform in [0, n) by rejection, so no residue class is favoured.
std::uint64_t below(std::uint64_t& state, std::uint64_t n) {
  const std::uint64_t limit = ~std::uint64_t{0} - ~std::uint64_t{0} % n;
  std::uint64_t draw = next(state);
  while (draw >= limit) draw = next(state);
  return draw % n;
}

/// `count` lines over `entries`, the same number each; the first
/// count % entries.size() entries get one more.
void spread_evenly(std::size_t count, const std::vector<std::size_t>& entries,
                   std::vector<std::size_t>* copies) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    (*copies)[entries[i]] =
        count / entries.size() + (i < count % entries.size() ? 1u : 0u);
  }
}

}  // namespace

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[below(state, i)]);
  }
  return order;
}

std::string ServeEntry::key() const {
  if (!benchmark.empty()) return benchmark + "/pe" + std::to_string(pes);
  return workload + "/b" + std::to_string(batch) + "/pe" + std::to_string(pes);
}

std::string ServeEntry::request_line(const std::string& id) const {
  paraconv::report::JsonValue line = paraconv::report::JsonValue::object();
  line.set("id", id);
  line.set("op", "schedule");
  if (!benchmark.empty()) {
    line.set("benchmark", benchmark);
  } else {
    line.set("workload", workload);
    line.set("batch", batch);
  }
  line.set("pes", pes);
  return line.dump();
}

std::vector<ServeEntry> serve_catalogue() {
  std::vector<ServeEntry> entries;
  const auto& paper = paraconv::graph::paper_benchmarks();
  for (const int pes : kHotPaperPes) {
    for (const auto& bench : paper) {
      entries.push_back({bench.name, "", 1, pes, false});
    }
  }
  for (const std::string& name : paraconv::cnn::zoo_workload_names()) {
    for (const int batch : kHotZooBatches) {
      entries.push_back({"", name, batch, kHotZooPes, false});
    }
  }
  for (const auto& bench : paper) {
    entries.push_back({bench.name, "", 1, kHeavyPes, true});
  }
  return entries;
}

RequestStream generate_requests(const std::vector<ServeEntry>& catalogue,
                                std::uint64_t seed, std::size_t count) {
  std::vector<std::size_t> hot;
  std::vector<std::size_t> heavy;
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    (catalogue[i].heavy ? heavy : hot).push_back(i);
  }
  if (hot.empty() || heavy.empty()) {
    throw std::invalid_argument("catalogue needs hot and heavy entries");
  }
  // How often each entry appears is fixed, so every seed sends the same
  // mix; the seed only orders the requests.
  std::vector<std::size_t> copies(catalogue.size(), 0);
  const std::size_t heavy_count = count / kHeavyOneIn;
  spread_evenly(heavy_count, heavy, &copies);
  spread_evenly(count - heavy_count, hot, &copies);

  std::vector<std::size_t> pool;
  for (std::size_t e = 0; e < catalogue.size(); ++e) {
    pool.insert(pool.end(), copies[e], e);
  }
  RequestStream stream;
  stream.lines.reserve(count);
  stream.entry.reserve(count);
  for (const std::size_t slot : seeded_order(count, seed)) {
    const std::size_t pick = pool[slot];
    stream.lines.push_back(catalogue[pick].request_line(
        "r" + std::to_string(stream.lines.size())));
    stream.entry.push_back(pick);
  }
  return stream;
}

}  // namespace perfbench
