// The serve_mix request catalogue and its seeded request stream.
//
// The stream is a pure function of (catalogue, seed, count): the daemon
// only ever sees the generated lines. A hot set of small and mid-size
// requests (paper graphs at 16 and 32 PEs, zoo entries at batch 1 and 8 on
// 32 PEs) takes 19 of 20 requests; heavy requests (paper graphs at 256 PEs,
// where the allocation DP table is large) take the other one and make the
// latency tail. How often each entry appears is fixed; the seed orders the
// requests.
//
// The repository holds no record of real serve traffic, so the mix is an
// assumption, stated here and in the README:
//  - within the hot set and within the heavy set every entry gets the same
//    share, as the repository's own `bench serve` load cycles its request
//    lines evenly; no entry is favoured by its place in the catalogue;
//  - the heavy share is 1 in 20 so that the nearest-rank p99 (the slowest
//    1%) lies well inside the heavy requests, and p99 follows their cost,
//    while p50 stays inside the hot set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ServeEntry {
  /// Exactly one of `benchmark` (paper graph) and `workload` (zoo entry).
  std::string benchmark;
  std::string workload;
  int batch{1};
  int pes{32};
  bool heavy{false};

  /// Stable identity: "cat/pe16" or "alexnet/b8/pe32".
  std::string key() const;
  /// One compact JSON "schedule" request line.
  std::string request_line(const std::string& id) const;
};

/// Hot entries first, then heavy ones, each in library catalogue order.
std::vector<ServeEntry> serve_catalogue();

/// One in this many requests is heavy (an assumption; see above).
inline constexpr std::uint64_t kHeavyOneIn = 20;

struct RequestStream {
  std::vector<std::string> lines;
  /// Catalogue index of each line.
  std::vector<std::size_t> entry;
};

/// Seeded permutation of 0..n-1 (Fisher-Yates over splitmix64).
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

/// `count` request lines over `catalogue` in an order drawn by `seed`;
/// line i has id "r<i>". count / kHeavyOneIn lines are heavy. Hot and heavy
/// lines are each spread evenly over their entries; when a group's count
/// does not divide evenly, its first entries get one line more.
/// Deterministic on every platform (splitmix64).
RequestStream generate_requests(const std::vector<ServeEntry>& catalogue,
                                std::uint64_t seed, std::size_t count);

}  // namespace perfbench
