// Self-tests of the benchmark's own arithmetic on hand-built fixtures:
// nearest-rank percentiles and the ten-beyond rule, the geomean, reading
// peak RSS, the calibration factor, the seeded request generator and span
// self time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.hpp"
#include "requests.hpp"
#include "serve/protocol.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOnSmallSets) {
  const std::vector<double> five = {50, 10, 40, 20, 30};
  EXPECT_EQ(percentile(five, 50), 30);  // rank ceil(2.5) = 3
  EXPECT_EQ(percentile(five, 99), 50);  // rank 5
  EXPECT_EQ(percentile(five, 20), 10);  // rank exactly 1
  EXPECT_EQ(percentile(five, 21), 20);  // rank ceil(1.05) = 2
  EXPECT_EQ(percentile({7}, 50), 7);
  EXPECT_EQ(percentile({7}, 99), 7);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Percentile, RanksAreExactIntegers) {
  EXPECT_EQ(nearest_rank(100, 99), 99u);
  EXPECT_EQ(nearest_rank(1000, 99), 990u);
  EXPECT_EQ(nearest_rank(999, 99), 990u);
  EXPECT_EQ(nearest_rank(4, 50), 2u);
  EXPECT_EQ(nearest_rank(3, 50), 2u);
  EXPECT_THROW(nearest_rank(0, 50), std::invalid_argument);
  EXPECT_THROW(nearest_rank(10, 0), std::invalid_argument);
}

TEST(Percentile, TenSamplesBeyondP99NeedAThousand) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(1100, 99), 11u);
  EXPECT_EQ(samples_needed(99, 10), 1000u);
  EXPECT_EQ(samples_needed(50, 10), 20u);
  // The percentile of a thousand distinct samples leaves exactly ten above.
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  EXPECT_EQ(percentile(samples, 99), 990);
}

TEST(Percentile, MedianInputReadsTheMiddleOfACluster) {
  // Four inputs, three samples each: the sample median would be the
  // slowest sample of input b (rank 6 of 12); the median input is b.
  const std::vector<std::vector<double>> per_input = {
      {1.0, 1.1, 0.9}, {2.0, 2.6, 1.9}, {3.0, 3.1, 2.8}, {9.0, 8.0, 10.0}};
  EXPECT_EQ(median_input(per_input), 2.0);
  EXPECT_EQ(median_input({{5.0}}), 5.0);
  EXPECT_THROW(median_input({{1.0}, {}}), std::invalid_argument);
}

TEST(Geomean, KnownValues) {
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 8.0, 4.0}), 4.0, 1e-12);
  EXPECT_NEAR(geomean({0.5, 2.0}), 1.0, 1e-12);
  EXPECT_THROW(geomean({}), std::invalid_argument);
  EXPECT_THROW(geomean({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(geomean({1.0, -2.0}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(PeakRss, ParsesVmHwmFromProcStatus) {
  const std::string status =
      "Name:\tperfbench\n"
      "VmPeak:\t  300000 kB\n"
      "VmHWM:\t  204800 kB\n"
      "VmRSS:\t  102400 kB\n";
  const auto mb = parse_peak_rss_mb(status);
  ASSERT_TRUE(mb.has_value());
  EXPECT_DOUBLE_EQ(*mb, 200.0);
  EXPECT_FALSE(parse_peak_rss_mb("VmRSS:\t 1 kB\n").has_value());
  EXPECT_FALSE(parse_peak_rss_mb("VmHWM:\t lots kB\n").has_value());
  EXPECT_FALSE(parse_peak_rss_mb("VmHWM:\t 12 MB\n").has_value());
  // This process has touched memory, so its own reading is positive.
  EXPECT_GT(peak_rss_mb(), 0.0);
}

TEST(Calibration, FactorIsReferenceOverMedian) {
  EXPECT_DOUBLE_EQ(calibration_factor(10.0, {20.0}), 0.5);
  // Nearest-rank median of five: rank 3, 8.0; one slow sample moves nothing.
  EXPECT_DOUBLE_EQ(calibration_factor(10.0, {8.0, 5.0, 40.0, 10.0, 7.0}), 1.25);
  EXPECT_THROW(calibration_factor(10.0, {}), std::invalid_argument);
}

TEST(Calibration, SamplesEitherKind) {
  for (const CalibrationKind kind : {CalibrationKind::kMemory, CalibrationKind::kMixed}) {
    Calibration calibration(kind);
    EXPECT_THROW(calibration.factor(), std::invalid_argument);
    calibration.sample();
    calibration.sample();
    EXPECT_GT(calibration.factor(), 0.0);
    EXPECT_NE(calibration.describe().find("over 2 samples"), std::string::npos);
    EXPECT_FALSE(calibration.sample_if_due());  // the last sample just ran
  }
}

TEST(Requests, StreamIsAPureFunctionOfTheSeed) {
  const std::vector<ServeEntry> catalogue = serve_catalogue();
  const RequestStream a = generate_requests(catalogue, 7, 512);
  const RequestStream b = generate_requests(catalogue, 7, 512);
  const RequestStream c = generate_requests(catalogue, 8, 512);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.entry, b.entry);
  EXPECT_NE(a.entry, c.entry);
  ASSERT_EQ(a.lines.size(), 512u);
  // Every seed sends the same mix; only the order differs.
  std::vector<std::size_t> sorted_a = a.entry;
  std::vector<std::size_t> sorted_c = c.entry;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_c.begin(), sorted_c.end());
  EXPECT_EQ(sorted_a, sorted_c);
}

TEST(Requests, LinesParseAndMatchTheirEntry) {
  const std::vector<ServeEntry> catalogue = serve_catalogue();
  const RequestStream stream = generate_requests(catalogue, 3, 256);
  for (std::size_t i = 0; i < stream.lines.size(); ++i) {
    const paraconv::serve::ParseOutcome parsed =
        paraconv::serve::parse_request(stream.lines[i]);
    ASSERT_TRUE(parsed.ok) << stream.lines[i] << ": " << parsed.error_message;
    const ServeEntry& entry = catalogue[stream.entry[i]];
    EXPECT_EQ(parsed.request.id, "r" + std::to_string(i));
    EXPECT_EQ(parsed.request.op, "schedule");
    EXPECT_EQ(parsed.request.benchmark, entry.benchmark);
    EXPECT_EQ(parsed.request.workload, entry.workload);
    EXPECT_EQ(parsed.request.pes, entry.pes);
  }
}

TEST(Requests, MixIsEvenWithinHotAndHeavy) {
  const std::vector<ServeEntry> catalogue = serve_catalogue();
  std::size_t hot = 0;
  for (const ServeEntry& entry : catalogue) hot += entry.heavy ? 0u : 1u;
  EXPECT_EQ(catalogue.size(), 46u);  // 24 paper + 10 zoo hot, 12 heavy
  EXPECT_EQ(hot, 34u);

  // 4080 lines: 204 heavy (17 per entry) and 3876 hot (114 per entry).
  const RequestStream stream = generate_requests(catalogue, 11, 4080);
  std::map<std::size_t, std::size_t> per_entry;
  for (const std::size_t e : stream.entry) ++per_entry[e];
  ASSERT_EQ(per_entry.size(), catalogue.size());
  for (const auto& [e, n] : per_entry) {
    EXPECT_EQ(n, catalogue[e].heavy ? 17u : 114u) << catalogue[e].key();
  }
}

TEST(Requests, UnevenCountsGiveTheFirstEntriesOneMore) {
  const std::vector<ServeEntry> catalogue = serve_catalogue();
  const RequestStream stream = generate_requests(catalogue, 11, 1000);
  std::map<std::size_t, std::size_t> per_entry;
  std::size_t heavy = 0;
  for (const std::size_t e : stream.entry) {
    ++per_entry[e];
    heavy += catalogue[e].heavy ? 1u : 0u;
  }
  // 50 heavy over 12 entries, 950 hot over 34: shares differ by at most one.
  EXPECT_EQ(heavy, 1000 / kHeavyOneIn);
  std::size_t hot_min = 1000;
  std::size_t hot_max = 0;
  std::size_t heavy_min = 1000;
  std::size_t heavy_max = 0;
  for (const auto& [e, n] : per_entry) {
    std::size_t& low = catalogue[e].heavy ? heavy_min : hot_min;
    std::size_t& high = catalogue[e].heavy ? heavy_max : hot_max;
    low = std::min(low, n);
    high = std::max(high, n);
  }
  EXPECT_EQ(hot_min, 27u);
  EXPECT_EQ(hot_max, 28u);
  EXPECT_EQ(heavy_min, 4u);
  EXPECT_EQ(heavy_max, 5u);
}

TEST(Requests, SeededOrderIsAPermutation) {
  const std::vector<std::size_t> order = seeded_order(48, 5);
  EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 48u);
  EXPECT_EQ(order, seeded_order(48, 5));
  EXPECT_NE(order, seeded_order(48, 6));
  EXPECT_TRUE(seeded_order(0, 1).empty());
}

Span make(const char* name, std::int64_t start, std::int64_t end,
          std::int64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // parent [0,100): children [10,30) and [20,50) overlap on [20,30), and
  // [90,120) sticks out past the parent's end.
  const std::vector<Span> spans = {
      make("parent", 0, 100, -1), make("a", 10, 30, 0), make("b", 20, 50, 0),
      make("c", 90, 120, 0),      make("leaf", 12, 18, 1)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);  // covered: [10,50) + [90,100)
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(SelfTime, NestedChildInsideAnother) {
  const std::vector<Span> spans = {make("p", 0, 50, -1), make("a", 5, 45, 0),
                                   make("b", 10, 20, 0)};
  EXPECT_EQ(self_times(spans)[0], 10);
}

TEST(SelfTime, LayerTotalsAndCoverage) {
  const std::vector<Span> spans = {
      make("core.schedule", 0, 100, -1), make("alloc.allocate", 0, 96, 0),
      make("core.schedule", 200, 300, -1), make("alloc.allocate", 200, 298, 2)};
  const auto totals = layer_totals(spans);
  EXPECT_EQ(totals.at("core.schedule").total_ns, 200);
  EXPECT_EQ(totals.at("core.schedule").self_ns, 6);
  EXPECT_EQ(totals.at("alloc.allocate").self_ns, 194);
  EXPECT_DOUBLE_EQ(child_coverage(totals, "core.schedule"), 0.97);
  EXPECT_DOUBLE_EQ(child_coverage(totals, "serve.request"), 1.0);
}

TEST(SelfTime, MergeRebasesParents) {
  std::vector<Span> all = {make("x", 0, 10, -1)};
  merge_spans(&all, {make("p", 0, 10, -1), make("c", 2, 4, 0)});
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[2].parent, 1);
  EXPECT_EQ(self_times(all)[1], 8);
}

TEST(Tracer, RecordsNestingAndRequest) {
  Tracer tracer(3);
  tracer.set_request(42);
  {
    const ScopedSpan outer(&tracer, "outer");
    const ScopedSpan inner(&tracer, "inner");
  }
  const ScopedSpan none(nullptr, "ignored");
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].request, 42u);
  EXPECT_EQ(tracer.spans()[1].thread, 3);
  EXPECT_STREQ(tracer.spans()[1].name, "inner");
  EXPECT_LE(tracer.spans()[0].start_ns, tracer.spans()[1].start_ns);
  EXPECT_GE(tracer.spans()[0].end_ns, tracer.spans()[1].end_ns);
}

}  // namespace
}  // namespace perfbench
