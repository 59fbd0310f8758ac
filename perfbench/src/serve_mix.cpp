// serve_mix: the `serve` path. A warm in-process serve::Server (jobs = 2)
// that loads its memo from a spill file at start-up, driven closed-loop
// through Server::submit_line by two client threads over a seeded request
// stream (see requests.hpp). Each client waits for its reply before it
// sends the next request.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cnn/workload.hpp"
#include "core/para_conv.hpp"
#include "dse/frontier.hpp"
#include "dse/memo_store.hpp"
#include "dse/sweep.hpp"
#include "graph/paper_benchmarks.hpp"
#include "harness.hpp"
#include "pipeline.hpp"
#include "report/json_reader.hpp"
#include "requests.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

namespace pc = paraconv;

constexpr int kJobs = 2;
constexpr int kClients = 2;
/// 4080 = 20 x 204 lines: 204 heavy (17 per entry) and 3876 hot (114 per
/// entry), so every entry of a group gets exactly the same share.
constexpr std::size_t kStreamLength = 4080;
constexpr std::int64_t kIterations = 100;
/// The traced run's replay alternates this many untraced and traced rounds.
constexpr int kReplayRounds = 3;
/// The untraced run drives the daemon in segments this long; the
/// calibration kernel runs between them.
constexpr double kSegmentSeconds = 0.5;

/// The graph a request names, built the way the daemon builds it.
pc::dse::SweepCase make_case(const ServeEntry& entry, Tracer* tracer) {
  if (!entry.workload.empty()) {
    const ScopedSpan span(tracer, "cnn.lower");
    const pc::cnn::Workload workload = pc::cnn::zoo_workload(entry.workload);
    return {workload.net.name(), pc::cnn::lower_workload(workload, entry.batch),
            entry.batch};
  }
  const ScopedSpan span(tracer, "graph.build");
  return {entry.benchmark, pc::graph::build_paper_benchmark(
                               pc::graph::paper_benchmark(entry.benchmark))};
}

/// The `result` object of an ok response, byte for byte; empty when the
/// response is not ok.
std::string result_of(const std::string& response) {
  if (response.find("\"status\":\"ok\"") == std::string::npos) return "";
  const std::size_t begin = response.find("\"result\":");
  const std::size_t end = response.rfind(",\"memo\":");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return "";
  }
  return response.substr(begin + 9, end - begin - 9);
}

double wall_ms_of(const std::string& response) {
  const std::size_t at = response.rfind("\"wall_ms\":");
  if (at == std::string::npos) return 0.0;
  return std::strtod(response.c_str() + at + 10, nullptr);
}

const pc::report::JsonDoc& member(const pc::report::JsonDoc& doc,
                                  const char* key) {
  const pc::report::JsonDoc* found = doc.find(key);
  if (found == nullptr) throw std::runtime_error(std::string("no ") + key);
  return *found;
}

struct Sample {
  double latency_ms{0.0};
  double wall_ms{0.0};
  /// Ok status and the pinned result.
  bool ok{true};
  /// Position in the cycled stream: how many requests were taken before.
  std::size_t request{0};
};

struct LoadResult {
  std::vector<Sample> samples;
  double seconds{0.0};
  std::uint64_t ok{0};

  LoadResult& operator+=(const LoadResult& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    seconds += other.seconds;
    ok += other.ok;
    return *this;
  }
};

/// kClients closed-loop clients over the stream for `seconds`, taking
/// stream lines from `cursor`.
LoadResult drive(pc::serve::Server& server, const RequestStream& stream,
                 const std::vector<ServeEntry>& catalogue, double seconds,
                 std::atomic<std::size_t>* cursor, OutputCheck* check) {
  std::vector<std::vector<Sample>> per_client(kClients);
  std::vector<std::uint64_t> ok(kClients, 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const auto me = static_cast<std::size_t>(c);
        while (Clock::now() < deadline) {
          const std::size_t n = cursor->fetch_add(1);
          const std::size_t k = n % stream.lines.size();
          const Clock::time_point t0 = Clock::now();
          const std::string response = server.submit_line(stream.lines[k]).get();
          Sample sample{ms_since(t0), wall_ms_of(response)};
          sample.request = n;
          sample.ok = check->check(catalogue[stream.entry[k]].key(), result_of(response));
          if (sample.ok) ++ok[me];
          per_client[me].push_back(sample);
        }
      });
    }
  }
  LoadResult load;
  load.seconds = ms_since(start) / 1000.0;
  for (int c = 0; c < kClients; ++c) {
    const auto me = static_cast<std::size_t>(c);
    load.samples.insert(load.samples.end(), per_client[me].begin(),
                        per_client[me].end());
    load.ok += ok[me];
  }
  return load;
}

struct Replayed {
  /// Summed over requests.
  double ms{0.0};
  std::size_t requests{0};

  Replayed& operator+=(const Replayed& other) {
    ms += other.ms;
    requests += other.requests;
    return *this;
  }
};

/// kClients threads replay the daemon's request path from its calls for
/// `seconds`, taking stream lines from `cursor`: parse, graph build or
/// lowering, the cell on `cache`, then the response. With `tracers` (one
/// per thread) every call gets a span; without, the replay runs untraced.
Replayed replay(const RequestStream& stream,
                const std::vector<ServeEntry>& catalogue,
                pc::dse::MemoCache* cache, std::vector<Tracer>* tracers,
                double seconds, std::atomic<std::size_t>* cursor,
                OutputCheck* check) {
  std::vector<Replayed> per_client(kClients);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const auto me = static_cast<std::size_t>(c);
        Tracer* tracer = tracers != nullptr ? &(*tracers)[me] : nullptr;
        while (Clock::now() < deadline) {
          const std::size_t n = cursor->fetch_add(1);
          const std::size_t k = n % stream.lines.size();
          if (tracer != nullptr) tracer->set_request(n);
          std::string result;
          const Clock::time_point t0 = Clock::now();
          try {
            const ScopedSpan request_span(tracer, "serve.request");
            pc::serve::ParseOutcome parsed;
            {
              const ScopedSpan span(tracer, "serve.parse");
              parsed = pc::serve::parse_request(stream.lines[k]);
            }
            if (!parsed.ok) throw std::runtime_error(parsed.error_message);
            const pc::serve::ServeRequest& request = parsed.request;
            const pc::dse::SweepCase sweep_case = make_case(
                {request.benchmark, request.workload, request.batch, request.pes},
                tracer);
            const pc::dse::CellResult cell = traced_cell(
                sweep_case, pc::pim::PimConfig::neurocube(request.pes),
                request.packer, request.iterations,
                pc::dse::cell_seed(request.seed, request.cell_index),
                static_cast<std::size_t>(request.cell_index), cache, tracer);
            const ScopedSpan span(tracer, "serve.respond");
            const pc::report::JsonValue json = pc::dse::cell_to_json(cell);
            result = result_of(pc::serve::ok_response(request, &json, cache->stats(),
                                                      ms_since(t0)));
          } catch (const std::exception&) {
            result.clear();
          }
          per_client[me].ms += ms_since(t0);
          ++per_client[me].requests;
          check->check(catalogue[stream.entry[k]].key(), result);
        }
      });
    }
  }
  Replayed total;
  for (const Replayed& r : per_client) total += r;
  return total;
}

}  // namespace

void run_serve(const RunConfig& config, Outcome* outcome) {
  // First, so that its resident buffer is under every later peak.
  Calibration calibration(CalibrationKind::kMixed);
  OutputCheck check(config, &outcome->checks);
  const bool traced = config.trace && !config.write_reference;
  const std::vector<ServeEntry> catalogue = serve_catalogue();
  std::vector<pc::dse::SweepCase> cases;
  for (const ServeEntry& entry : catalogue) cases.push_back(make_case(entry, nullptr));
  const std::uint64_t request_seed = pc::dse::cell_seed(0, 0);

  if (config.write_reference) {
    std::vector<double> speedups;
    std::vector<double> r_max;
    for (std::size_t i = 0; i < catalogue.size(); ++i) {
      pc::dse::CellResult cell = pc::dse::evaluate_cell(
          cases[i], pc::pim::PimConfig::neurocube(catalogue[i].pes),
          pc::core::PackerKind::kTopological, pc::core::AllocatorKind::kKnapsackDp,
          kIterations, 0, request_seed, true, nullptr);
      check.check(catalogue[i].key(), pc::dse::cell_to_json(cell).dump());
      speedups.push_back(pc::core::speedup(cell.sparta, cell.para));
      r_max.push_back(cell.para.r_max);
    }
    add_sim_metrics(speedups, r_max, &check, outcome);
    check.save();
    return;
  }

  // The daemon's memo from earlier traffic: the hot set's packings.
  const std::string spill = config.work_dir + "/serve_memo.spill";
  {
    pc::dse::MemoCache warm;
    for (std::size_t i = 0; i < catalogue.size(); ++i) {
      if (catalogue[i].heavy) continue;
      const pc::pim::PimConfig cfg = pc::pim::PimConfig::neurocube(catalogue[i].pes);
      warm.insert(pc::dse::make_packing_key(cases[i].graph, cfg,
                                            pc::core::PackerKind::kTopological,
                                            0, request_seed),
                  pc::core::ParaConv(cfg).pack(cases[i].graph));
    }
    pc::dse::save_memo_cache(warm, spill);
  }
  const RequestStream stream = generate_requests(catalogue, config.seed, kStreamLength);

  // Set-up: construct the server (pool start + spill load), several times.
  pc::serve::ServerOptions server_options;
  server_options.jobs = kJobs;
  server_options.cache_file = spill;
  std::unique_ptr<pc::serve::Server> server;
  SetupTimer setups([&] { return std::make_unique<pc::serve::Server>(server_options); });
  for (int group = 0; group < (traced ? kSetupGroups : 1); ++group) {
    setups.group(&server);
  }

  // Every catalogue entry once: the pinned results and the sim metrics.
  std::vector<double> speedups;
  std::vector<double> r_max;
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    const std::string result = result_of(
        server->submit_line(catalogue[i].request_line("warm" + std::to_string(i)))
            .get());
    check.check(catalogue[i].key(), result);
    pc::report::JsonDoc doc;
    std::string error;
    if (result.empty() || !pc::report::parse_json(result, &doc, &error)) continue;
    const double para = member(member(doc, "para_conv"), "total_time").number;
    const double sparta = member(member(doc, "sparta"), "total_time").number;
    speedups.push_back(sparta / para);
    r_max.push_back(member(member(doc, "para_conv"), "r_max").number);
  }
  add_sim_metrics(speedups, r_max, &check, outcome);

  if (!traced) {
    std::atomic<std::size_t> cursor{0};
    drive(*server, stream, catalogue, kWarmupSeconds, &cursor, &check);
    // Set-ups during the run go to a spare server, idle beside the driven one.
    std::unique_ptr<pc::serve::Server> spare;
    LoadResult load;
    const std::size_t first = cursor.load();
    const Clock::time_point start = Clock::now();
    while (ms_since(start) < config.seconds * 1000.0) {
      if (calibration.sample_if_due()) setups.group(&spare);
      load += drive(*server, stream, catalogue, kSegmentSeconds, &cursor, &check);
    }
    // The percentiles count whole passes over the stream, so that every
    // run sees the stream's mix exactly; the partial last pass is left out
    // unless there is no whole one.
    const std::size_t passes = (cursor.load() - first) / stream.lines.size();
    const std::size_t counted = std::max<std::size_t>(passes, 1) * stream.lines.size();
    // A request that fails, is rejected or returns a wrong result counts
    // as lasting the whole measurement.
    const double f = calibration.factor();
    std::vector<double> latency;
    std::vector<double> exec;
    for (const Sample& s : load.samples) {
      if (s.request - first >= counted) continue;
      latency.push_back(s.ok ? s.latency_ms * f : config.seconds * 1000.0);
      if (s.ok && s.wall_ms > 0.0) exec.push_back(s.wall_ms * f);
    }
    const double seconds = load.seconds * f;
    outcome->metrics["setup_s"] = setups.setup_s() * f;
    outcome->metrics["serve_ms_p50"] = percentile(latency, 50);
    outcome->metrics["serve_ms_p99"] = percentile(latency, 99);
    outcome->metrics["serve_rps"] = static_cast<double>(load.samples.size()) / seconds;
    // A request's run is its execution on the daemon (the response's
    // wall_ms), without the wait before it.
    outcome->metrics["run_ms_p50"] = percentile(exec, 50);
    outcome->metrics["run_ms_p99"] = percentile(exec, 99);
    outcome->metrics["sweep_cells_per_s"] = static_cast<double>(load.ok) / seconds;
    outcome->metrics["peak_rss_mb"] = peak_rss_mb();
    outcome->notes.push_back(
        "serve samples " + std::to_string(latency.size()) + " (" +
        std::to_string(samples_beyond(latency.size(), 99)) + " beyond p99) over " +
        std::to_string(passes) + " whole passes of the stream, " +
        std::to_string(load.samples.size()) + " requests, closed loop, " +
        std::to_string(kClients) +
        " clients, server jobs " + std::to_string(kJobs));
    outcome->notes.push_back(calibration.describe());
    return;
  }

  // Traced run. Decomposition check and per-entry counts.
  struct Counts {
    double items{0.0};
    double dp_cells{0.0};
    double lowered_tasks{0.0};
  };
  std::vector<Counts> counts(catalogue.size());
  double dp_table_mb_max = 0.0;
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    const Decomposed d = check_decomposition(
        cases[i].graph, pc::pim::PimConfig::neurocube(catalogue[i].pes),
        pc::core::PackerKind::kTopological, kIterations, catalogue[i].key(),
        &outcome->checks);
    counts[i] = {static_cast<double>(d.items), static_cast<double>(d.dp.cells),
                 catalogue[i].workload.empty()
                     ? 0.0
                     : static_cast<double>(cases[i].graph.node_count())};
    dp_table_mb_max = std::max(dp_table_mb_max, d.dp.table_mb);
  }
  Counts per_request;
  for (const std::size_t entry : stream.entry) {
    per_request.items += counts[entry].items;
    per_request.dp_cells += counts[entry].dp_cells;
    per_request.lowered_tasks += counts[entry].lowered_tasks;
  }
  const auto stream_length = static_cast<double>(stream.entry.size());

  // Half the time: the daemon itself, untraced.
  const pc::dse::MemoCache::Stats memo_before = server->cache_stats();
  const pc::serve::Server::Stats stats_before = server->stats();
  std::atomic<std::size_t> drive_cursor{0};
  const LoadResult load =
      drive(*server, stream, catalogue, config.seconds / 2, &drive_cursor, &check);
  const pc::dse::MemoCache::Stats memo_after = server->cache_stats();
  const std::uint64_t rejected = server->stats().rejected - stats_before.rejected;
  std::vector<double> exec;
  std::vector<double> queue_wait;
  for (const Sample& s : load.samples) {
    if (!s.ok || s.wall_ms <= 0.0) continue;
    exec.push_back(s.wall_ms);
    queue_wait.push_back(s.latency_ms - s.wall_ms);
  }
  const double hits = static_cast<double>(memo_after.hits - memo_before.hits);
  const double misses = static_cast<double>(memo_after.misses - memo_before.misses);

  // The replay's memo: the same spill file, loaded several times.
  std::vector<double> load_ms;
  std::unique_ptr<pc::dse::MemoCache> cache;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    cache = std::make_unique<pc::dse::MemoCache>();
    const Clock::time_point t0 = Clock::now();
    pc::dse::load_memo_cache(cache.get(), spill);
    load_ms.push_back(ms_since(t0));
  }

  // The other half: the daemon's request path rebuilt from its calls, in
  // rounds that alternate untraced (the overhead baseline) and traced.
  std::vector<Tracer> tracers;
  for (int t = 0; t < kClients; ++t) tracers.emplace_back(t);
  std::atomic<std::size_t> cursor{0};
  Replayed baseline;
  Replayed replayed;
  const double round_s = config.seconds / 2 / (2 * kReplayRounds);
  for (int round = 0; round < kReplayRounds; ++round) {
    baseline += replay(stream, catalogue, cache.get(), nullptr, round_s, &cursor, &check);
    replayed += replay(stream, catalogue, cache.get(), &tracers, round_s, &cursor, &check);
  }

  std::vector<Span> spans;
  for (const Tracer& t : tracers) merge_spans(&spans, t.spans());
  const auto totals = layer_totals(spans);
  add_layer_times(totals, static_cast<double>(replayed.requests), outcome);
  add_coverage(totals, outcome);
  outcome->metrics["cnn.lowered_tasks"] = per_request.lowered_tasks / stream_length;
  outcome->metrics["alloc.items"] = per_request.items / stream_length;
  outcome->metrics["alloc.dp_cells"] = per_request.dp_cells / stream_length;
  outcome->metrics["alloc.dp_table_mb_max"] = dp_table_mb_max;
  outcome->metrics["dse.memo_hit_ratio"] = hits / (hits + misses);
  outcome->metrics["dse.memo_load_ms"] = percentile(load_ms, 50);
  outcome->metrics["serve.exec_ms_p50"] = percentile(exec, 50);
  outcome->metrics["serve.queue_wait_ms_p50"] = percentile(queue_wait, 50);
  outcome->metrics["serve.queue_wait_ms_p99"] = percentile(queue_wait, 99);
  outcome->metrics["serve.rejected"] = static_cast<double>(rejected);
  outcome->metrics["trace.overhead_ms"] =
      replayed.ms / static_cast<double>(replayed.requests) -
      baseline.ms / static_cast<double>(baseline.requests);
  write_chrome_trace(config.work_dir + "/serve_mix.trace.json", spans);
}

}  // namespace perfbench
