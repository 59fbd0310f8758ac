// zoo_sweep: the `sweep` path. dse::run_sweep over the five zoo workloads x
// batch {1, 8, 32} x PE {64, 256} x packers {topo, locality}, dp allocator,
// jobs = 2; each pass also emits CSV, JSON and the frontier, as
// `paraconv_cli sweep --out ...` does, and the traced passes also write a
// checkpoint, as `--checkpoint` does.
// Between sweep passes the same 60 cells go serially through the `run`
// path (ParaConv::schedule + Sparta::schedule), which gives run_ms.
#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cnn/workload.hpp"
#include "core/para_conv.hpp"
#include "core/sparta.hpp"
#include "dse/checkpoint.hpp"
#include "dse/frontier.hpp"
#include "dse/sweep.hpp"
#include "harness.hpp"
#include "pipeline.hpp"
#include "report/json.hpp"
#include "requests.hpp"

namespace perfbench {
namespace {

namespace pc = paraconv;

constexpr int kBatches[] = {1, 8, 32};
constexpr int kPeCounts[] = {64, 256};
constexpr int kJobs = 2;
constexpr std::int64_t kIterations = 100;

struct Paths {
  std::string checkpoint;
  std::string csv;
  std::string json;
  std::string frontier;
};

pc::dse::GridSpec build_grid(Tracer* tracer, double* lowered_tasks) {
  pc::dse::GridSpec spec;
  spec.iterations = kIterations;
  spec.packers = {pc::core::PackerKind::kTopological,
                  pc::core::PackerKind::kLocality};
  *lowered_tasks = 0.0;
  for (const std::string& name : pc::cnn::zoo_workload_names()) {
    for (const int batch : kBatches) {
      const ScopedSpan span(tracer, "cnn.lower");
      const pc::cnn::Workload workload = pc::cnn::zoo_workload(name);
      spec.cases.push_back({workload.net.name(),
                            pc::cnn::lower_workload(workload, batch), batch});
      *lowered_tasks += static_cast<double>(spec.cases.back().graph.node_count());
    }
  }
  for (const int pes : kPeCounts) {
    spec.configs.push_back(pc::pim::PimConfig::neurocube(pes));
  }
  return spec;
}

pc::dse::SweepOptions sweep_options(const RunConfig& config,
                                    const std::string& checkpoint) {
  pc::dse::SweepOptions options;
  options.jobs = kJobs;
  options.seed = config.seed;
  options.checkpoint_path = checkpoint;
  return options;
}

/// CSV, JSON and frontier reports of a finished sweep, with a span each.
void emit(const pc::dse::SweepResult& sweep, const Paths& paths, Tracer* tracer) {
  {
    const ScopedSpan span(tracer, "dse.emit_csv");
    std::ofstream out(paths.csv);
    pc::dse::write_sweep_csv(out, sweep);
  }
  {
    const ScopedSpan span(tracer, "dse.emit_json");
    std::ofstream out(paths.json);
    out << pc::dse::sweep_to_json(sweep).dump(/*pretty=*/true) << "\n";
  }
  const ScopedSpan span(tracer, "dse.frontier");
  std::ofstream out(paths.frontier);
  pc::dse::write_frontier_csv(out, sweep);
}

void check_cells(const pc::dse::SweepResult& sweep, OutputCheck* check) {
  for (const pc::dse::CellResult& cell : sweep.cells) {
    check->check(std::to_string(cell.index),
                 pc::dse::cell_to_json(cell).dump());
  }
}

struct SweepPass {
  /// The whole pass: sweep plus reports.
  double ms{0.0};
  /// run_sweep's own SweepResult::wall_seconds, in ms: the cells on the
  /// dse::ThreadPool, from before the pool starts to after it joins.
  double pool_wall_ms{0.0};
};

/// One untraced dse::run_sweep pass with its reports.
SweepPass sweep_pass(const pc::dse::GridSpec& spec,
                     const pc::dse::SweepOptions& options, const Paths& paths,
                     OutputCheck* check) {
  const Clock::time_point t0 = Clock::now();
  const pc::dse::SweepResult sweep = pc::dse::run_sweep(spec, options);
  emit(sweep, paths, nullptr);
  const double ms = ms_since(t0);
  check_cells(sweep, check);
  return {ms, sweep.wall_seconds * 1000.0};
}

struct Replayed {
  pc::dse::SweepResult sweep;
  /// The whole pass: cells plus reports.
  double ms{0.0};
  /// Summed over cells: each cell's calls and its checkpoint append.
  double busy_ms{0.0};
};

/// One sweep pass rebuilt from its calls: each cell's pipeline
/// (traced_cell) and CheckpointWriter::append on kJobs threads that take
/// cells from a shared cursor, then the reports. This replays run_sweep's
/// cell work, not its dispatch through dse::ThreadPool. With `tracers`
/// (one per thread, then one for the pass) every call gets a span; without,
/// the pass runs untraced.
Replayed replay_pass(const pc::dse::GridSpec& spec,
                     const pc::dse::SweepOptions& options,
                     std::uint64_t fingerprint, const Paths& paths,
                     std::size_t pass, std::vector<Tracer>* tracers,
                     Checks* checks) {
  const std::size_t cells = spec.cell_count();
  const auto tracer_of = [tracers](int t) {
    return tracers != nullptr ? &(*tracers)[static_cast<std::size_t>(t)] : nullptr;
  };
  Tracer* pass_tracer = tracer_of(kJobs);
  if (pass_tracer != nullptr) pass_tracer->set_request(pass * cells);
  Replayed replayed;
  const Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan pass_span(pass_tracer, "dse.pass");
    pc::dse::MemoCache cache;
    pc::dse::SweepResult& sweep = replayed.sweep;
    sweep.jobs_used = kJobs;
    sweep.cells.resize(cells);
    pc::dse::CheckpointWriter writer(paths.checkpoint, fingerprint, cells,
                                     std::nullopt);
    std::atomic<std::size_t> cursor{0};
    std::vector<double> worker_busy(kJobs, 0.0);
    {
      std::vector<std::jthread> workers;
      for (int t = 0; t < kJobs; ++t) {
        workers.emplace_back([&, t] {
          Tracer* tracer = tracer_of(t);
          for (std::size_t index = cursor.fetch_add(1); index < cells;
               index = cursor.fetch_add(1)) {
            const pc::dse::GridSpec::Coordinates at = spec.coordinates(index);
            if (tracer != nullptr) tracer->set_request(pass * cells + index);
            const Clock::time_point c0 = Clock::now();
            try {
              const ScopedSpan cell_span(tracer, "dse.cell");
              pc::dse::CellResult cell = traced_cell(
                  spec.cases[at.case_index], spec.configs[at.config_index],
                  spec.packers[at.packer_index], kIterations,
                  pc::dse::cell_seed(options.seed, index), index, &cache, tracer);
              {
                const ScopedSpan append(tracer, "dse.checkpoint_append");
                writer.append(cell);
              }
              sweep.cells[index] = std::move(cell);
            } catch (const std::exception& error) {
              // The cell keeps its default value and fails the output check.
              checks->record(false, "replayed cell " + std::to_string(index) +
                                        ": " + error.what());
            }
            worker_busy[static_cast<std::size_t>(t)] += ms_since(c0);
          }
        });
      }
    }
    for (const double ms : worker_busy) replayed.busy_ms += ms;
    sweep.cache_stats = cache.stats();
    sweep.cells_ok = cells;
    emit(sweep, paths, pass_tracer);
  }
  replayed.ms = ms_since(t0);
  return replayed;
}

/// "<para_conv JSON> <sparta JSON>" of one cell, for the run-path check.
std::string run_json(const pc::core::RunResult& para,
                     const pc::core::RunResult& sparta) {
  return pc::report::to_json(para).dump() + " " + pc::report::to_json(sparta).dump();
}

}  // namespace

void run_zoo(const RunConfig& config, Outcome* outcome) {
  // First, so that its resident buffer is under every later peak.
  Calibration calibration(CalibrationKind::kMixed);
  OutputCheck check(config, &outcome->checks);
  const bool traced = config.trace && !config.write_reference;
  const Paths paths{config.work_dir + "/zoo.checkpoint",
                    config.work_dir + "/zoo.csv", config.work_dir + "/zoo.json",
                    config.work_dir + "/zoo_frontier.csv"};

  // Set-up: parse and lower the zoo and build the grid, several times.
  Tracer setup_tracer(0);
  pc::dse::GridSpec spec;
  double lowered_tasks = 0.0;
  SetupTimer setups(
      [&] { return build_grid(traced ? &setup_tracer : nullptr, &lowered_tasks); });
  for (int group = 0; group < (traced ? kSetupGroups : 1); ++group) {
    setups.group(&spec);
  }
  const std::size_t cells = spec.cell_count();
  const pc::dse::SweepOptions options = sweep_options(config, paths.checkpoint);

  // One serial sweep: the pinned cells and the sim metrics.
  pc::dse::SweepOptions serial = sweep_options(config, "");
  serial.jobs = 1;
  const pc::dse::SweepResult canonical = pc::dse::run_sweep(spec, serial);
  check_cells(canonical, &check);
  std::vector<double> speedups;
  std::vector<double> r_max;
  for (const pc::dse::CellResult& cell : canonical.cells) {
    speedups.push_back(pc::core::speedup(cell.sparta, cell.para));
    r_max.push_back(cell.para.r_max);
  }
  add_sim_metrics(speedups, r_max, &check, outcome);
  check.save();
  if (config.write_reference) return;

  if (!traced) {
    // The untraced passes write no checkpoint: its per-record fsync costs
    // what the disk costs, and on a shared disk that varied several-fold
    // between runs. The traced run measures it (dse.checkpoint_append_ms).
    const pc::dse::SweepOptions no_checkpoint = sweep_options(config, "");
    std::vector<double> sweep_ms;
    std::vector<double> run_ms;
    std::vector<std::vector<double>> run_cell_ms(cells);
    double run_total_ms = 0.0;
    for (const Clock::time_point warm = Clock::now();
         ms_since(warm) < kWarmupSeconds * 1000.0;) {
      sweep_pass(spec, no_checkpoint, paths, &check);
    }
    pc::dse::GridSpec rebuilt;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t pass = 0; ms_since(start) < config.seconds * 1000.0; ++pass) {
      if (calibration.sample_if_due()) setups.group(&rebuilt);
      sweep_ms.push_back(sweep_pass(spec, no_checkpoint, paths, &check).ms);
      for (const std::size_t index : seeded_order(cells, config.seed + pass)) {
        const pc::dse::GridSpec::Coordinates at = spec.coordinates(index);
        const pc::graph::TaskGraph& g = spec.cases[at.case_index].graph;
        const pc::pim::PimConfig& cfg = spec.configs[at.config_index];
        pc::core::ParaConvOptions para_options;
        para_options.iterations = kIterations;
        para_options.packer = spec.packers[at.packer_index];
        pc::core::SpartaOptions base;
        base.iterations = kIterations;
        const Clock::time_point t0 = Clock::now();
        const pc::core::RunResult para =
            pc::core::ParaConv(cfg, para_options).schedule(g).metrics;
        const pc::core::RunResult sparta =
            pc::core::Sparta(cfg, base).schedule(g).metrics;
        const double ms = ms_since(t0);
        run_ms.push_back(ms);
        run_cell_ms[index].push_back(ms);
        run_total_ms += ms;
        outcome->checks.expect_equal(
            "run " + std::to_string(index),
            run_json(canonical.cells[index].para, canonical.cells[index].sparta),
            run_json(para, sparta));
      }
    }
    // See paper_run.cpp for why run_ms_p50 is the median cell's median.
    const double f = calibration.factor();
    const double run_p50 = median_input(run_cell_ms) * f;
    const double run_p99 = percentile(run_ms, 99) * f;
    const double run_per_s =
        static_cast<double>(run_ms.size()) / (run_total_ms * f / 1000.0);
    outcome->metrics["setup_s"] = setups.setup_s() * f;
    // The median pass, not the mean: for seconds at a time the two
    // workers ran at half speed, as if they shared one CPU.
    outcome->metrics["sweep_cells_per_s"] =
        static_cast<double>(cells) /
        (percentile(sweep_ms, 50) * f / 1000.0);
    outcome->metrics["run_ms_p50"] = run_p50;
    outcome->metrics["run_ms_p99"] = run_p99;
    // The run pass is one serial caller with no daemon: serving a cell
    // costs its run.
    outcome->metrics["serve_ms_p50"] = run_p50;
    outcome->metrics["serve_ms_p99"] = run_p99;
    outcome->metrics["serve_rps"] = run_per_s;
    outcome->metrics["peak_rss_mb"] = peak_rss_mb();
    outcome->notes.push_back(
        "sweep passes " + std::to_string(sweep_ms.size()) + ", run samples " +
        std::to_string(run_ms.size()) + " (" +
        std::to_string(samples_beyond(run_ms.size(), 99)) + " beyond p99)");
    outcome->notes.push_back(calibration.describe());
    return;
  }

  // Traced run. Decomposition check and counts: every cell once.
  double items = 0.0;
  double dp_cells = 0.0;
  double dp_table_mb_max = 0.0;
  for (std::size_t index = 0; index < cells; ++index) {
    const pc::dse::GridSpec::Coordinates at = spec.coordinates(index);
    const Decomposed d = check_decomposition(
        spec.cases[at.case_index].graph, spec.configs[at.config_index],
        spec.packers[at.packer_index], kIterations, std::to_string(index),
        &outcome->checks);
    items += static_cast<double>(d.items);
    dp_cells += static_cast<double>(d.dp.cells);
    dp_table_mb_max = std::max(dp_table_mb_max, d.dp.table_mb);
  }

  // The measured time, three passes in turn: dse::run_sweep itself, for
  // the pool's wall time; the replay untraced, for the cells' busy time and
  // as the overhead baseline; the replay traced, for the spans.
  const std::uint64_t fingerprint = pc::dse::sweep_fingerprint(spec, options);
  std::vector<Tracer> tracers;
  for (int t = 0; t <= kJobs; ++t) tracers.emplace_back(t);
  std::size_t passes = 0;
  double pool_wall_ms = 0.0;
  double busy_ms = 0.0;
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  double memo_hits = 0.0;
  double memo_lookups = 0.0;
  double checkpoint_bytes = 0.0;
  const Clock::time_point start = Clock::now();
  while (ms_since(start) < config.seconds * 1000.0) {
    pool_wall_ms += sweep_pass(spec, options, paths, &check).pool_wall_ms;
    const Replayed baseline = replay_pass(spec, options, fingerprint, paths,
                                          passes, nullptr, &outcome->checks);
    check_cells(baseline.sweep, &check);
    busy_ms += baseline.busy_ms;
    untraced_ms += baseline.ms;
    const Replayed replayed = replay_pass(spec, options, fingerprint, paths,
                                          passes, &tracers, &outcome->checks);
    check_cells(replayed.sweep, &check);
    traced_ms += replayed.ms;
    memo_hits += static_cast<double>(replayed.sweep.cache_stats.hits);
    memo_lookups += static_cast<double>(replayed.sweep.cache_stats.hits +
                                        replayed.sweep.cache_stats.misses);
    checkpoint_bytes = static_cast<double>(std::filesystem::file_size(paths.checkpoint));
    ++passes;
  }

  std::vector<Span> spans;
  for (const Tracer& t : tracers) merge_spans(&spans, t.spans());
  const auto totals = layer_totals(spans);
  add_layer_times(layer_totals(setup_tracer.spans()), kSetupRepeats, outcome);
  add_layer_times(totals, static_cast<double>(passes), outcome);
  add_coverage(totals, outcome);
  outcome->metrics["cnn.lowered_tasks"] = lowered_tasks;
  outcome->metrics["alloc.items"] = items;
  outcome->metrics["alloc.dp_cells"] = dp_cells;
  outcome->metrics["alloc.dp_table_mb_max"] = dp_table_mb_max;
  outcome->metrics["dse.memo_hit_ratio"] = memo_hits / memo_lookups;
  outcome->metrics["dse.checkpoint_bytes"] = checkpoint_bytes;
  // The cells' busy time on the replay against the pool's wall time in
  // run_sweep: the share of the pool's thread time not spent on cells.
  outcome->metrics["dse.pool_idle_share"] =
      1.0 - busy_ms / (kJobs * pool_wall_ms);
  outcome->metrics["trace.overhead_ms"] =
      (traced_ms - untraced_ms) / static_cast<double>(passes);
  write_chrome_trace(config.work_dir + "/zoo_sweep.trace.json", spans);
}

}  // namespace perfbench
