// paper_run: the `run` path. The twelve Table-1 graphs x PE {16, 64, 256,
// 1024}, dp allocator, topo packer; each input is one ParaConv::schedule
// plus one Sparta::schedule, serially on one thread with no memo.
#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/para_conv.hpp"
#include "core/sparta.hpp"
#include "graph/paper_benchmarks.hpp"
#include "harness.hpp"
#include "pipeline.hpp"
#include "report/json.hpp"
#include "requests.hpp"

namespace perfbench {
namespace {

namespace pc = paraconv;

constexpr int kPeCounts[] = {16, 64, 256, 1024};
constexpr std::int64_t kIterations = 100;
/// A run never measures longer than this, even when p99 still lacks
/// samples (the run must end well inside three minutes).
constexpr double kMaxMeasureSeconds = 120.0;

struct Input {
  std::string key;
  std::size_t graph{0};
  pc::pim::PimConfig config;
};

struct Pair {
  pc::core::RunResult para;
  pc::core::RunResult sparta;
};

Pair run_pair(const pc::graph::TaskGraph& g, const pc::pim::PimConfig& config) {
  pc::core::ParaConvOptions options;
  options.iterations = kIterations;
  pc::core::SpartaOptions base;
  base.iterations = kIterations;
  return {pc::core::ParaConv(config, options).schedule(g).metrics,
          pc::core::Sparta(config, base).schedule(g).metrics};
}

/// What `paraconv_cli run --json` reports for one input.
std::string pair_json(const pc::graph::TaskGraph& g, int pes, const Pair& pair) {
  pc::report::JsonValue out = pc::report::JsonValue::object();
  out.set("benchmark", g.name());
  out.set("pe_count", pes);
  out.set("para_conv", pc::report::to_json(pair.para));
  out.set("sparta", pc::report::to_json(pair.sparta));
  return out.dump();
}

/// The untraced measurement: whole passes over the inputs in a seeded
/// order, until `seconds` have passed and p99 has ten samples beyond it.
struct Measured {
  std::vector<double> op_ms;
  /// The same samples, per input.
  std::vector<std::vector<double>> input_ms;
  double total_ms{0.0};
};

/// `between_passes` runs before each pass, untimed.
Measured measure(const std::vector<pc::graph::TaskGraph>& graphs,
                 const std::vector<Input>& inputs, std::uint64_t seed,
                 double seconds, std::size_t min_samples, OutputCheck* check,
                 const std::function<void()>& between_passes) {
  Measured m;
  m.input_ms.resize(inputs.size());
  const Clock::time_point start = Clock::now();
  for (std::uint64_t pass = 0;; ++pass) {
    const double elapsed_s = ms_since(start) / 1000.0;
    if ((elapsed_s >= seconds && m.op_ms.size() >= min_samples) ||
        elapsed_s >= kMaxMeasureSeconds) {
      break;
    }
    between_passes();
    for (const std::size_t i : seeded_order(inputs.size(), seed + pass)) {
      const Input& in = inputs[i];
      const Clock::time_point t0 = Clock::now();
      const Pair pair = run_pair(graphs[in.graph], in.config);
      const double ms = ms_since(t0);
      m.op_ms.push_back(ms);
      m.input_ms[i].push_back(ms);
      m.total_ms += ms;
      check->check(in.key, pair_json(graphs[in.graph], in.config.pe_count, pair));
    }
  }
  return m;
}

}  // namespace

void run_paper(const RunConfig& config, Outcome* outcome) {
  // First, so that its resident buffer is under every later peak.
  Calibration calibration(CalibrationKind::kMemory);
  OutputCheck check(config, &outcome->checks);
  const bool traced = config.trace && !config.write_reference;

  // Set-up: build the paper graphs, several times.
  Tracer setup_tracer(0);
  std::vector<pc::graph::TaskGraph> graphs;
  SetupTimer setups([&] {
    std::vector<pc::graph::TaskGraph> built;
    for (const pc::graph::PaperBenchmark& bench : pc::graph::paper_benchmarks()) {
      const ScopedSpan span(traced ? &setup_tracer : nullptr, "graph.build");
      built.push_back(pc::graph::build_paper_benchmark(bench));
    }
    return built;
  });
  for (int group = 0; group < (traced ? kSetupGroups : 1); ++group) {
    setups.group(&graphs);
  }

  std::vector<Input> inputs;
  for (const int pes : kPeCounts) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      inputs.push_back({graphs[i].name() + "/pe" + std::to_string(pes), i,
                        pc::pim::PimConfig::neurocube(pes)});
    }
  }

  // One pass in canonical order: the pinned outputs and the sim metrics.
  std::vector<double> speedups;
  std::vector<double> r_max;
  for (const Input& in : inputs) {
    const Pair pair = run_pair(graphs[in.graph], in.config);
    check.check(in.key, pair_json(graphs[in.graph], in.config.pe_count, pair));
    speedups.push_back(pc::core::speedup(pair.sparta, pair.para));
    r_max.push_back(pair.para.r_max);
  }
  add_sim_metrics(speedups, r_max, &check, outcome);
  check.save();
  if (config.write_reference) return;

  if (!traced) {
    std::vector<pc::graph::TaskGraph> rebuilt;
    const Measured m = measure(graphs, inputs, config.seed, config.seconds,
                               samples_needed(99, 10), &check, [&] {
                                 if (calibration.sample_if_due()) setups.group(&rebuilt);
                               });
    const double f = calibration.factor();
    // The inputs are a fixed set, so schedule times cluster per input and
    // the sample median sits on the edge between two inputs' clusters,
    // reading the slowest sample of one; the median input's median time
    // reads the middle of a cluster instead.
    const double run_p50 = median_input(m.input_ms) * f;
    const double run_p99 = percentile(m.op_ms, 99) * f;
    const double per_s =
        static_cast<double>(m.op_ms.size()) / (m.total_ms * f / 1000.0);
    outcome->metrics["setup_s"] = setups.setup_s() * f;
    outcome->metrics["run_ms_p50"] = run_p50;
    outcome->metrics["run_ms_p99"] = run_p99;
    outcome->metrics["sweep_cells_per_s"] = per_s;
    // One serial caller and no daemon: serving an input costs its run.
    outcome->metrics["serve_ms_p50"] = run_p50;
    outcome->metrics["serve_ms_p99"] = run_p99;
    outcome->metrics["serve_rps"] = per_s;
    outcome->metrics["peak_rss_mb"] = peak_rss_mb();
    outcome->notes.push_back("run samples " + std::to_string(m.op_ms.size()) +
                             " (" + std::to_string(samples_beyond(m.op_ms.size(), 99)) +
                             " beyond p99)");
    outcome->notes.push_back(calibration.describe());
    return;
  }

  // Traced run. Decomposition check and counts: every input once.
  double items = 0.0;
  double dp_cells = 0.0;
  double dp_table_mb_max = 0.0;
  for (const Input& in : inputs) {
    const Decomposed d =
        check_decomposition(graphs[in.graph], in.config, pc::core::PackerKind::kTopological,
                            kIterations, in.key, &outcome->checks);
    items += static_cast<double>(d.items);
    dp_cells += static_cast<double>(d.dp.cells);
    dp_table_mb_max = std::max(dp_table_mb_max, d.dp.table_mb);
  }

  // Half the time untraced, as the overhead baseline; half traced.
  const Measured untraced =
      measure(graphs, inputs, config.seed, config.seconds / 2, 0, &check, [] {});
  Tracer tracer(0);
  std::size_t ops = 0;
  double traced_ms = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t pass = 0; ms_since(start) < config.seconds * 500.0; ++pass) {
    for (const std::size_t i : seeded_order(inputs.size(), config.seed + pass)) {
      const Input& in = inputs[i];
      const pc::graph::TaskGraph& g = graphs[in.graph];
      tracer.set_request(ops);
      Pair pair;
      const Clock::time_point t0 = Clock::now();
      {
        const ScopedSpan op(&tracer, "paper.run");
        pair.para = traced_schedule(g, in.config, pc::core::PackerKind::kTopological,
                                    kIterations, &tracer)
                        .metrics;
        const ScopedSpan sparta(&tracer, "core.sparta");
        pc::core::SpartaOptions base;
        base.iterations = kIterations;
        pair.sparta = pc::core::Sparta(in.config, base).schedule(g).metrics;
      }
      traced_ms += ms_since(t0);
      ++ops;
      check.check(in.key, pair_json(g, in.config.pe_count, pair));
    }
  }

  const double passes = static_cast<double>(ops) / static_cast<double>(inputs.size());
  const auto totals = layer_totals(tracer.spans());
  add_layer_times(layer_totals(setup_tracer.spans()), kSetupRepeats, outcome);
  add_layer_times(totals, passes, outcome);
  add_coverage(totals, outcome);
  outcome->metrics["alloc.items"] = items;
  outcome->metrics["alloc.dp_cells"] = dp_cells;
  outcome->metrics["alloc.dp_table_mb_max"] = dp_table_mb_max;
  outcome->metrics["trace.overhead_ms"] =
      traced_ms / static_cast<double>(ops) -
      untraced.total_ms / static_cast<double>(untraced.op_ms.size());
  write_chrome_trace(config.work_dir + "/paper_run.trace.json", tracer.spans());
}

}  // namespace perfbench
