#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <stdexcept>

namespace perfbench {

void Checks::record(bool ok, const std::string& what) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

void Checks::expect_equal(const std::string& what, const std::string& expected,
                          const std::string& actual) {
  if (expected == actual) {
    record(true, what);
    return;
  }
  record(false, what + ": expected " + expected.substr(0, 200) + " got " +
                    actual.substr(0, 200));
}

std::uint64_t Checks::attempted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::uint64_t Checks::failed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::vector<std::string> Checks::failures() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

namespace {

std::string reference_path(const RunConfig& config) {
  return config.reference_dir + "/" + config.workload + ".ref";
}

}  // namespace

OutputCheck::OutputCheck(const RunConfig& config, Checks* checks)
    : config_(config), checks_(checks) {
  if (config.write_reference) return;
  std::ifstream in(reference_path(config));
  if (!in) throw std::runtime_error("missing reference " + reference_path(config));
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      throw std::runtime_error("malformed reference line in " +
                               reference_path(config));
    }
    pinned_[line.substr(0, tab)] = line.substr(tab + 1);
  }
}

bool OutputCheck::check(const std::string& key, const std::string& actual) {
  if (config_.write_reference) {
    if (pinned_.emplace(key, actual).second) order_.push_back(key);
    return true;
  }
  const auto it = pinned_.find(key);
  if (it == pinned_.end()) {
    checks_->record(false, key + ": no pinned reference");
    return false;
  }
  checks_->expect_equal(key, it->second, actual);
  return it->second == actual;
}

void OutputCheck::save() const {
  if (!config_.write_reference) return;
  std::ofstream out(reference_path(config_));
  if (!out) throw std::runtime_error("cannot write " + reference_path(config_));
  for (const std::string& key : order_) {
    out << key << '\t' << pinned_.at(key) << '\n';
  }
}

std::string exact(double value) {
  char buf[64];
  const auto [end, error] = std::to_chars(buf, buf + sizeof(buf), value);
  if (error != std::errc{}) throw std::runtime_error("cannot format a double");
  return std::string(buf, end);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"run_ms_p50", "ms"},
      {"run_ms_p99", "ms"},
      {"sweep_cells_per_s", "cells/s"},
      {"serve_ms_p50", "ms"},
      {"serve_ms_p99", "ms"},
      {"serve_rps", "req/s"},
      {"peak_rss_mb", "MB"},
      {"sim_speedup_geomean", "x"},
      {"sim_r_max_mean", "units"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"graph.build_ms", "ms"},
      {"cnn.lower_ms", "ms"},
      {"cnn.lowered_tasks", "count"},
      {"sched.pack_ms", "ms"},
      {"sched.validate_ms", "ms"},
      {"retiming.deltas_ms", "ms"},
      {"retiming.minimal_ms", "ms"},
      {"alloc.items_ms", "ms"},
      {"alloc.allocate_ms", "ms"},
      {"alloc.items", "count"},
      {"alloc.dp_cells", "count"},
      {"alloc.dp_table_mb_max", "MB"},
      {"core.schedule_ms", "ms"},
      {"core.schedule_unattributed_ms", "ms"},
      {"core.sparta_ms", "ms"},
      {"dse.memo_lookup_ms", "ms"},
      {"dse.memo_hit_ratio", "share"},
      {"dse.memo_load_ms", "ms"},
      {"dse.energy_ms", "ms"},
      {"dse.checkpoint_append_ms", "ms"},
      {"dse.checkpoint_bytes", "bytes"},
      {"dse.emit_csv_ms", "ms"},
      {"dse.emit_json_ms", "ms"},
      {"dse.frontier_ms", "ms"},
      {"dse.pool_idle_share", "share"},
      {"serve.parse_ms", "ms"},
      {"serve.respond_ms", "ms"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.rejected", "count"},
      {"error_ratio", "share"},
      {"trace.coverage", "share"},
      {"trace.overhead_ms", "ms"},
  };
  return specs;
}

void add_layer_times(const std::map<std::string, LayerTotals>& totals,
                     double units, Outcome* outcome) {
  static const char* const kSelfTimed[] = {
      "graph.build",      "cnn.lower",        "sched.pack",
      "sched.validate",   "retiming.deltas",  "retiming.minimal",
      "alloc.items",      "alloc.allocate",   "core.sparta",
      "dse.memo_lookup",  "dse.energy",       "dse.checkpoint_append",
      "dse.emit_csv",     "dse.emit_json",    "dse.frontier",
      "serve.parse",      "serve.respond",
  };
  const auto per_unit_ms = [units](std::int64_t ns) {
    return static_cast<double>(ns) / 1e6 / units;
  };
  for (const char* name : kSelfTimed) {
    const auto it = totals.find(name);
    if (it == totals.end()) continue;
    outcome->metrics[std::string(name) + "_ms"] += per_unit_ms(it->second.self_ns);
  }
  const auto schedule = totals.find("core.schedule");
  if (schedule != totals.end()) {
    outcome->metrics["core.schedule_ms"] += per_unit_ms(schedule->second.total_ns);
    outcome->metrics["core.schedule_unattributed_ms"] +=
        per_unit_ms(schedule->second.self_ns);
  }
}

void add_sim_metrics(const std::vector<double>& speedups,
                     const std::vector<double>& r_max, OutputCheck* check,
                     Outcome* outcome) {
  const double speedup = geomean(speedups);
  const double r_max_mean = mean(r_max);
  check->check("sim", exact(speedup) + " " + exact(r_max_mean));
  outcome->metrics["sim_speedup_geomean"] = speedup;
  outcome->metrics["sim_r_max_mean"] = r_max_mean;
  outcome->notes.push_back(
      "sim_speedup_geomean " + exact(speedup) + " x over " +
      std::to_string(speedups.size()) +
      " results (simulated by the repository's unvalidated model; the "
      "paper's Table 1 reports 1.87x)");
}

void add_coverage(const std::map<std::string, LayerTotals>& totals,
                  Outcome* outcome) {
  double lowest = 1.0;
  for (const char* parent : {"core.schedule", "dse.cell", "serve.request"}) {
    if (totals.count(parent) == 0) continue;
    const double covered = child_coverage(totals, parent);
    lowest = std::min(lowest, covered);
    outcome->notes.push_back(std::string("coverage of ") + parent + " " +
                             exact(covered));
  }
  outcome->metrics["trace.coverage"] = lowest;
  outcome->checks.record(lowest >= 0.95,
                         "layer spans cover " + exact(lowest) +
                             " of their parent, below 0.95");
}

Decomposed check_decomposition(const paraconv::graph::TaskGraph& g,
                               const paraconv::pim::PimConfig& config,
                               paraconv::core::PackerKind packer,
                               std::int64_t iterations, const std::string& key,
                               Checks* checks) {
  paraconv::core::ParaConvOptions options;
  options.iterations = iterations;
  options.packer = packer;
  const paraconv::core::ParaConvResult library =
      paraconv::core::ParaConv(config, options).schedule(g);
  const paraconv::core::ParaConvResult rebuilt =
      traced_schedule(g, config, packer, iterations, nullptr);
  checks->expect_equal("decomposition " + key, result_bytes(g, library),
                       result_bytes(g, rebuilt));
  return {rebuilt.items.size(),
          dp_size(rebuilt.items.size(), config.total_cache_bytes().value,
                  kQuantumBytes)};
}

double ms_since(Clock::time_point start) {
  return elapsed_ms(start, Clock::now());
}

}  // namespace perfbench
