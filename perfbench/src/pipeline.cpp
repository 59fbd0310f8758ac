#include "pipeline.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "alloc/item.hpp"
#include "alloc/knapsack.hpp"
#include "core/sparta.hpp"
#include "pim/cost_model.hpp"
#include "report/json.hpp"
#include "retiming/delta.hpp"
#include "retiming/retiming.hpp"
#include "sched/packer.hpp"
#include "sched/validator.hpp"

namespace perfbench {

namespace pc = paraconv;

namespace {

/// ParaConv::pack: packing and the per-edge delta pairs.
pc::core::PackedSchedule traced_pack(const pc::graph::TaskGraph& g,
                                     const pc::pim::PimConfig& config,
                                     pc::core::PackerKind packer,
                                     Tracer* tracer) {
  pc::core::PackedSchedule packed;
  {
    const ScopedSpan span(tracer, "sched.pack");
    g.validate();
    switch (packer) {
      case pc::core::PackerKind::kTopological:
        packed.packing = pc::sched::pack_topological(g, config.pe_count);
        break;
      case pc::core::PackerKind::kLocality:
        packed.packing = pc::sched::pack_locality(g, config);
        break;
      default:
        throw std::invalid_argument("the benchmark traces topo and locality");
    }
  }
  const ScopedSpan span(tracer, "retiming.deltas");
  const auto cost_model = pc::pim::make_cost_model(config);
  packed.deltas = pc::retiming::compute_edge_deltas(
      g, packed.packing.placement, packed.packing.period, config, *cost_model);
  return packed;
}

/// ParaConv::schedule_packed with the DP allocator (residency-aware off).
pc::core::ParaConvResult traced_schedule_packed(
    const pc::graph::TaskGraph& g, const pc::pim::PimConfig& config,
    std::int64_t iterations, const pc::core::PackedSchedule& packed,
    Tracer* tracer) {
  const pc::sched::Packing& packing = packed.packing;
  pc::core::ParaConvResult result;
  result.deltas = packed.deltas;
  {
    const ScopedSpan span(tracer, "alloc.items");
    result.items =
        pc::alloc::build_items(g, packing.placement, result.deltas);
  }
  const pc::Bytes capacity = config.total_cache_bytes();
  pc::alloc::AllocationResult allocation;
  {
    const ScopedSpan span(tracer, "alloc.allocate");
    allocation = pc::alloc::knapsack_allocate(
        g, result.items, pc::alloc::KnapsackOptions{capacity, kQuantumBytes});
  }
  {
    const ScopedSpan span(tracer, "retiming.minimal");
    std::vector<int> required(g.edge_count());
    for (const pc::graph::EdgeId e : g.edges()) {
      required[e.value] = allocation.site[e.value] == pc::pim::AllocSite::kCache
                              ? result.deltas[e.value].cache
                              : result.deltas[e.value].edram;
    }
    pc::retiming::Retiming retimed =
        pc::retiming::minimal_retiming(g, required);
    if (!pc::retiming::is_legal(g, retimed, required)) {
      throw std::logic_error("minimal retiming must be legal");
    }
    result.kernel.period = packing.period;
    result.kernel.placement = packing.placement;
    result.kernel.retiming = std::move(retimed.value);
    result.kernel.distance = std::move(required);
    result.kernel.allocation = allocation.site;
  }
  {
    const ScopedSpan span(tracer, "sched.validate");
    auto issues =
        pc::sched::validate_kernel_schedule(g, result.kernel, config, capacity);
    if (pc::sched::has_errors(issues)) {
      throw std::logic_error("invalid schedule: " +
                             pc::sched::render_errors(issues));
    }
    for (pc::sched::Diagnostic& d : issues) {
      result.diagnostics.push_back(std::move(d));
    }
  }

  pc::core::RunResult& m = result.metrics;
  m.scheduler = "Para-CONV";
  m.iteration_time = packing.period;
  m.r_max = result.kernel.r_max();
  m.prologue_time = packing.period * m.r_max;
  m.total_time = packing.period * (iterations + m.r_max);
  m.cached_iprs = allocation.cached_count;
  m.cache_bytes_used = allocation.cache_bytes_used;
  for (const pc::graph::EdgeId e : g.edges()) {
    if (result.kernel.allocation[e.value] == pc::pim::AllocSite::kEdram) {
      m.offchip_bytes_per_iteration += g.ipr(e).size;
    }
  }
  m.pe_utilization = static_cast<double>(g.total_work().value) /
                     (static_cast<double>(config.pe_count) *
                      static_cast<double>(packing.period.value));
  return result;
}

}  // namespace

DpSize dp_size(std::size_t items, std::int64_t capacity_bytes,
               std::int64_t quantum_bytes) {
  const auto columns =
      static_cast<std::uint64_t>(capacity_bytes / quantum_bytes) + 1;
  DpSize size;
  size.cells = (static_cast<std::uint64_t>(items) + 1) * columns;
  size.table_mb = static_cast<double>(size.cells * sizeof(int)) /
                  (1024.0 * 1024.0);
  return size;
}

pc::core::ParaConvResult traced_schedule(const pc::graph::TaskGraph& g,
                                         const pc::pim::PimConfig& config,
                                         pc::core::PackerKind packer,
                                         std::int64_t iterations,
                                         Tracer* tracer) {
  const ScopedSpan span(tracer, "core.schedule");
  config.validate();
  const pc::core::PackedSchedule packed = traced_pack(g, config, packer, tracer);
  return traced_schedule_packed(g, config, iterations, packed, tracer);
}

pc::dse::CellResult traced_cell(const pc::dse::SweepCase& sweep_case,
                                const pc::pim::PimConfig& config,
                                pc::core::PackerKind packer,
                                std::int64_t iterations,
                                std::uint64_t cell_seed, std::size_t index,
                                pc::dse::MemoCache* cache, Tracer* tracer) {
  if (config.cost_model != pc::pim::CostModelKind::kConstant) {
    throw std::invalid_argument("the benchmark traces the constant model");
  }
  const pc::graph::TaskGraph& g = sweep_case.graph;
  pc::dse::CellResult cell;
  cell.index = index;
  cell.benchmark = sweep_case.name;
  cell.batch = sweep_case.batch;
  cell.vertices = g.node_count();
  cell.edges = g.edge_count();
  cell.config = config;
  cell.packer = packer;
  cell.allocator = pc::core::AllocatorKind::kKnapsackDp;
  cell.cell_seed = cell_seed;

  pc::dse::MemoCache::Value packed;
  {
    const ScopedSpan span(tracer, "dse.memo_lookup");
    const pc::dse::PackingKey key = pc::dse::make_packing_key(
        g, config, packer, /*refine_steps=*/0, cell_seed);
    packed = cache->get_or_compute(
        key, [&] { return traced_pack(g, config, packer, tracer); });
  }
  pc::core::ParaConvResult result;
  {
    const ScopedSpan span(tracer, "core.schedule");
    config.validate();
    result = traced_schedule_packed(g, config, iterations, *packed, tracer);
  }
  cell.para = result.metrics;
  {
    const ScopedSpan span(tracer, "dse.energy");
    cell.energy_uj = pc::dse::estimate_energy_uj(g, config, result.kernel);
  }
  {
    const ScopedSpan span(tracer, "core.sparta");
    pc::core::SpartaOptions options;
    options.iterations = iterations;
    cell.sparta = pc::core::Sparta(config, options).schedule(g).metrics;
  }
  return cell;
}

std::string result_bytes(const pc::graph::TaskGraph& g,
                         const pc::core::ParaConvResult& result) {
  std::ostringstream out;
  out << pc::report::to_json(g, result.kernel).dump() << '\n'
      << pc::report::to_json(result.metrics).dump() << '\n';
  for (const pc::retiming::EdgeDelta& d : result.deltas) {
    out << d.cache << ',' << d.edram << ' ';
  }
  out << '\n';
  for (const pc::alloc::AllocationItem& item : result.items) {
    out << item.edge.value << ',' << item.size.value << ',' << item.profit
        << ',' << item.deadline.value << ' ';
  }
  out << '\n';
  for (const pc::sched::Diagnostic& d : result.diagnostics) {
    out << pc::sched::to_string(d) << '\n';
  }
  return out.str();
}

}  // namespace perfbench
