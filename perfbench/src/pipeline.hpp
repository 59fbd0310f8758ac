// The Para-CONV pipeline rebuilt from the library's public calls, in the
// order core::ParaConv and dse::evaluate_cell make them, with a span around
// each call:
//
//   sched.pack        g.validate + sched::pack_topological / pack_locality
//   retiming.deltas   pim::make_cost_model + retiming::compute_edge_deltas
//   alloc.items       alloc::build_items
//   alloc.allocate    alloc::knapsack_allocate
//   retiming.minimal  required distances + retiming::minimal_retiming
//   sched.validate    sched::validate_kernel_schedule
//   dse.energy        dse::estimate_energy_uj
//   core.sparta       core::Sparta::schedule
//
// The traced workloads run this instead of the library's composite entry
// points; the decomposition check proves it returns the same bytes.
#pragma once

#include <cstdint>
#include <string>

#include "core/para_conv.hpp"
#include "dse/memo_cache.hpp"
#include "dse/sweep.hpp"
#include "trace.hpp"

namespace perfbench {

/// Knapsack capacity cell, as core::ParaConvOptions defaults it.
inline constexpr std::int64_t kQuantumBytes = 256;

/// Size of the allocation DP for one call, computed from the item count
/// and the capacity: (n + 1) x (floor(S / quantum) + 1) cells of int.
struct DpSize {
  std::uint64_t cells{0};
  double table_mb{0.0};
};
DpSize dp_size(std::size_t items, std::int64_t capacity_bytes,
               std::int64_t quantum_bytes);

/// ParaConv::schedule with the DP allocator (residency-aware off): a
/// core.schedule span over the packing and allocation steps.
paraconv::core::ParaConvResult traced_schedule(
    const paraconv::graph::TaskGraph& g, const paraconv::pim::PimConfig& config,
    paraconv::core::PackerKind packer, std::int64_t iterations,
    Tracer* tracer);

/// dse::evaluate_cell with the DP allocator, the SPARTA baseline and a memo
/// cache: dse.memo_lookup (whose miss path packs), core.schedule over the
/// allocation steps, dse.energy and core.sparta. `index` becomes the
/// cell's grid index.
paraconv::dse::CellResult traced_cell(
    const paraconv::dse::SweepCase& sweep_case,
    const paraconv::pim::PimConfig& config, paraconv::core::PackerKind packer,
    std::int64_t iterations, std::uint64_t cell_seed, std::size_t index,
    paraconv::dse::MemoCache* cache, Tracer* tracer);

/// Canonical bytes of a schedule result: kernel, metrics, deltas, items
/// and diagnostics. Equal bytes mean equal results.
std::string result_bytes(const paraconv::graph::TaskGraph& g,
                         const paraconv::core::ParaConvResult& result);

}  // namespace perfbench
