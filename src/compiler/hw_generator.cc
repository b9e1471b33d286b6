#include "compiler/hw_generator.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "strider/codegen.h"

namespace dana::compiler {

std::string DesignPoint::ToString() const {
  std::ostringstream os;
  os << "threads=" << num_threads << " acs/thread=" << acs_per_thread
     << " aus=" << total_aus << " page_buffers=" << num_page_buffers
     << " tuple_makespan=" << tuple_schedule.makespan
     << " batch_makespan=" << batch_schedule.makespan
     << " est_cycles/epoch=" << est_cycles_per_epoch;
  return os.str();
}

uint64_t MergeCycles(uint32_t threads, uint64_t merge_elems,
                     uint64_t model_elems, uint32_t lanes) {
  if (lanes == 0) lanes = 1;
  uint64_t cycles = 0;
  // The computation-enabled tree bus (§5.2) combines partials in flight:
  // all threads stream their merge payload simultaneously, junction ALUs
  // add pairwise, and the root drains one element per lane per cycle —
  // so merging costs the payload length plus the tree's pipeline depth,
  // independent of the thread count.
  if (merge_elems > 0) {
    cycles += (merge_elems + lanes - 1) / lanes;
    uint32_t depth = 0;
    for (uint32_t t = 1; t < threads; t <<= 1) ++depth;
    cycles += depth;
  }
  // Updated model broadcast back to the threads' scratchpads (the shared
  // bus is snooped, so one pass serves every thread).
  cycles += (model_elems + lanes - 1) / lanes;
  return cycles;
}

uint64_t EstimateEpochCycles(const ScalarProgram& prog,
                             const DesignPoint& design, const FpgaSpec& fpga,
                             const storage::PageLayout& layout,
                             const WorkloadShape& shape,
                             double bandwidth_scale) {
  const uint64_t tuples = shape.num_tuples;
  if (tuples == 0) return 0;
  const uint32_t threads = design.num_threads;

  // Batch structure: one batch == merge_coef tuples (1 when no merge);
  // each thread runs ceil(batch/threads) update-rule instances serially.
  const uint64_t batch = std::max<uint32_t>(prog.merge_coef, 1);
  const uint64_t num_batches = (tuples + batch - 1) / batch;
  const uint64_t rule_runs_per_batch = (batch + threads - 1) / threads;

  const uint64_t per_batch_cycles =
      rule_runs_per_batch *
          std::max<uint64_t>(design.tuple_schedule.EffectiveMakespan(
                                 design.inter_ac_bus_lanes, threads),
                             1) +
      MergeCycles(threads, prog.merge_slots.size(), prog.ModelElements(),
                  design.tree_bus_lanes) +
      design.batch_schedule.makespan;
  const uint64_t engine_cycles = num_batches * per_batch_cycles;

  // Access engine: AXI transfer of every page plus the Strider walk,
  // parallel across page buffers.
  const double axi_bpc = fpga.AxiBytesPerCycle() * bandwidth_scale;
  const uint64_t axi_cycles = static_cast<uint64_t>(
      std::ceil(static_cast<double>(shape.num_pages) * layout.page_size /
                std::max(axi_bpc, 1e-9)));
  const uint64_t strider_cycles_per_page = strider::EstimatePageWalkCycles(
      layout, shape.tuples_per_page, shape.tuple_payload_bytes);
  const uint64_t strider_cycles =
      shape.num_pages * strider_cycles_per_page /
      std::max<uint32_t>(design.num_page_buffers, 1);

  // The access and execution engines interleave (§5.1): with at least two
  // page buffers the walk of page i+1 overlaps compute on page i, so the
  // epoch runs at the rate of the slowest stage; a single buffer
  // serializes the stages.
  const uint64_t epoch_ops = design.epoch_schedule.makespan;
  if (design.num_page_buffers >= 2) {
    return std::max({axi_cycles, strider_cycles, engine_cycles}) +
           strider_cycles_per_page +  // pipeline fill
           epoch_ops;
  }
  return axi_cycles + strider_cycles + engine_cycles + epoch_ops;
}

Result<DesignPoint> HardwareGenerator::Generate(
    const ScalarProgram& prog, const storage::PageLayout& layout,
    const WorkloadShape& shape) const {
  // --- Compute fabric sizing (§6.1) ---------------------------------------
  const uint64_t luts_per_au =
      fpga_.luts_per_au +
      (options_.mimd_only ? fpga_.mimd_extra_luts_per_au : 0);
  uint64_t aus = std::min<uint64_t>(fpga_.dsp_slices / fpga_.dsps_per_au,
                                    fpga_.luts / luts_per_au);
  aus = std::min<uint64_t>(aus, fpga_.max_compute_units);
  if (options_.mimd_only) {
    // No shared cluster controller: each AU is its own single-lane cluster.
    aus = std::min<uint64_t>(aus, fpga_.max_compute_units / 2);
  }
  const uint32_t total_acs = std::max<uint32_t>(
      1, static_cast<uint32_t>(aus / engine::kAusPerAc));

  // --- BRAM split between access and execution engines --------------------
  // Per-thread data: model image + one tuple + intermediate results.
  const uint64_t per_thread_data_bytes =
      4 * (prog.ModelElements() + prog.TupleElements() +
           prog.tuple_ops.size() + prog.batch_ops.size());

  // --- Design space exploration over thread counts ------------------------
  const uint32_t first_threads =
      options_.force_threads ? options_.force_threads : 1;
  const uint32_t max_threads =
      options_.force_threads
          ? options_.force_threads
          : std::min<uint32_t>(std::max<uint32_t>(prog.merge_coef, 1),
                               total_acs);

  // BRAM use grows with the thread count, so a model whose per-thread data
  // overflows BRAM at the first candidate fits no candidate: fail before
  // scheduling anything (a large program's schedules take minutes).
  if (per_thread_data_bytes * first_threads > fpga_.bram_bytes) {
    return Status::ResourceExhausted(
        "no design point fits the FPGA (model too large for BRAM?)");
  }

  Scheduler batch_scheduler(SchedulerConfig{
      .num_acs = std::max<uint32_t>(1, total_acs / 4),
      .selective_simd = !options_.mimd_only});
  DANA_ASSIGN_OR_RETURN(Schedule batch_schedule,
                        batch_scheduler.Run(prog.batch_ops));
  DANA_ASSIGN_OR_RETURN(Schedule epoch_schedule,
                        batch_scheduler.Run(prog.epoch_ops));

  // Every candidate schedules the same tuple ops: analyze them once.
  const OpGraph tuple_graph(prog.tuple_ops);
  std::vector<DesignPoint> candidates;
  for (uint32_t t = first_threads; t <= max_threads; t *= 2) {
    DesignPoint d;
    d.num_threads = t;
    d.acs_per_thread = std::max<uint32_t>(1, total_acs / t);
    // Resource accounting: threads cannot oversubscribe the fabric.
    if (static_cast<uint64_t>(d.acs_per_thread) * t > total_acs) {
      d.acs_per_thread = std::max<uint32_t>(1, total_acs / t);
    }
    d.total_aus =
        static_cast<uint64_t>(d.acs_per_thread) * engine::kAusPerAc * t;
    if (d.total_aus > aus) break;  // fabric exhausted
    d.dsps_used = d.total_aus * fpga_.dsps_per_au;
    d.luts_used = d.total_aus * luts_per_au;

    // BRAM: per-thread data, then page buffers with the remainder.
    const uint64_t compute_bram = per_thread_data_bytes * t;
    if (compute_bram > fpga_.bram_bytes) break;  // model does not fit

    Scheduler tuple_scheduler(SchedulerConfig{
        .num_acs = d.acs_per_thread, .selective_simd = !options_.mimd_only});
    DANA_ASSIGN_OR_RETURN(d.tuple_schedule, tuple_scheduler.Run(tuple_graph));
    d.batch_schedule = batch_schedule;
    d.epoch_schedule = epoch_schedule;
    const uint64_t pb_bram = std::min<uint64_t>(
        fpga_.bram_bytes - compute_bram,
        static_cast<uint64_t>(fpga_.bram_bytes *
                              options_.page_buffer_bram_fraction));
    d.num_page_buffers = static_cast<uint32_t>(
        std::clamp<uint64_t>(pb_bram / layout.page_size, 1, 32));
    d.bram_used = compute_bram + static_cast<uint64_t>(d.num_page_buffers) *
                                     layout.page_size;

    d.est_cycles_per_epoch =
        EstimateEpochCycles(prog, d, fpga_, layout, shape);
    candidates.push_back(std::move(d));
    if (options_.force_threads) break;
  }
  if (candidates.empty()) {
    return Status::ResourceExhausted(
        "no design point fits the FPGA (model too large for BRAM?)");
  }

  // Smallest design within 5% of the best estimate (§6.1).
  uint64_t best = UINT64_MAX;
  for (const auto& c : candidates) {
    best = std::min(best, c.est_cycles_per_epoch);
  }
  for (const auto& c : candidates) {
    if (static_cast<double>(c.est_cycles_per_epoch) <=
        1.05 * static_cast<double>(best)) {
      return c;
    }
  }
  return candidates.back();
}

}  // namespace dana::compiler
