#include "accel/accelerator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>

#include "compiler/hw_generator.h"
#include "hdfg/graph.h"

namespace dana::accel {

Accelerator::Accelerator(const compiler::CompiledUdf& udf) : udf_(udf) {
  access_config_.num_page_buffers = udf.design.num_page_buffers;
}

Status Accelerator::CheckTupleSize(uint64_t payload_bytes) const {
  const uint64_t want = 4 * udf_.program.TupleElements();
  if (payload_bytes < want) {
    return Status::Corruption("tuple payload of " +
                              std::to_string(payload_bytes) +
                              " bytes, expected " + std::to_string(want));
  }
  return Status::OK();
}

Status Accelerator::DecodeTuple(const std::vector<uint8_t>& payload,
                                engine::TupleData* out) const {
  const compiler::ScalarProgram& prog = udf_.program;
  DANA_RETURN_NOT_OK(CheckTupleSize(payload.size()));
  size_t off = 0;
  auto take = [&](const std::shared_ptr<const dsl::Var>& var,
                  std::vector<float>* dst) {
    const uint64_t n = hdfg::NumElements(var->dims);
    dst->resize(n);
    std::memcpy(dst->data(), payload.data() + off, n * 4);
    off += n * 4;
  };
  out->inputs.resize(prog.input_vars.size());
  out->outputs.resize(prog.output_vars.size());
  for (size_t i = 0; i < prog.input_vars.size(); ++i) {
    take(prog.input_vars[i], &out->inputs[i]);
  }
  for (size_t i = 0; i < prog.output_vars.size(); ++i) {
    take(prog.output_vars[i], &out->outputs[i]);
  }
  return Status::OK();
}

Result<RunReport> Accelerator::Train(const storage::Table& table,
                                     storage::BufferPool* pool,
                                     const RunOptions& options) const {
  return Run(table, pool, options, /*functional=*/true);
}

Result<RunReport> Accelerator::Time(const storage::Table& table,
                                    storage::BufferPool* pool,
                                    const RunOptions& options) const {
  if (udf_.program.has_convergence) {
    // Where a run stops depends on the trained values: only Train knows.
    return Status::FailedPrecondition(
        "a timing-only run cannot evaluate the program's convergence test; "
        "use Train");
  }
  return Run(table, pool, options, /*functional=*/false);
}

Result<RunReport> Accelerator::Run(const storage::Table& table,
                                   storage::BufferPool* pool,
                                   const RunOptions& options,
                                   bool functional) const {
  const compiler::ScalarProgram& prog = udf_.program;
  const compiler::DesignPoint& design = udf_.design;
  const double freq = udf_.fpga.freq_hz;

  std::optional<engine::ScalarEvaluator> evaluator;
  if (functional) {
    evaluator.emplace(prog);
    for (size_t m = 0; m < options.initial_models.size(); ++m) {
      DANA_RETURN_NOT_OK(evaluator->SetModel(
          static_cast<uint32_t>(m), options.initial_models[m]));
    }
  }

  AccessEngine access(access_config_, udf_.strider_program);

  const uint32_t epochs_budget = options.max_epochs_override
                                     ? options.max_epochs_override
                                     : prog.max_epochs;
  const uint64_t batch_size = std::max<uint32_t>(prog.merge_coef, 1);
  const uint32_t threads = design.num_threads;
  // Co-trained queries sharing this pass: identical models see identical
  // tuples, so the update rules are evaluated functionally once and the
  // engine cycle cost is charged once per model.
  const uint32_t batch_q = std::max<uint32_t>(options.batch_queries, 1);

  RunReport report;
  // The configuration FSM programs the design once per run.
  report.fpga_cycles += access.ConfigCycles();

  // One batch of decode buffers for the whole run: tuple k of a batch is
  // decoded into batch[k] in place, so after the first batch no tuple
  // allocates. A timing-only run decodes nothing and only counts.
  std::vector<engine::TupleData> batch(functional ? batch_size : 0);
  size_t batch_fill = 0;

  // The last page the Strider walked, and what it extracted.
  const uint8_t* walked_frame = nullptr;
  PageExtraction extraction;

  for (uint32_t epoch = 0; epoch < epochs_budget; ++epoch) {
    const dana::SimTime io_before = pool->stats().io_time;
    uint64_t strider_cycles = 0;
    uint64_t engine_cycles = 0;
    uint64_t batches = 0;
    uint64_t tuples_this_epoch = 0;

    auto flush_batch = [&]() -> Status {
      if (batch_fill == 0) return Status::OK();
      if (functional) {
        DANA_RETURN_NOT_OK(
            evaluator->EvalBatch(std::span(batch.data(), batch_fill)));
      }
      // Timing: each thread runs ceil(batch/threads) rule instances
      // back-to-back, then the tree bus merges and the model updates.
      const uint64_t rule_runs = (batch_fill + threads - 1) / threads;
      engine_cycles +=
          batch_q *
          (rule_runs * std::max<uint64_t>(design.tuple_schedule.EffectiveMakespan(
                                              design.inter_ac_bus_lanes,
                                              threads),
                                          1) +
           compiler::MergeCycles(threads, prog.merge_slots.size(),
                                 prog.ModelElements(),
                                 design.tree_bus_lanes) +
           design.batch_schedule.makespan);
      ++batches;
      batch_fill = 0;
      return Status::OK();
    };

    for (uint64_t p = 0; p < table.num_pages(); ++p) {
      DANA_ASSIGN_OR_RETURN(const uint8_t* frame, pool->FetchPage(table, p));
      // A Strider walk depends only on the program and the page bytes, and
      // equal page pointers mean equal bytes (Table): a page that shares
      // the previous page's image reuses its extraction.
      if (frame != walked_frame) {
        DANA_ASSIGN_OR_RETURN(
            extraction, access.WalkPage({frame, table.layout().page_size}));
        walked_frame = frame;
      }
      strider_cycles += extraction.strider_cycles;
      for (const auto& payload : extraction.tuples) {
        DANA_RETURN_NOT_OK(functional
                               ? DecodeTuple(payload, &batch[batch_fill])
                               : CheckTupleSize(payload.size()));
        ++batch_fill;
        ++tuples_this_epoch;
        if (batch_fill >= batch_size) {
          DANA_RETURN_NOT_OK(flush_batch());
        }
      }
    }
    DANA_RETURN_NOT_OK(flush_batch());
    report.tuples_processed += tuples_this_epoch;

    // ---- Epoch timing ----------------------------------------------------
    EpochBreakdown bd;
    bd.io = pool->stats().io_time - io_before;

    const double axi_bpc =
        udf_.fpga.AxiBytesPerCycle() * options.bandwidth_scale;
    const uint64_t page_bytes = table.num_pages() * table.layout().page_size;

    if (!options.strider_bypass) {
      const uint64_t axi_cycles = static_cast<uint64_t>(
          std::ceil(static_cast<double>(page_bytes) / axi_bpc));
      const uint64_t strider_par =
          strider_cycles / std::max<uint32_t>(design.num_page_buffers, 1);
      bd.axi = dana::SimTime::Cycles(axi_cycles, freq);
      bd.strider = dana::SimTime::Cycles(strider_par, freq);
      bd.engine = dana::SimTime::Cycles(engine_cycles, freq);
      uint64_t fpga_cycles;
      if (design.num_page_buffers >= 2) {
        // Access/execute interleaving: epoch runs at the slowest stage.
        fpga_cycles = std::max({axi_cycles, strider_par, engine_cycles}) +
                      strider_cycles / std::max<uint64_t>(
                                           table.num_pages(), 1);  // fill
      } else {
        fpga_cycles = axi_cycles + strider_par + engine_cycles;
      }
      fpga_cycles += design.epoch_schedule.makespan;
      const dana::SimTime fpga_time = dana::SimTime::Cycles(fpga_cycles, freq);
      // The accelerator stalls when the buffer pool cannot replace pages
      // fast enough (§7.1, S/N SVM): wall = slower of I/O and FPGA.
      bd.wall = dana::SimTime::Max(fpga_time, bd.io);
      bd.shared = dana::SimTime::Max(
          bd.io, dana::SimTime::Cycles(std::max(axi_cycles, strider_par),
                                       freq));
      bd.per_query = bd.engine / static_cast<double>(batch_q);
      report.fpga_cycles += fpga_cycles;
      report.fpga_time += fpga_time;
    } else {
      // Figure 11 alternative: CPU extracts and transforms each tuple and
      // DMAs it individually; no access/execute interleaving is possible.
      // The CPU touches every payload byte to deform, convert and marshal
      // the tuple, and each tuple DMA costs one CPU<->FPGA handshake.
      constexpr double kCpuExtractNsPerByte = 3.0;
      constexpr uint64_t kHandshakeCyclesPerTuple = 300;
      const uint64_t tuple_bytes = 4 * prog.TupleElements();
      const dana::SimTime cpu_extract =
          (options.cpu_extract_per_tuple +
           dana::SimTime::Nanos(kCpuExtractNsPerByte *
                                static_cast<double>(tuple_bytes))) *
          static_cast<double>(tuples_this_epoch);
      const uint64_t dma_cycles = static_cast<uint64_t>(
          std::ceil(static_cast<double>(tuple_bytes) / axi_bpc +
                    static_cast<double>(kHandshakeCyclesPerTuple)) *
          tuples_this_epoch);
      const uint64_t fpga_cycles =
          dma_cycles + engine_cycles + design.epoch_schedule.makespan;
      bd.axi = dana::SimTime::Cycles(dma_cycles, freq);
      bd.strider = dana::SimTime::Zero();
      bd.engine = dana::SimTime::Cycles(engine_cycles, freq);
      const dana::SimTime fpga_time = dana::SimTime::Cycles(fpga_cycles, freq);
      bd.wall = cpu_extract + dana::SimTime::Max(fpga_time, bd.io);
      // Bypass mode: CPU extraction + per-tuple DMA stream once per pass;
      // only the engine compute replicates per co-trained model.
      bd.shared = cpu_extract + dana::SimTime::Max(bd.axi, bd.io);
      bd.per_query = bd.engine / static_cast<double>(batch_q);
      report.fpga_cycles += fpga_cycles;
      report.fpga_time += fpga_time;
    }

    report.io_time += bd.io;
    report.total_time += bd.wall;
    report.shared_time += bd.shared;
    report.per_query_time += bd.per_query;
    report.epochs.push_back(bd);
    ++report.epochs_run;

    if (functional) {
      DANA_ASSIGN_OR_RETURN(bool stop, evaluator->EvalConvergence());
      if (stop) {
        report.converged = true;
        break;
      }
    }
  }

  if (functional) {
    report.final_models.resize(prog.model_vars.size());
    for (uint32_t m = 0; m < prog.model_vars.size(); ++m) {
      report.final_models[m] = evaluator->Model(m);
    }
  }
  return report;
}

}  // namespace dana::accel
