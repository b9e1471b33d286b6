#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "compiler/scalar_program.h"
#include "compiler/scheduler.h"
#include "storage/page_layout.h"

namespace dana::compiler {

/// Target FPGA resources (paper Table 4: Xilinx Virtex UltraScale+ VU9P).
struct FpgaSpec {
  std::string name = "Xilinx Virtex UltraScale+ VU9P";
  uint64_t luts = 1'182'000;
  uint64_t flip_flops = 2'364'000;
  uint64_t dsp_slices = 6'840;
  uint64_t bram_bytes = 44ull << 20;  // 44 MB on-chip memory
  double freq_hz = 150e6;
  /// Host link bandwidth (PCIe Gen3 x16 to the buffer pool).
  double axi_bytes_per_sec = 16e9;
  /// Practical AU ceiling from placement/routing (paper §7.2: "maximum
  /// 1024 compute units can be instantiated" on the UltraScale+).
  uint32_t max_compute_units = 1024;

  /// Per-AU resource footprint of the hand-optimized template.
  uint64_t dsps_per_au = 5;
  uint64_t luts_per_au = 900;
  /// Extra LUT cost when each AU carries its own decoder instead of the
  /// shared selective-SIMD cluster controller (MIMD ablation).
  uint64_t mimd_extra_luts_per_au = 450;

  /// AXI payload bytes moved per FPGA cycle.
  double AxiBytesPerCycle() const { return axi_bytes_per_sec / freq_hz; }
};

/// A fully parameterized accelerator instance for one UDF.
struct DesignPoint {
  /// Parallel update-rule threads (bounded by the merge coefficient).
  uint32_t num_threads = 1;
  /// Analytic clusters allocated to each thread.
  uint32_t acs_per_thread = 1;
  /// Page buffers (each with its own Strider).
  uint32_t num_page_buffers = 1;
  /// Tree-bus ALU lanes used by the merge network (the shared
  /// line-topology bus moves/combines this many values per cycle).
  uint32_t tree_bus_lanes = 1;
  /// Words per cycle the shared inter-AC bus delivers for operand traffic
  /// between clusters inside the update rule (wider than the merge path:
  /// neighbouring clusters exchange through segmented bus sections).
  uint32_t inter_ac_bus_lanes = 16;

  /// Static schedules for each region, per thread.
  Schedule tuple_schedule;
  Schedule batch_schedule;
  Schedule epoch_schedule;

  /// Resource accounting.
  uint64_t total_aus = 0;
  uint64_t dsps_used = 0;
  uint64_t luts_used = 0;
  uint64_t bram_used = 0;

  /// Estimator output: cycles per epoch (pipeline steady state).
  uint64_t est_cycles_per_epoch = 0;

  std::string ToString() const;
};

/// Workload geometry the estimator needs.
struct WorkloadShape {
  uint64_t num_tuples = 0;
  uint32_t tuples_per_page = 1;
  uint64_t num_pages = 0;
  uint32_t tuple_payload_bytes = 0;
};

/// Static performance estimation (paper §6.1): cycles for one epoch given a
/// design point, the page-walk cost, and the AXI transfer cost, assuming
/// the access engine and execution engine interleave (pipeline) across page
/// buffers. Exact because the schedule is static, there is no cache, and
/// the architecture is fixed during execution.
uint64_t EstimateEpochCycles(const ScalarProgram& prog,
                             const DesignPoint& design, const FpgaSpec& fpga,
                             const storage::PageLayout& layout,
                             const WorkloadShape& shape,
                             double bandwidth_scale = 1.0);

/// Merge-network cycles for one batch: log2(threads) tree stages, each
/// moving/combining `merge_elems` values over `lanes` bus ALUs, plus the
/// model write-back broadcast.
uint64_t MergeCycles(uint32_t threads, uint64_t merge_elems,
                     uint64_t model_elems, uint32_t lanes);

/// DAnA's hardware generator (paper §6.1): splits FPGA resources between
/// the access engine (page buffers + Striders) and the execution engine
/// (threads of ACs), then explores thread counts up to the merge
/// coefficient and picks the smallest design within 5% of the best
/// estimated performance.
class HardwareGenerator {
 public:
  struct Options {
    /// Ablation: give every AU its own controller (no selective SIMD);
    /// costs extra LUTs per AU, shrinking the fabric.
    bool mimd_only = false;
    /// Force a specific thread count (0 = explore).
    uint32_t force_threads = 0;
    /// Fraction of BRAM reserved for page buffers before compute data.
    double page_buffer_bram_fraction = 0.5;
  };

  explicit HardwareGenerator(FpgaSpec fpga) : fpga_(fpga) {}
  HardwareGenerator(FpgaSpec fpga, Options options)
      : fpga_(fpga), options_(options) {}

  /// Generates the best design point for `prog` over `layout`/`shape`.
  /// The candidate thread counts share one OpGraph of the tuple ops, built
  /// here and dropped on return: nothing carries over to the next call.
  dana::Result<DesignPoint> Generate(const ScalarProgram& prog,
                                     const storage::PageLayout& layout,
                                     const WorkloadShape& shape) const;

  const FpgaSpec& fpga() const { return fpga_; }

 private:
  FpgaSpec fpga_;
  Options options_;
};

}  // namespace dana::compiler
