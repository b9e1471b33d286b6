#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "compiler/scalar_program.h"
#include "engine/isa.h"

namespace dana::compiler {

/// Scheduling parameters: the single-thread compute fabric the scheduler
/// targets plus communication costs (paper §5.2, §6.2).
struct SchedulerConfig {
  /// Analytic clusters available to one thread.
  uint32_t num_acs = 4;
  /// AUs per cluster (fixed to 8 in the paper for frequency).
  uint32_t aus_per_ac = engine::kAusPerAc;
  /// Extra cycles when an operand crosses AUs within one AC (neighbor
  /// link / intra-AC bus).
  uint32_t intra_ac_hop = 1;
  /// Extra cycles when an operand crosses clusters (inter-AC bus).
  uint32_t inter_ac_hop = 2;
  /// Selective SIMD: all AUs of a cluster active in a cycle execute the
  /// cluster's single opcode (§5.2). Disable to ablate (full MIMD, as if
  /// each AU had its own controller).
  bool selective_simd = true;
};

/// Placement of one scalar op.
struct OpPlacement {
  uint32_t ac = 0;
  uint32_t au = 0;
  uint32_t start_cycle = 0;
  uint32_t finish_cycle = 0;  // start + latency
};

/// A static schedule of one region's scalar ops.
struct Schedule {
  std::vector<OpPlacement> placements;  // parallel to the op list
  uint64_t makespan = 0;                // cycles from 0 to last finish
  uint64_t op_count = 0;
  /// Operand deliveries that cross clusters. These all ride the single
  /// shared line-topology inter-AC bus (§5.2), so they bound throughput.
  uint64_t cross_ac_transfers = 0;

  /// Execution time of one schedule instance when `concurrent_threads`
  /// copies run simultaneously: the dependency-driven makespan, or the
  /// single shared inter-AC bus draining every thread's cross-cluster
  /// transfers at `bus_lanes` words per cycle, whichever is slower. This
  /// is what makes extra threads unprofitable for communication-heavy
  /// update rules (the paper's flat LRMF curve in Figure 12).
  uint64_t EffectiveMakespan(uint32_t bus_lanes,
                             uint32_t concurrent_threads = 1) const {
    if (bus_lanes == 0) bus_lanes = 1;
    if (concurrent_threads == 0) concurrent_threads = 1;
    return std::max(makespan,
                    concurrent_threads * cross_ac_transfers / bus_lanes);
  }

  /// Achieved parallelism: op-cycles / makespan.
  double Utilization(uint32_t total_aus) const {
    if (makespan == 0 || total_aus == 0) return 0.0;
    return static_cast<double>(op_count) /
           (static_cast<double>(makespan) * total_aus);
  }
};

/// Dependency analysis of one region's op list, which depends on the ops
/// alone: each op's opcode and same-region operands, the ops that consume
/// it (compressed sparse rows), and the list scheduler's scan order (see
/// Scheduler). The hardware generator builds it once per program and
/// schedules every candidate thread count from it.
class OpGraph {
 public:
  static constexpr uint32_t kNoDep = UINT32_MAX;

  /// Analyzes `ops` (dependencies are kSub refs into the same list). A
  /// list that is not topologically ordered yields a graph that is not
  /// ordered(), which holds only its size; Scheduler::Run rejects it.
  explicit OpGraph(const std::vector<ScalarOp>& ops);

  uint32_t size() const { return static_cast<uint32_t>(opcode_.size()); }
  /// False when some kSub operand refers to the op itself or a later one.
  bool ordered() const { return ordered_; }
  engine::AluOp opcode(uint32_t op) const { return opcode_[op]; }
  /// The op's same-region operands, kNoDep where absent.
  const std::array<uint32_t, 2>& deps(uint32_t op) const {
    return deps_[op];
  }
  /// The ops reading `op`'s result, one entry per operand, ascending.
  std::span<const uint32_t> dependents(uint32_t op) const {
    return std::span<const uint32_t>(dependents_)
        .subspan(dependents_start_[op],
                 dependents_start_[op + 1] - dependents_start_[op]);
  }
  /// Position of `op` in the scan order, and the op at position `rank`.
  uint32_t rank(uint32_t op) const { return rank_[op]; }
  uint32_t op_at(uint32_t rank) const { return by_rank_[rank]; }

 private:
  bool ordered_ = true;
  std::vector<engine::AluOp> opcode_;
  std::vector<std::array<uint32_t, 2>> deps_;
  std::vector<uint32_t> dependents_start_;  // size() + 1 offsets
  std::vector<uint32_t> dependents_;
  std::vector<uint32_t> rank_;
  std::vector<uint32_t> by_rank_;
};

/// List scheduler (paper §6.2): walks ready ops by critical-path priority
/// and greedily places each on the cluster/AU that lets it start earliest,
/// honouring dependency, communication, AU-occupancy, and selective-SIMD
/// constraints. Elementwise nodes spread across AUs; reductions stay near
/// their producers to minimize communication.
///
/// The contract tests/golden/schedules.json pins, step by step:
///  - An op's priority is its critical-path length to a sink (its latency
///    plus its costliest dependent's priority). The scan order is
///    priority descending, then op id ascending.
///  - Each step picks the cluster whose clock is furthest behind (lowest
///    index on a tie) and walks the ready ops in scan order. An op whose
///    operands have arrived on that cluster by its clock, and whose opcode
///    matches the group's first under selective SIMD, joins the group;
///    any other op is postponed and stays ready. The walk stops at the
///    end of the ready ops, when the group holds aus_per_ac ops, or after
///    4 * aus_per_ac + 32 postponed ops.
///  - An empty group advances the cluster's clock to `next_event`: the
///    earliest operand arrival among the ops this walk postponed. Ops
///    beyond the scan limit never lower it.
///  - A group issues as one instruction lasting its slowest op. Each op
///    takes the lane of its first operand produced on the same cluster
///    whose lane is still free, the rest the lowest free lanes in group
///    order. Ops whose last operand this group produced become ready
///    after the walk.
class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config) : config_(config) {}

  /// Schedules one region's ops (dependencies are kSub refs into the same
  /// region; cross-region values are memory reads, free at cycle 0).
  dana::Result<Schedule> Run(const std::vector<ScalarOp>& ops) const;
  /// The same from the ops' prebuilt analysis; `Run(ops)` is
  /// `Run(OpGraph(ops))`.
  dana::Result<Schedule> Run(const OpGraph& graph) const;

  const SchedulerConfig& config() const { return config_; }

 private:
  SchedulerConfig config_;
};

}  // namespace dana::compiler
