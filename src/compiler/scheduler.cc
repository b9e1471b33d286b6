#include "compiler/scheduler.h"

#include <algorithm>
#include <bit>

namespace dana::compiler {

OpGraph::OpGraph(const std::vector<ScalarOp>& ops) {
  const uint32_t n = static_cast<uint32_t>(ops.size());
  // Dependency extraction: same-region kSub references.
  opcode_.resize(n);
  deps_.assign(n, {kNoDep, kNoDep});
  dependents_start_.assign(n + 1, 0);
  for (uint32_t i = 0; i < n; ++i) {
    opcode_[i] = ops[i].op;
    int d = 0;
    for (const ValueRef* ref : {&ops[i].a, &ops[i].b}) {
      if (ref->kind != ValueRef::Kind::kSub) continue;
      if (ref->index >= i) {
        ordered_ = false;
        return;
      }
      deps_[i][d++] = ref->index;
      ++dependents_start_[ref->index + 1];
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    dependents_start_[i + 1] += dependents_start_[i];
  }
  dependents_.resize(dependents_start_[n]);
  std::vector<uint32_t> fill(dependents_start_.begin(),
                             dependents_start_.end() - 1);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t dep : deps_[i]) {
      if (dep != kNoDep) dependents_[fill[dep]++] = i;
    }
  }

  // Critical-path priorities (reverse topological: ops are in topo order).
  std::vector<uint32_t> priority(n);
  for (uint32_t i = n; i-- > 0;) {
    uint32_t best = 0;
    for (uint32_t dependent : dependents(i)) {
      best = std::max(best, priority[dependent]);
    }
    priority[i] = best + engine::AluOpLatency(opcode_[i]);
  }

  // Scan order: priority descending, then op id ascending, as one integer
  // key per op.
  std::vector<uint64_t> keys(n);
  for (uint32_t i = 0; i < n; ++i) {
    keys[i] = uint64_t{UINT32_MAX - priority[i]} << 32 | i;
  }
  std::sort(keys.begin(), keys.end());
  by_rank_.resize(n);
  rank_.resize(n);
  for (uint32_t r = 0; r < n; ++r) {
    by_rank_[r] = static_cast<uint32_t>(keys[r]);
    rank_[by_rank_[r]] = r;
  }
}

namespace {

/// The ready ops as a set of scan ranks: a bitmap over ranks under summary
/// levels of one bit per nonempty word, in one flat array. Next walks the
/// set in scan order in a few word operations, so a scan leaves the ops it
/// postpones in place and removes only those it issues.
class RankSet {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  explicit RankSet(uint32_t n) {
    uint64_t bits = std::max<uint32_t>(n, 1);
    size_t total = 0;
    do {
      const uint64_t words = (bits + 63) / 64;
      start_[levels_] = total;
      words_[levels_] = words;
      ++levels_;
      total += words;
      bits = words;
    } while (bits > 1);
    bits_.assign(total, 0);
  }

  bool empty() const { return bits_[start_[levels_ - 1]] == 0; }

  void Insert(uint32_t r) {
    for (uint32_t l = 0; l < levels_; ++l, r >>= 6) {
      uint64_t& w = bits_[start_[l] + (r >> 6)];
      const bool was_empty = w == 0;
      w |= uint64_t{1} << (r & 63);
      if (!was_empty) return;
    }
  }

  void Erase(uint32_t r) {
    for (uint32_t l = 0; l < levels_; ++l, r >>= 6) {
      uint64_t& w = bits_[start_[l] + (r >> 6)];
      w &= ~(uint64_t{1} << (r & 63));
      if (w != 0) return;
    }
  }

  /// The smallest member at least `r`, or kEnd.
  uint32_t Next(uint64_t r) const {
    uint32_t l = 0;
    // Climb until some level has a set bit at or after r's position there.
    for (;; ++l, r = (r >> 6) + 1) {
      if (l == levels_) return kEnd;
      const uint64_t wi = r >> 6;
      if (wi >= words_[l]) continue;
      const uint64_t w = bits_[start_[l] + wi] & (~uint64_t{0} << (r & 63));
      if (w != 0) {
        r = (wi << 6) | static_cast<uint64_t>(std::countr_zero(w));
        break;
      }
    }
    // Descend to the lowest set bit under it.
    while (l-- > 0) {
      r = (r << 6) |
          static_cast<uint64_t>(std::countr_zero(bits_[start_[l] + r]));
    }
    return static_cast<uint32_t>(r);
  }

 private:
  // 64^6 ranks cover any uint32_t op count.
  static constexpr uint32_t kMaxLevels = 6;
  uint32_t levels_ = 0;
  uint64_t start_[kMaxLevels] = {};
  uint64_t words_[kMaxLevels] = {};
  std::vector<uint64_t> bits_;
};

}  // namespace

Result<Schedule> Scheduler::Run(const std::vector<ScalarOp>& ops) const {
  return Run(OpGraph(ops));
}

Result<Schedule> Scheduler::Run(const OpGraph& graph) const {
  const uint32_t n = graph.size();
  Schedule sched;
  sched.placements.resize(n);
  sched.op_count = n;
  if (n == 0) return sched;
  if (config_.num_acs == 0 || config_.aus_per_ac == 0) {
    return Status::InvalidArgument("scheduler needs at least one AC/AU");
  }
  if (!graph.ordered()) {
    return Status::Internal("scalar program not topologically ordered");
  }

  // Same-region operands not yet scheduled (an op reading one value
  // twice waits for it twice).
  std::vector<uint32_t> indegree(n);
  RankSet ready(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t dep : graph.deps(i)) indegree[i] += dep != OpGraph::kNoDep;
    if (indegree[i] == 0) ready.Insert(graph.rank(i));
  }

  const uint32_t acs = config_.num_acs;
  const uint32_t lanes = config_.aus_per_ac;
  std::vector<uint64_t> ac_time(acs, 0);
  // Producer placement lookup for hop costs.
  auto ready_for = [&](uint32_t op, uint32_t ac) {
    uint64_t r = 0;
    for (uint32_t dep : graph.deps(op)) {
      if (dep == OpGraph::kNoDep) continue;
      const OpPlacement& p = sched.placements[dep];
      const uint64_t hop =
          p.ac == ac ? config_.intra_ac_hop : config_.inter_ac_hop;
      r = std::max<uint64_t>(r, p.finish_cycle + hop);
    }
    return r;
  };

  uint32_t scheduled = 0;
  // Ops packed into one AC instruction, and the lane each takes.
  std::vector<uint32_t> group(lanes);
  std::vector<uint32_t> lane_of(lanes);
  uint64_t guard = 0;
  const uint64_t guard_max = static_cast<uint64_t>(n) * 64 + 1024;
  const uint32_t scan_limit = 4 * lanes + 32;

  while (scheduled < n) {
    if (++guard > guard_max) {
      return Status::Internal("scheduler failed to converge");
    }
    // Pick the cluster whose program counter is furthest behind.
    uint32_t ac = 0;
    for (uint32_t a = 1; a < acs; ++a) {
      if (ac_time[a] < ac_time[ac]) ac = a;
    }
    const uint64_t t = ac_time[ac];

    // Walk the ready ops in scan order (bounded, to stay near O(n log n)).
    uint32_t grouped = 0;
    uint32_t postponed = 0;
    engine::AluOp opcode = engine::AluOp::kNop;
    uint64_t next_event = UINT64_MAX;
    for (uint32_t r = ready.Next(0);
         r != RankSet::kEnd && postponed < scan_limit && grouped < lanes;
         r = ready.Next(uint64_t{r} + 1)) {
      const uint32_t op = graph.op_at(r);
      const uint64_t arrival = ready_for(op, ac);
      const bool opcode_ok = grouped == 0 || !config_.selective_simd ||
                             graph.opcode(op) == opcode;
      if (arrival <= t && opcode_ok) {
        if (grouped == 0) opcode = graph.opcode(op);
        group[grouped++] = op;
        ready.Erase(r);
      } else {
        next_event = std::min(next_event, std::max(arrival, t));
        ++postponed;
      }
    }

    if (grouped == 0) {
      if (ready.empty()) {
        return Status::Internal("deadlock: no ready ops but work remains");
      }
      // Nothing startable on this cluster yet: advance its clock.
      ac_time[ac] = next_event == UINT64_MAX ? t + 1 : next_event;
      continue;
    }

    // Lane assignment: prefer a producer's lane (zero-hop chaining).
    uint32_t lane_used = 0;  // bitmask
    for (uint32_t g = 0; g < grouped; ++g) {
      lane_of[g] = UINT32_MAX;
      for (uint32_t dep : graph.deps(group[g])) {
        if (dep == OpGraph::kNoDep) continue;
        const OpPlacement& p = sched.placements[dep];
        if (p.ac == ac && !(lane_used & (1u << p.au))) {
          lane_of[g] = p.au;
          lane_used |= 1u << p.au;
          break;
        }
      }
    }
    for (uint32_t g = 0; g < grouped; ++g) {
      if (lane_of[g] != UINT32_MAX) continue;
      for (uint32_t l = 0; l < lanes; ++l) {
        if (!(lane_used & (1u << l))) {
          lane_of[g] = l;
          lane_used |= 1u << l;
          break;
        }
      }
    }

    // Issue the cluster instruction: blocking semantics (§5.2) — the AC
    // proceeds to its next instruction when the designated AUs complete.
    uint32_t dur = 0;
    for (uint32_t g = 0; g < grouped; ++g) {
      dur = std::max(dur, engine::AluOpLatency(graph.opcode(group[g])));
    }
    for (uint32_t g = 0; g < grouped; ++g) {
      const uint32_t op = group[g];
      OpPlacement& p = sched.placements[op];
      p.ac = ac;
      p.au = lane_of[g];
      p.start_cycle = static_cast<uint32_t>(t);
      p.finish_cycle = static_cast<uint32_t>(t + dur);
      for (uint32_t dep : graph.deps(op)) {
        if (dep != OpGraph::kNoDep && sched.placements[dep].ac != ac) {
          ++sched.cross_ac_transfers;
        }
      }
      ++scheduled;
      for (uint32_t dependent : graph.dependents(op)) {
        if (--indegree[dependent] == 0) ready.Insert(graph.rank(dependent));
      }
    }
    ac_time[ac] = t + dur;
    sched.makespan = std::max<uint64_t>(sched.makespan, t + dur);
  }

  return sched;
}

}  // namespace dana::compiler
