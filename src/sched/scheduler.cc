#include "sched/scheduler.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <span>
#include <utility>

#include "common/intern.h"

namespace dana::sched {

const char* PolicyName(Policy policy) {
  switch (policy) {
    case Policy::kFcfs:
      return "fcfs";
    case Policy::kSjf:
      return "sjf";
    case Policy::kRoundRobin:
      return "rr";
  }
  return "?";
}

Result<Policy> ParsePolicy(const std::string& name) {
  if (name == "fcfs") return Policy::kFcfs;
  if (name == "sjf") return Policy::kSjf;
  if (name == "rr" || name == "round-robin") return Policy::kRoundRobin;
  return Status::InvalidArgument("unknown policy '" + name +
                                 "' (want fcfs|sjf|rr)");
}

const char* QueryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kBatch:
      return "batch";
    case QueryClass::kInteractive:
      return "interactive";
  }
  return "?";
}

Scheduler::Scheduler(SchedulerOptions options, QueryExecutor* executor)
    : options_(options), executor_(executor) {
  if (options_.slots == 0) options_.slots = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.batch_window < dana::SimTime::Zero()) {
    options_.batch_window = dana::SimTime::Zero();
  }
}

namespace {

/// Pending queue with the policy-specific pick. Entries are indices into
/// the request vector, kept in admission order. The request vector (and
/// the parallel interned-id vector) may grow while the queue is live
/// (closed-loop mode); entries are indices, never pointers, so growth is
/// safe.
///
/// An intrusive doubly-linked list over request indices keeps admission
/// order (O(1) push/unlink, O(1) FCFS head), per-algorithm FIFO deques
/// serve round-robin candidates and batch coalescing with integer id
/// compares, and pure SJF keeps a multiset ordered by (estimate, request
/// index) — O(log n) extraction. The multiset key is exact: SJF takes the
/// first strict minimum estimate in admission order, and admission order
/// equals request-index order (pushes arrive in index order; Restore
/// re-inserts at the index position), so min-(estimate, index) is that
/// element. Aged and affinity SJF are linear scans in admission order:
/// their effective estimate mixes in per-candidate float subtraction whose
/// rounding an ordered key cannot reproduce bit-for-bit.
class PendingQueue {
 public:
  /// Residency-aware SJF estimate in seconds of workload `wid`: its
  /// expected service dispatched at the best residency any free slot
  /// offers, interpolated the way a dispatch is charged
  /// (QueryExecutor::EstimateAtWarmth). Null unless affinity SJF is on.
  using AffinityEstimateFn = std::function<double(uint32_t wid)>;

  PendingQueue(const SchedulerOptions& options,
               const std::vector<QueryRequest>& requests,
               const std::vector<uint32_t>& wids,
               const std::vector<dana::SimTime>& estimates_by_id,
               std::vector<uint32_t> class_order,
               AffinityEstimateFn affinity_estimate)
      : policy_(options.policy),
        aging_weight_(options.sjf_aging_weight),
        requests_(requests),
        wids_(wids),
        estimates_by_id_(estimates_by_id),
        class_order_(std::move(class_order)),
        affinity_estimate_(std::move(affinity_estimate)) {
    use_sjf_set_ = policy_ == Policy::kSjf && aging_weight_ == 0.0 &&
                   affinity_estimate_ == nullptr;
    // An open stream's size is known: allocate the links once, beside the
    // run's other per-request arrays, instead of through a chain of
    // doubling reallocations whose freed blocks fragment the heap.
    next_.reserve(requests.size());
    prev_.reserve(requests.size());
  }

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  void Push(size_t request_index) {
    EnsureCapacity(request_index);
    LinkBefore(kNone, request_index);  // pushes arrive in index order
    const uint32_t w = wids_[request_index];
    ClassQueueFor(w).push_back(request_index);
    if (use_sjf_set_) sjf_.emplace(estimates_by_id_[w], request_index);
    ++count_;
  }

  /// Re-inserts a request popped but never dispatched (a released batch
  /// hold) at its admission-order position.
  void Restore(size_t request_index) {
    EnsureCapacity(request_index);
    // Find the list successor: first queued index greater than the
    // restored one. Restored indices are recent pops, so the backward walk
    // from the tail is short.
    size_t succ = kNone;
    for (size_t cur = tail_; cur != kNone && cur > request_index;
         cur = prev_[cur]) {
      succ = cur;
    }
    LinkBefore(succ, request_index);
    const uint32_t w = wids_[request_index];
    auto& q = ClassQueueFor(w);
    q.insert(std::lower_bound(q.begin(), q.end(), request_index),
             request_index);
    if (use_sjf_set_) sjf_.emplace(estimates_by_id_[w], request_index);
    ++count_;
  }

  /// Removes and returns the next request index under the policy. `now` is
  /// the dispatch time, used by SJF aging to credit queue wait.
  size_t Pop(dana::SimTime now) {
    const size_t pick = Pick(now);
    Remove(pick);
    return pick;
  }

  /// Removes up to `limit` further queued requests of workload `cls` (in
  /// admission order) and appends their indices to `out` — the co-resident
  /// queries a batched dispatch coalesces with the head query.
  void TakeSameClass(uint32_t cls, size_t limit, std::vector<size_t>* out) {
    if (cls >= per_class_.size()) return;
    auto& q = per_class_[cls];
    for (size_t taken = 0; taken < limit && !q.empty(); ++taken) {
      const size_t idx = q.front();
      out->push_back(idx);
      Remove(idx);  // pops the deque front via its fast path
    }
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  std::deque<size_t>& ClassQueueFor(uint32_t wid) {
    if (wid >= per_class_.size()) per_class_.resize(wid + 1);
    return per_class_[wid];
  }

  void EnsureCapacity(size_t request_index) {
    if (request_index >= next_.size()) {
      next_.resize(request_index + 1, kNone);
      prev_.resize(request_index + 1, kNone);
    }
  }

  /// Links `idx` before `succ` (kNone = at the tail) in the admission list.
  void LinkBefore(size_t succ, size_t idx) {
    const size_t pred = succ == kNone ? tail_ : prev_[succ];
    next_[idx] = succ;
    prev_[idx] = pred;
    if (pred == kNone) {
      head_ = idx;
    } else {
      next_[pred] = idx;
    }
    if (succ == kNone) {
      tail_ = idx;
    } else {
      prev_[succ] = idx;
    }
  }

  /// Removes `idx` from every index.
  void Remove(size_t idx) {
    const size_t p = prev_[idx], n = next_[idx];
    if (p == kNone) {
      head_ = n;
    } else {
      next_[p] = n;
    }
    if (n == kNone) {
      tail_ = p;
    } else {
      prev_[n] = p;
    }
    next_[idx] = prev_[idx] = kNone;
    const uint32_t w = wids_[idx];
    auto& q = per_class_[w];
    if (q.front() == idx) {
      q.pop_front();
    } else {
      q.erase(std::lower_bound(q.begin(), q.end(), idx));
    }
    if (use_sjf_set_) {
      sjf_.erase(sjf_.find(std::make_pair(estimates_by_id_[w], idx)));
    }
    --count_;
  }

  size_t Pick(dana::SimTime now) const {
    switch (policy_) {
      case Policy::kFcfs:
        // Arrival order == queue order. Affinity does not reorder FCFS (or
        // RR): chasing warmth in the queue trades older arrivals' wait for
        // placement and loses on mean latency; those policies get their
        // affinity purely from the slot choice after the pop.
        return head_;
      case Policy::kSjf:
        if (use_sjf_set_) return sjf_.begin()->second;
        // Aged SJF credits every second of queue wait with `weight`
        // seconds of estimate, so a long job's effective estimate
        // eventually drops below the stream of short ones and it cannot
        // starve. Affinity SJF orders by the executor's own cold/warm
        // interpolation at the best free slot's warmth — the way the
        // dispatch will be charged — with the aging credit on top. First
        // strict minimum in admission order wins.
        return ScanMinimum([&](size_t i) {
          const double estimate = affinity_estimate_ != nullptr
                                      ? affinity_estimate_(wids_[i])
                                      : estimates_by_id_[wids_[i]].seconds();
          return estimate -
                 aging_weight_ * (now - requests_[i].arrival).seconds();
        });
      case Policy::kRoundRobin:
        // Advance the cursor to the next class with queued work; take that
        // class's earliest arrival.
        for (size_t step = 0; step < class_order_.size(); ++step) {
          const uint32_t cls =
              class_order_[(rr_cursor_ + step) % class_order_.size()];
          if (cls < per_class_.size() && !per_class_[cls].empty()) {
            rr_cursor_ = (rr_cursor_ + step + 1) % class_order_.size();
            return per_class_[cls].front();
          }
        }
        return head_;
    }
    return head_;
  }

  template <typename EffectiveFn>
  size_t ScanMinimum(EffectiveFn effective) const {
    size_t pick = head_;
    double best = effective(head_);
    for (size_t i = next_[head_]; i != kNone; i = next_[i]) {
      const double cand = effective(i);
      if (cand < best) {
        best = cand;
        pick = i;
      }
    }
    return pick;
  }

  Policy policy_;
  double aging_weight_;
  bool use_sjf_set_ = false;
  const std::vector<QueryRequest>& requests_;
  const std::vector<uint32_t>& wids_;
  const std::vector<dana::SimTime>& estimates_by_id_;
  std::vector<uint32_t> class_order_;
  mutable size_t rr_cursor_ = 0;
  AffinityEstimateFn affinity_estimate_;

  size_t head_ = kNone, tail_ = kNone;
  std::vector<size_t> next_, prev_;
  size_t count_ = 0;
  std::vector<std::deque<size_t>> per_class_;
  std::multiset<std::pair<dana::SimTime, size_t>> sjf_;
};

/// Simulated compile-cache charging, id-indexed: `ready_[wid]` records
/// when that workload's design becomes available. The first dispatch of a
/// workload is a miss and pays the full compile latency; a dispatch while
/// that compile is still in flight on another slot waits out the
/// residual; later dispatches pay nothing. A batch compiles its design
/// once — the head pays the miss, riders are hits.
struct CompileCharge {
  dana::SimTime wait;
  bool head_miss = false;
};
class CompileReadyTable {
 public:
  CompileCharge Charge(uint32_t wid, dana::SimTime now,
                       dana::SimTime compile_cost) {
    if (wid >= seen_.size()) {
      seen_.resize(wid + 1, 0);
      ready_.resize(wid + 1);
    }
    CompileCharge c;
    if (!seen_[wid]) {
      seen_[wid] = 1;
      c.head_miss = true;
      c.wait = compile_cost;
      ready_[wid] = now + compile_cost;
    } else {
      c.wait = ready_[wid] > now ? ready_[wid] - now : dana::SimTime::Zero();
    }
    return c;
  }

 private:
  std::vector<uint8_t> seen_;
  std::vector<dana::SimTime> ready_;
};

/// Class rotation order for round-robin: first appearance in `wids`.
std::vector<uint32_t> FirstAppearanceOrder(const std::vector<uint32_t>& wids,
                                           uint32_t num_ids) {
  std::vector<uint32_t> order;
  std::vector<uint8_t> seen(num_ids, 0);
  for (uint32_t w : wids) {
    if (!seen[w]) {
      seen[w] = 1;
      order.push_back(w);
    }
  }
  return order;
}

/// Every distinct workload of a run, resolved before its first event: the
/// dense ids the engine keys everything by, the executor's handle for each
/// id (every per-event executor call passes it instead of the name), and
/// under SJF each id's a-priori estimate (empty otherwise).
struct Workloads {
  dana::Interner ids;
  std::vector<WorkloadHandle> handles;
  std::vector<dana::SimTime> estimates;
};

/// Resolves every id in `w->ids` (failing fast on a workload the executor
/// cannot run), then, under SJF, estimates each once, in the order `order`
/// first names it, so admission decisions are O(queue), not O(executor).
dana::Status ResolveWorkloads(Policy policy, QueryExecutor* executor,
                              const std::vector<uint32_t>& order,
                              Workloads* w) {
  for (uint32_t id = 0; id < w->ids.size(); ++id) {
    DANA_ASSIGN_OR_RETURN(WorkloadHandle h, executor->Resolve(w->ids.Name(id)));
    w->handles.push_back(h);
  }
  if (policy != Policy::kSjf) return Status::OK();
  w->estimates.resize(w->ids.size());
  std::vector<uint8_t> resolved(w->ids.size(), 0);
  for (uint32_t id : order) {
    if (resolved[id]) continue;
    DANA_ASSIGN_OR_RETURN(w->estimates[id],
                          executor->Estimate(w->ids.Name(id)));
    resolved[id] = 1;
  }
  return Status::OK();
}

/// Closed-loop feed (Scheduler::RunClosedLoop): every session submits its
/// script's next query `think_time` after its previous one completed.
struct SessionScripts {
  const std::vector<std::vector<std::string>>* sessions = nullptr;
  const std::vector<QueryClass>* classes = nullptr;  ///< empty = all batch
  dana::SimTime think_time;
};

/// The scheduler's event-driven engine. Executions advance through the
/// executor's slice ABI (QueryExecutor::Begin); all costs are peeked
/// deterministically, so the planned completion of a run is exact unless a
/// preemption truncates it. With the preemption quantum and the batch
/// window at zero every run is a single slice from dispatch to completion;
/// the knobs add priority classes, epoch-boundary preemption of batch
/// runs, and batch-formation holds on freed slots.
class EventEngine {
 public:
  EventEngine(const SchedulerOptions& options, QueryExecutor* executor,
              std::vector<QueryRequest>& requests, std::vector<uint32_t>& wids,
              const Workloads& workloads, std::vector<uint32_t> class_order,
              ScheduleReport* report)
      : options_(options),
        executor_(executor),
        requests_(requests),
        wids_(wids),
        workloads_(workloads),
        report_(report),
        windowed_(options.batch_window > dana::SimTime::Zero() &&
                  options.max_batch > 1),
        preemptive_(options.preemption_quantum_epochs > 0 ||
                    options.batch_window > dana::SimTime::Zero()),
        interactive_(options, requests, wids, workloads.estimates,
                     class_order, AffinityEstimator()),
        batch_(options, requests, wids, workloads.estimates,
               std::move(class_order), AffinityEstimator()),
        active_(options.slots),
        holds_(options.slots),
        free_since_(options.slots, dana::SimTime::Zero()) {}

  dana::Status Run() {
    dana::SimTime clock;
    while (true) {
      while (true) {
        DANA_ASSIGN_OR_RETURN(bool dispatched, TryDispatchOne(clock));
        if (!dispatched) break;
      }
      DANA_RETURN_NOT_OK(ArmPreemptions(clock));

      dana::SimTime next;
      if (!NextEventTime(&next)) break;
      clock = dana::SimTime::Max(clock, next);

      DANA_RETURN_NOT_OK(ProcessSlotEvents(clock));
      DANA_RETURN_NOT_OK(ProcessHoldExpiries(clock));
      DANA_RETURN_NOT_OK(AdmitArrivals(clock));
    }
    return Status::OK();
  }

  /// Switches the engine to closed-loop feeding: instead of a pre-built
  /// request stream, each session's next query materializes into the
  /// request vector when its predecessor's *completion event* plus the
  /// think time falls due. Submissions are admitted in (submit time,
  /// session index) order and ids number them in that order. Every session
  /// submits its first query at time zero.
  void EnableClosedLoop(const SessionScripts& scripts) {
    closed_.emplace();
    closed_->scripts = scripts;
    closed_->next.assign(scripts.sessions->size(), 0);
    for (size_t s = 0; s < scripts.sessions->size(); ++s) {
      if (!(*scripts.sessions)[s].empty()) {
        closed_->due.emplace(dana::SimTime::Zero(), s);
      }
    }
  }

 private:
  /// One preempted (or in-flight) run's cross-slice state.
  struct RunState {
    std::unique_ptr<BatchExecution> exec;
    uint32_t wid = 0;  ///< the batch's workload id
    /// The batch's stats are report_->queries[first_stat, first_stat +
    /// num_stats), appended together at dispatch, head first.
    size_t first_stat = 0;
    uint32_t num_stats = 0;
    QueryClass cls = QueryClass::kBatch;
    dana::SimTime service_acc;  ///< summed slice occupancy so far
    dana::SimTime shared_acc;
    dana::SimTime per_query_acc;
    uint32_t preemptions = 0;
    dana::SimTime preempt_overhead_acc;
  };

  struct Active {
    RunState run;
    dana::SimTime curve_origin;  ///< dispatch + compile wait: epoch 1 starts
    dana::SimTime completion;    ///< planned completion if undisturbed
    bool preempt_armed = false;
    uint32_t preempt_epochs = 0;   ///< epochs to run until the boundary
    dana::SimTime preempt_free;    ///< boundary + context-switch cost
  };

  /// A freed slot held open for batch formation (batch_window > 0): the
  /// popped head and any same-algorithm arrivals gathered so far.
  struct Hold {
    bool active = false;
    std::vector<size_t> members;
    dana::SimTime expires;
  };

  PendingQueue::AffinityEstimateFn AffinityEstimator() {
    if (options_.policy != Policy::kSjf || options_.affinity_weight <= 0.0) {
      return nullptr;
    }
    return [this](uint32_t wid) { return AffinityEstimate(wid); };
  }

  /// Residency-aware SJF estimate at the best free slot's warmth, falling
  /// back to the static estimate when the executor cannot price warmth.
  double AffinityEstimate(uint32_t wid) {
    const WorkloadHandle h = workloads_.handles[wid];
    auto est = executor_->EstimateAtWarmthOf(h, BestFreeWarmth(h));
    return est.ok() ? est->seconds() : workloads_.estimates[wid].seconds();
  }

  /// The affinity signal: the best residency any free slot offers.
  double BestFreeWarmth(WorkloadHandle h) const {
    double best = 0.0;
    for (uint32_t s = 0; s < options_.slots; ++s) {
      if (SlotFree(s)) best = std::max(best, executor_->WarmFractionOf(h, s));
    }
    return best;
  }

  bool SlotFree(uint32_t s) const {
    return !active_[s].has_value() && !holds_[s].active;
  }

  bool AnySlotFree() const {
    for (uint32_t s = 0; s < options_.slots; ++s) {
      if (SlotFree(s)) return true;
    }
    return false;
  }

  /// Among free slots, the one free the longest (lowest index on ties);
  /// under affinity, the warmest (ties by the blind rule).
  uint32_t ChooseSlot(uint32_t wid) const {
    uint32_t slot = kNoSlot;
    for (uint32_t s = 0; s < options_.slots; ++s) {
      if (SlotFree(s) &&
          (slot == kNoSlot || free_since_[s] < free_since_[slot])) {
        slot = s;
      }
    }
    if (options_.affinity_weight > 0.0) {
      double best_warm = -1.0;
      for (uint32_t s = 0; s < options_.slots; ++s) {
        if (!SlotFree(s)) continue;
        const double w = executor_->WarmFractionOf(workloads_.handles[wid], s);
        if (w > best_warm ||
            (w == best_warm && free_since_[s] < free_since_[slot])) {
          best_warm = w;
          slot = s;
        }
      }
    }
    return slot;
  }

  /// Pops `queue`'s head under the policy plus up to max_batch - 1 queued
  /// queries of the same algorithm to ride its pass, into a reused buffer.
  const std::vector<size_t>& PopBatch(PendingQueue& queue, dana::SimTime now) {
    members_.clear();
    members_.push_back(queue.Pop(now));
    if (options_.max_batch > 1) {
      queue.TakeSameClass(wids_[members_[0]], options_.max_batch - 1,
                          &members_);
    }
    return members_;
  }

  /// Dispatches the highest-priority available work onto a free slot at
  /// `now`: interactive queries first, then preempted remainders, then
  /// fresh batch work (which may instead open a formation hold). Returns
  /// false when nothing could start.
  dana::Result<bool> TryDispatchOne(dana::SimTime now) {
    if (interactive_.empty() && continuations_.empty() && batch_.empty()) {
      return false;
    }
    if (!interactive_.empty() && !AnySlotFree()) {
      // Interactive work outranks batch formation: with every free slot
      // held, seize the lowest one — its members return to the batch
      // queue (never dispatched, nothing charged) and the slot serves the
      // interactive query. Holds on other slots keep their windows.
      for (uint32_t s = 0; s < options_.slots; ++s) {
        if (!holds_[s].active) continue;
        for (size_t m : holds_[s].members) batch_.Restore(m);
        holds_[s].members.clear();
        holds_[s].active = false;
        break;
      }
    }
    if (!AnySlotFree()) return false;

    if (!interactive_.empty()) {
      const std::vector<size_t>& members = PopBatch(interactive_, now);
      const uint32_t slot = ChooseSlot(wids_[members[0]]);
      return DispatchBatch(members, slot, now);
    }

    if (!continuations_.empty()) {
      // Resume the preempted remainder with the earliest original arrival.
      size_t pick = 0;
      auto key = [&](size_t c) {
        const QueryStat& head = report_->queries[continuations_[c].first_stat];
        return std::make_pair(head.arrival, head.id);
      };
      for (size_t c = 1; c < continuations_.size(); ++c) {
        if (key(c) < key(pick)) pick = c;
      }
      RunState run = std::move(continuations_[pick]);
      continuations_.erase(continuations_.begin() +
                           static_cast<ptrdiff_t>(pick));
      const uint32_t slot = ChooseSlot(run.wid);
      return ResumeDispatch(std::move(run), slot, now);
    }

    const std::vector<size_t>& members = PopBatch(batch_, now);
    const uint32_t slot = ChooseSlot(wids_[members[0]]);
    if (windowed_ && members.size() < options_.max_batch &&
        next_arrival_ < requests_.size()) {
      // Hold the slot open: future same-algorithm arrivals join until the
      // batch fills or the window expires.
      holds_[slot].active = true;
      holds_[slot].members = members;
      holds_[slot].expires = now + options_.batch_window;
      return true;
    }
    return DispatchBatch(members, slot, now);
  }

  /// Starts `members` (head first) as one batched run on free slot `slot`:
  /// compile charging, the planned completion, and one stat per member.
  dana::Result<bool> DispatchBatch(const std::vector<size_t>& members,
                                   uint32_t slot, dana::SimTime now) {
    const QueryRequest& head = requests_[members[0]];
    const uint32_t wid = wids_[members[0]];
    batch_buffer_.workload_id = head.workload_id;
    batch_buffer_.handle = workloads_.handles[wid];
    batch_buffer_.slot = slot;
    batch_buffer_.query_ids.clear();
    for (size_t m : members) batch_buffer_.query_ids.push_back(requests_[m].id);
    DANA_ASSIGN_OR_RETURN(std::unique_ptr<BatchExecution> exec,
                          executor_->Begin(batch_buffer_));

    const CompileCharge charge =
        compile_ready_.Charge(wid, now, exec->compile_cost());

    Active a;
    a.run.wid = wid;
    a.run.cls = head.query_class;
    a.curve_origin = now + charge.wait;
    DANA_ASSIGN_OR_RETURN(dana::SimTime remaining, exec->PeekService(0));
    a.completion = a.curve_origin + remaining;
    a.run.first_stat = report_->queries.size();
    a.run.num_stats = static_cast<uint32_t>(members.size());
    for (size_t j = 0; j < members.size(); ++j) {
      const QueryRequest& req = requests_[members[j]];
      QueryStat stat;
      stat.id = req.id;
      stat.workload_id = req.workload_id;
      stat.query_class = req.query_class;
      stat.slot = slot;
      stat.arrival = req.arrival;
      stat.start = now;
      stat.compile = charge.wait;
      stat.compile_hit = !(charge.head_miss && j == 0);
      stat.batch_size = static_cast<uint32_t>(members.size());
      stat.warm_fraction = exec->warm_fraction();
      stat.os_warm_fraction = exec->os_warm_fraction();
      stat.residency_modeled = exec->residency_modeled();
      if (stat.compile_hit) {
        ++report_->compile_hits;
      } else {
        ++report_->compile_misses;
      }
      report_->queries.push_back(std::move(stat));
    }
    ++report_->batches;
    if (options_.tracer != nullptr) {
      if (charge.wait > dana::SimTime::Zero()) {
        options_.tracer->Span(slot, "compile " + head.workload_id, "compile",
                              now, a.curve_origin,
                              {{"hit", !charge.head_miss}});
      }
      options_.tracer->Instant(
          slot, "dispatch " + head.workload_id, "dispatch", now,
          {{"queries", static_cast<uint64_t>(members.size())},
           {"class", std::string(QueryClassName(head.query_class))}});
    }
    a.run.exec = std::move(exec);
    // Nothing can cut a run short without a preemptive knob: take its one
    // slice now, so the executor runs and the report totals accumulate in
    // dispatch order.
    if (!preemptive_) DANA_RETURN_NOT_OK(FinishRun(a.run));
    active_[slot] = std::move(a);
    return true;
  }

  dana::Result<bool> ResumeDispatch(RunState run, uint32_t slot,
                                    dana::SimTime now) {
    DANA_RETURN_NOT_OK(run.exec->Resume(slot));
    Active a;
    a.curve_origin = now;  // no compile on resume: the design is cached
    DANA_ASSIGN_OR_RETURN(dana::SimTime remaining, run.exec->PeekService(0));
    a.completion = now + remaining;
    a.run = std::move(run);
    for (QueryStat& stat : Stats(a.run)) stat.slot = slot;
    obs::Count(options_.metrics, "sched.resumes");
    if (options_.tracer != nullptr) {
      options_.tracer->Instant(
          slot, "resume " + a.run.exec->batch().workload_id, "resume", now,
          {{"epochs_run",
            static_cast<uint64_t>(a.run.exec->epochs_run())}});
    }
    active_[slot] = std::move(a);
    return true;
  }

  /// The report rows of `run`'s members.
  std::span<QueryStat> Stats(const RunState& run) {
    return {report_->queries.data() + run.first_stat, run.num_stats};
  }

  /// A candidate victim's first usable quantum boundary, found by FindArm.
  struct ArmPlan {
    uint32_t epochs = 0;      ///< epochs to run until the boundary
    dana::SimTime boundary;   ///< the boundary on the simulated clock
    dana::SimTime freed;      ///< boundary + context-switch cost
  };

  /// Arms one epoch-boundary preemption per waiting interactive query:
  /// the longest-remaining unarmed batch-class run with a usable boundary
  /// is checkpointed at its next quantum boundary at or after `now` —
  /// provided freeing it there (boundary + context switch) actually beats
  /// letting it finish. Whether a run can arm depends on its remaining
  /// *epochs*, not its completion time, so when the longest-remaining run
  /// has no boundary left the next-longest candidates still get their
  /// turn. Ties on remaining time break by (1) checkpoint-to-boundary
  /// distance — the victim whose usable boundary frees a slot soonest
  /// serves the waiting query fastest and yields the most remaining work
  /// per context switch, so an equal-length run one epoch short of its
  /// completion no longer gets checkpointed while a mid-quantum run with a
  /// near boundary sits untouched — then (2) expected cold-resume
  /// residency loss: the extra service a cold resume pays versus the
  /// victim's current warmth, priced by the executor's own interpolation
  /// (EstimateAtWarmth at 0 minus at the current warm fraction), so a
  /// barely-warm huge table outweighs a fully-warm tiny one — then
  /// (3) slot index, keeping the schedule deterministic.
  dana::Status ArmPreemptions(dana::SimTime now) {
    if (options_.preemption_quantum_epochs == 0) return Status::OK();
    size_t armed = 0;
    std::vector<uint32_t> candidates;
    for (uint32_t s = 0; s < options_.slots; ++s) {
      if (!active_[s].has_value()) continue;
      if (active_[s]->preempt_armed) {
        ++armed;
      } else if (active_[s]->run.cls == QueryClass::kBatch) {
        candidates.push_back(s);
      }
    }
    if (candidates.empty() || interactive_.size() <= armed) {
      return Status::OK();
    }
    // Rank every candidate before choosing: the tie-breaks need each run's
    // boundary plan, not just its completion time.
    struct Ranked {
      uint32_t slot;
      bool usable;
      ArmPlan plan;
      double residency_loss;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(candidates.size());
    for (uint32_t s : candidates) {
      Ranked r;
      r.slot = s;
      DANA_ASSIGN_OR_RETURN(auto plan, FindArm(*active_[s], now));
      r.usable = plan.has_value();
      if (r.usable) r.plan = *plan;
      // What a cold resume would throw away: the extra service the
      // executor prices at warmth 0 over the victim's current warmth (the
      // re-streamed I/O the resident share was saving). Counted only for
      // residency_modeled executions — unmodeled warmth is a static
      // constant, not a loss — with the bare warm fraction as the
      // fallback when the executor cannot price warmth.
      r.residency_loss = 0.0;
      if (active_[s]->run.exec->residency_modeled()) {
        const WorkloadHandle h = workloads_.handles[active_[s]->run.wid];
        const double warm = executor_->WarmFractionOf(h, s);
        auto cold_est = executor_->EstimateAtWarmthOf(h, 0.0);
        auto warm_est = executor_->EstimateAtWarmthOf(h, warm);
        r.residency_loss = cold_est.ok() && warm_est.ok()
                               ? cold_est->seconds() - warm_est->seconds()
                               : warm;
      }
      ranked.push_back(r);
    }
    std::stable_sort(
        ranked.begin(), ranked.end(), [&](const Ranked& a, const Ranked& b) {
          const dana::SimTime ca = active_[a.slot]->completion;
          const dana::SimTime cb = active_[b.slot]->completion;
          if (ca != cb) return ca > cb;  // longest remaining first
          if (a.usable != b.usable) return a.usable;  // armable first
          if (a.usable && a.plan.boundary != b.plan.boundary) {
            return a.plan.boundary < b.plan.boundary;  // nearest boundary
          }
          if (a.residency_loss != b.residency_loss) {
            return a.residency_loss < b.residency_loss;  // least to lose
          }
          return a.slot < b.slot;
        });
    for (const Ranked& r : ranked) {
      if (interactive_.size() <= armed) break;
      if (!r.usable) continue;
      Active& a = *active_[r.slot];
      a.preempt_armed = true;
      a.preempt_epochs = r.plan.epochs;
      a.preempt_free = r.plan.freed;
      ++armed;
    }
    return Status::OK();
  }

  /// Finds `a`'s first usable quantum boundary at or after `now`, or
  /// nullopt when none beats letting the run finish. Boundaries sit at
  /// *global* epoch indices — multiples of the quantum counted from the
  /// run's original dispatch (its absolute epochs_run position), not from
  /// the current re-dispatch — so a resumed run keeps its original
  /// boundary phase no matter where a checkpoint cut it.
  dana::Result<std::optional<ArmPlan>> FindArm(const Active& a,
                                               dana::SimTime now) const {
    const uint32_t q = options_.preemption_quantum_epochs;
    const uint32_t done = a.run.exec->epochs_run();
    const uint32_t total = a.run.exec->total_epochs();
    for (uint32_t global = (done / q + 1) * q; global < total; global += q) {
      const uint32_t j = global - done;
      DANA_ASSIGN_OR_RETURN(dana::SimTime through, a.run.exec->PeekService(j));
      const dana::SimTime boundary = a.curve_origin + through;
      if (boundary < now) continue;  // boundary already passed
      const dana::SimTime freed = boundary + options_.context_switch_cost;
      if (freed >= a.completion) {
        return std::optional<ArmPlan>();  // cheaper to let it finish
      }
      return std::optional<ArmPlan>(ArmPlan{j, boundary, freed});
    }
    return std::optional<ArmPlan>();
  }

  bool NextEventTime(dana::SimTime* next) const {
    bool any = false;
    auto consider = [&](dana::SimTime t) {
      if (!any || t < *next) *next = t;
      any = true;
    };
    if (next_arrival_ < requests_.size()) {
      consider(requests_[next_arrival_].arrival);
    }
    if (closed_.has_value() && !closed_->due.empty()) {
      consider(closed_->due.top().first);
    }
    for (uint32_t s = 0; s < options_.slots; ++s) {
      if (active_[s].has_value()) {
        consider(active_[s]->preempt_armed ? active_[s]->preempt_free
                                           : active_[s]->completion);
      }
      if (holds_[s].active) consider(holds_[s].expires);
    }
    return any;
  }

  dana::Status ProcessSlotEvents(dana::SimTime now) {
    // Completions first: a slot finishing on this tick serves waiting
    // interactive queries for free. Armed preemptions then fire only for
    // demand beyond the slots already freed, so two boundaries landing on
    // one tick cannot both pay a context switch for a single waiting
    // query.
    size_t freed = 0;
    for (uint32_t s = 0; s < options_.slots; ++s) {
      if (!active_[s].has_value()) continue;
      if (!active_[s]->preempt_armed && active_[s]->completion <= now) {
        DANA_RETURN_NOT_OK(Complete(s, now));
        ++freed;
      }
    }
    if (options_.preemption_quantum_epochs == 0) return Status::OK();
    for (uint32_t s = 0; s < options_.slots; ++s) {
      if (!active_[s].has_value()) continue;
      Active& a = *active_[s];
      if (a.preempt_armed && a.preempt_free <= now) {
        if (interactive_.size() <= freed) {
          // The demand that armed this was (or will be) served by slots
          // already freed: cancel instead of paying the context switch
          // for nothing (a later arrival re-arms at its next boundary).
          a.preempt_armed = false;
          continue;
        }
        DANA_RETURN_NOT_OK(Preempt(s, now));
        ++freed;
      }
    }
    return Status::OK();
  }

  dana::Status Complete(uint32_t slot, dana::SimTime now) {
    Active a = std::move(*active_[slot]);
    active_[slot].reset();
    free_since_[slot] = now;
    if (!a.run.exec->finished()) DANA_RETURN_NOT_OK(FinishRun(a.run));
    for (QueryStat& stat : Stats(a.run)) {
      stat.slot = slot;
      stat.completion = a.completion;
      stat.service = a.run.service_acc;
      stat.shared_service = a.run.shared_acc;
      stat.private_service = a.run.per_query_acc;
      stat.preemptions = a.run.preemptions;
      stat.preempt_overhead = a.run.preempt_overhead_acc;
    }
    report_->makespan = dana::SimTime::Max(report_->makespan, a.completion);
    if (closed_.has_value()) {
      // Think-time feedback: each member's session schedules its next
      // submission off this completion — known only now, at the event,
      // after any boundary checkpoints truncated or resumed the run.
      for (const QueryStat& stat : Stats(a.run)) {
        const size_t s = closed_->owner[stat.id];
        if (closed_->next[s] < (*closed_->scripts.sessions)[s].size()) {
          closed_->due.emplace(a.completion + closed_->scripts.think_time, s);
        }
      }
    }
    obs::Count(options_.metrics, "sched.slices");
    if (options_.tracer != nullptr) {
      options_.tracer->Span(
          slot, "run " + a.run.exec->batch().workload_id, "slice",
          a.curve_origin, a.completion,
          {{"queries", static_cast<uint64_t>(a.run.num_stats)},
           {"epochs_run", static_cast<uint64_t>(a.run.exec->epochs_run())},
           {"final", true}});
    }
    return Status::OK();
  }

  /// Runs `run`'s remaining epochs as its final slice and adds the run's
  /// service attribution to the report totals.
  dana::Status FinishRun(RunState& run) {
    DANA_ASSIGN_OR_RETURN(SliceCost slice, run.exec->NextSlice(0));
    run.service_acc += slice.service;
    run.shared_acc += slice.shared;
    run.per_query_acc += slice.per_query;
    report_->shared_service += run.shared_acc;
    report_->private_service +=
        run.per_query_acc * static_cast<double>(run.num_stats);
    return Status::OK();
  }

  dana::Status Preempt(uint32_t slot, dana::SimTime now) {
    Active a = std::move(*active_[slot]);
    active_[slot].reset();
    free_since_[slot] = now;
    DANA_ASSIGN_OR_RETURN(SliceCost slice,
                          a.run.exec->NextSlice(a.preempt_epochs));
    DANA_RETURN_NOT_OK(a.run.exec->Checkpoint());
    a.run.service_acc += slice.service;
    a.run.shared_acc += slice.shared;
    a.run.per_query_acc += slice.per_query;
    ++a.run.preemptions;
    a.run.preempt_overhead_acc += options_.context_switch_cost;
    ++report_->preemptions;
    report_->preemption_overhead += options_.context_switch_cost;
    obs::Count(options_.metrics, "sched.slices");
    obs::Observe(options_.metrics, "sched.ctx_switch_s",
                 options_.context_switch_cost.seconds());
    if (options_.tracer != nullptr) {
      const dana::SimTime boundary =
          a.preempt_free - options_.context_switch_cost;
      const std::string& id = a.run.exec->batch().workload_id;
      options_.tracer->Span(
          slot, "run " + id, "slice", a.curve_origin, boundary,
          {{"queries", static_cast<uint64_t>(a.run.num_stats)},
           {"epochs_run", static_cast<uint64_t>(a.run.exec->epochs_run())},
           {"final", false}});
      options_.tracer->Instant(slot, "checkpoint " + id, "preempt", boundary);
      options_.tracer->Span(slot, "ctx-switch", "preempt", boundary,
                            a.preempt_free);
    }
    continuations_.push_back(std::move(a.run));
    return Status::OK();
  }

  dana::Status ProcessHoldExpiries(dana::SimTime now) {
    if (!windowed_) return Status::OK();
    for (uint32_t s = 0; s < options_.slots; ++s) {
      if (!holds_[s].active || holds_[s].expires > now) continue;
      DANA_RETURN_NOT_OK(ReleaseHold(s, now));
    }
    return Status::OK();
  }

  /// Dispatches slot `s`'s held batch as gathered so far.
  dana::Status ReleaseHold(uint32_t s, dana::SimTime now) {
    const std::vector<size_t> members = std::move(holds_[s].members);
    holds_[s].active = false;
    return DispatchBatch(members, s, now).status();
  }

  dana::Status AdmitArrivals(dana::SimTime now) {
    if (closed_.has_value()) {
      // Materialize every due submission into the request stream first, in
      // (submit time, session index) order — the heap's order. The clock
      // only ever advances to the earliest pending event (NextEventTime
      // includes the heap top), so appended arrivals keep the stream's
      // nondecreasing-arrival invariant the admission walk below relies on.
      const SessionScripts& scripts = closed_->scripts;
      while (!closed_->due.empty() && closed_->due.top().first <= now) {
        const auto [submit, s] = closed_->due.top();
        closed_->due.pop();
        QueryRequest req;
        req.id = requests_.size();
        req.workload_id = (*scripts.sessions)[s][closed_->next[s]];
        req.arrival = submit;
        req.query_class = scripts.classes->empty() ? QueryClass::kBatch
                                                   : (*scripts.classes)[s];
        wids_.push_back(workloads_.ids.Find(req.workload_id));
        requests_.push_back(std::move(req));
        closed_->owner.push_back(s);
        ++closed_->next[s];
      }
    }
    while (next_arrival_ < requests_.size() &&
           requests_[next_arrival_].arrival <= now) {
      const size_t idx = next_arrival_++;
      if (preemptive_ &&
          requests_[idx].query_class == QueryClass::kInteractive) {
        // Queued here; the dispatch phase serves it from a free slot and
        // seizes a batch-formation hold only when every free slot is held
        // (TryDispatchOne), so holds survive while idle capacity exists.
        interactive_.Push(idx);
        continue;
      }
      DANA_ASSIGN_OR_RETURN(bool joined, JoinHold(idx, now));
      if (!joined) batch_.Push(idx);
    }
    return Status::OK();
  }

  /// Batch arrival `idx` joins an open formation hold for its algorithm if
  /// one exists (lowest slot first); the hold dispatches the moment it
  /// fills. False when no hold took it.
  dana::Result<bool> JoinHold(size_t idx, dana::SimTime now) {
    if (!windowed_) return false;
    for (uint32_t s = 0; s < options_.slots; ++s) {
      if (!holds_[s].active) continue;
      if (wids_[holds_[s].members[0]] != wids_[idx]) continue;
      holds_[s].members.push_back(idx);
      if (holds_[s].members.size() >= options_.max_batch) {
        DANA_RETURN_NOT_OK(ReleaseHold(s, now));
      }
      return true;
    }
    return false;
  }

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  const SchedulerOptions& options_;
  QueryExecutor* executor_;
  std::vector<QueryRequest>& requests_;
  std::vector<uint32_t>& wids_;
  const Workloads& workloads_;
  ScheduleReport* report_;
  /// Batch-formation holds are possible (window > 0 and batching on).
  const bool windowed_;
  /// A preemptive knob (quantum or window) is armed. Only then do
  /// interactive queries queue ahead of batch work; otherwise the class is
  /// recorded for SLO reporting but every query shares one queue, and
  /// every run takes its single slice at dispatch.
  const bool preemptive_;
  PendingQueue interactive_;
  PendingQueue batch_;
  std::vector<std::optional<Active>> active_;
  std::vector<Hold> holds_;
  std::vector<dana::SimTime> free_since_;
  std::vector<RunState> continuations_;
  CompileReadyTable compile_ready_;
  size_t next_arrival_ = 0;
  /// Reused per-dispatch buffers: the popped batch's request indices and
  /// the QueryBatch handed to the executor.
  std::vector<size_t> members_;
  QueryBatch batch_buffer_;

  /// Closed-loop feeder state (EnableClosedLoop); nullopt on the open
  /// stream. `due` is a min-heap of (submit time, session): a session
  /// appears at most once, pushed when its previous query's completion
  /// event fires.
  struct ClosedLoop {
    SessionScripts scripts;
    std::vector<size_t> next;   ///< per-session script cursor
    /// Request id -> session index (closed-loop ids number the request
    /// vector: each submission's id is its index).
    std::vector<size_t> owner;
    std::priority_queue<std::pair<dana::SimTime, size_t>,
                        std::vector<std::pair<dana::SimTime, size_t>>,
                        std::greater<std::pair<dana::SimTime, size_t>>>
        due;
  };
  std::optional<ClosedLoop> closed_;
};

/// Runs one request stream (or closed-loop feed) through the engine and
/// publishes the report's metrics. `requests`/`wids` may grow in closed
/// loop; `expected` sizes the report.
dana::Result<ScheduleReport> RunEngine(
    const SchedulerOptions& options, QueryExecutor* executor,
    std::vector<QueryRequest>& requests, std::vector<uint32_t>& wids,
    const Workloads& workloads, std::vector<uint32_t> class_order,
    const SessionScripts* closed, size_t expected) {
  ScheduleReport report;
  report.policy = options.policy;
  report.slots = options.slots;
  report.queries.reserve(expected);

  EventEngine engine(options, executor, requests, wids, workloads,
                     std::move(class_order), &report);
  if (closed != nullptr) engine.EnableClosedLoop(*closed);
  DANA_RETURN_NOT_OK(engine.Run());
  PublishReportMetrics(report, options.metrics);
  return report;
}

}  // namespace

Result<ScheduleReport> Scheduler::Run(std::vector<QueryRequest> requests) {
  // A stream already in (arrival, id) order comes back unchanged from a
  // stable sort, so only an unsorted one pays for it.
  const auto by_arrival = [](const QueryRequest& a, const QueryRequest& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  };
  if (!std::is_sorted(requests.begin(), requests.end(), by_arrival)) {
    std::stable_sort(requests.begin(), requests.end(), by_arrival);
  }

  // Intern every workload id once at admission and resolve each with the
  // executor: the engine keys its estimate tables, compile charging,
  // per-class queues and executor calls by these dense ids, so nothing on
  // the per-event path hashes or compares strings.
  Workloads workloads;
  std::vector<uint32_t> wids;
  wids.reserve(requests.size());
  for (const QueryRequest& r : requests) {
    wids.push_back(workloads.ids.Intern(r.workload_id));
  }
  DANA_RETURN_NOT_OK(
      ResolveWorkloads(options_.policy, executor_, wids, &workloads));
  const size_t expected = requests.size();
  return RunEngine(options_, executor_, requests, wids, workloads,
                   FirstAppearanceOrder(wids, workloads.ids.size()), nullptr,
                   expected);
}

Result<ScheduleReport> Scheduler::RunClosedLoop(
    const std::vector<std::vector<std::string>>& sessions,
    dana::SimTime think_time,
    const std::vector<QueryClass>& session_classes) {
  if (!session_classes.empty() && session_classes.size() != sessions.size()) {
    return Status::InvalidArgument(
        "session_classes must be empty or have one entry per session (got " +
        std::to_string(session_classes.size()) + " classes for " +
        std::to_string(sessions.size()) + " sessions)");
  }
  // A formation hold defers the completions closed-loop sessions submit
  // from, and the hold logic keys off the *open-stream* arrival horizon,
  // which a think-time feeder cannot pre-compute — so this knob gets an
  // actionable rejection naming the option to drop.
  if (options_.batch_window > dana::SimTime::Zero()) {
    return Status::InvalidArgument(
        "batch_window is an open-stream feature: a held slot defers the "
        "completions closed-loop sessions submit from; set the window to "
        "zero (see ROADMAP closed-loop preemption follow-up)");
  }

  // Intern every script id up front (the whole catalog is known before the
  // first submission) in interleaved first-submission order — session 0's
  // first query, session 1's first, ... — which is also the RR class
  // rotation order. SJF estimates resolve script by script.
  Workloads workloads;
  std::vector<uint32_t> submit_order;
  for (size_t j = 0;; ++j) {
    bool any = false;
    for (const auto& script : sessions) {
      if (j < script.size()) {
        submit_order.push_back(workloads.ids.Intern(script[j]));
        any = true;
      }
    }
    if (!any) break;
  }
  std::vector<uint32_t> script_order;
  script_order.reserve(submit_order.size());
  for (const auto& script : sessions) {
    for (const std::string& id : script) {
      script_order.push_back(workloads.ids.Find(id));
    }
  }
  DANA_RETURN_NOT_OK(
      ResolveWorkloads(options_.policy, executor_, script_order, &workloads));

  // The engine appends each submission to these as it materializes;
  // entries are always addressed by index, so growth is safe.
  std::vector<QueryRequest> requests;
  std::vector<uint32_t> wids;
  requests.reserve(submit_order.size());
  wids.reserve(submit_order.size());
  const SessionScripts scripts{&sessions, &session_classes, think_time};
  return RunEngine(options_, executor_, requests, wids, workloads,
                   FirstAppearanceOrder(submit_order, workloads.ids.size()),
                   &scripts, submit_order.size());
}

}  // namespace dana::sched
