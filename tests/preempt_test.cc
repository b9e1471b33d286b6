// Preemptible epoch-sliced execution suite (ctest label: sched_preempt).
//
// Two layers of the resumable-execution stack are pinned here (the
// accelerator itself always runs whole: preemption is priced from the
// executor's measured epoch profiles, never by resuming a simulator run):
//  - the executor slice ABI: DanaQueryExecutor's slice costs telescope to
//    the run-to-completion charge, and Resume re-prices the remainder
//    from the new slot's residency;
//  - the scheduler's preemptive knobs: priority classes, epoch-boundary
//    preemption with a bounded interactive latency (open stream and
//    closed-loop sessions), and the batching window.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sched/executor.h"
#include "sched/scheduler.h"
#include "sched/workload_driver.h"
#include "storage/buffer_pool.h"
#include "support/synthetic_executor.h"

namespace dana {
namespace {

// ---------------------------------------------------------------------------
// DanaQueryExecutor slice ABI
// ---------------------------------------------------------------------------

TEST(ExecutorSliceTest, SlicesTelescopeToTheWholeRunCharge) {
  sched::DanaQueryExecutor executor;
  auto whole =
      sched::RunWhole(executor, sched::QueryBatch::Single("wlan", 0, 0));
  ASSERT_TRUE(whole.ok());

  // A fresh cold machine again: slicing epoch by epoch must charge the
  // same total occupancy as the one-shot dispatch.
  executor.ResetResidency();
  auto exec = executor.Begin(sched::QueryBatch::Single("wlan", 1, 0));
  ASSERT_TRUE(exec.ok());
  const uint32_t total_epochs = (*exec)->total_epochs();
  ASSERT_GT(total_epochs, 1u);
  dana::SimTime sum;
  uint32_t slices = 0;
  while (!(*exec)->finished()) {
    auto slice = (*exec)->NextSlice(1);
    ASSERT_TRUE(slice.ok());
    EXPECT_EQ(slice->epochs, 1u);
    sum += slice->service;
    ++slices;
  }
  EXPECT_EQ(slices, total_epochs);
  EXPECT_NEAR(sum.nanos(), whole->slice.service.nanos(), 1.0);

  // Draining an already-finished execution is a contract violation.
  EXPECT_TRUE((*exec)->NextSlice(1).status().IsFailedPrecondition());
}

TEST(ExecutorSliceTest, PeekNeverPerturbsAndMatchesSlices) {
  sched::DanaQueryExecutor executor;
  auto exec = executor.Begin(sched::QueryBatch::Single("wlan", 0, 0));
  ASSERT_TRUE(exec.ok());
  auto all = (*exec)->PeekService(0);
  auto again = (*exec)->PeekService(0);
  ASSERT_TRUE(all.ok() && again.ok());
  EXPECT_EQ(all->nanos(), again->nanos());
  auto first_two = (*exec)->PeekService(2);
  ASSERT_TRUE(first_two.ok());
  auto slice = (*exec)->NextSlice(2);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->service.nanos(), first_two->nanos());
  auto rest = (*exec)->PeekService(0);
  ASSERT_TRUE(rest.ok());
  EXPECT_NEAR(slice->service.nanos() + rest->nanos(), all->nanos(), 1.0);
}

TEST(ExecutorSliceTest, ResumeElsewhereIsColdSameSlotIsWarm) {
  sched::DanaQueryExecutor executor;
  auto exec = executor.Begin(sched::QueryBatch::Single("wlan", 0, 0));
  ASSERT_TRUE(exec.ok());
  auto slice = (*exec)->NextSlice(2);
  ASSERT_TRUE(slice.ok());
  ASSERT_TRUE((*exec)->Checkpoint().ok());

  // Undisturbed same-slot resume: the cost curve continues exactly.
  auto before = (*exec)->PeekService(0);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*exec)->Resume(0).ok());
  auto same = (*exec)->PeekService(0);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->nanos(), before->nanos());

  // Resuming on a never-used slot re-pays the cold transient: the
  // remainder is strictly more expensive than the warm continuation.
  ASSERT_TRUE((*exec)->Resume(1).ok());
  auto elsewhere = (*exec)->PeekService(0);
  ASSERT_TRUE(elsewhere.ok());
  EXPECT_GT(elsewhere->nanos(), same->nanos());
}

TEST(ExecutorSliceTest, SliceUpdatesResidencyPerSweep) {
  sched::DanaQueryExecutor executor;
  auto exec = executor.Begin(sched::QueryBatch::Single("wlan", 0, 0));
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(executor.WarmFraction("wlan", 0), 0.0);
  ASSERT_TRUE((*exec)->NextSlice(1).ok());
  // One epoch swept the whole table: the slot is warm for it now, so an
  // intervening query would find it and the resumed remainder stays warm
  // until something else evicts it.
  EXPECT_GT(executor.WarmFraction("wlan", 0), 0.0);
}

// ---------------------------------------------------------------------------
// Scheduler preemptive path (synthetic epoch-sliced executor)
// ---------------------------------------------------------------------------

sched::QueryRequest Req(uint64_t id, const std::string& workload,
                        double arrival_s,
                        sched::QueryClass cls = sched::QueryClass::kBatch) {
  sched::QueryRequest r;
  r.id = id;
  r.workload_id = workload;
  r.arrival = dana::SimTime::Seconds(arrival_s);
  r.query_class = cls;
  return r;
}

TEST(PreemptionTest, InteractiveLatencyBoundedByQuantumPlusContextSwitch) {
  sched::SyntheticExecutor exec;
  exec.Set("training", {.epochs = 100, .shared_s = 1.0, .estimate_s = 100});
  exec.Set("lookup", {.shared_s = 2.0, .estimate_s = 2});
  std::vector<sched::QueryRequest> reqs = {
      Req(0, "training", 0),
      Req(1, "lookup", 10.5, sched::QueryClass::kInteractive)};
  sched::Scheduler sched({.slots = 1,
                          .policy = sched::Policy::kFcfs,
                          .preemption_quantum_epochs = 4,
                          .context_switch_cost = dana::SimTime::Seconds(0.5)},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->queries.size(), 2u);

  const sched::QueryStat* lookup = nullptr;
  const sched::QueryStat* training = nullptr;
  for (const sched::QueryStat& q : report->queries) {
    (q.id == 1 ? lookup : training) = &q;
  }
  ASSERT_NE(lookup, nullptr);
  ASSERT_NE(training, nullptr);

  // The arrival at t=10.5 preempts the run at its next 4-epoch boundary,
  // t=12, and the slot frees after the 0.5 s context switch.
  EXPECT_DOUBLE_EQ(lookup->start.seconds(), 12.5);
  EXPECT_DOUBLE_EQ(lookup->completion.seconds(), 14.5);
  // Latency bound: one quantum of epochs + context switch + own service.
  const double bound = 4 * 1.0 + 0.5 + 2.0;
  EXPECT_LE(lookup->Latency().seconds(), bound);

  // The preempted run resumed at 14.5 and finished its remaining 88
  // epochs; its service excludes the context switch, which is reported
  // separately.
  EXPECT_EQ(training->preemptions, 1u);
  EXPECT_DOUBLE_EQ(training->preempt_overhead.seconds(), 0.5);
  EXPECT_DOUBLE_EQ(training->service.seconds(), 100.0);
  EXPECT_DOUBLE_EQ(training->completion.seconds(), 102.5);
  EXPECT_EQ(report->preemptions, 1u);
  EXPECT_DOUBLE_EQ(report->preemption_overhead.seconds(), 0.5);
  EXPECT_DOUBLE_EQ(report->makespan.seconds(), 102.5);
}

TEST(PreemptionTest, LongestRemainingRunIsTheVictim) {
  sched::SyntheticExecutor exec;
  exec.Set("long", {.epochs = 100, .shared_s = 1.0, .estimate_s = 100});
  exec.Set("short_train", {.epochs = 20, .shared_s = 1.0, .estimate_s = 20});
  exec.Set("lookup", {.shared_s = 1.0, .estimate_s = 1});
  std::vector<sched::QueryRequest> reqs = {
      Req(0, "long", 0), Req(1, "short_train", 0),
      Req(2, "lookup", 5.5, sched::QueryClass::kInteractive)};
  sched::Scheduler sched({.slots = 2,
                          .policy = sched::Policy::kFcfs,
                          .preemption_quantum_epochs = 2,
                          .context_switch_cost = dana::SimTime::Zero()},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  const sched::QueryStat* longest = nullptr;
  for (const sched::QueryStat& q : report->queries) {
    if (q.id == 0) longest = &q;
  }
  ASSERT_NE(longest, nullptr);
  EXPECT_EQ(longest->preemptions, 1u);
  for (const sched::QueryStat& q : report->queries) {
    if (q.id == 1) {
      EXPECT_EQ(q.preemptions, 0u);
    }
  }
}

TEST(PreemptionTest, BoundarylessLongestRunYieldsToNextCandidate) {
  // The longest-remaining run (by completion time) has too few epochs
  // left for a quantum boundary; the next-longest run still offers one,
  // and the arming must fall through to it instead of giving up.
  sched::SyntheticExecutor exec;
  exec.Set("fat", {.epochs = 2, .shared_s = 10.0, .estimate_s = 20});
  exec.Set("thin", {.epochs = 12, .shared_s = 1.0, .estimate_s = 12});
  exec.Set("lookup", {.shared_s = 2.0, .estimate_s = 2});
  std::vector<sched::QueryRequest> reqs = {
      Req(0, "fat", 0), Req(1, "thin", 0),
      Req(2, "lookup", 1, sched::QueryClass::kInteractive)};
  sched::Scheduler sched({.slots = 2,
                          .policy = sched::Policy::kFcfs,
                          .preemption_quantum_epochs = 4,
                          .context_switch_cost = dana::SimTime::Zero()},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->preemptions, 1u);
  for (const sched::QueryStat& q : report->queries) {
    if (q.id == 2) {
      // Preempted "thin" at its first boundary (t=4), not at either run's
      // completion (t=12 / t=20).
      EXPECT_DOUBLE_EQ(q.start.seconds(), 4.0);
    }
    if (q.id == 1) {
      EXPECT_EQ(q.preemptions, 1u);
    }
    if (q.id == 0) {
      EXPECT_EQ(q.preemptions, 0u);
    }
  }
}

TEST(PreemptionTest, EqualRemainingTiesBreakByBoundaryDistance) {
  // Two batch runs finish at exactly t=10; the interactive arrival at
  // t=4.5 needs one preempted. "wide" (slot 0, dispatched at 0) has
  // already passed its t=4 boundary, so its next usable boundary is t=8;
  // "late" (slot 1, dispatched at 2) offers t=6. The old slot-index
  // tie-break checkpointed "wide" and made the lookup wait until t=8 while
  // the nearer boundary sat unused; the checkpoint-to-boundary tie-break
  // must take "late" at t=6.
  sched::SyntheticExecutor exec;
  exec.Set("wide", {.epochs = 10, .shared_s = 1.0, .estimate_s = 10});
  exec.Set("late", {.epochs = 8, .shared_s = 1.0, .estimate_s = 8});
  exec.Set("lookup", {.shared_s = 1.0, .estimate_s = 1});
  std::vector<sched::QueryRequest> reqs = {
      Req(0, "wide", 0), Req(1, "late", 2),
      Req(2, "lookup", 4.5, sched::QueryClass::kInteractive)};
  sched::Scheduler sched({.slots = 2,
                          .policy = sched::Policy::kFcfs,
                          .preemption_quantum_epochs = 4,
                          .context_switch_cost = dana::SimTime::Zero()},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->preemptions, 1u);
  for (const sched::QueryStat& q : report->queries) {
    if (q.id == 2) {
      EXPECT_DOUBLE_EQ(q.start.seconds(), 6.0);
    }
    if (q.id == 1) {
      EXPECT_EQ(q.preemptions, 1u);
    }
    if (q.id == 0) {
      EXPECT_EQ(q.preemptions, 0u);
    }
  }
}

TEST(PreemptionTest, FullTiesBreakByExpectedResidencyLoss) {
  // Identical runs on both slots: completions tie and both offer the same
  // boundary, so the victim choice comes down to expected cold-resume
  // residency loss — the extra service the executor prices at warmth 0
  // over each run's current warmth. Slot 0's table is 90% warm (a cold
  // resume forfeits 0.9 of the 6 s warm/cold spread), slot 1's only 10%:
  // the scheduler must checkpoint the run with less to lose, not default
  // to slot 0.
  sched::SyntheticExecutor exec;
  exec.Set("hotrun", {.epochs = 12, .shared_s = 1.0, .estimate_s = 12,
                      .warm_estimate_s = 6});
  exec.Set("coldrun", {.epochs = 12, .shared_s = 1.0, .estimate_s = 12,
                       .warm_estimate_s = 6});
  exec.Set("lookup", {.shared_s = 1.0, .estimate_s = 1});
  exec.SetWarm("hotrun", /*slot=*/0, 0.9);
  exec.SetWarm("coldrun", /*slot=*/1, 0.1);
  std::vector<sched::QueryRequest> reqs = {
      Req(0, "hotrun", 0), Req(1, "coldrun", 0),
      Req(2, "lookup", 1.5, sched::QueryClass::kInteractive)};
  sched::Scheduler sched({.slots = 2,
                          .policy = sched::Policy::kFcfs,
                          .preemption_quantum_epochs = 4,
                          .context_switch_cost = dana::SimTime::Zero()},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->preemptions, 1u);
  for (const sched::QueryStat& q : report->queries) {
    if (q.id == 0) {
      EXPECT_EQ(q.preemptions, 0u);  // the warm run survives
    }
    if (q.id == 1) {
      EXPECT_EQ(q.preemptions, 1u);
    }
    if (q.id == 2) {
      EXPECT_DOUBLE_EQ(q.start.seconds(), 4.0);
    }
  }
}

TEST(PreemptionTest, ResidencyLossWeighsTableSizeNotBareWarmth) {
  // A fully-warm *cheap* table forfeits less on a cold resume than a
  // barely-warm huge one: the loss metric is the executor-priced warm/cold
  // service spread at the victim's warmth, not the bare warm fraction.
  // "hotsmall" is 100% warm but re-streams in 0.2 s (loss 0.2 s);
  // "coldhuge" is only 30% warm but its cold resume costs 18 s more than
  // its current warmth — the scheduler must sacrifice hotsmall.
  sched::SyntheticExecutor exec;
  exec.Set("hotsmall", {.epochs = 12, .shared_s = 1.0, .estimate_s = 4,
                        .warm_estimate_s = 3.8});
  exec.Set("coldhuge", {.epochs = 12, .shared_s = 1.0, .estimate_s = 100,
                        .warm_estimate_s = 40});
  exec.Set("lookup", {.shared_s = 1.0, .estimate_s = 1});
  exec.SetWarm("hotsmall", /*slot=*/0, 1.0);
  exec.SetWarm("coldhuge", /*slot=*/1, 0.3);
  std::vector<sched::QueryRequest> reqs = {
      Req(0, "hotsmall", 0), Req(1, "coldhuge", 0),
      Req(2, "lookup", 1.5, sched::QueryClass::kInteractive)};
  sched::Scheduler sched({.slots = 2,
                          .policy = sched::Policy::kFcfs,
                          .preemption_quantum_epochs = 4,
                          .context_switch_cost = dana::SimTime::Zero()},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->preemptions, 1u);
  for (const sched::QueryStat& q : report->queries) {
    if (q.id == 0) {
      EXPECT_EQ(q.preemptions, 1u);  // warmest run, but cheapest to lose
    }
    if (q.id == 1) {
      EXPECT_EQ(q.preemptions, 0u);
    }
  }
}

TEST(PreemptionTest, ResumedRunKeepsItsGlobalBoundaryPhase) {
  // Quantum boundaries sit at global epoch indices of each run — multiples
  // of q counted from the run's own epoch 0, not from its latest
  // (re-)dispatch. One long training absorbs two preemptions: the first at
  // epoch 4 (t=4); after the lookup (2 s) it resumes at t=6, and the
  // second interactive arrival must cut it at global epoch 8 — t=10, four
  // *global* epochs on from the checkpoint — with the run's full 20-epoch
  // service preserved across the three segments.
  sched::SyntheticExecutor exec;
  exec.Set("training", {.epochs = 20, .shared_s = 1.0, .estimate_s = 20});
  exec.Set("lookup", {.shared_s = 2.0, .estimate_s = 2});
  std::vector<sched::QueryRequest> reqs = {
      Req(0, "training", 0),
      Req(1, "lookup", 1.5, sched::QueryClass::kInteractive),
      Req(2, "lookup", 6.5, sched::QueryClass::kInteractive)};
  sched::Scheduler sched({.slots = 1,
                          .policy = sched::Policy::kFcfs,
                          .preemption_quantum_epochs = 4,
                          .context_switch_cost = dana::SimTime::Zero()},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->preemptions, 2u);
  for (const sched::QueryStat& q : report->queries) {
    if (q.id == 1) {
      EXPECT_DOUBLE_EQ(q.start.seconds(), 4.0);
    }
    if (q.id == 2) {
      EXPECT_DOUBLE_EQ(q.start.seconds(), 10.0);
    }
    if (q.id == 0) {
      EXPECT_EQ(q.preemptions, 2u);
      EXPECT_DOUBLE_EQ(q.service.seconds(), 20.0);
      EXPECT_DOUBLE_EQ(q.completion.seconds(), 24.0);
    }
  }
}

TEST(BatchWindowTest, InteractiveArrivalPrefersAFreeSlotOverSeizingTheHold) {
  sched::SyntheticExecutor exec;
  exec.Set("train", {.shared_s = 10.0, .per_query_s = 2.0, .estimate_s = 12});
  exec.Set("lookup", {.shared_s = 1.0, .estimate_s = 1});
  // Two slots: the batch head holds slot 0 collecting riders; slot 1 is
  // idle. The interactive arrival must run on the free slot and leave the
  // hold (and its window) untouched.
  std::vector<sched::QueryRequest> reqs = {
      Req(0, "train", 0),
      Req(1, "lookup", 1, sched::QueryClass::kInteractive),
      Req(2, "train", 2)};
  sched::Scheduler sched({.slots = 2,
                          .policy = sched::Policy::kFcfs,
                          .max_batch = 2,
                          .batch_window = dana::SimTime::Seconds(6)},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->queries.size(), 3u);
  for (const sched::QueryStat& q : report->queries) {
    if (q.id == 1) {
      EXPECT_DOUBLE_EQ(q.start.seconds(), 1.0);
    }
    if (q.id == 0 || q.id == 2) {
      // The hold survived and filled at t=2: both trainings ride one
      // batch dispatched then, not re-windowed after the lookup.
      EXPECT_EQ(q.batch_size, 2u);
      EXPECT_DOUBLE_EQ(q.start.seconds(), 2.0);
    }
  }
}

TEST(PreemptionTest, NoInteractiveWaitersMeansNoPreemptions) {
  sched::SyntheticExecutor exec;
  exec.Set("a", {.epochs = 10, .shared_s = 1.0, .estimate_s = 10});
  exec.Set("b", {.epochs = 4, .shared_s = 1.0, .estimate_s = 4});
  std::vector<sched::QueryRequest> reqs;
  for (int i = 0; i < 10; ++i) {
    reqs.push_back(Req(static_cast<uint64_t>(i), i % 2 ? "a" : "b", 1.5 * i));
  }
  sched::Scheduler sched({.slots = 2,
                          .policy = sched::Policy::kFcfs,
                          .preemption_quantum_epochs = 2,
                          .context_switch_cost = dana::SimTime::Seconds(1)},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->preemptions, 0u);
  EXPECT_DOUBLE_EQ(report->preemption_overhead.seconds(), 0.0);
}

TEST(PreemptionTest, PreemptiveScheduleIsDeterministic) {
  sched::DriverOptions opts;
  opts.num_queries = 80;
  opts.arrival_rate_qps = 0.5;
  opts.interactive_ranks = 1;
  opts.zipf_exponent = 1.1;
  sched::WorkloadDriver driver({"hot", "mid", "tail"}, opts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());
  for (sched::Policy policy :
       {sched::Policy::kFcfs, sched::Policy::kSjf,
        sched::Policy::kRoundRobin}) {
    auto run = [&] {
      sched::SyntheticExecutor exec;
      exec.Set("hot", {.shared_s = 2.0, .per_query_s = 0.5, .estimate_s = 3});
      exec.Set("mid", {.epochs = 6, .shared_s = 1.5, .per_query_s = 0.5,
                       .estimate_s = 10});
      exec.Set("tail", {.epochs = 20, .shared_s = 2.0, .per_query_s = 0.5,
                        .estimate_s = 45});
      return sched::Scheduler(
                 {.slots = 2,
                  .policy = policy,
                  .max_batch = 2,
                  .preemption_quantum_epochs = 3,
                  .context_switch_cost = dana::SimTime::Seconds(0.2)},
                 &exec)
          .Run(*stream);
    };
    auto a = run();
    auto b = run();
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->queries.size(), b->queries.size());
    for (size_t i = 0; i < a->queries.size(); ++i) {
      EXPECT_EQ(a->queries[i].id, b->queries[i].id);
      EXPECT_EQ(a->queries[i].slot, b->queries[i].slot);
      EXPECT_EQ(a->queries[i].completion.nanos(),
                b->queries[i].completion.nanos());
      EXPECT_EQ(a->queries[i].preemptions, b->queries[i].preemptions);
    }
    EXPECT_EQ(a->preemptions, b->preemptions);
  }
}

TEST(PreemptionTest, ClosedLoopRejectsPreemptiveKnobs) {
  // The preemption quantum now composes with closed-loop sessions (the
  // run routes through the event-driven engine), so it must succeed where
  // it used to come back InvalidArgument. The batching window remains the
  // one open-stream-only knob: a held slot defers the completions sessions
  // submit from, so it still fails with an actionable Status naming the
  // offending option — never an abort — and the knobs-off run on the same
  // scheduler options must still work.
  sched::SyntheticExecutor exec;
  exec.Set("a", {.epochs = 2, .shared_s = 1.0, .estimate_s = 2});
  sched::Scheduler preemptive({.slots = 1,
                               .policy = sched::Policy::kFcfs,
                               .preemption_quantum_epochs = 1},
                              &exec);
  auto quantum_run = preemptive.RunClosedLoop({{"a"}}, dana::SimTime::Zero());
  ASSERT_TRUE(quantum_run.ok()) << quantum_run.status().ToString();
  EXPECT_EQ(quantum_run->queries.size(), 1u);

  sched::Scheduler windowed({.slots = 1,
                             .policy = sched::Policy::kFcfs,
                             .max_batch = 2,
                             .batch_window = dana::SimTime::Seconds(1)},
                            &exec);
  const Status window_err =
      windowed.RunClosedLoop({{"a"}}, dana::SimTime::Zero()).status();
  EXPECT_TRUE(window_err.IsInvalidArgument());
  EXPECT_NE(window_err.ToString().find("batch_window"), std::string::npos);

  sched::Scheduler plain({.slots = 1, .policy = sched::Policy::kFcfs}, &exec);
  EXPECT_TRUE(plain.RunClosedLoop({{"a"}}, dana::SimTime::Zero()).ok());
}

/// Closed-loop catalog: a one-epoch interactive lookup and a 12-epoch
/// batch training (3 s per epoch at batch size 1) with pinned warmth.
sched::SyntheticExecutor ClosedLoopExecutor() {
  sched::SyntheticExecutor e;
  e.Set("lookup", {.shared_s = 1.5, .per_query_s = 0.5, .estimate_s = 2.0,
                   .compile_s = 0.2});
  e.Set("train", {.epochs = 12, .shared_s = 2.0, .per_query_s = 1.0,
                  .estimate_s = 26.0, .compile_s = 1.0});
  e.SetWarm("train", 0, 0.6);
  return e;
}

TEST(ClosedLoopPreemptionTest, InteractiveSessionPreemptsBatchTraining) {
  // One slot, a long batch training session against an interactive
  // lookup session: closed-loop preemption must checkpoint the training
  // at epoch boundaries so the interactive queries get in.
  const std::vector<std::vector<std::string>> sessions = {
      {"train", "train"},
      {"lookup", "lookup", "lookup"},
  };
  const std::vector<sched::QueryClass> classes = {
      sched::QueryClass::kBatch, sched::QueryClass::kInteractive};
  sched::SyntheticExecutor exec = ClosedLoopExecutor();
  sched::Scheduler scheduler(
      {.slots = 1,
       .policy = sched::Policy::kFcfs,
       .preemption_quantum_epochs = 2,
       .context_switch_cost = dana::SimTime::Millis(100)},
      &exec);
  auto report =
      scheduler.RunClosedLoop(sessions, dana::SimTime::Seconds(1), classes);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->queries.size(), 5u);
  EXPECT_EQ(report->ClassQueries(sched::QueryClass::kInteractive), 3u);
  EXPECT_GE(report->preemptions, 1u);
  // Preempting works: no interactive query waits out a full training run
  // (12 epochs x 3s); it rides in at the next armed epoch boundary.
  for (const sched::QueryStat& q : report->queries) {
    if (q.query_class == sched::QueryClass::kInteractive) {
      EXPECT_LT(q.Wait().seconds(), 12.0 * 3.0) << "query " << q.id;
    }
  }
}

TEST(ClosedLoopPreemptionTest, BatchWindowIsStillRejected) {
  // The batch-formation window is the one open-stream-only knob; its
  // rejection must be actionable (InvalidArgument naming the option),
  // while the quantum composes with sessions.
  sched::SyntheticExecutor exec = ClosedLoopExecutor();
  sched::Scheduler windowed({.slots = 1,
                             .policy = sched::Policy::kFcfs,
                             .max_batch = 2,
                             .batch_window = dana::SimTime::Seconds(1)},
                            &exec);
  const Status err =
      windowed.RunClosedLoop({{"lookup"}}, dana::SimTime::Zero()).status();
  EXPECT_TRUE(err.IsInvalidArgument());
  EXPECT_NE(err.ToString().find("batch_window"), std::string::npos);

  sched::Scheduler quantum({.slots = 1,
                            .policy = sched::Policy::kFcfs,
                            .preemption_quantum_epochs = 1},
                           &exec);
  EXPECT_TRUE(
      quantum.RunClosedLoop({{"lookup"}}, dana::SimTime::Zero()).ok());
}

// ---------------------------------------------------------------------------
// Batching window
// ---------------------------------------------------------------------------

TEST(BatchWindowTest, HeldSlotCoalescesArrivalsUpToTheWindow) {
  sched::SyntheticExecutor exec;
  exec.Set("a", {.shared_s = 10.0, .per_query_s = 2.0, .estimate_s = 12});
  // q0 frees the slot at t=0 with nothing else queued: a windowless
  // scheduler dispatches it alone; the window holds the slot and q1, q2
  // (arriving inside the window) ride the same pass, dispatched the
  // moment the batch fills.
  std::vector<sched::QueryRequest> reqs = {Req(0, "a", 0), Req(1, "a", 2),
                                           Req(2, "a", 4)};
  sched::Scheduler sched({.slots = 1,
                          .policy = sched::Policy::kFcfs,
                          .max_batch = 3,
                          .batch_window = dana::SimTime::Seconds(5)},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->queries.size(), 3u);
  EXPECT_EQ(report->batches, 1u);
  for (const sched::QueryStat& q : report->queries) {
    EXPECT_EQ(q.batch_size, 3u);
    EXPECT_DOUBLE_EQ(q.start.seconds(), 4.0);
    // One epoch: 10 + 3 * 2 = 16 s of batched service.
    EXPECT_DOUBLE_EQ(q.completion.seconds(), 20.0);
  }
}

TEST(BatchWindowTest, ExpiredWindowDispatchesThePartialBatch) {
  sched::SyntheticExecutor exec;
  exec.Set("a", {.shared_s = 10.0, .per_query_s = 2.0, .estimate_s = 12});
  // The rider arrives past the window: the head dispatches alone at the
  // expiry, the rider dispatches behind it (then waits out the pass).
  std::vector<sched::QueryRequest> reqs = {Req(0, "a", 0), Req(1, "a", 9)};
  sched::Scheduler sched({.slots = 1,
                          .policy = sched::Policy::kFcfs,
                          .max_batch = 3,
                          .batch_window = dana::SimTime::Seconds(3)},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->queries.size(), 2u);
  EXPECT_EQ(report->queries[0].batch_size, 1u);
  EXPECT_DOUBLE_EQ(report->queries[0].start.seconds(), 3.0);
  EXPECT_DOUBLE_EQ(report->queries[0].completion.seconds(), 15.0);
}

TEST(BatchWindowTest, InteractiveArrivalSeizesTheHeldSlot) {
  sched::SyntheticExecutor exec;
  exec.Set("train", {.shared_s = 10.0, .per_query_s = 2.0, .estimate_s = 12});
  exec.Set("lookup", {.shared_s = 1.0, .estimate_s = 1});
  // The batch head's hold starts at t=0; the interactive arrival at t=1
  // takes the slot instead, and the head goes back to the queue.
  std::vector<sched::QueryRequest> reqs = {
      Req(0, "train", 0),
      Req(1, "lookup", 1, sched::QueryClass::kInteractive)};
  sched::Scheduler sched({.slots = 1,
                          .policy = sched::Policy::kFcfs,
                          .max_batch = 4,
                          .batch_window = dana::SimTime::Seconds(6)},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->queries.size(), 2u);
  EXPECT_EQ(report->queries[0].id, 1u);  // the lookup dispatched first
  EXPECT_DOUBLE_EQ(report->queries[0].start.seconds(), 1.0);
  EXPECT_DOUBLE_EQ(report->queries[0].completion.seconds(), 2.0);
  EXPECT_EQ(report->queries[1].id, 0u);
}

TEST(BatchWindowTest, ZeroWindowMatchesTheLegacySchedule) {
  sched::SyntheticExecutor exec;
  exec.Set("x", {.epochs = 2, .shared_s = 3.0, .per_query_s = 1.0,
                 .estimate_s = 8});
  exec.Set("y", {.epochs = 3, .shared_s = 2.0, .per_query_s = 0.5,
                 .estimate_s = 7});
  sched::DriverOptions opts;
  opts.num_queries = 50;
  opts.arrival_rate_qps = 0.3;
  sched::WorkloadDriver driver({"x", "y"}, opts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());
  auto legacy = sched::Scheduler({.slots = 2,
                                  .policy = sched::Policy::kFcfs,
                                  .max_batch = 3},
                                 &exec)
                    .Run(*stream);
  auto windowed = sched::Scheduler({.slots = 2,
                                    .policy = sched::Policy::kFcfs,
                                    .max_batch = 3,
                                    .batch_window = dana::SimTime::Zero()},
                                   &exec)
                      .Run(*stream);
  ASSERT_TRUE(legacy.ok() && windowed.ok());
  ASSERT_EQ(legacy->queries.size(), windowed->queries.size());
  for (size_t i = 0; i < legacy->queries.size(); ++i) {
    EXPECT_EQ(legacy->queries[i].id, windowed->queries[i].id);
    EXPECT_EQ(legacy->queries[i].completion.nanos(),
              windowed->queries[i].completion.nanos());
  }
}

// ---------------------------------------------------------------------------
// Per-class SLO accounting
// ---------------------------------------------------------------------------

TEST(SloAccountingTest, PerClassPercentilesSplitTheStream) {
  sched::SyntheticExecutor exec;
  exec.Set("train", {.epochs = 4, .shared_s = 2.5, .estimate_s = 10});
  exec.Set("lookup", {.shared_s = 1.0, .estimate_s = 1});
  std::vector<sched::QueryRequest> reqs = {
      Req(0, "train", 0), Req(1, "lookup", 1, sched::QueryClass::kInteractive),
      Req(2, "train", 2), Req(3, "lookup", 3, sched::QueryClass::kInteractive)};
  sched::Scheduler sched({.slots = 1,
                          .policy = sched::Policy::kFcfs,
                          .preemption_quantum_epochs = 1,
                          .context_switch_cost = dana::SimTime::Zero()},
                         &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ClassQueries(sched::QueryClass::kInteractive), 2u);
  EXPECT_EQ(report->ClassQueries(sched::QueryClass::kBatch), 2u);
  EXPECT_LT(
      report->ClassLatencyPercentile(sched::QueryClass::kInteractive, 95)
          .seconds(),
      report->ClassLatencyPercentile(sched::QueryClass::kBatch, 95)
          .seconds());
  EXPECT_GT(report->ClassThroughputQps(sched::QueryClass::kBatch), 0.0);
}

}  // namespace
}  // namespace dana
