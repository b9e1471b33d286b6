#include <gtest/gtest.h>

#include <map>
#include <set>

#include "compiler/codegen.h"
#include "compiler/compiler.h"
#include "compiler/hw_generator.h"
#include "compiler/scalar_program.h"
#include "compiler/scheduler.h"
#include "hdfg/translator.h"
#include "ml/algorithms.h"

namespace dana::compiler {
namespace {

ScalarProgram Lower(ml::AlgoKind kind, ml::AlgoParams params) {
  auto algo = std::move(ml::BuildAlgo(kind, params)).ValueOrDie();
  auto graph = std::move(hdfg::Translator::Translate(*algo)).ValueOrDie();
  return std::move(LowerGraph(graph)).ValueOrDie();
}

ml::AlgoParams SmallParams(uint32_t dims, uint32_t coef = 4) {
  ml::AlgoParams p;
  p.dims = dims;
  p.merge_coef = coef;
  p.epochs = 2;
  return p;
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

TEST(LoweringTest, LinearRegressionOpCounts) {
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLinearRegression, SmallParams(16));
  // Per-tuple: 16 muls (mo*in) + 15 adds (sigma) + 1 sub + 16 muls (er*in).
  EXPECT_EQ(prog.tuple_ops.size(), 16u + 15 + 1 + 16);
  // Merge boundary carries the d-wide gradient.
  EXPECT_EQ(prog.merge_slots.size(), 16u);
  // Per-batch: 16 (g*inv) + 16 (lr*...) + 16 (mo - ...).
  EXPECT_EQ(prog.batch_ops.size(), 48u);
  ASSERT_EQ(prog.model_writes.size(), 1u);
  EXPECT_EQ(prog.model_writes[0].elems.size(), 16u);
  EXPECT_EQ(prog.merge_coef, 4u);
  EXPECT_EQ(prog.max_epochs, 2u);
}

TEST(LoweringTest, VarTablesPopulated) {
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLogisticRegression, SmallParams(8));
  EXPECT_EQ(prog.model_vars.size(), 1u);
  EXPECT_EQ(prog.input_vars.size(), 1u);
  EXPECT_EQ(prog.output_vars.size(), 1u);
  EXPECT_GE(prog.meta_vars.size(), 2u);  // lr, inv_coef
  EXPECT_EQ(prog.ModelElements(), 8u);
  EXPECT_EQ(prog.TupleElements(), 9u);  // 8 features + label
}

TEST(LoweringTest, LrmfShapes) {
  ml::AlgoParams p = SmallParams(12, 2);
  p.rank = 3;
  ScalarProgram prog = Lower(ml::AlgoKind::kLowRankMF, p);
  EXPECT_EQ(prog.ModelElements(), 36u);   // [12][3]
  EXPECT_EQ(prog.TupleElements(), 12u);   // rating row, no label
  EXPECT_EQ(prog.merge_slots.size(), 36u);
  EXPECT_EQ(prog.model_writes[0].elems.size(), 36u);
}

TEST(LoweringTest, TopologicalOrderWithinRegions) {
  ScalarProgram prog = Lower(ml::AlgoKind::kSvm, SmallParams(32));
  auto check = [](const std::vector<ScalarOp>& ops) {
    for (size_t i = 0; i < ops.size(); ++i) {
      for (const ValueRef* r : {&ops[i].a, &ops[i].b}) {
        if (r->kind == ValueRef::Kind::kSub) {
          EXPECT_LT(r->index, i) << "forward reference in op " << i;
        }
      }
    }
  };
  check(prog.tuple_ops);
  // Batch/epoch ops may reference tuple ops (cross-region), but
  // same-region references must be backward.
  for (size_t i = 0; i < prog.batch_ops.size(); ++i) {
    for (const ValueRef* r : {&prog.batch_ops[i].a, &prog.batch_ops[i].b}) {
      if (r->kind == ValueRef::Kind::kSub &&
          r->region == ValueRegion::kBatch) {
        EXPECT_LT(r->index, i);
      }
    }
  }
}

TEST(LoweringTest, ConvergenceLandsInEpochRegion) {
  ml::AlgoParams p = SmallParams(8);
  p.convergence_norm = 0.01;
  ScalarProgram prog = Lower(ml::AlgoKind::kLinearRegression, p);
  EXPECT_TRUE(prog.has_convergence);
  EXPECT_GT(prog.epoch_ops.size(), 0u);
  EXPECT_EQ(prog.convergence.kind, ValueRef::Kind::kSub);
  EXPECT_EQ(prog.convergence.region, ValueRegion::kEpoch);
}

TEST(LoweringTest, SubNodeCountMatchesGraphEstimate) {
  auto algo = std::move(ml::BuildAlgo(ml::AlgoKind::kLinearRegression,
                                      SmallParams(64)))
                  .ValueOrDie();
  auto graph = std::move(hdfg::Translator::Translate(*algo)).ValueOrDie();
  auto prog = std::move(LowerGraph(graph)).ValueOrDie();
  EXPECT_EQ(prog.tuple_ops.size(),
            graph.TotalSubNodes(hdfg::Region::kPerTuple));
}

TEST(LoweringTest, ProgramDumpShowsRegions) {
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLinearRegression, SmallParams(4));
  const std::string s = prog.ToString();
  EXPECT_NE(s.find("tuple ("), std::string::npos);
  EXPECT_NE(s.find("merges ("), std::string::npos);
  EXPECT_NE(s.find("write model0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

SchedulerConfig Cfg(uint32_t acs, bool simd = true) {
  SchedulerConfig c;
  c.num_acs = acs;
  c.selective_simd = simd;
  return c;
}

class SchedulerSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(SchedulerSweep, RespectsDependenciesAndResources) {
  const auto [dims, acs] = GetParam();
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLogisticRegression, SmallParams(dims));
  Scheduler sched(Cfg(acs));
  auto s = sched.Run(prog.tuple_ops);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_EQ(s->placements.size(), prog.tuple_ops.size());

  // (1) Dependencies finish before consumers start.
  for (size_t i = 0; i < prog.tuple_ops.size(); ++i) {
    for (const ValueRef* r :
         {&prog.tuple_ops[i].a, &prog.tuple_ops[i].b}) {
      if (r->kind == ValueRef::Kind::kSub) {
        EXPECT_LE(s->placements[r->index].finish_cycle,
                  s->placements[i].start_cycle);
      }
    }
  }
  // (2) No two ops share (ac, au, cycle); lanes within bounds.
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> used;
  for (const auto& p : s->placements) {
    EXPECT_LT(p.ac, acs);
    EXPECT_LT(p.au, engine::kAusPerAc);
    for (uint32_t c = p.start_cycle; c < p.finish_cycle; ++c) {
      EXPECT_TRUE(used.insert({p.ac, p.au, c}).second)
          << "overlap at ac" << p.ac << " au" << p.au << " cycle " << c;
    }
  }
  // (3) Makespan sane: at least the serial lower bound.
  const uint64_t total_aus = static_cast<uint64_t>(acs) * engine::kAusPerAc;
  EXPECT_GE(s->makespan,
            prog.tuple_ops.size() / total_aus);
  EXPECT_GT(s->makespan, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SchedulerSweep,
                         ::testing::Combine(::testing::Values(8u, 54u, 300u),
                                            ::testing::Values(1u, 4u, 16u)));

TEST(SchedulerTest, SelectiveSimdOneOpcodePerClusterCycle) {
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLogisticRegression, SmallParams(64));
  Scheduler sched(Cfg(4));
  auto s = std::move(sched.Run(prog.tuple_ops)).ValueOrDie();
  std::map<std::pair<uint32_t, uint32_t>, engine::AluOp> issued;
  for (size_t i = 0; i < prog.tuple_ops.size(); ++i) {
    const auto& p = s.placements[i];
    auto key = std::make_pair(p.ac, p.start_cycle);
    auto [it, fresh] = issued.emplace(key, prog.tuple_ops[i].op);
    if (!fresh) {
      EXPECT_EQ(it->second, prog.tuple_ops[i].op)
          << "two opcodes issued by one AC in one cycle";
    }
  }
}

TEST(SchedulerTest, MoreClustersNeverSlower) {
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLinearRegression, SmallParams(256));
  Scheduler s1(Cfg(1)), s8(Cfg(8));
  auto m1 = std::move(s1.Run(prog.tuple_ops)).ValueOrDie().makespan;
  auto m8 = std::move(s8.Run(prog.tuple_ops)).ValueOrDie().makespan;
  EXPECT_LE(m8, m1);
  EXPECT_LT(m8, m1 / 2);  // wide elementwise work parallelizes well
}

TEST(SchedulerTest, EmptyProgramHasZeroMakespan) {
  Scheduler sched(Cfg(2));
  auto s = sched.Run({});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->makespan, 0u);
}

TEST(SchedulerTest, MakespanAtLeastCriticalPath) {
  // A pure chain: each op depends on the previous one; no parallelism.
  std::vector<ScalarOp> chain;
  chain.push_back({engine::AluOp::kAdd, ValueRef::Const(1.0),
                   ValueRef::Const(2.0)});
  for (int i = 1; i < 32; ++i) {
    chain.push_back({engine::AluOp::kAdd,
                     ValueRef::Sub(ValueRegion::kTuple, i - 1),
                     ValueRef::Const(1.0)});
  }
  Scheduler sched(Cfg(8));
  auto s = std::move(sched.Run(chain)).ValueOrDie();
  EXPECT_GE(s.makespan, 32u);  // latency 1 each, serial
}

TEST(SchedulerTest, RejectsForwardReferenceAfterConfigCheck) {
  // Op 0 reads op 1: not topologically ordered.
  const std::vector<ScalarOp> ops = {
      {engine::AluOp::kAdd, ValueRef::Sub(ValueRegion::kTuple, 1),
       ValueRef::Const(1.0)},
      {engine::AluOp::kAdd, ValueRef::Const(1.0), ValueRef::Const(2.0)}};
  EXPECT_FALSE(OpGraph(ops).ordered());
  auto s = Scheduler(Cfg(2)).Run(ops);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsInternal());
  // An invalid configuration is reported first, as for any program.
  auto bad = Scheduler(Cfg(0)).Run(ops);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(SchedulerTest, UtilizationBounded) {
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLinearRegression, SmallParams(128));
  Scheduler sched(Cfg(2));
  auto s = std::move(sched.Run(prog.tuple_ops)).ValueOrDie();
  const double u = s.Utilization(2 * engine::kAusPerAc);
  EXPECT_GT(u, 0.05);
  EXPECT_LE(u, 1.0);
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

TEST(CodegenTest, AuMicroOpEncodeDecodeRoundTrip) {
  engine::AuMicroOp op;
  op.op = engine::AluOp::kMul;
  op.src1 = {engine::SrcKind::kScratch, 300};
  op.src2 = {engine::SrcKind::kBus, 1};
  op.dst = engine::DstKind::kScratch;
  op.dst_addr = 123;
  auto back = engine::AuMicroOp::Decode(op.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->op, op.op);
  EXPECT_EQ(back->src1.kind, op.src1.kind);
  EXPECT_EQ(back->src1.addr, op.src1.addr);
  EXPECT_EQ(back->src2.kind, op.src2.kind);
  EXPECT_EQ(back->dst, op.dst);
  EXPECT_EQ(back->dst_addr, op.dst_addr);
}

TEST(CodegenTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(engine::AuMicroOp::Decode(~0ull).ok());
  EXPECT_FALSE(engine::AuMicroOp::Decode(63).ok());  // opcode 63 invalid
}

TEST(CodegenTest, EmissionCoversEveryScheduledOp) {
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLinearRegression, SmallParams(32));
  Scheduler sched(Cfg(4));
  auto s = std::move(sched.Run(prog.tuple_ops)).ValueOrDie();
  auto programs =
      EmitAcPrograms(prog.tuple_ops, s, ValueRegion::kTuple, 4);
  ASSERT_TRUE(programs.ok()) << programs.status().ToString();
  ASSERT_EQ(programs->size(), 4u);
  uint64_t lanes = 0;
  for (const auto& acp : *programs) {
    for (const auto& instr : acp.instructions) {
      EXPECT_NE(instr.active_mask, 0);
      for (uint32_t l = 0; l < engine::kAusPerAc; ++l) {
        if (instr.active_mask & (1u << l)) {
          ++lanes;
          EXPECT_EQ(instr.lanes[l].op, instr.op)
              << "selective SIMD lane opcode mismatch";
        }
      }
    }
  }
  EXPECT_EQ(lanes, prog.tuple_ops.size());
  EXPECT_GT(EncodedSizeBytes(*programs), 0u);
}

TEST(CodegenTest, InstructionStreamsOrderedByCycle) {
  ScalarProgram prog = Lower(ml::AlgoKind::kSvm, SmallParams(16));
  Scheduler sched(Cfg(2));
  auto s = std::move(sched.Run(prog.tuple_ops)).ValueOrDie();
  auto programs =
      std::move(EmitAcPrograms(prog.tuple_ops, s, ValueRegion::kTuple, 2))
          .ValueOrDie();
  // Instruction count per cluster can't exceed its scheduled slots.
  uint64_t total_instrs = 0;
  for (const auto& acp : *&programs) total_instrs += acp.instructions.size();
  EXPECT_LE(total_instrs, prog.tuple_ops.size());
  EXPECT_GT(total_instrs, 0u);
}

// ---------------------------------------------------------------------------
// Hardware generator (§6.1)
// ---------------------------------------------------------------------------

storage::PageLayout DefaultLayout() { return storage::PageLayout{}; }

WorkloadShape ShapeFor(uint32_t payload, uint64_t tuples) {
  WorkloadShape s;
  s.tuple_payload_bytes = payload;
  s.num_tuples = tuples;
  s.tuples_per_page = DefaultLayout().TuplesPerPage(payload);
  s.num_pages = (tuples + s.tuples_per_page - 1) / s.tuples_per_page;
  return s;
}

TEST(HwGeneratorTest, RespectsResourceCaps) {
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLogisticRegression, SmallParams(54, 64));
  FpgaSpec fpga;
  HardwareGenerator hw(fpga);
  auto d = hw.Generate(prog, DefaultLayout(), ShapeFor(55 * 4, 10000));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_LE(d->total_aus, fpga.max_compute_units);
  EXPECT_LE(d->dsps_used, fpga.dsp_slices);
  EXPECT_LE(d->luts_used, fpga.luts);
  EXPECT_LE(d->bram_used, fpga.bram_bytes);
  EXPECT_LE(d->num_threads, 64u);  // bounded by the merge coefficient
  EXPECT_GE(d->num_page_buffers, 1u);
}

TEST(HwGeneratorTest, ThreadsBoundedByMergeCoefficient) {
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLinearRegression, SmallParams(16, 2));
  HardwareGenerator hw(FpgaSpec{});
  auto d = hw.Generate(prog, DefaultLayout(), ShapeFor(17 * 4, 1000));
  ASSERT_TRUE(d.ok());
  EXPECT_LE(d->num_threads, 2u);
}

TEST(HwGeneratorTest, ForceThreadsHonored) {
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLinearRegression, SmallParams(16, 64));
  HardwareGenerator::Options opt;
  opt.force_threads = 4;
  HardwareGenerator hw(FpgaSpec{}, opt);
  auto d = hw.Generate(prog, DefaultLayout(), ShapeFor(17 * 4, 1000));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_threads, 4u);
}

TEST(HwGeneratorTest, MimdAblationShrinksFabric) {
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLogisticRegression, SmallParams(128, 64));
  HardwareGenerator simd(FpgaSpec{});
  HardwareGenerator::Options opt;
  opt.mimd_only = true;
  HardwareGenerator mimd(FpgaSpec{}, opt);
  auto shape = ShapeFor(129 * 4, 10000);
  auto ds = std::move(simd.Generate(prog, DefaultLayout(), shape)).ValueOrDie();
  auto dm = std::move(mimd.Generate(prog, DefaultLayout(), shape)).ValueOrDie();
  EXPECT_LT(dm.total_aus, ds.total_aus);
}

TEST(HwGeneratorTest, ModelTooLargeForBramFails) {
  // A 64-element model (256 bytes) plus its tuple and intermediates per
  // thread overflows a 256-byte BRAM: the generator's own check fires.
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLogisticRegression, SmallParams(64, 4));
  FpgaSpec fpga;
  fpga.bram_bytes = 256;
  HardwareGenerator hw(fpga);
  auto d = hw.Generate(prog, DefaultLayout(), ShapeFor(65 * 4, 100));
  EXPECT_TRUE(d.status().IsResourceExhausted()) << d.status().ToString();
}

TEST(HwGeneratorTest, EstimatorMonotonicInBandwidth) {
  ScalarProgram prog =
      Lower(ml::AlgoKind::kLogisticRegression, SmallParams(54, 64));
  HardwareGenerator hw(FpgaSpec{});
  auto shape = ShapeFor(55 * 4, 100000);
  auto d = std::move(hw.Generate(prog, DefaultLayout(), shape)).ValueOrDie();
  const uint64_t slow = EstimateEpochCycles(prog, d, FpgaSpec{},
                                            DefaultLayout(), shape, 0.25);
  const uint64_t base = EstimateEpochCycles(prog, d, FpgaSpec{},
                                            DefaultLayout(), shape, 1.0);
  const uint64_t fast = EstimateEpochCycles(prog, d, FpgaSpec{},
                                            DefaultLayout(), shape, 4.0);
  EXPECT_GE(slow, base);
  EXPECT_GE(base, fast);
}

TEST(HwGeneratorTest, MergeCyclesGrowWithThreadsAndElems) {
  // One thread, 100 elements, 8 bus lanes: 13 cycles on the shared bus.
  EXPECT_EQ(MergeCycles(1, 100, 0, 8), 13u);
  EXPECT_GT(MergeCycles(8, 100, 10, 8), MergeCycles(2, 100, 10, 8));
  EXPECT_GT(MergeCycles(4, 1000, 10, 8), MergeCycles(4, 100, 10, 8));
  // Model broadcast is independent of the thread count (snooped bus).
  EXPECT_EQ(MergeCycles(1, 0, 80, 8), 10u);
}

// ---------------------------------------------------------------------------
// Full compile pipeline
// ---------------------------------------------------------------------------

TEST(UdfCompilerTest, CompilesAllFourAlgorithms) {
  for (auto kind :
       {ml::AlgoKind::kLinearRegression, ml::AlgoKind::kLogisticRegression,
        ml::AlgoKind::kSvm, ml::AlgoKind::kLowRankMF}) {
    ml::AlgoParams p = SmallParams(24, 4);
    p.rank = 3;
    auto algo = std::move(ml::BuildAlgo(kind, p)).ValueOrDie();
    UdfCompiler compiler{FpgaSpec{}};
    const uint32_t payload =
        kind == ml::AlgoKind::kLowRankMF ? 24 * 4 : 25 * 4;
    auto udf = compiler.Compile(*algo, DefaultLayout(),
                                ShapeFor(payload, 1000));
    ASSERT_TRUE(udf.ok()) << ml::AlgoKindName(kind) << ": "
                          << udf.status().ToString();
    EXPECT_FALSE(udf->strider_program.code.empty());
    EXPECT_FALSE(udf->ac_programs.empty());
    EXPECT_GT(udf->design.tuple_schedule.makespan, 0u);
    const std::string blob = udf->CatalogBlob();
    EXPECT_NE(blob.find("strider program"), std::string::npos);
    EXPECT_NE(blob.find("design:"), std::string::npos);
  }
}

TEST(UdfCompilerTest, OversizedModelFailsBeforeLowering) {
  // A 16M-element LRMF model (64 MB) against 44 MB of BRAM. Lowering it
  // would take seconds; the compiler must refuse it from the hDFG alone.
  ml::AlgoParams p = SmallParams(4000, 4);
  p.rank = 4000;
  auto algo = std::move(ml::BuildAlgo(ml::AlgoKind::kLowRankMF, p))
                  .ValueOrDie();
  UdfCompiler compiler{FpgaSpec{}};
  auto udf = compiler.Compile(*algo, DefaultLayout(), ShapeFor(4000 * 4, 100));
  ASSERT_TRUE(udf.status().IsResourceExhausted()) << udf.status().ToString();
  // The message names both sizes: the model's bytes and the BRAM's.
  const std::string msg = udf.status().ToString();
  EXPECT_NE(msg.find(std::to_string(4ull * 4000 * 4000)),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find(std::to_string(FpgaSpec{}.bram_bytes)),
            std::string::npos)
      << msg;
}

TEST(UdfCompilerTest, RejectsMismatchedTupleWidth) {
  auto algo = std::move(ml::BuildAlgo(ml::AlgoKind::kLinearRegression,
                                      SmallParams(24, 4)))
                  .ValueOrDie();
  UdfCompiler compiler{FpgaSpec{}};
  auto udf =
      compiler.Compile(*algo, DefaultLayout(), ShapeFor(999, 1000));
  EXPECT_TRUE(udf.status().IsInvalidArgument());
}

}  // namespace
}  // namespace dana::compiler
