// Golden list schedules (ctest label: core).
//
// tests/golden/schedules.json maps each case to the FNV-1a digest of what
// the compiler scheduled for it, so any change to a placement, a
// tie-break, the scan limit or the hardware generator's choice fails on
// the case that moved. Two families of cases:
//
//  - registry: every ml::AllWorkloads() entry compiled through
//    runtime::DanaSystem::Compile over its shape instance, with the
//    default hardware-generator options, with mimd_only, and with each
//    force_threads value bench_paper's Figure 12 sweep uses. The digest
//    covers every OpPlacement, makespan, cross_ac_transfers and op_count
//    of the tuple, batch and epoch schedules, plus the chosen num_threads,
//    num_page_buffers and est_cycles_per_epoch; a failed compile records
//    its Status instead.
//  - random: seeded random DAG programs (mixed opcodes, so many equal
//    priorities; near and far operands, so long chains and wide ready
//    sets) scheduled directly on 1, 2, 3 and 16 clusters, with selective
//    SIMD on and off. These reach the tie-breaks, scan-limit truncation and
//    empty-group clock advances that the registry may not.
//
// Regenerate with `schedule_golden_test --write-golden [file]` only for an
// intentional schedule change, and explain every moved case.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "compiler/hw_generator.h"
#include "compiler/scalar_program.h"
#include "compiler/scheduler.h"
#include "ml/workloads.h"
#include "obs/json.h"
#include "runtime/systems.h"

namespace dana::compiler {
namespace {

std::string GoldenPath() { return DANA_SCHEDULE_GOLDEN; }

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
uint64_t Fold(uint64_t h, T v) {
  return Fnv1a(h, &v, sizeof(v));
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t FoldSchedule(uint64_t h, const Schedule& s) {
  for (const OpPlacement& p : s.placements) {
    h = Fold(h, p.ac);
    h = Fold(h, p.au);
    h = Fold(h, p.start_cycle);
    h = Fold(h, p.finish_cycle);
  }
  h = Fold(h, s.makespan);
  h = Fold(h, s.cross_ac_transfers);
  return Fold(h, s.op_count);
}

std::string Hex(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, h);
  return buf;
}

uint64_t DigestDesign(const DesignPoint& d) {
  uint64_t h = kFnvBasis;
  h = FoldSchedule(h, d.tuple_schedule);
  h = FoldSchedule(h, d.batch_schedule);
  h = FoldSchedule(h, d.epoch_schedule);
  h = Fold(h, d.num_threads);
  h = Fold(h, d.num_page_buffers);
  return Fold(h, d.est_cycles_per_epoch);
}

uint64_t DigestSchedule(const Schedule& s) {
  return FoldSchedule(kFnvBasis, s);
}

/// Figure 12's thread counts: min(merge coefficient, 1024 AUs / 8 per AC)
/// over coefficients 1..1024.
constexpr uint32_t kFig12Threads[] = {1, 4, 16, 64, 128};

void AddRegistryCases(std::map<std::string, std::string>* out) {
  std::vector<std::pair<std::string, HardwareGenerator::Options>> variants;
  variants.push_back({"default", {}});
  HardwareGenerator::Options mimd;
  mimd.mimd_only = true;
  variants.push_back({"mimd", mimd});
  for (uint32_t t : kFig12Threads) {
    HardwareGenerator::Options forced;
    forced.force_threads = t;
    variants.push_back({"threads" + std::to_string(t), forced});
  }
  for (const ml::Workload& w : ml::AllWorkloads()) {
    auto instance = runtime::WorkloadInstance::CreateShape(w);
    if (!instance.ok()) {
      (*out)["registry/" + w.id] = "error: " + instance.status().ToString();
      continue;
    }
    for (const auto& [name, hw] : variants) {
      runtime::DanaSystem::Options options;
      options.fpga = runtime::DefaultFpga();
      options.hw = hw;
      const runtime::DanaSystem dana(runtime::CpuCostModel{}, options);
      auto udf = dana.Compile(**instance);
      (*out)["registry/" + w.id + "/" + name] =
          udf.ok() ? Hex(DigestDesign(udf->design))
                   : "error: " + udf.status().ToString();
    }
  }
}

/// A seeded topologically ordered program of `n` ops. Each operand is,
/// with equal odds, the output of one of the `window` preceding ops, a
/// tuple input or a constant: a small window makes long chains, a large
/// one wide ready sets. Opcodes repeat so that priorities tie often.
std::vector<ScalarOp> RandomProgram(uint64_t seed, uint32_t n,
                                    uint32_t window) {
  static constexpr engine::AluOp kOps[] = {
      engine::AluOp::kAdd, engine::AluOp::kAdd,     engine::AluOp::kMul,
      engine::AluOp::kMul, engine::AluOp::kSub,     engine::AluOp::kLt,
      engine::AluOp::kMov, engine::AluOp::kDiv,     engine::AluOp::kSigmoid,
      engine::AluOp::kSqrt};
  Rng rng(seed);
  std::vector<ScalarOp> ops(n);
  for (uint32_t i = 0; i < n; ++i) {
    ops[i].op = kOps[rng.UniformInt(std::size(kOps))];
    for (ValueRef* ref : {&ops[i].a, &ops[i].b}) {
      const uint64_t roll = rng.UniformInt(3);
      if (roll == 0 && i > 0) {
        const uint32_t back =
            1 + static_cast<uint32_t>(rng.UniformInt(std::min(i, window)));
        *ref = ValueRef::Sub(ValueRegion::kTuple, i - back);
      } else if (roll == 1) {
        ref->kind = ValueRef::Kind::kInput;
        ref->index = static_cast<uint32_t>(rng.UniformInt(64));
      } else {
        *ref = ValueRef::Const(1.0);
      }
    }
  }
  return ops;
}

void AddRandomCases(std::map<std::string, std::string>* out) {
  uint64_t seed = 1;
  for (uint32_t n : {60u, 700u, 4000u}) {
    for (uint32_t window : {4u, 64u, 100000u}) {
      const std::vector<ScalarOp> ops = RandomProgram(seed++, n, window);
      for (uint32_t acs : {1u, 2u, 3u, 16u}) {
        for (bool simd : {true, false}) {
          const Scheduler scheduler(
              SchedulerConfig{.num_acs = acs, .selective_simd = simd});
          const std::string key = "random/n" + std::to_string(n) + "_w" +
                                  std::to_string(window) + "/acs" +
                                  std::to_string(acs) +
                                  (simd ? "/simd" : "/mimd");
          auto schedule = scheduler.Run(ops);
          (*out)[key] = schedule.ok()
                            ? Hex(DigestSchedule(*schedule))
                            : "error: " + schedule.status().ToString();
        }
      }
    }
  }
}

std::map<std::string, std::string> ComputeDigests() {
  std::map<std::string, std::string> out;
  AddRegistryCases(&out);
  AddRandomCases(&out);
  return out;
}

/// One case per line, sorted by key, so a moved case diffs as one line.
std::string Render(const std::map<std::string, std::string>& digests) {
  std::string doc = "{\n";
  size_t i = 0;
  for (const auto& [key, value] : digests) {
    doc += "  " + obs::Json(key).Dump() + ": " + obs::Json(value).Dump();
    doc += ++i < digests.size() ? ",\n" : "\n";
  }
  return doc + "}\n";
}

TEST(ScheduleGoldenTest, EveryCaseMatchesItsRecordedDigest) {
  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in) << "cannot read " << GoldenPath();
  std::stringstream text;
  text << in.rdbuf();
  auto doc = obs::Json::Parse(text.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  const std::map<std::string, std::string> digests = ComputeDigests();
  std::map<std::string, std::string> golden;
  for (const auto& [key, value] : doc->members()) {
    golden[key] = value.AsString();
  }
  for (const auto& [key, value] : digests) {
    auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << key << " has no recorded digest";
    } else {
      EXPECT_EQ(value, it->second) << key;
    }
  }
  for (const auto& [key, value] : golden) {
    EXPECT_TRUE(digests.count(key)) << key << " is recorded but not computed";
  }
  EXPECT_EQ(Render(digests), text.str()) << "file is not in canonical form";
}

int WriteGolden(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << Render(ComputeDigests());
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace dana::compiler

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--write-golden") {
      return dana::compiler::WriteGolden(
          i + 1 < argc ? argv[i + 1] : dana::compiler::GoldenPath());
    }
  }
  return RUN_ALL_TESTS();
}
