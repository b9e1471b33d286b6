#include <gtest/gtest.h>

#include <cstring>

#include "storage/page.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "strider/assembler.h"
#include "strider/codegen.h"
#include "strider/isa.h"
#include "strider/simulator.h"

namespace dana::strider {
namespace {

// ---------------------------------------------------------------------------
// Instruction encoding
// ---------------------------------------------------------------------------

class EncodeTest : public ::testing::TestWithParam<int> {};

TEST_P(EncodeTest, EncodeDecodeRoundTripsEveryOpcode) {
  Instruction ins;
  ins.op = static_cast<Opcode>(GetParam());
  ins.f1 = Operand::Reg(17);
  ins.f2 = Operand::Imm(9);
  ins.f3 = Operand::Reg(3);
  const uint32_t word = ins.Encode();
  EXPECT_LT(word, 1u << 22);  // fixed 22-bit length (Table 2)
  auto back = Instruction::Decode(word);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->op, ins.op);
  EXPECT_EQ(back->f1.is_reg, true);
  EXPECT_EQ(back->f1.value, 17);
  EXPECT_EQ(back->f2.is_reg, false);
  EXPECT_EQ(back->f2.value, 9);
  EXPECT_EQ(back->f3.value, 3);
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, EncodeTest, ::testing::Range(0, 11));

TEST(EncodeTest, DecodeRejectsBadOpcode) {
  EXPECT_TRUE(Instruction::Decode(15u << 18).status().IsCorruption());
}

TEST(EncodeTest, DecodeRejectsHighBits) {
  EXPECT_TRUE(Instruction::Decode(1u << 22).status().IsCorruption());
}

TEST(EncodeTest, Imm12RoundTrip) {
  for (uint32_t imm : {0u, 1u, 31u, 32u, 1103u, 4095u}) {
    auto ins = Instruction::MakeIns(16, imm);
    EXPECT_EQ(ins.Imm12(), imm);
    auto back = Instruction::Decode(ins.Encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->Imm12(), imm);
  }
}

TEST(EncodeTest, OperandRendering) {
  EXPECT_EQ(Operand::Reg(0).ToString(), "%cr0");
  EXPECT_EQ(Operand::Reg(15).ToString(), "%cr15");
  EXPECT_EQ(Operand::Reg(16).ToString(), "%t0");
  EXPECT_EQ(Operand::Reg(31).ToString(), "%t15");
  EXPECT_EQ(Operand::Imm(12).ToString(), "12");
}

TEST(EncodeTest, BitSpecPacking) {
  EXPECT_EQ(PackBitSpec(17, 15), (17u << 6) | 15u);
  EXPECT_EQ(PackByteSpec(2, 1), PackBitSpec(16, 8));
}

// ---------------------------------------------------------------------------
// Assembler
// ---------------------------------------------------------------------------

TEST(AssemblerTest, AssemblesPaperStyleSnippet) {
  // Adapted from the paper's §5.1.2 assembly example.
  const char* text = R"(
    \\ Page header processing
    readB %t0, 12, 2
    ad    %t6, 24, 0
    bentr
    readB %t2, %t6, 4
    extrBi %t4, %t2, %cr3
    cln   %t4, %t5, %cr2
    ad    %t6, %t6, 4
    bexit 1, %t6, %t0
  )";
  auto prog = Assemble(text);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_EQ(prog->code.size(), 8u);
  EXPECT_EQ(prog->code[0].op, Opcode::kReadB);
  EXPECT_EQ(prog->code[2].op, Opcode::kBentr);
  EXPECT_EQ(prog->code[7].op, Opcode::kBexit);
}

TEST(AssemblerTest, DisassembleRoundTrips) {
  const char* text = "readB %t0, 12, 2\nins %t1, 1103\nbentr\n"
                     "ad %t0, %t0, 4\nbexit 1, %t0, %cr0\n";
  auto prog = Assemble(text);
  ASSERT_TRUE(prog.ok());
  auto prog2 = Assemble(Disassemble(*prog));
  ASSERT_TRUE(prog2.ok());
  ASSERT_EQ(prog2->code.size(), prog->code.size());
  for (size_t i = 0; i < prog->code.size(); ++i) {
    EXPECT_EQ(prog2->code[i].Encode(), prog->code[i].Encode()) << i;
  }
}

TEST(AssemblerTest, RejectsUnknownMnemonic) {
  EXPECT_TRUE(Assemble("frobnicate %t0, 1, 2").status().IsInvalidArgument());
}

TEST(AssemblerTest, RejectsWideImmediate) {
  EXPECT_TRUE(Assemble("readB %t0, 999, 2").status().IsOutOfRange());
}

TEST(AssemblerTest, InsAccepts12Bits) {
  EXPECT_TRUE(Assemble("ins %t0, 4095").ok());
  EXPECT_TRUE(Assemble("ins %t0, 4096").status().IsOutOfRange());
}

TEST(AssemblerTest, RejectsUnbalancedLoops) {
  EXPECT_TRUE(Assemble("bexit 1, %t0, %t1").status().IsInvalidArgument());
  EXPECT_TRUE(Assemble("bentr").status().IsInvalidArgument());
}

TEST(AssemblerTest, RejectsBadRegister) {
  EXPECT_TRUE(Assemble("readB %t99, 0, 2").status().IsInvalidArgument());
  EXPECT_TRUE(Assemble("readB %cr16, 0, 2").status().IsInvalidArgument());
}

TEST(AssemblerTest, RejectsWrongArity) {
  EXPECT_TRUE(Assemble("readB %t0, 1").status().IsInvalidArgument());
  EXPECT_TRUE(Assemble("bentr 1").status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Simulator semantics
// ---------------------------------------------------------------------------

std::vector<uint8_t> TestPage(size_t n = 256) {
  std::vector<uint8_t> page(n);
  for (size_t i = 0; i < n; ++i) page[i] = static_cast<uint8_t>(i & 0xFF);
  return page;
}

TEST(SimulatorTest, ReadBLittleEndian) {
  auto prog = Assemble("readB %t0, 4, 4\nwriteB 16, %t0, 4").ValueOrDie();
  StriderSim sim;
  auto run = sim.Run(prog, TestPage());
  ASSERT_TRUE(run.ok());
  // Bytes 4..7 are 04 05 06 07 -> LE 0x07060504; written back verbatim.
  EXPECT_EQ(run->instructions, 2u);
}

TEST(SimulatorTest, ArithmeticOps) {
  // t0 = 20 + 5; t1 = t0 - 3; t2 = t1 * 2 => 44; write to page.
  auto prog = Assemble(
      "ad %t0, 20, 5\nsub %t1, %t0, 3\nmul %t2, %t1, 2\nwriteB 0, %t2, 4\n"
      "readB %t3, 0, 4\ncln 0, 4, 0")
                  .ValueOrDie();
  StriderSim sim;
  auto run = sim.Run(prog, TestPage());
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->tuples.size(), 1u);
  uint32_t v;
  std::memcpy(&v, run->tuples[0].data(), 4);
  EXPECT_EQ(v, 44u);
}

TEST(SimulatorTest, WriteBWritesAPageBufferCopy) {
  // The walk reads the caller's page in place; writeB lands in a copy that
  // keeps every byte it does not overwrite, and the caller's page is left
  // as it was.
  const std::vector<uint8_t> page = TestPage();
  auto prog =
      Assemble("readB %t0, 4, 4\nwriteB 0, %t0, 4\ncln 0, 8, 0").ValueOrDie();
  StriderSim sim;
  auto run = sim.Run(prog, page);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->tuples.size(), 1u);
  EXPECT_EQ(run->tuples[0], (std::vector<uint8_t>{4, 5, 6, 7, 4, 5, 6, 7}));
  EXPECT_EQ(page, TestPage());
}

TEST(SimulatorTest, ExtrBiExtractsBitFields) {
  // Write a packed ItemId-like value and extract both fields.
  const uint32_t packed = storage::PackItemId(1234, 1, 56);
  std::vector<uint8_t> page(64);
  std::memcpy(page.data(), &packed, 4);
  StriderProgram prog = Assemble(
      "readB %t0, 0, 4\n"
      "extrBi %t1, %t0, %cr0\n"   // offset field
      "extrBi %t2, %t0, %cr1\n"   // length field
      "writeB 8, %t1, 4\nwriteB 12, %t2, 4\n"
      "cln 8, 8, 0")
                           .ValueOrDie();
  prog.config[0] = PackBitSpec(0, 15);
  prog.config[1] = PackBitSpec(17, 15);
  StriderSim sim;
  auto run = sim.Run(prog, page);
  ASSERT_TRUE(run.ok());
  uint32_t off, len;
  std::memcpy(&off, run->tuples[0].data(), 4);
  std::memcpy(&len, run->tuples[0].data() + 4, 4);
  EXPECT_EQ(off, 1234u);
  EXPECT_EQ(len, 56u);
}

TEST(SimulatorTest, LoopIterationViaBexit) {
  // Sum addresses 0..3 into t1 by looping.
  auto prog = Assemble(
      "ad %t0, 0, 0\n"      // cursor
      "ad %t1, 0, 0\n"      // acc
      "bentr\n"
      "readB %t2, %t0, 1\n"
      "ad %t1, %t1, %t2\n"
      "ad %t0, %t0, 1\n"
      "bexit 1, %t0, 4\n"   // exit when cursor >= 4
      "writeB 16, %t1, 4\ncln 16, 4, 0")
                  .ValueOrDie();
  StriderSim sim;
  auto run = sim.Run(prog, TestPage());
  ASSERT_TRUE(run.ok());
  uint32_t acc;
  std::memcpy(&acc, run->tuples[0].data(), 4);
  EXPECT_EQ(acc, 0u + 1 + 2 + 3);
}

TEST(SimulatorTest, RunawayLoopHitsCycleBudget) {
  auto prog = Assemble("bentr\nad %t0, %t0, 0\nbexit 1, %t0, 1").ValueOrDie();
  StriderSim sim;
  EXPECT_TRUE(
      sim.Run(prog, TestPage(), /*max_cycles=*/1000).status()
          .IsResourceExhausted());
}

TEST(SimulatorTest, OutOfRangeReadFails) {
  auto prog = Assemble("ins %t0, 4000\nreadB %t1, %t0, 4").ValueOrDie();
  StriderSim sim;
  EXPECT_TRUE(sim.Run(prog, TestPage(256)).status().IsOutOfRange());
}

TEST(SimulatorTest, ClnChargesEmissionCycles) {
  // Emitting 64 bytes at 8 B/cycle costs 8 extra cycles over the instr.
  std::vector<uint8_t> page(128, 0xCC);
  auto prog = Assemble("cln 0, 31, 0").ValueOrDie();
  StriderSim sim(8);
  auto run = sim.Run(prog, page);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->cycles, 1u + (31 + 7) / 8);
}

TEST(SimulatorTest, ConfigRegistersPreloaded) {
  StriderProgram prog = Assemble("writeB 0, %cr7, 4\ncln 0, 4, 0").ValueOrDie();
  prog.config[7] = 0xDEADBEEF;
  StriderSim sim;
  auto run = sim.Run(prog, TestPage());
  ASSERT_TRUE(run.ok());
  uint32_t v;
  std::memcpy(&v, run->tuples[0].data(), 4);
  EXPECT_EQ(v, 0xDEADBEEFu);
}

// ---------------------------------------------------------------------------
// Page-walk program against real storage pages (the paper's core loop)
// ---------------------------------------------------------------------------

struct WalkCase {
  uint32_t page_size;
  uint32_t features;
  uint32_t rows;
};

class PageWalkTest : public ::testing::TestWithParam<WalkCase> {};

TEST_P(PageWalkTest, ExtractsExactlyTheStoredTuples) {
  const WalkCase c = GetParam();
  storage::PageLayout layout;
  layout.page_size = c.page_size;
  storage::Table table("t", storage::Schema::Dense(c.features), layout);
  std::vector<double> row(c.features + 1);
  for (uint32_t r = 0; r < c.rows; ++r) {
    for (uint32_t i = 0; i <= c.features; ++i) {
      row[i] = r * 1000.0 + i;
    }
    ASSERT_TRUE(table.AppendRow(row).ok());
  }

  auto prog = BuildPageWalkProgram(layout);
  ASSERT_TRUE(prog.ok());
  StriderSim sim;

  uint64_t extracted = 0;
  for (uint64_t p = 0; p < table.num_pages(); ++p) {
    auto run = sim.Run(*prog, {table.PageData(p), layout.page_size});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const uint32_t expect = table.TuplesOnPage(p);
    ASSERT_EQ(run->tuples.size(), expect);
    for (uint32_t s = 0; s < expect; ++s) {
      // The emitted payload must match the schema codec byte-for-byte.
      storage::Page page(const_cast<uint8_t*>(table.PageData(p)), layout);
      auto payload = page.GetTuplePayload(s);
      ASSERT_TRUE(payload.ok());
      ASSERT_EQ(run->tuples[s].size(), payload->size());
      EXPECT_EQ(0, std::memcmp(run->tuples[s].data(), payload->data(),
                               payload->size()));
      ++extracted;
    }
  }
  EXPECT_EQ(extracted, c.rows);
}

INSTANTIATE_TEST_SUITE_P(
    LayoutSweep, PageWalkTest,
    ::testing::Values(WalkCase{8 * 1024, 4, 100},
                      WalkCase{8 * 1024, 54, 500},
                      WalkCase{16 * 1024, 54, 500},
                      WalkCase{32 * 1024, 54, 500},
                      WalkCase{32 * 1024, 520, 100},
                      WalkCase{32 * 1024, 2000, 40},
                      WalkCase{32 * 1024, 1, 2000}));

TEST(PageWalkTest, EmptyPageEmitsNothing) {
  storage::PageLayout layout;
  layout.page_size = 8 * 1024;
  std::vector<uint8_t> buf(layout.page_size);
  storage::Page page(buf.data(), layout);
  page.InitEmpty();
  auto prog = BuildPageWalkProgram(layout);
  ASSERT_TRUE(prog.ok());
  StriderSim sim;
  auto run = sim.Run(*prog, buf);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->tuples.empty());
}

TEST(PageWalkTest, CycleEstimateTracksSimulation) {
  storage::PageLayout layout;
  storage::Table table("t", storage::Schema::Dense(54), layout);
  std::vector<double> row(55, 1.0);
  for (int r = 0; r < 500; ++r) ASSERT_TRUE(table.AppendRow(row).ok());
  auto prog = BuildPageWalkProgram(layout);
  ASSERT_TRUE(prog.ok());
  StriderSim sim;
  auto run = sim.Run(*prog, {table.PageData(0), layout.page_size});
  ASSERT_TRUE(run.ok());
  const uint64_t est = EstimatePageWalkCycles(layout, table.TuplesOnPage(0),
                                              55 * 4);
  const double ratio =
      static_cast<double>(run->cycles) / static_cast<double>(est);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(PageWalkTest, ProgramStoredIn22BitWords) {
  storage::PageLayout layout;
  auto prog = BuildPageWalkProgram(layout);
  ASSERT_TRUE(prog.ok());
  for (const auto& ins : prog->code) {
    EXPECT_LT(ins.Encode(), 1u << 22);
  }
  EXPECT_EQ(prog->EncodedBytes(), prog->code.size() * 3);
}

}  // namespace
}  // namespace dana::strider
