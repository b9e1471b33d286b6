#include "strider/simulator.h"

#include <string>

namespace dana::strider {

namespace {

/// Machine state: 32 registers plus a copy-on-write page view.
struct Machine {
  uint32_t regs[kNumRegisters] = {};
  /// The caller's page, read in place until the first writeB.
  std::span<const uint8_t> page;
  /// The page-buffer-local copy the first writeB makes (writeB never
  /// reaches the caller's page).
  std::vector<uint8_t> written;
  bool copied = false;
  std::vector<size_t> loop_stack;

  uint8_t* WritablePage() {
    if (!copied) {
      written.assign(page.begin(), page.end());
      page = written;
      copied = true;
    }
    return written.data();
  }

  uint32_t Get(const Operand& o) const {
    return o.is_reg ? regs[o.value] : o.value;
  }
  Status Set(const Operand& o, uint32_t v) {
    if (!o.is_reg) {
      return Status::InvalidArgument("destination operand is an immediate");
    }
    regs[o.value] = v;
    return Status::OK();
  }
};

}  // namespace

Result<StriderRunResult> StriderSim::Run(const StriderProgram& program,
                                         std::span<const uint8_t> page,
                                         uint64_t max_cycles) const {
  Machine m;
  for (uint32_t i = 0; i < kNumConfigRegisters; ++i) {
    m.regs[i] = program.config[i];
  }
  m.page = page;

  StriderRunResult result;
  size_t pc = 0;
  while (pc < program.code.size()) {
    if (result.cycles > max_cycles) {
      return Status::ResourceExhausted("Strider exceeded cycle budget (loop "
                                       "without a reachable bexit?)");
    }
    const Instruction& ins = program.code[pc];
    ++result.instructions;
    ++result.cycles;
    switch (ins.op) {
      case Opcode::kReadB: {
        const uint32_t addr = m.Get(ins.f2);
        const uint32_t n = m.Get(ins.f3);
        if (n > 4) {
          return Status::InvalidArgument("readB reads at most 4 bytes");
        }
        if (addr + n > m.page.size()) {
          return Status::OutOfRange("readB at " + std::to_string(addr) +
                                    "+" + std::to_string(n) +
                                    " past page end");
        }
        uint32_t v = 0;
        for (uint32_t i = 0; i < n; ++i) {
          v |= static_cast<uint32_t>(m.page[addr + i]) << (8 * i);
        }
        DANA_RETURN_NOT_OK(m.Set(ins.f1, v));
        break;
      }
      case Opcode::kWriteB: {
        const uint32_t addr = m.Get(ins.f1);
        const uint32_t v = m.Get(ins.f2);
        const uint32_t n = m.Get(ins.f3);
        if (n > 4) {
          return Status::InvalidArgument("writeB writes at most 4 bytes");
        }
        if (addr + n > m.page.size()) {
          return Status::OutOfRange("writeB past page end");
        }
        uint8_t* dst = m.WritablePage() + addr;
        for (uint32_t i = 0; i < n; ++i) {
          dst[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xFF);
        }
        break;
      }
      case Opcode::kExtrB: {
        const uint32_t src = m.Get(ins.f2);
        const uint32_t spec = m.Get(ins.f3);
        const uint32_t bit_off = spec >> 6;
        const uint32_t bit_len = spec & 0x3Fu;
        const uint64_t mask =
            bit_len >= 32 ? 0xFFFFFFFFull : ((1ull << bit_len) - 1);
        DANA_RETURN_NOT_OK(
            m.Set(ins.f1, static_cast<uint32_t>((src >> bit_off) & mask)));
        break;
      }
      case Opcode::kExtrBi: {
        const uint32_t src = m.Get(ins.f2);
        const uint32_t spec = m.Get(ins.f3);
        const uint32_t bit_off = spec >> 6;
        const uint32_t bit_len = spec & 0x3Fu;
        if (bit_off >= 32) {
          return Status::OutOfRange("extrBi bit offset >= 32");
        }
        const uint64_t mask =
            bit_len >= 32 ? 0xFFFFFFFFull : ((1ull << bit_len) - 1);
        DANA_RETURN_NOT_OK(
            m.Set(ins.f1, static_cast<uint32_t>((src >> bit_off) & mask)));
        break;
      }
      case Opcode::kCln: {
        const uint32_t addr = m.Get(ins.f1);
        const uint32_t len = m.Get(ins.f2);
        const uint32_t skip = m.Get(ins.f3);
        if (len > skip) {
          const uint32_t start = addr + skip;
          const uint32_t count = len - skip;
          if (start + count > m.page.size()) {
            return Status::OutOfRange("cln emits past page end");
          }
          result.tuples.emplace_back(m.page.begin() + start,
                                     m.page.begin() + start + count);
          result.cycles += (count + emit_width_ - 1) / emit_width_;
        }
        break;
      }
      case Opcode::kIns: {
        DANA_RETURN_NOT_OK(m.Set(ins.f1, ins.Imm12()));
        break;
      }
      case Opcode::kAd:
        DANA_RETURN_NOT_OK(m.Set(ins.f1, m.Get(ins.f2) + m.Get(ins.f3)));
        break;
      case Opcode::kSub:
        DANA_RETURN_NOT_OK(m.Set(ins.f1, m.Get(ins.f2) - m.Get(ins.f3)));
        break;
      case Opcode::kMul:
        DANA_RETURN_NOT_OK(m.Set(ins.f1, m.Get(ins.f2) * m.Get(ins.f3)));
        break;
      case Opcode::kBentr:
        m.loop_stack.push_back(pc + 1);
        break;
      case Opcode::kBexit: {
        if (m.loop_stack.empty()) {
          return Status::FailedPrecondition("bexit without bentr");
        }
        const uint32_t cond = m.Get(ins.f1);
        const uint32_t a = m.Get(ins.f2);
        const uint32_t b = m.Get(ins.f3);
        bool exit_loop = false;
        switch (static_cast<BexitCond>(cond)) {
          case BexitCond::kEq:
            exit_loop = (a == b);
            break;
          case BexitCond::kGe:
            exit_loop = (a >= b);
            break;
          case BexitCond::kLt:
            exit_loop = (a < b);
            break;
          default:
            return Status::InvalidArgument("bad bexit condition " +
                                           std::to_string(cond));
        }
        if (exit_loop) {
          m.loop_stack.pop_back();
        } else {
          pc = m.loop_stack.back();
          continue;
        }
        break;
      }
    }
    ++pc;
  }
  return result;
}

}  // namespace dana::strider
