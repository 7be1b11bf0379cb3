// Shared architectural state and microcoded helpers of the mini-SPARC core:
// register windows, spill/fill traps, the FP jitter model, and the run()
// dispatcher that selects between the two execution engines.  The engines
// themselves live in reference_vm.cpp (switch interpreter) and fast_vm.cpp
// (predecoded computed-goto core).
#include "vm.hpp"

#include "decode.hpp"
#include "taint.hpp"
#include "windows.hpp"

#include <cmath>
#include <sstream>

namespace proxima::vm {

using isa::Instruction;
using isa::Opcode;

Vm::Vm(mem::GuestMemory& memory, mem::MemoryHierarchy& hierarchy,
       VmConfig config)
    : memory_(memory), hierarchy_(hierarchy), config_(config) {
  if (config_.nwindows < 3) {
    throw VmError("at least 3 register windows are required");
  }
  globals_.assign(8, 0);
  windowed_.assign(static_cast<std::size_t>(config_.nwindows) * 16, 0);
  fregs_.assign(isa::kFpRegisterCount, 0.0);
  if (config_.core != VmCore::kReference) {
    decode_ = std::make_unique<DecodeCache>();
    memory_.add_write_listener(decode_.get());
  }
  if (config_.taint) {
    taint_ = std::make_unique<TaintState>(config_.nwindows);
  }
}

Vm::~Vm() {
  if (decode_) {
    memory_.remove_write_listener(decode_.get());
  }
}

void Vm::predecode(std::uint32_t addr, std::uint32_t length) {
  if (decode_) {
    decode_->predecode_range(memory_, addr, length);
  }
}

void Vm::reset(std::uint32_t entry_pc, std::uint32_t stack_top) {
  if (entry_pc % 4 != 0) {
    throw VmError("entry pc must be word-aligned");
  }
  if (stack_top % 8 != 0) {
    throw VmError("stack top must be doubleword-aligned");
  }
  std::fill(globals_.begin(), globals_.end(), 0);
  std::fill(windowed_.begin(), windowed_.end(), 0);
  std::fill(fregs_.begin(), fregs_.end(), 0.0);
  cwp_ = 0;
  resident_ = 1;
  icc_ = ConditionCodes{};
  fcc_ = FpCondition::kEqual;
  pc_ = entry_pc;
  cycles_ = 0;
  instructions_ = 0;
  halted_ = false;
  if (taint_) {
    taint_->clear_registers(); // shadows match the zeroed register file
  }
  set_reg(isa::kSp, stack_top);
}

std::uint32_t& Vm::visible(std::uint8_t index) {
  return RegisterWindow<std::uint32_t>(globals_.data(), windowed_.data(), cwp_,
                                       config_.nwindows)[index];
}

std::uint32_t Vm::visible_value(std::uint8_t index) const {
  if (index == isa::kG0) {
    return 0;
  }
  return const_cast<Vm*>(this)->visible(index);
}

std::uint32_t Vm::reg(std::uint8_t index) const { return visible_value(index); }

void Vm::set_reg(std::uint8_t index, std::uint32_t value) {
  if (index == isa::kG0) {
    return; // %g0 is hardwired to zero
  }
  visible(index) = value;
}

double Vm::freg(std::uint8_t index) const {
  if (index >= fregs_.size()) {
    fault("fp register index out of range");
  }
  return fregs_[index];
}

void Vm::set_freg(std::uint8_t index, double value) {
  if (index >= fregs_.size()) {
    fault("fp register index out of range");
  }
  fregs_[index] = value;
}

void Vm::fault(const std::string& what) const {
  std::ostringstream oss;
  oss << "vm fault at pc=0x" << std::hex << pc_ << ": " << what;
  throw VmError(oss.str());
}

RunResult Vm::run(std::uint64_t cycle_budget) {
  return config_.core == VmCore::kReference ? run_reference(cycle_budget)
                                            : run_fast(cycle_budget);
}

void Vm::take_branch(std::int32_t disp_words) {
  pc_ = static_cast<std::uint32_t>(static_cast<std::int64_t>(pc_) +
                                   std::int64_t{4} * disp_words);
  cycles_ += config_.branch_taken_penalty;
}

std::uint32_t Vm::fp_extra_cycles(Opcode op, double a, double b) const {
  // Deterministic value-dependent jitter, bounded by fp_jitter_max,
  // modelling the GRFPU's data-dependent early-outs and normalisation:
  //  * a zero operand takes an early-out (+1)
  //  * denormal operands need extra normalisation passes (+3)
  //  * add/sub with a large exponent gap needs a long alignment shift (+2)
  const auto classify = [](double x) { return std::fpclassify(x); };
  const int ca = classify(a);
  const int cb = classify(b);
  std::uint32_t extra = 0;
  if (ca == FP_SUBNORMAL || cb == FP_SUBNORMAL) {
    extra = 3;
  } else if (op == Opcode::kFaddd || op == Opcode::kFsubd) {
    if (ca == FP_ZERO || cb == FP_ZERO) {
      extra = 1;
    } else {
      int ea = 0;
      int eb = 0;
      (void)std::frexp(a, &ea);
      (void)std::frexp(b, &eb);
      const int gap = ea > eb ? ea - eb : eb - ea;
      if (gap > 26) {
        extra = 2;
      } else if (gap > 13) {
        extra = 1;
      }
    }
  } else if (ca == FP_ZERO || cb == FP_ZERO) {
    extra = 1;
  }
  return extra > config_.fp_jitter_max ? config_.fp_jitter_max : extra;
}

void Vm::spill_oldest_window() {
  // The oldest resident frame occupies window (cwp + resident - 1) mod N.
  const std::uint32_t n = config_.nwindows;
  const std::uint32_t w = (cwp_ + resident_ - 1) % n;
  // Save area: that window's %sp (its out6), which the SPARC ABI guarantees
  // points at 64 bytes of spill space.  With DSR, this address carries the
  // random stack offset — spill traffic is randomised too.
  const std::uint32_t sp = windowed_[window_base(w) + 6];
  if (sp % 8 != 0) {
    fault("window spill with misaligned %sp");
  }
  cycles_ += config_.trap_cycles;
  ++hierarchy_.counters().window_overflows;
  // Store %l0-%l7 then %i0-%i7 as eight doubleword stores (as real spill
  // handlers do with std), through the data cache path.
  for (std::uint32_t pair = 0; pair < 4; ++pair) {
    const std::uint32_t lo_index = window_base(w) + 8 + pair * 2;
    memory_.write_u32(sp + pair * 8, windowed_[lo_index]);
    memory_.write_u32(sp + pair * 8 + 4, windowed_[lo_index + 1]);
    cycles_ += 1 + hierarchy_.store(sp + pair * 8, cycles_, 8);
  }
  for (std::uint32_t pair = 0; pair < 4; ++pair) {
    const std::uint32_t in_index = window_ins_base(w, n) + pair * 2;
    memory_.write_u32(sp + 32 + pair * 8, windowed_[in_index]);
    memory_.write_u32(sp + 32 + pair * 8 + 4, windowed_[in_index + 1]);
    cycles_ += 1 + hierarchy_.store(sp + 32 + pair * 8, cycles_, 8);
  }
  --resident_;
}

void Vm::fill_window(std::uint32_t w) {
  const std::uint32_t n = config_.nwindows;
  // The window being re-entered was spilled at its own %sp, which is the
  // current frame's %fp (= caller's %sp): ins of cwp are resident.
  const std::uint32_t sp = visible_value(isa::kFp);
  if (sp % 8 != 0) {
    fault("window fill with misaligned %sp");
  }
  cycles_ += config_.trap_cycles;
  ++hierarchy_.counters().window_underflows;
  for (std::uint32_t pair = 0; pair < 4; ++pair) {
    const std::uint32_t lo_index = window_base(w) + 8 + pair * 2;
    windowed_[lo_index] = memory_.read_u32(sp + pair * 8);
    windowed_[lo_index + 1] = memory_.read_u32(sp + pair * 8 + 4);
    cycles_ += 1 + config_.load_use_cycles + hierarchy_.load(sp + pair * 8);
  }
  for (std::uint32_t pair = 0; pair < 4; ++pair) {
    const std::uint32_t in_index = window_ins_base(w, n) + pair * 2;
    windowed_[in_index] = memory_.read_u32(sp + 32 + pair * 8);
    windowed_[in_index + 1] = memory_.read_u32(sp + 32 + pair * 8 + 4);
    cycles_ += 1 + config_.load_use_cycles + hierarchy_.load(sp + 32 + pair * 8);
  }
  ++resident_;
}

void Vm::do_save(std::uint8_t rd, std::uint32_t value) {
  const std::uint32_t n = config_.nwindows;
  if (resident_ == n - 1) {
    spill_oldest_window(); // window overflow trap
  }
  cwp_ = (cwp_ + n - 1) % n;
  ++resident_;
  // rd is written in the NEW window (standard idiom: save %sp, -N, %sp).
  set_reg(rd, value);
}

void Vm::do_restore(const Instruction& instr) {
  const std::uint32_t n = config_.nwindows;
  // Compute in the CURRENT window before rotating.
  const std::uint32_t result =
      visible_value(instr.rs1) + visible_value(instr.rs2);
  const std::uint32_t target = (cwp_ + 1) % n;
  if (resident_ == 1) {
    fill_window(target); // window underflow trap
  }
  cwp_ = target;
  --resident_;
  set_reg(instr.rd, result); // written in the OLD (caller) window
}


} // namespace proxima::vm
