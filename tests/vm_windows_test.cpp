// Register-window tests: SAVE/RESTORE rotation, parameter passing through
// the in/out overlap, and overflow/underflow spill-fill traffic — the part
// of SPARC that made the DSR port "one of the most challenging" (III.B.2).
#include "vm_harness.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace {

using namespace proxima::isa;
using proxima::test::TestMachine;
using proxima::vm::VmConfig;
using proxima::vm::VmCore;
using proxima::vm::VmError;

Program recursion_program(int depth) {
  // fact(n): classic windowed recursion touching every window mechanism.
  Program program;
  {
    FunctionBuilder fb("main");
    fb.li(kO0, depth);
    fb.call("fact");
    fb.load_address(kO1, "result");
    fb.st(kO0, kO1, 0);
    fb.halt();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("fact");
    fb.prologue(96); // n visible as %i0
    fb.subcci(kI0, 1);
    fb.ble("base");
    fb.subi(kO0, kI0, 1);
    fb.call("fact");        // result in %o0
    fb.mul(kI0, kI0, kO0);  // n * fact(n-1) -> %i0 (returned via restore)
    fb.ba("done");
    fb.label("base");
    fb.li(kI0, 1);
    fb.label("done");
    fb.epilogue();
    program.functions.push_back(fb.build());
  }
  program.data.push_back(DataObject{.name = "result", .size = 4, .align = 4});
  program.entry = "main";
  return program;
}

TEST(Windows, SaveRotatesOutsToIns) {
  Program program;
  {
    FunctionBuilder fb("main");
    fb.li(kO0, 41);
    fb.call("callee");
    fb.halt();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("callee");
    fb.prologue(96);
    fb.addi(kI0, kI0, 1); // caller's %o0 is callee's %i0
    fb.epilogue();        // callee's %i0 becomes caller's %o0
    program.functions.push_back(fb.build());
  }
  program.entry = "main";
  TestMachine machine(program);
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO0), 42u);
}

TEST(Windows, SpPropagatesToFp) {
  Program program;
  {
    FunctionBuilder fb("main");
    fb.call("callee");
    fb.halt();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("callee");
    fb.prologue(96);
    fb.mov(kO1, kFp); // %fp == caller's %sp
    fb.mov(kO2, kSp);
    fb.epilogue();
    program.functions.push_back(fb.build());
  }
  program.entry = "main";
  TestMachine machine(program);
  // Capture registers before the restore wipes the callee window: single
  // step until just past the two movs.
  machine.run();
  // After return, the values live in the *callee's* window, which has been
  // rotated away; instead verify via a second program below.
  SUCCEED();
}

TEST(Windows, FrameOffsetAppliedBySave) {
  Program program;
  {
    FunctionBuilder fb("main");
    fb.mov(kL0, kSp); // remember caller sp in a local (survives the call)
    fb.call("callee");
    fb.halt();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("callee");
    fb.prologue(96);
    fb.load_address(kO0, "out");
    fb.st(kSp, kO0, 0); // store callee sp
    fb.st(kFp, kO0, 4); // store fp (= caller sp)
    fb.epilogue();
    program.functions.push_back(fb.build());
  }
  program.data.push_back(DataObject{.name = "out", .size = 8, .align = 4});
  program.entry = "main";
  TestMachine machine(program);
  machine.run();
  const std::uint32_t callee_sp = machine.word_at("out", 0);
  const std::uint32_t callee_fp = machine.word_at("out", 4);
  EXPECT_EQ(callee_fp, proxima::test::kStackTop);
  EXPECT_EQ(callee_sp, proxima::test::kStackTop - 96);
  EXPECT_EQ(machine.cpu.reg(kL0), proxima::test::kStackTop);
}

TEST(Windows, DeepRecursionCorrectWithSpills) {
  TestMachine machine(recursion_program(10));
  machine.run();
  EXPECT_EQ(machine.word_at("result"), 3628800u); // 10!
  // Depth 11 frames > 7 resident: must have spilled and filled.
  EXPECT_GT(machine.hierarchy.counters().window_overflows, 0u);
  EXPECT_GT(machine.hierarchy.counters().window_underflows, 0u);
  EXPECT_EQ(machine.hierarchy.counters().window_overflows,
            machine.hierarchy.counters().window_underflows);
}

TEST(Windows, ShallowRecursionAvoidsSpills) {
  TestMachine machine(recursion_program(5));
  machine.run();
  EXPECT_EQ(machine.word_at("result"), 120u); // 5!
  EXPECT_EQ(machine.hierarchy.counters().window_overflows, 0u);
  EXPECT_EQ(machine.hierarchy.counters().window_underflows, 0u);
}

TEST(Windows, VeryDeepRecursionStillCorrect) {
  TestMachine machine(recursion_program(12));
  machine.run();
  EXPECT_EQ(machine.word_at("result"), 479001600u); // 12!
}

TEST(Windows, ResidentCountTracksNesting) {
  Program program;
  {
    FunctionBuilder fb("main");
    fb.call("a");
    fb.halt();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("a");
    fb.prologue(96);
    fb.call("b");
    fb.epilogue();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("b");
    fb.prologue(96);
    fb.epilogue();
    program.functions.push_back(fb.build());
  }
  program.entry = "main";
  TestMachine machine(program);
  EXPECT_EQ(machine.cpu.resident_windows(), 1u);
  machine.run();
  EXPECT_EQ(machine.cpu.resident_windows(), 1u); // balanced save/restore
}

TEST(Windows, SpillWritesToSpilledWindowsStack) {
  // Nest deeply; the spill of the outermost frame must write to the
  // outermost %sp region (top of stack), not the innermost.
  TestMachine machine(recursion_program(9));
  machine.run();
  // Spills store locals+ins (64 bytes) at each spilled window's %sp; the
  // first spill hits main's frame area near the stack top.
  EXPECT_EQ(machine.word_at("result"), 362880u);
  EXPECT_GT(machine.hierarchy.counters().stores, 0u);
}

TEST(Windows, MisalignedStackFaultsOnSpill) {
  // Force a misaligned %sp and recurse deep enough to spill.
  Program program;
  {
    FunctionBuilder fb("main");
    fb.subi(kSp, kSp, 4); // break doubleword alignment
    fb.li(kO0, 10);
    fb.call("fact");
    fb.halt();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("fact");
    fb.prologue(96);
    fb.subcci(kI0, 1);
    fb.ble("base");
    fb.subi(kO0, kI0, 1);
    fb.call("fact");
    fb.label("base");
    fb.epilogue();
    program.functions.push_back(fb.build());
  }
  program.entry = "main";
  TestMachine machine(program);
  EXPECT_THROW(machine.run(), VmError);
}

TEST(Windows, SpillTrafficGoesThroughDataCache) {
  TestMachine no_spill(recursion_program(5));
  no_spill.run();
  const std::uint64_t base_stores = no_spill.hierarchy.counters().stores;

  TestMachine with_spill(recursion_program(12));
  with_spill.run();
  // Each overflow spills 8 doubleword stores.
  const std::uint64_t spill_stores =
      with_spill.hierarchy.counters().stores - base_stores;
  EXPECT_GE(spill_stores,
            8 * with_spill.hierarchy.counters().window_overflows);
}

// sum(n) = n + sum(n-1), keeping n in a local across the call so every
// spill and fill must preserve it.  main keeps a marker in %l3 across the
// whole chain.  main runs in window 0 and its SAVE rotates to window
// nwindows-1, so the outermost sum frame's %i registers are window 0's
// outs: its RESTORE is taken at cwp = nwindows-1 with ins that wrap.
Program sum_chain_program(int depth) {
  Program program;
  {
    FunctionBuilder fb("main");
    fb.li(kL3, 777);
    fb.li(kO0, depth);
    fb.call("sum");
    fb.load_address(kO1, "result");
    fb.st(kO0, kO1, 0);
    fb.st(kL3, kO1, 4);
    fb.halt();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("sum");
    fb.prologue(96);
    fb.mov(kL0, kI0);
    fb.subcci(kI0, 1);
    fb.ble("base");
    fb.subi(kO0, kI0, 1);
    fb.call("sum");
    fb.add(kI0, kO0, kL0);
    fb.ba("done");
    fb.label("base");
    fb.li(kI0, 1);
    fb.label("done");
    fb.epilogue();
    program.functions.push_back(fb.build());
  }
  program.data.push_back(DataObject{.name = "result", .size = 8, .align = 4});
  program.entry = "main";
  return program;
}

// Everything a core exposes, captured at one stop.
struct Snapshot {
  std::array<std::uint32_t, kRegisterCount> regs{};
  std::array<bool, 4> icc{};
  std::uint32_t pc = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint32_t resident = 0;
  proxima::mem::PerfCounters counters;
  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

Snapshot snapshot(const TestMachine& machine) {
  Snapshot shot;
  for (std::uint8_t r = 0; r < kRegisterCount; ++r) {
    shot.regs[r] = machine.cpu.reg(r);
  }
  const auto& icc = machine.cpu.icc();
  shot.icc = {icc.n, icc.z, icc.v, icc.c};
  shot.pc = machine.cpu.pc();
  shot.cycles = machine.cpu.cycles();
  shot.instructions = machine.cpu.instructions();
  shot.resident = machine.cpu.resident_windows();
  shot.counters = machine.hierarchy.counters();
  return shot;
}

// Run to HALT in short cycle-budget slices, snapshotting at every stop, so
// the register file is compared at many window depths, not just at exit.
// A core that loses track of its window never halts; the cycle cap turns
// that into a failure instead of a hang.
std::vector<Snapshot> run_sliced(TestMachine& machine) {
  constexpr std::uint64_t kSlice = 23;
  constexpr std::uint64_t kMaxCycles = 1'000'000;
  std::vector<Snapshot> shots;
  std::uint64_t budget = 0;
  while (!machine.cpu.halted() && budget < kMaxCycles) {
    budget += kSlice;
    machine.cpu.run(budget);
    shots.push_back(snapshot(machine));
  }
  EXPECT_TRUE(machine.cpu.halted()) << "no HALT within " << kMaxCycles
                                    << " cycles";
  return shots;
}

TEST(Windows, CoresAgreeAcrossWindowCounts) {
  for (const std::uint32_t nwindows : {3u, 5u, 8u}) {
    SCOPED_TRACE("nwindows=" + std::to_string(nwindows));
    // Deeper than the resident limit (nwindows - 1) at every count.
    const int depth = static_cast<int>(2 * nwindows + 3);
    const Program program = sum_chain_program(depth);
    TestMachine reference(program, {},
                          VmConfig{.core = VmCore::kReference,
                                   .nwindows = nwindows});
    TestMachine fast(program, {},
                     VmConfig{.core = VmCore::kFast, .nwindows = nwindows});
    const std::vector<Snapshot> expected = run_sliced(reference);
    EXPECT_TRUE(run_sliced(fast) == expected);

    EXPECT_EQ(reference.word_at("result"),
              static_cast<std::uint32_t>(depth * (depth + 1) / 2));
    EXPECT_EQ(reference.word_at("result", 4), 777u);
    const auto& counters = reference.hierarchy.counters();
    EXPECT_GT(counters.window_overflows, 0u);
    EXPECT_EQ(counters.window_overflows, counters.window_underflows);
  }
}

TEST(Windows, FewerThanThreeWindowsRejectedByEveryCore) {
  proxima::mem::GuestMemory memory;
  proxima::mem::MemoryHierarchy hierarchy(
      proxima::mem::leon3_hierarchy_config());
  for (const VmCore core : {VmCore::kReference, VmCore::kFast}) {
    EXPECT_THROW(proxima::vm::Vm(memory, hierarchy,
                                 VmConfig{.core = core, .nwindows = 2}),
                 VmError);
  }
}

} // namespace
