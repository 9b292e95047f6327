//===- tests/test_vm.cpp - VM identity and guard-path tests ---*- C++ -*-===//
//
// Two kinds of VM tests, run together with `ctest -L vm`:
//
//  * Identity: a golden table of every RunResult counter and every
//    cumulative collector counter, for the four table workloads x five
//    modes x three machines at the default collection trigger, sparc10
//    under the adversarial instruction-period and call-period schedulers,
//    and two runs that take the freed-access and checker paths. The counts
//    are the reproduction's results, so any change to the interpreter or
//    the collector must leave them bit-identical.
//  * Guards: the budget, output, fall-off, stack-overflow, deadline and
//    sampling paths, on hand-built IR where that is the simplest input.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "driver/Request.h"
#include "ir/IR.h"
#include "support/Profile.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

using namespace gcsafe;

namespace {

/// The collection scheduler a golden row was taken under.
enum class Sched { Default, Period200, CallPeriod1 };

const char *schedName(Sched S) {
  switch (S) {
  case Sched::Default: return "default";
  case Sched::Period200: return "period200";
  case Sched::CallPeriod1: return "callperiod1";
  }
  return "?";
}

struct Golden {
  const char *Key; ///< workload/mode/machine/schedule
  bool Ok;
  long ExitCode;
  const char *Output;
  uint64_t Instructions, Cycles, SpillCycles, KeepLives, KeepLiveCycles,
      Kills, CheckCycles, AllocatorCycles, Collections, AllocCount,
      AllocBytes, ChecksPerformed, CheckViolations, FreedAccesses;
  uint64_t GcCollections, WordsScanned, PointerHits, MarkedObjects,
      InteriorPointerHits, FalseRetentionCandidates, LiveBytesAfterLastGC;
};

// Generated from the interpreter and collector before the decoded VM
// replaced them; a mismatch prints the row as it now reads.
const Golden GoldenRows[] = {
#include "vm_golden.inc"
};

std::string rowText(const std::string &Key, const vm::RunResult &R) {
  std::string Out;
  for (char C : R.Output) {
    if (C == '\n')
      Out += "\\n";
    else if (C == '"' || C == '\\')
      Out += std::string("\\") + C;
    else
      Out += C;
  }
  char Buf[1024];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"%s\", %s, %ld, \"%s\",\n %lluu, %lluu, %lluu, %lluu, %lluu, "
      "%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu,\n "
      "%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu},",
      Key.c_str(), R.Ok ? "true" : "false", R.ExitCode, Out.c_str(),
      (unsigned long long)R.InstructionsExecuted,
      (unsigned long long)R.Cycles, (unsigned long long)R.SpillCycles,
      (unsigned long long)R.KeepLiveExecuted,
      (unsigned long long)R.KeepLiveCycles,
      (unsigned long long)R.KillsExecuted, (unsigned long long)R.CheckCycles,
      (unsigned long long)R.AllocatorCycles,
      (unsigned long long)R.Collections, (unsigned long long)R.AllocCount,
      (unsigned long long)R.AllocBytes,
      (unsigned long long)R.ChecksPerformed,
      (unsigned long long)R.CheckViolations,
      (unsigned long long)R.FreedAccesses,
      (unsigned long long)R.Gc.Collections,
      (unsigned long long)R.Gc.WordsScanned,
      (unsigned long long)R.Gc.PointerHits,
      (unsigned long long)R.Gc.MarkedObjects,
      (unsigned long long)R.Gc.InteriorPointerHits,
      (unsigned long long)R.Gc.FalseRetentionCandidates,
      (unsigned long long)R.Gc.LiveBytesAfterLastGC);
  return Buf;
}

bool matches(const Golden &G, const vm::RunResult &R) {
  return G.Ok == R.Ok && G.ExitCode == R.ExitCode && G.Output == R.Output &&
         G.Instructions == R.InstructionsExecuted && G.Cycles == R.Cycles &&
         G.SpillCycles == R.SpillCycles &&
         G.KeepLives == R.KeepLiveExecuted &&
         G.KeepLiveCycles == R.KeepLiveCycles &&
         G.Kills == R.KillsExecuted && G.CheckCycles == R.CheckCycles &&
         G.AllocatorCycles == R.AllocatorCycles &&
         G.Collections == R.Collections && G.AllocCount == R.AllocCount &&
         G.AllocBytes == R.AllocBytes &&
         G.ChecksPerformed == R.ChecksPerformed &&
         G.CheckViolations == R.CheckViolations &&
         G.FreedAccesses == R.FreedAccesses &&
         G.GcCollections == R.Gc.Collections &&
         G.WordsScanned == R.Gc.WordsScanned &&
         G.PointerHits == R.Gc.PointerHits &&
         G.MarkedObjects == R.Gc.MarkedObjects &&
         G.InteriorPointerHits == R.Gc.InteriorPointerHits &&
         G.FalseRetentionCandidates == R.Gc.FalseRetentionCandidates &&
         G.LiveBytesAfterLastGC == R.Gc.LiveBytesAfterLastGC;
}

std::string caseKey(const char *Workload, driver::CompileMode Mode,
                    const char *Machine, Sched S) {
  return std::string(Workload) + "/" + driver::compileModeToken(Mode) + "/" +
         Machine + "/" + schedName(S);
}

vm::RunResult runCase(const ir::Module &M, const vm::MachineModel &Model,
                      Sched S) {
  vm::VMOptions VO;
  VO.Model = Model;
  if (S == Sched::Period200)
    VO.GcInstructionPeriod = 200;
  if (S == Sched::CallPeriod1)
    VO.GcCallPeriod = 1;
  vm::VM Machine(M, VO);
  return Machine.run();
}

TEST(VmIdentity, CountsMatchGoldenTable) {
  std::map<std::string, const Golden *> ByKey;
  for (const Golden &G : GoldenRows)
    ByKey[G.Key] = &G;
  size_t Checked = 0;
  auto Check = [&](const std::string &Key, const vm::RunResult &R) {
    auto It = ByKey.find(Key);
    if (It == ByKey.end()) {
      ADD_FAILURE() << "no golden row; now:\n" << rowText(Key, R);
      return;
    }
    EXPECT_TRUE(matches(*It->second, R))
        << "counts of " << Key << " moved; now:\n" << rowText(Key, R);
    ++Checked;
  };
  auto Compile = [](driver::Compilation &Comp, driver::CompileMode Mode) {
    driver::CompileOptions CO;
    CO.Mode = Mode;
    return Comp.compile(CO);
  };

  const driver::CompileMode Modes[] = {
      driver::CompileMode::O2, driver::CompileMode::O2Safe,
      driver::CompileMode::O2SafePost, driver::CompileMode::Debug,
      driver::CompileMode::DebugChecked};
  const std::pair<const char *, vm::MachineModel> Machines[] = {
      {"sparc2", vm::sparc2()},
      {"sparc10", vm::sparc10()},
      {"pentium90", vm::pentium90()}};

  // The table workloads: every mode and machine at the default trigger,
  // and sparc10 under both adversarial schedulers.
  for (const workloads::Workload *W : workloads::benchmarkSuite()) {
    driver::Compilation Comp(W->Name, W->Source);
    for (driver::CompileMode Mode : Modes) {
      driver::CompileResult CR = Compile(Comp, Mode);
      ASSERT_TRUE(CR.Ok) << W->Name << ": " << CR.Errors;
      for (const auto &[MachineName, Model] : Machines)
        for (Sched S : {Sched::Default, Sched::Period200, Sched::CallPeriod1})
          if (S == Sched::Default || std::string(MachineName) == "sparc10")
            Check(caseKey(W->Name, Mode, MachineName, S),
                  runCase(CR.Module, Model, S));
    }
  }

  // Runs that take the failure paths: the displaced-index kernel touches
  // freed objects under O2 with adversarial collection, and the buggy gawk
  // trips the checker.
  {
    const workloads::Workload &W = workloads::displacedIndex();
    driver::Compilation Comp(W.Name, W.Source);
    for (driver::CompileMode Mode :
         {driver::CompileMode::O2, driver::CompileMode::O2Safe}) {
      driver::CompileResult CR = Compile(Comp, Mode);
      ASSERT_TRUE(CR.Ok) << CR.Errors;
      Check(caseKey(W.Name, Mode, "sparc10", Sched::Period200),
            runCase(CR.Module, vm::sparc10(), Sched::Period200));
    }
  }
  {
    const workloads::Workload &W = workloads::gawkBuggy();
    driver::Compilation Comp(W.Name, W.Source);
    driver::CompileResult CR =
        Compile(Comp, driver::CompileMode::DebugChecked);
    ASSERT_TRUE(CR.Ok) << CR.Errors;
    Check(caseKey(W.Name, driver::CompileMode::DebugChecked, "sparc10",
                  Sched::Default),
          runCase(CR.Module, vm::sparc10(), Sched::Default));
  }
  EXPECT_EQ(Checked, sizeof(GoldenRows) / sizeof(GoldenRows[0]));
}

//===----------------------------------------------------------------------===//
// Guard paths
//===----------------------------------------------------------------------===//

ir::Instruction inst(ir::Opcode Op) {
  ir::Instruction I;
  I.Op = Op;
  return I;
}

/// main() { loop: r0 = r0 + 1; goto loop; } — runs until a guard stops it.
ir::Module spinModule() {
  ir::Module M;
  ir::Function F;
  F.Name = "main";
  F.NumRegs = 1;
  ir::BasicBlock Entry, Loop;
  Entry.Name = "entry";
  ir::Instruction J = inst(ir::Opcode::Jmp);
  J.Blk1 = 1;
  Entry.Insts.push_back(J);
  Loop.Name = "loop";
  ir::Instruction Add = inst(ir::Opcode::Add);
  Add.Dst = 0;
  Add.A = ir::Value::reg(0);
  Add.B = ir::Value::imm(1);
  Loop.Insts.push_back(Add);
  Loop.Insts.push_back(J);
  F.Blocks = {Entry, Loop};
  M.Functions.push_back(F);
  M.MainIndex = 0;
  return M;
}

TEST(VmGuards, BudgetStopsOnePastTheLimit) {
  ir::Module M = spinModule();
  vm::VMOptions VO;
  VO.MaxInstructions = 1000;
  vm::VM Machine(M, VO);
  vm::RunResult R = Machine.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "instruction budget exceeded");
  // The instruction that crosses the budget is counted (and charged) but
  // not executed.
  EXPECT_EQ(R.InstructionsExecuted, VO.MaxInstructions + 1);
  // Entering main (8) and its jmp (1); 499 x (add 1 + jmp 1) and one more
  // add make 1000 instructions; the 1001st, a jmp (1), is charged too.
  EXPECT_EQ(R.Cycles, 8u + 1u + 499u * 2u + 1u + 1u);
}

TEST(VmGuards, OutputLimitStopsTheRun) {
  const char *Src = "int main() { long i; for (i = 0; i < 100000; i++) "
                    "print_str(\"0123456789\"); return 0; }\n";
  vm::VMOptions VO;
  VO.MaxOutputBytes = 1000;
  vm::RunResult R = driver::compileAndRun("out", Src,
                                          driver::CompileMode::O2, VO);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "output limit exceeded");
  // The limit is noticed at the instruction after the print that crossed
  // it, so the output stops at the first print past 1000 bytes.
  EXPECT_EQ(R.Output.size(), 1010u);
}

TEST(VmGuards, FallingOffABlockIsAnError) {
  ir::Module M;
  ir::Function F;
  F.Name = "main";
  F.NumRegs = 1;
  ir::BasicBlock B;
  B.Name = "noterm";
  ir::Instruction Mov = inst(ir::Opcode::Mov);
  Mov.Dst = 0;
  Mov.A = ir::Value::imm(7);
  B.Insts.push_back(Mov);
  F.Blocks = {B};
  M.Functions.push_back(F);
  M.MainIndex = 0;
  vm::VM Machine(M);
  vm::RunResult R = Machine.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "control fell off the end of block 'noterm' in main");
  EXPECT_EQ(R.InstructionsExecuted, 1u);
}

TEST(VmGuards, DeepRecursionWithoutLocalsOverflows) {
  // main() { return main(); } has no frame slots, so only its register
  // windows grow; depth is still bounded, at one frame per 16 bytes of
  // VM stack.
  ir::Module M;
  ir::Function F;
  F.Name = "main";
  F.NumRegs = 4;
  ir::BasicBlock B;
  B.Name = "entry";
  ir::Instruction Call = inst(ir::Opcode::Call);
  Call.Callee = 0;
  Call.Dst = 0;
  B.Insts.push_back(Call);
  ir::Instruction Ret = inst(ir::Opcode::Ret);
  Ret.A = ir::Value::reg(0);
  B.Insts.push_back(Ret);
  F.Blocks = {B};
  M.Functions.push_back(F);
  M.MainIndex = 0;
  vm::VMOptions VO;
  VO.StackSize = 1 << 16;
  vm::VM Machine(M, VO);
  vm::RunResult R = Machine.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "VM stack overflow");
  EXPECT_LT(R.InstructionsExecuted, 100000u);
}

TEST(VmGuards, DeadlineIsPolled) {
  ir::Module M = spinModule();
  vm::VMOptions VO;
  VO.VmDeadlineNs = 1000000; // 1 ms
  vm::VM Machine(M, VO);
  vm::RunResult R = Machine.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.WatchdogTimeout);
  EXPECT_EQ(R.Error, "watchdog: VM run deadline exceeded");
  // Polled every 512 instructions.
  EXPECT_EQ(R.InstructionsExecuted % 512, 0u);
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

TEST(VmGuards, CycleSamplesAndSitesAreUnchanged) {
  const workloads::Workload &W = workloads::cordtest();
  driver::Compilation Comp(W.Name, W.Source);
  driver::CompileOptions CO;
  CO.Mode = driver::CompileMode::O2Safe;
  driver::CompileResult CR = Comp.compile(CO);
  ASSERT_TRUE(CR.Ok);
  support::Profiler P;
  P.SamplePeriodCycles = 997;
  vm::VMOptions VO;
  VO.Profile = &P;
  VO.GcInstructionPeriod = 5000;
  vm::VM Machine(CR.Module, VO);
  vm::RunResult R = Machine.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  // Golden values from the interpreter before the decoded VM: the number
  // of samples, their summed weight, the collapsed stacks, and the
  // allocation sites (function + flat instruction index).
  std::string Sites;
  for (size_t I = 0; I < P.Heap.siteCount(); ++I)
    Sites += P.Heap.site(I).Function + "@" +
             std::to_string(P.Heap.site(I).InstIndex) + ";";
  EXPECT_EQ(P.Cycles.sampleCount(), 2604u);
  EXPECT_EQ(P.Cycles.sampledCycles(), 3231773u);
  EXPECT_EQ(fnv1a(P.Cycles.foldedOutput()), 11519245250300761775ull);
  EXPECT_EQ(Sites, "leaf@0;leaf@2;concat@0;main@94;");
}

} // namespace
