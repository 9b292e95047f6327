//===- tests/test_analysis.cpp - Static GC-safety verifier ---------------===//
//
// Tests for the analysis subsystem (docs/ANALYSIS.md): the BaseLiveness
// dataflow on hand-built CFGs, the SafetyVerifier's point checks and
// kill-placement audit, pass-to-pass KEEP_LIVE continuity, the mutation
// self-test (the verifier must flag every seeded corruption and pass every
// clean program in every mode), the gcsafe-lint-v1 report, and a golden
// table (analysis_golden.inc) that pins every verifier diagnostic.
//
//===----------------------------------------------------------------------===//

#include "analysis/BaseLiveness.h"
#include "analysis/Mutate.h"
#include "analysis/SafetyVerifier.h"
#include "driver/Pipeline.h"
#include "driver/Request.h"
#include "opt/CFG.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace gcsafe;
using namespace gcsafe::analysis;
using namespace gcsafe::driver;
using namespace gcsafe::workloads;

namespace {

//===----------------------------------------------------------------------===//
// Hand-built IR helpers
//===----------------------------------------------------------------------===//

ir::Instruction inst(ir::Opcode Op) {
  ir::Instruction I;
  I.Op = Op;
  return I;
}

ir::Instruction movImm(uint32_t D, int64_t V) {
  ir::Instruction I = inst(ir::Opcode::Mov);
  I.Dst = D;
  I.A = ir::Value::imm(V);
  return I;
}

ir::Instruction movReg(uint32_t D, uint32_t S) {
  ir::Instruction I = inst(ir::Opcode::Mov);
  I.Dst = D;
  I.A = ir::Value::reg(S);
  return I;
}

ir::Instruction addImm(uint32_t D, uint32_t A, int64_t V) {
  ir::Instruction I = inst(ir::Opcode::Add);
  I.Dst = D;
  I.A = ir::Value::reg(A);
  I.B = ir::Value::imm(V);
  return I;
}

ir::Instruction keepLive(uint32_t D, uint32_t A, uint32_t Base) {
  ir::Instruction I = inst(ir::Opcode::KeepLive);
  I.Dst = D;
  I.A = ir::Value::reg(A);
  I.B = ir::Value::reg(Base);
  return I;
}

ir::Instruction kill(uint32_t R) {
  ir::Instruction I = inst(ir::Opcode::Kill);
  I.A = ir::Value::reg(R);
  return I;
}

ir::Instruction ret(uint32_t R = ir::NoReg) {
  ir::Instruction I = inst(ir::Opcode::Ret);
  if (R != ir::NoReg)
    I.A = ir::Value::reg(R);
  return I;
}

ir::Instruction jmp(uint32_t B) {
  ir::Instruction I = inst(ir::Opcode::Jmp);
  I.Blk1 = B;
  return I;
}

ir::Instruction br(uint32_t Cond, uint32_t B1, uint32_t B2) {
  ir::Instruction I = inst(ir::Opcode::Br);
  I.A = ir::Value::reg(Cond);
  I.Blk1 = B1;
  I.Blk2 = B2;
  return I;
}

ir::Function makeFunction(const char *Name, uint32_t NumRegs,
                          std::vector<std::vector<ir::Instruction>> Blocks) {
  ir::Function F;
  F.Name = Name;
  F.NumRegs = NumRegs;
  for (size_t I = 0; I < Blocks.size(); ++I) {
    ir::BasicBlock B;
    B.Name = "b" + std::to_string(I);
    B.Insts = std::move(Blocks[I]);
    F.Blocks.push_back(std::move(B));
  }
  return F;
}

/// Runs layer 1 (point checks) only — hand-built functions have no
/// insertKills-canonical placement to audit.
std::vector<SafetyDiag> pointCheck(const ir::Function &F) {
  SafetyVerifyOptions VO;
  VO.Pass = "(test)";
  VO.CheckKillPlacement = false;
  std::vector<SafetyDiag> Diags;
  verifyFunctionSafety(F, VO, Diags);
  return Diags;
}

bool hasKind(const std::vector<SafetyDiag> &Diags, const char *Kind) {
  return std::any_of(Diags.begin(), Diags.end(),
                     [&](const SafetyDiag &D) { return D.Kind == Kind; });
}

std::string renderAll(const std::vector<SafetyDiag> &Diags) {
  std::string Out;
  for (const SafetyDiag &D : Diags)
    Out += formatSafetyDiag(D) + "\n";
  return Out;
}

const std::vector<const Workload *> &allWorkloads() {
  static const std::vector<const Workload *> All = {
      &cordtest(), &cfrac(),      &gawk(),      &gawkBuggy(),
      &gs(),       &displacedIndex(), &strcpyLoop(), &charIndex()};
  return All;
}

const CompileMode AllModes[] = {CompileMode::O2, CompileMode::O2Safe,
                                CompileMode::O2SafePost, CompileMode::Debug,
                                CompileMode::DebugChecked};

CompileResult compileWorkload(const Workload &W, const CompileOptions &CO) {
  Compilation C(W.Name, W.Source);
  EXPECT_TRUE(C.parse()) << W.Name << "\n" << C.renderedDiagnostics();
  return C.compile(CO);
}

} // namespace

//===----------------------------------------------------------------------===//
// BaseLiveness on hand-built CFGs
//===----------------------------------------------------------------------===//

TEST(BaseLiveness, StraightLineFactsAndPlainLiveness) {
  // r0 = 100; r1 = r0 + 8; r2 = KEEP_LIVE(r1, r0); return r2
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), addImm(1, 0, 8), keepLive(2, 1, 0), ret(2)}});
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  BaseFacts Facts;
  BL.factsIn(0, Facts);
  EXPECT_TRUE(Facts.empty());
  EXPECT_EQ(BL.derivedCount(), 1u);

  // Walk the transfer function through the block.
  BL.transfer(F.Blocks[0].Insts[0], Facts);
  BL.transfer(F.Blocks[0].Insts[1], Facts);
  EXPECT_TRUE(Facts.empty());
  BL.transfer(F.Blocks[0].Insts[2], Facts);
  ASSERT_FALSE(Facts.bases(2).empty());
  EXPECT_EQ(Facts.bases(2), std::vector<uint32_t>{0u});

  // The kill-insertion contract covers the KeepLive destination only.
  EXPECT_TRUE(BL.inKillContract(2, 0));
  EXPECT_FALSE(BL.inKillContract(1, 0));
  EXPECT_FALSE(BL.inKillContract(0, 0));

  // Plain (unextended) liveness: the base r0 is dead after the KeepLive —
  // exactly the fact opt::Liveness would extend away.
  LiveAfterSets LiveAfter;
  BL.liveAfterPerInstruction(0, LiveAfter);
  ASSERT_EQ(LiveAfter.size(), 4u);
  EXPECT_TRUE(LiveAfter.test(0, 0));
  EXPECT_TRUE(LiveAfter.test(1, 0)); // r0 still read by the KeepLive.
  EXPECT_FALSE(LiveAfter.test(2, 0));
  EXPECT_TRUE(LiveAfter.test(2, 2));
}

TEST(BaseLiveness, CopiesCarryFactsOutsideTheContract) {
  // r1 = KEEP_LIVE(r0, r0); r2 = r1; return r2
  ir::Function F = makeFunction(
      "f", 3, {{movImm(0, 100), keepLive(1, 0, 0), movReg(2, 1), ret(2)}});
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  BaseFacts Facts;
  BL.factsIn(0, Facts);
  for (const ir::Instruction &I : F.Blocks[0].Insts)
    BL.transfer(I, Facts);
  ASSERT_FALSE(Facts.bases(2).empty());
  EXPECT_EQ(Facts.bases(2), std::vector<uint32_t>{0u});

  // Copy-carried facts are real derivations but outside the kill contract.
  EXPECT_TRUE(BL.inKillContract(1, 0));
  EXPECT_FALSE(BL.inKillContract(2, 0));
}

TEST(BaseLiveness, WritebackSelfAnchors) {
  // The specialized ++/-- expansion: r0 = KEEP_LIVE(r1, r0). The result
  // replaces its own base, so no fact survives.
  ir::Function F = makeFunction(
      "f", 2, {{movImm(0, 100), addImm(1, 0, 1), keepLive(0, 1, 0), ret(0)}});
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  BaseFacts Facts;
  BL.factsIn(0, Facts);
  for (const ir::Instruction &I : F.Blocks[0].Insts)
    BL.transfer(I, Facts);
  EXPECT_TRUE(Facts.bases(0).empty());
  EXPECT_TRUE(pointCheck(F).empty()) << renderAll(pointCheck(F));
}

TEST(BaseLiveness, RedefinitionErasesTheFact) {
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), keepLive(2, 0, 0), addImm(2, 2, 1), ret(2)}});
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);
  BaseFacts Facts;
  BL.factsIn(0, Facts);
  BL.transfer(F.Blocks[0].Insts[1], Facts);
  EXPECT_FALSE(Facts.bases(2).empty());
  BL.transfer(F.Blocks[0].Insts[2], Facts);
  EXPECT_TRUE(Facts.bases(2).empty());
}

TEST(BaseLiveness, MergeJoinsBaseSets) {
  // Both arms KEEP_LIVE into r3 with different bases; at the join r3 is
  // pinned to the union {r1, r2}.
  ir::Function F = makeFunction(
      "f", 5,
      {
          {movImm(0, 1), movImm(1, 100), movImm(2, 200), br(0, 1, 2)},
          {keepLive(3, 1, 1), jmp(3)},
          {keepLive(3, 2, 2), jmp(3)},
          {ret(3)},
      });
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  BaseFacts AtJoin;
  BL.factsIn(3, AtJoin);
  ASSERT_FALSE(AtJoin.bases(3).empty());
  EXPECT_EQ(AtJoin.bases(3), (std::vector<uint32_t>{1u, 2u}));
}

TEST(BaseLiveness, LoopLivenessReachesTheHeader) {
  // b0: r0=0, r1=10 -> b1: while (r1 > 0) -> b2: r1-- -> b1; b3: ret r0
  ir::Instruction Cmp = inst(ir::Opcode::CmpGtS);
  Cmp.Dst = 2;
  Cmp.A = ir::Value::reg(1);
  Cmp.B = ir::Value::imm(0);
  ir::Instruction Dec = inst(ir::Opcode::Sub);
  Dec.Dst = 1;
  Dec.A = ir::Value::reg(1);
  Dec.B = ir::Value::imm(1);
  ir::Function F = makeFunction("f", 3,
                                {
                                    {movImm(0, 0), movImm(1, 10), jmp(1)},
                                    {Cmp, br(2, 2, 3)},
                                    {Dec, jmp(1)},
                                    {ret(0)},
                                });
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  EXPECT_TRUE(BL.liveIn(1, 0)); // survives the loop to the return
  EXPECT_TRUE(BL.liveIn(1, 1)); // loop-carried counter
  EXPECT_TRUE(BL.liveOut(2, 1));
  EXPECT_FALSE(BL.liveOut(3, 0));
}

TEST(BaseLiveness, ChainedKeepLivesPinTransitiveBases) {
  // r1 = KEEP_LIVE(r0, r0); r2 = r1 + 8; r3 = KEEP_LIVE(r2, r1): r3 is
  // pinned to r1 and, through r1's own KEEP_LIVE, to r0.
  ir::Function F = makeFunction(
      "f", 4,
      {{movImm(0, 100), keepLive(1, 0, 0), addImm(2, 1, 8),
        keepLive(3, 2, 1), kill(0), ret(3)}});
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  BaseFacts Facts;
  BL.factsIn(0, Facts);
  for (uint32_t I = 0; I < 4; ++I)
    BL.transfer(F.Blocks[0].Insts[I], Facts);
  EXPECT_EQ(Facts.bases(3), (std::vector<uint32_t>{0u, 1u}));
  EXPECT_EQ(Facts.bases(1), std::vector<uint32_t>{0u});
  EXPECT_TRUE(BL.inKillContract(3, 0));
  EXPECT_TRUE(BL.inKillContract(3, 1));
  EXPECT_FALSE(BL.inKillContract(1, 1));
  EXPECT_EQ(BL.derivedCount(), 2u);

  // Killing the transitive base r0 while r3 is live is the premature
  // collection the contract forbids.
  auto Diags = pointCheck(F);
  ASSERT_EQ(Diags.size(), 1u) << renderAll(Diags);
  EXPECT_EQ(Diags[0].Kind, "base_killed");
  EXPECT_EQ(Diags[0].Derived, 3u);
  EXPECT_EQ(Diags[0].Base, 0u);
  EXPECT_EQ(Diags[0].Index, 4u);
}

TEST(BaseLiveness, CopyOfACopyCarriesTheFact) {
  // r1 = KEEP_LIVE(r0, r0); r2 = r1; r3 = r2; r0 = 0; return r3
  ir::Function F = makeFunction(
      "f", 4,
      {{movImm(0, 100), keepLive(1, 0, 0), movReg(2, 1), movReg(3, 2),
        movImm(0, 0), ret(3)}});
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  BaseFacts Facts;
  BL.factsIn(0, Facts);
  for (uint32_t I = 0; I < 4; ++I)
    BL.transfer(F.Blocks[0].Insts[I], Facts);
  EXPECT_EQ(Facts.bases(3), std::vector<uint32_t>{0u});
  EXPECT_EQ(Facts.bases(2), std::vector<uint32_t>{0u});
  EXPECT_TRUE(BL.inKillContract(1, 0));
  EXPECT_FALSE(BL.inKillContract(3, 0));

  // The clobber of r0 is caught through the copy of a copy.
  auto Diags = pointCheck(F);
  ASSERT_EQ(Diags.size(), 1u) << renderAll(Diags);
  EXPECT_EQ(Diags[0].Kind, "base_clobbered");
  EXPECT_EQ(Diags[0].Derived, 3u);
  EXPECT_EQ(Diags[0].Base, 0u);
}

TEST(BaseLiveness, FunctionWithoutKeepLiveHasNoFacts) {
  ir::Function F = makeFunction(
      "f", 3, {{movImm(0, 1), movReg(1, 0), addImm(2, 1, 4), kill(1),
                ret(2)}});
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  EXPECT_TRUE(BL.carriers().empty());
  EXPECT_EQ(BL.derivedCount(), 0u);
  BaseFacts Facts;
  BL.factsIn(0, Facts);
  for (const ir::Instruction &I : F.Blocks[0].Insts)
    BL.transfer(I, Facts);
  EXPECT_TRUE(Facts.empty());
  EXPECT_FALSE(BL.inKillContract(1, 0));
  // Plain liveness still runs.
  LiveAfterSets LiveAfter;
  BL.liveAfterPerInstruction(0, LiveAfter);
  EXPECT_TRUE(LiveAfter.test(1, 1));
  EXPECT_FALSE(LiveAfter.test(2, 1));
  EXPECT_TRUE(pointCheck(F).empty()) << renderAll(pointCheck(F));
}

TEST(BaseLiveness, WideRowsSpanSeveralWords) {
  // r0 = 100; r{k} = KEEP_LIVE(r{k-1}, r{k-1}) for k = 1..80, so r80 is
  // pinned to r0..r79: 82 registers, 80 bases, rows of two words. The
  // facts cross a diamond, then r75 is killed while r79 and r80 are live.
  constexpr uint32_t Chain = 80;
  std::vector<ir::Instruction> Entry{movImm(0, 100)};
  for (uint32_t K = 1; K <= Chain; ++K)
    Entry.push_back(keepLive(K, K - 1, K - 1));
  Entry.push_back(movImm(Chain + 1, 1));
  Entry.push_back(br(Chain + 1, 1, 2));
  ir::Function F = makeFunction(
      "f", Chain + 2,
      {
          Entry,
          {jmp(3)},
          {jmp(3)},
          {kill(75), addImm(Chain + 1, Chain - 1, 8), movImm(70, 0),
           ret(Chain)},
      });
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  std::vector<uint32_t> All;
  for (uint32_t R = 0; R < Chain; ++R)
    All.push_back(R);
  BaseFacts AtJoin;
  BL.factsIn(3, AtJoin);
  EXPECT_EQ(AtJoin.bases(Chain), All);
  EXPECT_EQ(BL.derivedCount(), Chain);
  EXPECT_TRUE(BL.inKillContract(Chain, 0));
  EXPECT_TRUE(BL.inKillContract(Chain, 79));
  EXPECT_FALSE(BL.inKillContract(Chain, Chain));
  EXPECT_TRUE(BL.liveIn(3, Chain - 1));
  EXPECT_TRUE(BL.liveIn(3, Chain));

  // Diagnostics come in ascending derived-register order.
  auto Diags = pointCheck(F);
  ASSERT_EQ(Diags.size(), 3u) << renderAll(Diags);
  EXPECT_EQ(Diags[0].Kind, "base_killed");
  EXPECT_EQ(Diags[0].Derived, Chain - 1);
  EXPECT_EQ(Diags[0].Base, 75u);
  EXPECT_EQ(Diags[1].Kind, "base_killed");
  EXPECT_EQ(Diags[1].Derived, Chain);
  EXPECT_EQ(Diags[2].Kind, "base_clobbered");
  EXPECT_EQ(Diags[2].Derived, Chain);
  EXPECT_EQ(Diags[2].Base, 70u);
  EXPECT_EQ(Diags[2].Index, 2u);
}

TEST(RegSet, DrainVisitsAscendingAndEmpties) {
  opt::RegSet S(200);
  for (uint32_t R : {150u, 3u, 64u, 63u, 199u, 0u})
    S.set(R);
  std::vector<uint32_t> Seen;
  S.drain([&](uint32_t R) { Seen.push_back(R); });
  EXPECT_EQ(Seen, (std::vector<uint32_t>{0u, 3u, 63u, 64u, 150u, 199u}));
  EXPECT_EQ(S.count(), 0u);
  S.drain([&](uint32_t R) { ADD_FAILURE() << "r" << R << " left behind"; });
}

//===----------------------------------------------------------------------===//
// SafetyVerifier point checks on hand-built violations
//===----------------------------------------------------------------------===//

TEST(SafetyVerifier, CleanStraightLineIsGreen) {
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), addImm(1, 0, 8), keepLive(2, 1, 0), kill(1),
        ret(2)}});
  auto Diags = pointCheck(F);
  EXPECT_TRUE(Diags.empty()) << renderAll(Diags);
}

TEST(SafetyVerifier, KillOfLiveRegisterFlagged) {
  ir::Function F =
      makeFunction("f", 1, {{movImm(0, 5), kill(0), ret(0)}});
  auto Diags = pointCheck(F);
  ASSERT_FALSE(Diags.empty());
  EXPECT_TRUE(hasKind(Diags, "kill_live_register")) << renderAll(Diags);
  EXPECT_EQ(Diags[0].Function, "f");
  EXPECT_EQ(Diags[0].Pass, "(test)");
}

TEST(SafetyVerifier, KillOfPinnedBaseFlagged) {
  // Kill r0 while r2 = KEEP_LIVE(r1, r0) is still live: the premature
  // collection window the paper's condition (2) forbids.
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), addImm(1, 0, 8), keepLive(2, 1, 0), kill(0),
        ret(2)}});
  auto Diags = pointCheck(F);
  ASSERT_FALSE(Diags.empty());
  EXPECT_TRUE(hasKind(Diags, "base_killed")) << renderAll(Diags);
  const SafetyDiag *D = nullptr;
  for (const SafetyDiag &Cand : Diags)
    if (Cand.Kind == "base_killed")
      D = &Cand;
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Derived, 2u);
  EXPECT_EQ(D->Base, 0u);
  EXPECT_EQ(D->Block, 0u);
  EXPECT_EQ(D->Index, 3u);
}

TEST(SafetyVerifier, ClobberOfPinnedBaseFlagged) {
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), keepLive(2, 0, 0), movImm(0, 0), ret(2)}});
  auto Diags = pointCheck(F);
  ASSERT_FALSE(Diags.empty());
  EXPECT_TRUE(hasKind(Diags, "base_clobbered")) << renderAll(Diags);
}

TEST(SafetyVerifier, RebaseReadingTheBaseIsExempt) {
  // `r0 = r0 + 8` after the KeepLive still holds a pointer into the same
  // object — the rebase the ++/-- expansion emits is not a clobber.
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), keepLive(2, 0, 0), addImm(0, 0, 8), ret(2)}});
  auto Diags = pointCheck(F);
  EXPECT_TRUE(Diags.empty()) << renderAll(Diags);
}

TEST(SafetyVerifier, KeepLiveContinuityFlagsDroppedAnnotations) {
  ir::Function F = makeFunction(
      "f", 2, {{movImm(0, 100), keepLive(1, 0, 0), ret(1)}});
  KeepLiveContinuity Continuity;
  Continuity.record(F);

  // A "pass" silently rewrites the KeepLive into a Mov while its result is
  // still consumed by the return.
  ir::Function Mutated = F;
  Mutated.Blocks[0].Insts[1] = movReg(1, 0);
  std::vector<SafetyDiag> Diags;
  Continuity.check(Mutated, "bad_pass", Diags);
  ASSERT_EQ(Diags.size(), 1u) << renderAll(Diags);
  EXPECT_EQ(Diags[0].Kind, "keep_live_dropped");
  EXPECT_EQ(Diags[0].Pass, "bad_pass");
  EXPECT_EQ(Diags[0].Derived, 1u);

  // Legal disappearance: the derived value lost every use (dead code).
  KeepLiveContinuity Continuity2;
  Continuity2.record(F);
  ir::Function Dead = F;
  Dead.Blocks[0].Insts[1] = movReg(1, 0);
  Dead.Blocks[0].Insts[2] = ret(0);
  std::vector<SafetyDiag> None;
  Continuity2.check(Dead, "dce", None);
  EXPECT_TRUE(None.empty()) << renderAll(None);
}

TEST(SafetyVerifier, FormatIsReadable) {
  SafetyDiag D;
  D.Function = "main";
  D.Block = 2;
  D.Index = 7;
  D.Pass = "licm";
  D.Kind = "base_killed";
  D.Message = "base r3 killed";
  std::string Line = formatSafetyDiag(D);
  EXPECT_NE(Line.find("main"), std::string::npos);
  EXPECT_NE(Line.find("base_killed"), std::string::npos);
  EXPECT_NE(Line.find("licm"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Whole-pipeline verification: clean on every workload in every mode
//===----------------------------------------------------------------------===//

TEST(SafetyPipeline, AllWorkloadsVerifyCleanInEveryMode) {
  for (const Workload *W : allWorkloads()) {
    for (CompileMode Mode : AllModes) {
      SCOPED_TRACE(std::string(W->Name) + " / " + compileModeName(Mode));
      CompileOptions CO;
      CO.Mode = Mode;
      CO.Verify = SafetyVerify::EachPass;
      CO.VerifyIREachPass = true;
      CompileResult CR = compileWorkload(*W, CO);
      ASSERT_TRUE(CR.Ok) << CR.Errors;
      EXPECT_TRUE(CR.SafetyOk) << renderAll(CR.SafetyDiags);
      EXPECT_TRUE(CR.IRVerifyErrors.empty())
          << CR.IRVerifyErrors.front();
      EXPECT_GT(CR.Stats.get("analysis.verify.runs"), 0u);
      EXPECT_EQ(CR.Stats.get("analysis.verify.diags"), 0u);
      EXPECT_TRUE(CR.Stats.has("analysis.verify.ns"));
    }
  }
}

TEST(SafetyPipeline, SafeModesCarryKeepLivesSoGreenIsNotVacuous) {
  auto countKeepLives = [](const ir::Module &M) {
    unsigned N = 0;
    for (const ir::Function &F : M.Functions)
      for (const ir::BasicBlock &B : F.Blocks)
        for (const ir::Instruction &I : B.Insts)
          if (I.Op == ir::Opcode::KeepLive)
            ++N;
    return N;
  };
  CompileOptions Safe;
  Safe.Mode = CompileMode::O2Safe;
  Safe.Verify = SafetyVerify::Final;
  CompileResult SafeCR = compileWorkload(displacedIndex(), Safe);
  ASSERT_TRUE(SafeCR.Ok);
  EXPECT_GT(countKeepLives(SafeCR.Module), 0u);

  CompileOptions Plain;
  Plain.Mode = CompileMode::O2;
  Plain.Verify = SafetyVerify::Final;
  CompileResult PlainCR = compileWorkload(displacedIndex(), Plain);
  ASSERT_TRUE(PlainCR.Ok);
  EXPECT_EQ(countKeepLives(PlainCR.Module), 0u);
  EXPECT_TRUE(PlainCR.SafetyOk);
}

TEST(SafetyPipeline, CorpusSurvivorsVerifyClean) {
  // Whatever malformed-corpus files happen to parse must still verify —
  // the verifier may not false-positive on degenerate-but-legal inputs.
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(GCSAFE_CORPUS_DIR))
    if (Entry.path().extension() == ".c")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  for (const auto &Path : Files) {
    SCOPED_TRACE(Path.filename().string());
    std::ifstream In(Path);
    std::ostringstream SS;
    SS << In.rdbuf();
    Compilation C(Path.filename().string(), SS.str());
    if (!C.parse())
      continue;
    CompileOptions CO;
    CO.Mode = CompileMode::O2SafePost;
    CO.Verify = SafetyVerify::EachPass;
    CompileResult CR = C.compile(CO);
    if (!CR.Ok)
      continue;
    EXPECT_TRUE(CR.SafetyOk) << renderAll(CR.SafetyDiags);
  }
}

//===----------------------------------------------------------------------===//
// Mutation self-test: every seeded corruption must be flagged
//===----------------------------------------------------------------------===//

TEST(SafetyMutation, EveryMutantIsCaughtInSafeModes) {
  for (const Workload *W : allWorkloads()) {
    for (CompileMode Mode :
         {CompileMode::O2Safe, CompileMode::O2SafePost}) {
      SCOPED_TRACE(std::string(W->Name) + " / " + compileModeName(Mode));
      CompileOptions CO;
      CO.Mode = Mode;
      CompileResult CR = compileWorkload(*W, CO);
      ASSERT_TRUE(CR.Ok) << CR.Errors;

      std::vector<Mutation> Mutants = enumerateMutations(CR.Module);
      EXPECT_FALSE(Mutants.empty()) << "no mutation sites";
      for (const Mutation &Mu : Mutants) {
        ir::Module Copy = CR.Module;
        ASSERT_TRUE(applyMutation(Copy, Mu)) << Mu.Description;
        SafetyVerifyOptions VO;
        VO.Pass = "(mutant)";
        std::vector<SafetyDiag> Diags;
        verifyFunctionSafety(Copy.Functions[Mu.FunctionIndex], VO, Diags);
        EXPECT_FALSE(Diags.empty()) << "escaped: " << Mu.Description;
      }
    }
  }
}

TEST(SafetyMutation, KillOnlyModesStillAuditPlacement) {
  // O2 has no KEEP_LIVEs, but its kill placement is still canonical; the
  // drop/hoist operators must be enumerable and caught there too.
  CompileOptions CO;
  CO.Mode = CompileMode::O2;
  CompileResult CR = compileWorkload(gawk(), CO);
  ASSERT_TRUE(CR.Ok) << CR.Errors;

  std::vector<Mutation> Mutants = enumerateMutations(CR.Module);
  ASSERT_FALSE(Mutants.empty());
  for (const Mutation &Mu : Mutants) {
    EXPECT_TRUE(Mu.Kind == MutationKind::DropKill ||
                Mu.Kind == MutationKind::HoistKill)
        << Mu.Description;
    ir::Module Copy = CR.Module;
    ASSERT_TRUE(applyMutation(Copy, Mu)) << Mu.Description;
    SafetyVerifyOptions VO;
    VO.Pass = "(mutant)";
    std::vector<SafetyDiag> Diags;
    verifyFunctionSafety(Copy.Functions[Mu.FunctionIndex], VO, Diags);
    EXPECT_FALSE(Diags.empty()) << "escaped: " << Mu.Description;
  }
}

TEST(SafetyMutation, DescriptionsAreDeterministic) {
  CompileOptions CO;
  CO.Mode = CompileMode::O2SafePost;
  CompileResult A = compileWorkload(displacedIndex(), CO);
  CompileResult B = compileWorkload(displacedIndex(), CO);
  ASSERT_TRUE(A.Ok && B.Ok);
  std::vector<Mutation> MA = enumerateMutations(A.Module);
  std::vector<Mutation> MB = enumerateMutations(B.Module);
  ASSERT_EQ(MA.size(), MB.size());
  for (size_t I = 0; I < MA.size(); ++I)
    EXPECT_EQ(MA[I].Description, MB[I].Description);
}

//===----------------------------------------------------------------------===//
// Offending-pass attribution (each-pass bisection)
//===----------------------------------------------------------------------===//

TEST(SafetyPipeline, EachPassModeNamesTheOffendingPass) {
  // Emulate a buggy LICM that silently rewrites the first still-used
  // KEEP_LIVE into a plain Mov. The each-pass verifier must attribute the
  // violation to "licm" by name.
  bool Mutated = false;
  CompileOptions CO;
  CO.Mode = CompileMode::O2Safe;
  CO.Verify = SafetyVerify::EachPass;
  CO.PassMutator = [&Mutated](const char *Pass, ir::Function &F) {
    if (Mutated || std::string(Pass) != "licm")
      return;
    opt::DefUseCounts DU = opt::countDefsUses(F);
    for (ir::BasicBlock &B : F.Blocks) {
      for (ir::Instruction &I : B.Insts) {
        if (I.Op != ir::Opcode::KeepLive || I.Dst == ir::NoReg ||
            DU.Uses[I.Dst] == 0)
          continue;
        I.Op = ir::Opcode::Mov;
        I.B = ir::Value::none();
        Mutated = true;
        return;
      }
    }
  };
  CompileResult CR = compileWorkload(displacedIndex(), CO);
  ASSERT_TRUE(CR.Ok) << CR.Errors;
  ASSERT_TRUE(Mutated) << "no KEEP_LIVE survived to licm";
  EXPECT_FALSE(CR.SafetyOk);
  bool Attributed = false;
  for (const SafetyDiag &D : CR.SafetyDiags)
    Attributed = Attributed ||
                 (D.Pass == "licm" && D.Kind == "keep_live_dropped");
  EXPECT_TRUE(Attributed) << renderAll(CR.SafetyDiags);
}

//===----------------------------------------------------------------------===//
// gcsafe-lint-v1 report
//===----------------------------------------------------------------------===//

TEST(LintReport, CleanReportShapeAndDeterminism) {
  auto build = [] {
    Compilation C(gawk().Name, gawk().Source);
    EXPECT_TRUE(C.parse());
    CompileOptions CO;
    CO.Mode = CompileMode::O2SafePost;
    CO.Verify = SafetyVerify::EachPass;
    CompileResult CR = C.compile(CO);
    EXPECT_TRUE(CR.Ok);
    return buildLintReport(gawk().Name, CO.Mode, /*EachPass=*/true, CR,
                           &C.buffer())
        .dump();
  };
  std::string First = build();
  std::string Second = build();
  EXPECT_EQ(First, Second); // byte-identical across runs

  support::Json Doc;
  std::string Error;
  ASSERT_TRUE(support::Json::parse(First, Doc, Error)) << Error;
  ASSERT_TRUE(Doc.isObject());
  EXPECT_EQ(Doc.get("schema")->asString(), "gcsafe-lint-v1");
  EXPECT_EQ(Doc.get("input")->asString(), gawk().Name);
  EXPECT_EQ(Doc.get("mode")->asString(),
            compileModeName(CompileMode::O2SafePost));
  EXPECT_EQ(Doc.get("verify")->asString(), "each-pass");
  EXPECT_TRUE(Doc.get("clean")->asBool());
  EXPECT_EQ(Doc.get("diagnostics")->size(), 0u);
}

TEST(LintReport, ViolationsSerializeWithStableKinds) {
  static const std::set<std::string> KnownKinds = {
      "kill_live_register", "base_killed",   "base_clobbered",
      "kill_missing",       "kill_spurious", "keep_live_dropped",
      "structure"};
  bool Mutated = false;
  Compilation C(displacedIndex().Name, displacedIndex().Source);
  ASSERT_TRUE(C.parse());
  CompileOptions CO;
  CO.Mode = CompileMode::O2Safe;
  CO.Verify = SafetyVerify::EachPass;
  CO.PassMutator = [&Mutated](const char *Pass, ir::Function &F) {
    if (Mutated || std::string(Pass) != "licm")
      return;
    opt::DefUseCounts DU = opt::countDefsUses(F);
    for (ir::BasicBlock &B : F.Blocks)
      for (ir::Instruction &I : B.Insts)
        if (I.Op == ir::Opcode::KeepLive && I.Dst != ir::NoReg &&
            DU.Uses[I.Dst] > 0) {
          I.Op = ir::Opcode::Mov;
          I.B = ir::Value::none();
          Mutated = true;
          return;
        }
  };
  CompileResult CR = C.compile(CO);
  ASSERT_TRUE(CR.Ok && Mutated);
  ASSERT_FALSE(CR.SafetyOk);

  support::Json Doc = buildLintReport(displacedIndex().Name, CO.Mode,
                                      /*EachPass=*/true, CR, &C.buffer());
  EXPECT_FALSE(Doc.get("clean")->asBool());
  const support::Json *Diags = Doc.get("diagnostics");
  ASSERT_NE(Diags, nullptr);
  ASSERT_GT(Diags->size(), 0u);
  for (size_t I = 0; I < Diags->size(); ++I) {
    const support::Json &D = Diags->at(I);
    ASSERT_TRUE(D.isObject());
    EXPECT_TRUE(D.get("function")->isString());
    EXPECT_TRUE(D.get("block")->isInt());
    EXPECT_TRUE(D.get("index")->isInt());
    EXPECT_TRUE(D.get("line")->isInt());
    EXPECT_GE(D.get("line")->asInt(), 0);
    EXPECT_TRUE(D.get("pass")->isString());
    EXPECT_EQ(KnownKinds.count(D.get("kind")->asString()), 1u)
        << D.get("kind")->asString();
    EXPECT_GE(D.get("derived")->asInt(), -1);
    EXPECT_GE(D.get("base")->asInt(), -1);
    EXPECT_TRUE(D.get("message")->isString());
  }
}

//===----------------------------------------------------------------------===//
// Golden table: every verifier diagnostic, pinned
//===----------------------------------------------------------------------===//

namespace {

/// Diagnostic kinds, in the column order of analysis_golden.inc.
const char *const GoldenKinds[] = {
    "kill_live_register", "base_killed",       "base_clobbered",
    "kill_missing",       "kill_spurious",     "keep_live_dropped",
    "structure"};
constexpr size_t NumGoldenKinds = sizeof(GoldenKinds) / sizeof(*GoldenKinds);

struct AnalysisGolden {
  const char *Key; ///< workload/mode
  uint64_t Checkpoints, Mutants;
  uint64_t Kinds[NumGoldenKinds];
  uint64_t Digest;
};

// Generated from the map/set BaseLiveness that preceded the dense bit
// matrices; a mismatch prints the row as it now reads.
const AnalysisGolden AnalysisGoldenRows[] = {
#include "analysis_golden.inc"
};

/// FNV-1a-64 over length-delimited fields.
struct Digest {
  uint64_t H = 0xCBF29CE484222325ull;
  void bytes(const void *Data, size_t Len) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I < Len; ++I)
      H = (H ^ P[I]) * 0x100000001B3ull;
  }
  void u64(uint64_t V) { bytes(&V, sizeof(V)); }
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
};

struct GoldenTally {
  uint64_t Checkpoints = 0, Mutants = 0;
  uint64_t Kinds[NumGoldenKinds] = {};
  Digest D;

  void diags(const std::vector<SafetyDiag> &Diags) {
    D.u64(Diags.size());
    for (const SafetyDiag &Diag : Diags) {
      D.str(Diag.Function);
      D.u64(Diag.Block);
      D.u64(Diag.Index);
      D.u64(Diag.SrcOffset);
      D.str(Diag.Pass);
      D.str(Diag.Kind);
      D.u64(Diag.Derived);
      D.u64(Diag.Base);
      D.str(Diag.Message);
      size_t K = 0;
      while (K < NumGoldenKinds && Diag.Kind != GoldenKinds[K])
        ++K;
      EXPECT_LT(K, NumGoldenKinds) << "unknown kind " << Diag.Kind;
      if (K < NumGoldenKinds)
        ++Kinds[K];
    }
  }
};

std::string goldenRowText(const std::string &Key, const GoldenTally &T) {
  std::string Out = "{\"" + Key + "\", " + std::to_string(T.Checkpoints) +
                    "u, " + std::to_string(T.Mutants) + "u, {";
  for (size_t K = 0; K < NumGoldenKinds; ++K)
    Out += (K ? ", " : "") + std::to_string(T.Kinds[K]) + "u";
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "0x%016llxull",
                (unsigned long long)T.D.H);
  return Out + "}, " + Hex + "},";
}

} // namespace

TEST(AnalysisGolden, DiagnosticsMatchGoldenTable) {
  // For every compile_verify job (8 workloads x 5 modes): the each-pass
  // compile's own diagnostics and printed module, then, at every pass
  // checkpoint, every mutant of the checkpoint's function verified as the
  // commit gate would (kill audit at insert_kills) plus the continuity
  // check against the unmutated checkpoint. Counts and an FNV digest of
  // every field of every diagnostic must match the table.
  std::map<std::string, const AnalysisGolden *> ByKey;
  for (const AnalysisGolden &G : AnalysisGoldenRows)
    ByKey[G.Key] = &G;
  size_t Checked = 0;
  for (const Workload *W : allWorkloads()) {
    for (CompileMode Mode : AllModes) {
      std::string Key =
          std::string(W->Name) + "/" + driver::compileModeToken(Mode);
      SCOPED_TRACE(Key);
      std::vector<std::pair<std::string, ir::Function>> Checkpoints;
      CompileOptions CO;
      CO.Mode = Mode;
      CO.Verify = SafetyVerify::EachPass;
      CO.VerifyIREachPass = true;
      CO.PassMutator = [&](const char *Pass, ir::Function &F) {
        Checkpoints.emplace_back(Pass, F);
      };
      CompileResult CR = compileWorkload(*W, CO);
      ASSERT_TRUE(CR.Ok) << CR.Errors;

      GoldenTally T;
      T.diags(CR.SafetyDiags);
      T.D.str(ir::printModule(CR.Module));
      for (const auto &[Pass, F] : Checkpoints) {
        ++T.Checkpoints;
        SafetyVerifyOptions VO;
        VO.Pass = Pass.c_str();
        VO.CheckKillPlacement = Pass == "insert_kills";
        for (const Mutation &Mu : enumerateFunctionMutations(F)) {
          ++T.Mutants;
          T.D.u64(static_cast<uint64_t>(Mu.Kind));
          T.D.u64(Mu.Block);
          T.D.u64(Mu.Index);
          T.D.str(Mu.Description);
          ir::Function Mutant = F;
          ASSERT_TRUE(applyMutation(Mutant, Mu)) << Mu.Description;
          std::vector<SafetyDiag> Diags;
          verifyFunctionSafety(Mutant, VO, Diags);
          KeepLiveContinuity Continuity;
          Continuity.record(F);
          Continuity.check(Mutant, VO.Pass, Diags);
          T.diags(Diags);
        }
      }

      auto It = ByKey.find(Key);
      if (It == ByKey.end()) {
        ADD_FAILURE() << "no golden row; now:\n" << goldenRowText(Key, T);
        continue;
      }
      const AnalysisGolden &G = *It->second;
      bool Same = G.Checkpoints == T.Checkpoints && G.Mutants == T.Mutants &&
                  G.Digest == T.D.H &&
                  std::equal(T.Kinds, T.Kinds + NumGoldenKinds, G.Kinds);
      EXPECT_TRUE(Same) << "verifier output of " << Key
                        << " moved; now:\n" << goldenRowText(Key, T);
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, sizeof(AnalysisGoldenRows) / sizeof(*AnalysisGoldenRows));
}
