//===- analysis/SafetyVerifier.cpp ----------------------------*- C++ -*-===//

#include "analysis/SafetyVerifier.h"

#include "analysis/BaseLiveness.h"
#include "opt/CFG.h"
#include "opt/Passes.h"

#include <algorithm>
#include <sstream>

using namespace gcsafe;
using namespace gcsafe::analysis;
using namespace gcsafe::ir;
using namespace gcsafe::opt;

namespace {

SafetyDiag makeDiag(const Function &F, uint32_t Block, uint32_t Index,
                    uint32_t SrcOffset, const char *Pass, const char *Kind,
                    uint32_t Derived, uint32_t Base, std::string Message) {
  SafetyDiag D;
  D.Function = F.Name;
  D.Block = Block;
  D.Index = Index;
  D.SrcOffset = SrcOffset;
  D.Pass = Pass;
  D.Kind = Kind;
  D.Derived = Derived;
  D.Base = Base;
  D.Message = std::move(Message);
  return D;
}

std::string regName(uint32_t R) {
  return R == NoReg ? std::string("r?") : "r" + std::to_string(R);
}

//===----------------------------------------------------------------------===//
// Layer 1: point checks
//===----------------------------------------------------------------------===//

void checkPoints(const Function &F, const SafetyVerifyOptions &Options,
                 std::vector<SafetyDiag> &Out) {
  CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);
  const std::vector<uint32_t> &Carriers = BL.carriers();

  LiveAfterSets LiveAfter;
  BaseFacts Facts;
  for (uint32_t BId = 0; BId < F.Blocks.size(); ++BId) {
    const BasicBlock &B = F.Blocks[BId];
    if (B.Insts.empty())
      continue;
    BL.liveAfterPerInstruction(BId, LiveAfter);
    BL.factsIn(BId, Facts);

    for (uint32_t Idx = 0; Idx < B.Insts.size(); ++Idx) {
      const Instruction &I = B.Insts[Idx];
      // Derived pointers pinned to R that are live after this
      // instruction, in ascending register order. Only a base can be
      // pinned to, so the carriers are visited only when R is one.
      auto ForEachPinnedLive = [&](uint32_t R, auto Fn) {
        if (!BL.isBase(R))
          return;
        for (uint32_t D : Carriers)
          if (D != R && LiveAfter.test(Idx, D) && Facts.pinned(D, R))
            Fn(D);
      };

      if (I.Op == Opcode::Kill) {
        if (I.A.isReg()) {
          uint32_t R = I.A.Reg;
          bool BaseDiag = false;
          ForEachPinnedLive(R, [&](uint32_t D) {
            if (!BL.inKillContract(D, R))
              return;
            BaseDiag = true;
            std::ostringstream OS;
            OS << "kill of " << regName(R) << " while derived pointer "
               << regName(D) << " (KEEP_LIVE base " << regName(R)
               << ") is still live";
            Out.push_back(makeDiag(F, BId, Idx, I.Loc, Options.Pass,
                                   "base_killed", D, R, OS.str()));
          });
          if (!BaseDiag && LiveAfter.test(Idx, R)) {
            std::ostringstream OS;
            OS << "kill of " << regName(R)
               << " while its value is still used later";
            Out.push_back(makeDiag(F, BId, Idx, I.Loc, Options.Pass,
                                   "kill_live_register", NoReg, R,
                                   OS.str()));
          }
        }
      } else if (I.Dst != NoReg && BL.isBase(I.Dst)) {
        uint32_t R = I.Dst;
        // Pointer rebase: a redefinition whose own operands carry the old
        // value of R (p = p + 1, or the writeback of the specialized
        // KEEP_LIVE(p + 1, p)) leaves the object anchored through the new
        // value; the paper's ++/-- expansion relies on this.
        bool Rebase = false;
        forEachUse(I, [&](uint32_t X) {
          Rebase = Rebase || X == R || Facts.pinned(X, R);
        });
        if (!Rebase)
          ForEachPinnedLive(R, [&](uint32_t D) {
            std::ostringstream OS;
            OS << "definition clobbers " << regName(R)
               << " while derived pointer " << regName(D)
               << " (KEEP_LIVE base " << regName(R) << ") is still live";
            Out.push_back(makeDiag(F, BId, Idx, I.Loc, Options.Pass,
                                   "base_clobbered", D, R, OS.str()));
          });
      }

      BL.transfer(I, Facts);
    }
  }
}

//===----------------------------------------------------------------------===//
// Layer 2: kill-placement audit
//===----------------------------------------------------------------------===//

/// One Kill of a block, keyed by the index of the preceding non-kill
/// instruction in the kill-free sequence (~0u for kills ahead of the first
/// instruction — entry parameter kills — which therefore sort last).
struct SlotKill {
  uint32_t Slot, Reg;
  bool operator<(const SlotKill &O) const {
    return Slot != O.Slot ? Slot < O.Slot : Reg < O.Reg;
  }
};

/// The kills of \p B sorted by (slot, register), and the indices of its
/// non-kill instructions.
void collectKillSlots(const BasicBlock &B, std::vector<SlotKill> &Kills,
                      std::vector<uint32_t> &NonKillIndices) {
  Kills.clear();
  NonKillIndices.clear();
  uint32_t Slot = ~0u;
  for (uint32_t Idx = 0; Idx < B.Insts.size(); ++Idx) {
    const Instruction &I = B.Insts[Idx];
    if (I.Op == Opcode::Kill) {
      if (I.A.isReg())
        Kills.push_back({Slot, I.A.Reg});
    } else {
      Slot = static_cast<uint32_t>(NonKillIndices.size());
      NonKillIndices.push_back(Idx);
    }
  }
  std::sort(Kills.begin(), Kills.end());
}

void checkKillPlacement(const Function &F, const SafetyVerifyOptions &Options,
                        std::vector<SafetyDiag> &Out) {
  // Re-derive the canonical placement: strip every Kill and let
  // insertKills recompute from the module's own KEEP_LIVE structure.
  Function Canonical = F;
  for (BasicBlock &B : Canonical.Blocks)
    B.Insts.erase(std::remove_if(B.Insts.begin(), B.Insts.end(),
                                 [](const Instruction &I) {
                                   return I.Op == Opcode::Kill;
                                 }),
                  B.Insts.end());
  PassStats Dummy;
  insertKills(Canonical, Dummy);

  std::vector<SlotKill> Actual, Expected;
  std::vector<uint32_t> ActualIdx, ExpectedIdx;
  for (uint32_t BId = 0; BId < F.Blocks.size(); ++BId) {
    collectKillSlots(F.Blocks[BId], Actual, ActualIdx);
    collectKillSlots(Canonical.Blocks[BId], Expected, ExpectedIdx);
    if (ActualIdx.size() != ExpectedIdx.size()) {
      Out.push_back(makeDiag(F, BId, 0, ~0u, Options.Pass, "structure",
                             NoReg, NoReg,
                             "kill audit cannot align block: non-kill "
                             "instruction counts differ"));
      continue;
    }

    // Position of a slot in the original instruction stream, for reports.
    auto SlotIndex = [&](uint32_t Slot) {
      return Slot == ~0u ? 0u : ActualIdx[Slot];
    };
    auto SlotLoc = [&](uint32_t Slot) -> uint32_t {
      return Slot == ~0u ? ~0u : F.Blocks[BId].Insts[ActualIdx[Slot]].Loc;
    };
    auto Contains = [](const SlotKill *Begin, const SlotKill *End,
                       uint32_t R) {
      return std::any_of(Begin, End,
                         [R](const SlotKill &K) { return K.Reg == R; });
    };

    // Walk both sorted lists one slot at a time, in ascending slot order.
    const SlotKill *A = Actual.data(), *AEnd = A + Actual.size();
    const SlotKill *E = Expected.data(), *EEnd = E + Expected.size();
    while (A != AEnd || E != EEnd) {
      uint32_t S = E == EEnd || (A != AEnd && A->Slot < E->Slot) ? A->Slot
                                                                 : E->Slot;
      const SlotKill *ANext = A, *ENext = E;
      while (ANext != AEnd && ANext->Slot == S)
        ++ANext;
      while (ENext != EEnd && ENext->Slot == S)
        ++ENext;
      for (const SlotKill *K = E; K != ENext; ++K)
        if (!Contains(A, ANext, K->Reg)) {
          std::ostringstream OS;
          OS << "missing kill of " << regName(K->Reg)
             << " at its extended death point — the register outlives "
                "its last KEEP_LIVE-extended use (false retention)";
          Out.push_back(makeDiag(F, BId, SlotIndex(S), SlotLoc(S),
                                 Options.Pass, "kill_missing", NoReg, K->Reg,
                                 OS.str()));
        }
      for (const SlotKill *K = A; K != ANext; ++K)
        if (!Contains(E, ENext, K->Reg)) {
          std::ostringstream OS;
          OS << "kill of " << regName(K->Reg)
             << " is not at the canonical death point computed from the "
                "module's KEEP_LIVE structure";
          Out.push_back(makeDiag(F, BId, SlotIndex(S), SlotLoc(S),
                                 Options.Pass, "kill_spurious", NoReg,
                                 K->Reg, OS.str()));
        }
      A = ANext;
      E = ENext;
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

bool gcsafe::analysis::verifyFunctionSafety(const Function &F,
                                            const SafetyVerifyOptions &Options,
                                            std::vector<SafetyDiag> &Out) {
  size_t Before = Out.size();
  checkPoints(F, Options, Out);
  if (Options.CheckKillPlacement)
    checkKillPlacement(F, Options, Out);
  return Out.size() == Before;
}

bool gcsafe::analysis::verifyModuleSafety(const Module &M,
                                          const SafetyVerifyOptions &Options,
                                          std::vector<SafetyDiag> &Out) {
  bool Ok = true;
  for (const Function &F : M.Functions)
    Ok = verifyFunctionSafety(F, Options, Out) && Ok;
  return Ok;
}

namespace {

/// The KeepLive destinations of \p F, ascending and distinct.
std::vector<uint32_t> keepLiveDsts(const Function &F) {
  std::vector<uint32_t> Dsts;
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Insts)
      if (I.Op == Opcode::KeepLive && I.Dst != NoReg)
        Dsts.push_back(I.Dst);
  std::sort(Dsts.begin(), Dsts.end());
  Dsts.erase(std::unique(Dsts.begin(), Dsts.end()), Dsts.end());
  return Dsts;
}

} // namespace

void KeepLiveContinuity::record(const Function &F) {
  Snapshots[F.Name] = keepLiveDsts(F);
}

void KeepLiveContinuity::check(const Function &F, const char *Pass,
                               std::vector<SafetyDiag> &Out) {
  std::vector<uint32_t> Current = keepLiveDsts(F);

  auto It = Snapshots.find(F.Name);
  if (It != Snapshots.end()) {
    // Counted only once a recorded destination is found missing; most
    // passes keep every KEEP_LIVE.
    DefUseCounts DU;
    for (uint32_t Dst : It->second) {
      if (std::binary_search(Current.begin(), Current.end(), Dst))
        continue;
      if (DU.Uses.empty())
        DU = countDefsUses(F);
      // Disappearing is legitimate only when the derived value itself is
      // gone: dead-code elimination of an unused destination, or the
      // peephole folding the KEEP_LIVE into a fused addressing mode (which
      // also consumes the only use).
      if (Dst >= DU.Uses.size() || DU.Uses[Dst] == 0)
        continue;
      std::ostringstream OS;
      OS << "KEEP_LIVE defining " << regName(Dst)
         << " disappeared during pass '" << Pass << "' although "
         << regName(Dst) << " still has " << DU.Uses[Dst] << " use(s)";
      SafetyDiag D;
      D.Function = F.Name;
      D.Pass = Pass;
      D.Kind = "keep_live_dropped";
      D.Derived = Dst;
      D.Message = OS.str();
      Out.push_back(std::move(D));
    }
  }
  Snapshots[F.Name] = std::move(Current);
}

std::string gcsafe::analysis::formatSafetyDiag(const SafetyDiag &D) {
  std::ostringstream OS;
  OS << D.Function << ": b" << D.Block << "[" << D.Index << "]: ["
     << D.Kind << "] after " << D.Pass << ": " << D.Message;
  return OS.str();
}
