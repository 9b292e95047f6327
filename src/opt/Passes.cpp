//===- opt/Passes.cpp -----------------------------------------*- C++ -*-===//

#include "opt/Passes.h"

#include "opt/CFG.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cassert>
#include <cstring>
#include <string>
#include <unordered_map>

using namespace gcsafe;
using namespace gcsafe::opt;
using namespace gcsafe::ir;

void PassStats::accumulate(const PassStats &O) {
  Folded += O.Folded;
  CopiesPropagated += O.CopiesPropagated;
  CSEd += O.CSEd;
  DeadRemoved += O.DeadRemoved;
  Reassociated += O.Reassociated;
  StrengthReduced += O.StrengthReduced;
  Hoisted += O.Hoisted;
  Fused += O.Fused;
  PeepholeLoadFusions += O.PeepholeLoadFusions;
  PeepholeCoalesced += O.PeepholeCoalesced;
  PeepholeAddMoves += O.PeepholeAddMoves;
  KillsInserted += O.KillsInserted;
}

std::vector<std::pair<const char *, unsigned>> PassStats::entries() const {
  return {
      {"folded", Folded},
      {"copies_propagated", CopiesPropagated},
      {"csed", CSEd},
      {"dead_removed", DeadRemoved},
      {"reassociated", Reassociated},
      {"strength_reduced", StrengthReduced},
      {"hoisted", Hoisted},
      {"fused", Fused},
      {"peephole_load_fusions", PeepholeLoadFusions},
      {"peephole_coalesced", PeepholeCoalesced},
      {"peephole_add_moves", PeepholeAddMoves},
      {"kills_inserted", KillsInserted},
  };
}

unsigned PassStats::total() const {
  unsigned Sum = 0;
  for (const auto &E : entries())
    Sum += E.second;
  return Sum;
}

namespace {

bool isPure(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Mov:
  case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
  case Opcode::DivS: case Opcode::DivU: case Opcode::RemS: case Opcode::RemU:
  case Opcode::And: case Opcode::Or: case Opcode::Xor:
  case Opcode::Shl: case Opcode::ShrA: case Opcode::ShrL:
  case Opcode::Neg: case Opcode::Not:
  case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul: case Opcode::FDiv:
  case Opcode::FNeg:
  case Opcode::CmpEq: case Opcode::CmpNe:
  case Opcode::CmpLtS: case Opcode::CmpLeS: case Opcode::CmpGtS:
  case Opcode::CmpGeS:
  case Opcode::CmpLtU: case Opcode::CmpLeU: case Opcode::CmpGtU:
  case Opcode::CmpGeU:
  case Opcode::FCmpEq: case Opcode::FCmpNe: case Opcode::FCmpLt:
  case Opcode::FCmpLe: case Opcode::FCmpGt: case Opcode::FCmpGe:
  case Opcode::SExt: case Opcode::ZExt:
  case Opcode::SIToFP: case Opcode::FPToSI:
  case Opcode::AddrLocal: case Opcode::AddrGlobal:
  case Opcode::Nop:
    return true;
  case Opcode::Load:
  case Opcode::LoadIdx:
    // No volatile semantics in the subset; a load with an unused result is
    // removable. (Not hoistable past stores, though — see LICM.)
    return true;
  case Opcode::KeepLive:
    // Removable when unused; never value-forwarded (opacity).
    return true;
  default:
    return false;
  }
}

struct DefSite {
  uint32_t Block = ~0u;
  uint32_t Index = 0;
};

/// Maps each single-def register to its defining instruction.
void computeDefSites(const Function &F, const DefUseCounts &DU,
                     std::vector<DefSite> &Sites) {
  Sites.assign(F.NumRegs, DefSite{});
  for (uint32_t B = 0; B < F.Blocks.size(); ++B)
    for (uint32_t I = 0; I < F.Blocks[B].Insts.size(); ++I) {
      const Instruction &Inst = F.Blocks[B].Insts[I];
      if (Inst.Dst != NoReg && DU.Defs[Inst.Dst] == 1)
        Sites[Inst.Dst] = {B, I};
    }
}

int64_t foldBinary(Opcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case Opcode::Add: return A + B;
  case Opcode::Sub: return A - B;
  case Opcode::Mul: return A * B;
  case Opcode::DivS: return B ? A / B : 0;
  case Opcode::DivU:
    return B ? static_cast<int64_t>(static_cast<uint64_t>(A) /
                                    static_cast<uint64_t>(B))
             : 0;
  case Opcode::RemS: return B ? A % B : 0;
  case Opcode::RemU:
    return B ? static_cast<int64_t>(static_cast<uint64_t>(A) %
                                    static_cast<uint64_t>(B))
             : 0;
  case Opcode::And: return A & B;
  case Opcode::Or: return A | B;
  case Opcode::Xor: return A ^ B;
  case Opcode::Shl: return static_cast<int64_t>(static_cast<uint64_t>(A)
                                                << (B & 63));
  case Opcode::ShrA: return A >> (B & 63);
  case Opcode::ShrL:
    return static_cast<int64_t>(static_cast<uint64_t>(A) >> (B & 63));
  case Opcode::CmpEq: return A == B;
  case Opcode::CmpNe: return A != B;
  case Opcode::CmpLtS: return A < B;
  case Opcode::CmpLeS: return A <= B;
  case Opcode::CmpGtS: return A > B;
  case Opcode::CmpGeS: return A >= B;
  case Opcode::CmpLtU: return static_cast<uint64_t>(A) < static_cast<uint64_t>(B);
  case Opcode::CmpLeU: return static_cast<uint64_t>(A) <= static_cast<uint64_t>(B);
  case Opcode::CmpGtU: return static_cast<uint64_t>(A) > static_cast<uint64_t>(B);
  case Opcode::CmpGeU: return static_cast<uint64_t>(A) >= static_cast<uint64_t>(B);
  default: return 0;
  }
}

bool isFoldableBinary(Opcode Op) {
  switch (Op) {
  case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
  case Opcode::DivS: case Opcode::DivU: case Opcode::RemS: case Opcode::RemU:
  case Opcode::And: case Opcode::Or: case Opcode::Xor:
  case Opcode::Shl: case Opcode::ShrA: case Opcode::ShrL:
  case Opcode::CmpEq: case Opcode::CmpNe:
  case Opcode::CmpLtS: case Opcode::CmpLeS: case Opcode::CmpGtS:
  case Opcode::CmpGeS:
  case Opcode::CmpLtU: case Opcode::CmpLeU: case Opcode::CmpGtU:
  case Opcode::CmpGeU:
    return true;
  default:
    return false;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// simplifyFunction
//===----------------------------------------------------------------------===//

void gcsafe::opt::simplifyFunction(Function &F, PassStats &Stats) {
  for (int Round = 0; Round < 8; ++Round) {
    bool Changed = false;
    DefUseCounts DU = countDefsUses(F);

    // Value map for copy propagation: single-def Mov of imm or of a
    // single-def register.
    std::vector<Value> Subst(F.NumRegs, Value::none());
    for (const BasicBlock &B : F.Blocks)
      for (const Instruction &I : B.Insts) {
        if (I.Op != Opcode::Mov || I.Dst == NoReg || DU.Defs[I.Dst] != 1)
          continue;
        if (I.A.isImm() || I.A.isFImm())
          Subst[I.Dst] = I.A;
        else if (I.A.isReg() && DU.Defs[I.A.Reg] == 1)
          Subst[I.Dst] = I.A;
      }

    auto Rewrite = [&](Value &V) {
      while (V.isReg() && !Subst[V.Reg].isNone()) {
        V = Subst[V.Reg];
        Changed = true;
        ++Stats.CopiesPropagated;
      }
    };

    for (BasicBlock &B : F.Blocks)
      for (Instruction &I : B.Insts) {
        Rewrite(I.A);
        Rewrite(I.B);
        Rewrite(I.C);
        for (Value &V : I.Args)
          Rewrite(V);

        // Constant folding and algebraic identities. Division/remainder by
        // a constant zero is left for the runtime to trap.
        bool ZeroDivide =
            (I.Op == Opcode::DivS || I.Op == Opcode::DivU ||
             I.Op == Opcode::RemS || I.Op == Opcode::RemU) &&
            I.B.isImm() && I.B.Imm == 0;
        if (isFoldableBinary(I.Op) && I.A.isImm() && I.B.isImm() &&
            !ZeroDivide) {
          int64_t R = foldBinary(I.Op, I.A.Imm, I.B.Imm);
          I.Op = Opcode::Mov;
          I.A = Value::imm(R);
          I.B = Value::none();
          Changed = true;
          ++Stats.Folded;
        } else if ((I.Op == Opcode::Add || I.Op == Opcode::Sub ||
                    I.Op == Opcode::Shl || I.Op == Opcode::ShrA ||
                    I.Op == Opcode::ShrL || I.Op == Opcode::Or ||
                    I.Op == Opcode::Xor) &&
                   I.B.isImm() && I.B.Imm == 0) {
          I.Op = Opcode::Mov;
          I.B = Value::none();
          Changed = true;
          ++Stats.Folded;
        } else if (I.Op == Opcode::Mul && I.B.isImm() && I.B.Imm == 1) {
          I.Op = Opcode::Mov;
          I.B = Value::none();
          Changed = true;
          ++Stats.Folded;
        } else if (I.Op == Opcode::Add && I.A.isImm() && I.A.Imm == 0) {
          I.Op = Opcode::Mov;
          I.A = I.B;
          I.B = Value::none();
          Changed = true;
          ++Stats.Folded;
        } else if (I.Op == Opcode::Br && I.A.isImm()) {
          I.Op = Opcode::Jmp;
          I.Blk1 = I.A.Imm ? I.Blk1 : I.Blk2;
          I.A = Value::none();
          Changed = true;
          ++Stats.Folded;
        } else if (I.Op == Opcode::SExt && I.A.isImm()) {
          unsigned Bits = I.Size * 8;
          uint64_t Mask = Bits >= 64 ? ~uint64_t(0)
                                     : ((uint64_t(1) << Bits) - 1);
          uint64_t V = static_cast<uint64_t>(I.A.Imm) & Mask;
          if (Bits < 64 && (V >> (Bits - 1)))
            V |= ~Mask;
          I.Op = Opcode::Mov;
          I.A = Value::imm(static_cast<int64_t>(V));
          Changed = true;
          ++Stats.Folded;
        } else if (I.Op == Opcode::ZExt && I.A.isImm()) {
          unsigned Bits = I.Size * 8;
          uint64_t Mask = Bits >= 64 ? ~uint64_t(0)
                                     : ((uint64_t(1) << Bits) - 1);
          I.Op = Opcode::Mov;
          I.A = Value::imm(static_cast<int64_t>(
              static_cast<uint64_t>(I.A.Imm) & Mask));
          Changed = true;
          ++Stats.Folded;
        }
      }

    // Dead code elimination: pure instructions with unused destinations.
    DU = countDefsUses(F);
    for (BasicBlock &B : F.Blocks)
      for (Instruction &I : B.Insts) {
        if (I.Op == Opcode::Nop || I.Dst == NoReg || !isPure(I))
          continue;
        if (DU.Uses[I.Dst] == 0) {
          I = Instruction{};
          I.Op = Opcode::Nop;
          Changed = true;
          ++Stats.DeadRemoved;
        }
      }

    // Compact Nops away.
    for (BasicBlock &B : F.Blocks) {
      std::vector<Instruction> Kept;
      Kept.reserve(B.Insts.size());
      for (Instruction &I : B.Insts)
        if (I.Op != Opcode::Nop)
          Kept.push_back(std::move(I));
      B.Insts = std::move(Kept);
    }

    if (!Changed)
      break;
  }
}

//===----------------------------------------------------------------------===//
// localCSE
//===----------------------------------------------------------------------===//

void gcsafe::opt::localCSE(Function &F, PassStats &Stats) {
  for (BasicBlock &B : F.Blocks) {
    // Key -> register holding the value.
    std::unordered_map<std::string, uint32_t> Available;
    uint64_t MemEpoch = 0;

    auto ValueKey = [](const Value &V) -> std::string {
      switch (V.Kind) {
      case Value::ValueKind::None: return "_";
      case Value::ValueKind::Reg: return "r" + std::to_string(V.Reg);
      case Value::ValueKind::Imm: return "i" + std::to_string(V.Imm);
      case Value::ValueKind::FImm: {
        uint64_t Bits;
        std::memcpy(&Bits, &V.FImm, sizeof(Bits));
        return "f" + std::to_string(Bits);
      }
      }
      return "?";
    };

    auto InvalidateReg = [&](uint32_t R) {
      std::string Tag = "r" + std::to_string(R);
      for (auto It = Available.begin(); It != Available.end();) {
        bool Mentions = It->second == R ||
                        It->first.find("|" + Tag + "|") != std::string::npos ||
                        It->first.rfind("|" + Tag) ==
                            It->first.size() - Tag.size() - 1;
        It = Mentions ? Available.erase(It) : ++It;
      }
    };

    for (Instruction &I : B.Insts) {
      // Memory and side effects.
      bool WritesMemory = I.Op == Opcode::Store || I.Op == Opcode::StoreIdx ||
                          I.Op == Opcode::Call;
      if (WritesMemory)
        ++MemEpoch;
      if (I.Op == Opcode::Kill) {
        if (I.A.isReg())
          InvalidateReg(I.A.Reg);
        continue;
      }

      bool IsLoad = I.Op == Opcode::Load || I.Op == Opcode::LoadIdx;
      bool Eligible = I.Dst != NoReg && I.Op != Opcode::Mov &&
                      I.Op != Opcode::KeepLive &&
                      I.Op != Opcode::CheckSameObj &&
                      I.Op != Opcode::Call && I.Op != Opcode::AddrLocal &&
                      I.Op != Opcode::AddrGlobal && !I.isTerminator() &&
                      I.Op != Opcode::Nop;
      if (!Eligible) {
        if (I.Dst != NoReg)
          InvalidateReg(I.Dst);
        continue;
      }

      std::string Key = std::to_string(static_cast<int>(I.Op)) + "#" +
                        std::to_string(I.Size) + "#" +
                        std::to_string(I.SignedLoad) + "|" + ValueKey(I.A) +
                        "|" + ValueKey(I.B) + "|" + ValueKey(I.C);
      if (IsLoad)
        Key += "@" + std::to_string(MemEpoch);

      auto It = Available.find(Key);
      if (It != Available.end()) {
        uint32_t Prev = It->second;
        uint32_t Dst = I.Dst;
        I = Instruction{};
        I.Op = Opcode::Mov;
        I.Dst = Dst;
        I.A = Value::reg(Prev);
        InvalidateReg(Dst);
        ++Stats.CSEd;
        continue;
      }
      uint32_t Dst = I.Dst;
      InvalidateReg(Dst);
      Available.emplace(std::move(Key), Dst);
    }
  }
}

//===----------------------------------------------------------------------===//
// reassociateDisplacements — the pointer-disguising rewrite
//===----------------------------------------------------------------------===//

void gcsafe::opt::reassociateDisplacements(Function &F, PassStats &Stats) {
  DefUseCounts DU = countDefsUses(F);
  std::vector<DefSite> Sites;
  computeDefSites(F, DU, Sites);

  auto SingleDefInst = [&](uint32_t R) -> Instruction * {
    if (R >= F.NumRegs || DU.Defs[R] != 1 || Sites[R].Block == ~0u)
      return nullptr;
    return &F.Blocks[Sites[R].Block].Insts[Sites[R].Index];
  };

  for (BasicBlock &B : F.Blocks) {
    for (size_t Idx = 0; Idx < B.Insts.size(); ++Idx) {
      Instruction &I = B.Insts[Idx];
      if (I.Op != Opcode::Add || I.Dst == NoReg || !I.A.isReg() ||
          !I.B.isReg())
        continue;

      // Pattern A: t = add p, s where s = sub i, C (single def and use).
      // Rewrite to q = sub p, C; t = add q, i.
      Instruction *SDef = SingleDefInst(I.B.Reg);
      if (SDef && SDef->Op == Opcode::Sub && SDef->B.isImm() &&
          DU.Uses[I.B.Reg] == 1 && SDef->A.isReg()) {
        uint32_t Q = F.newReg();
        Instruction NewSub;
        NewSub.Op = Opcode::Sub;
        NewSub.Dst = Q;
        NewSub.A = I.A;
        NewSub.B = SDef->B;
        Value IVal = SDef->A;
        // Kill the old sub; its result is no longer used.
        *SDef = Instruction{};
        SDef->Op = Opcode::Nop;
        I.A = Value::reg(Q);
        I.B = IVal;
        B.Insts.insert(B.Insts.begin() + Idx, std::move(NewSub));
        ++Idx; // skip over the inserted sub
        ++Stats.Reassociated;
        // Recompute facts (cheap functions; patterns are rare).
        DU = countDefsUses(F);
        computeDefSites(F, DU, Sites);
        continue;
      }

      // Pattern B: t = add p, m where m = mul s, K and s = sub i, C.
      // Rewrite to q = sub p, C*K; m' = mul i, K; t = add q, m'.
      Instruction *MDef = SingleDefInst(I.B.Reg);
      if (MDef && MDef->Op == Opcode::Mul && MDef->B.isImm() &&
          MDef->A.isReg() && DU.Uses[I.B.Reg] == 1) {
        Instruction *SubDef = SingleDefInst(MDef->A.Reg);
        if (SubDef && SubDef->Op == Opcode::Sub && SubDef->B.isImm() &&
            SubDef->A.isReg() && DU.Uses[MDef->A.Reg] == 1) {
          int64_t C = SubDef->B.Imm;
          int64_t K = MDef->B.Imm;
          Value IVal = SubDef->A;
          uint32_t Q = F.newReg();
          uint32_t M2 = F.newReg();
          Instruction NewSub;
          NewSub.Op = Opcode::Sub;
          NewSub.Dst = Q;
          NewSub.A = I.A;
          NewSub.B = Value::imm(C * K);
          Instruction NewMul;
          NewMul.Op = Opcode::Mul;
          NewMul.Dst = M2;
          NewMul.A = IVal;
          NewMul.B = Value::imm(K);
          *SubDef = Instruction{};
          SubDef->Op = Opcode::Nop;
          *MDef = Instruction{};
          MDef->Op = Opcode::Nop;
          I.A = Value::reg(Q);
          I.B = Value::reg(M2);
          B.Insts.insert(B.Insts.begin() + Idx, std::move(NewMul));
          B.Insts.insert(B.Insts.begin() + Idx, std::move(NewSub));
          Idx += 2;
          ++Stats.Reassociated;
          DU = countDefsUses(F);
          computeDefSites(F, DU, Sites);
          continue;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// strengthReduceIVs
//===----------------------------------------------------------------------===//

void gcsafe::opt::strengthReduceIVs(Function &F, PassStats &Stats) {
  CFGInfo CFG(F);
  std::vector<LoopInfo> Loops = findLoops(F, CFG);
  if (Loops.empty())
    return;

  for (const LoopInfo &Loop : Loops) {
    if (Loop.Preheader == ~0u)
      continue;
    std::vector<bool> InLoop(F.Blocks.size(), false);
    for (uint32_t B : Loop.Blocks)
      InLoop[B] = true;

    DefUseCounts DU = countDefsUses(F);
    std::vector<DefSite> Sites;
    computeDefSites(F, DU, Sites);

    auto IsInvariantReg = [&](uint32_t R) {
      if (DU.Defs[R] == 0)
        return true;
      if (DU.Defs[R] != 1)
        return false;
      if (Sites[R].Block == ~0u)
        return true; // parameter (entry def, no instruction site)
      return !InLoop[Sites[R].Block];
    };
    auto IsInvariantValue = [&](const Value &V) {
      return !V.isReg() || IsInvariantReg(V.Reg);
    };

    // Basic IVs: registers with exactly one in-loop update equivalent to
    // `r = r + C` (C immediate). Unoptimized increments appear as the
    // chain `t1 = mov r; t2 = add t1, C; r = mov t2`, so the recognizer
    // follows single-def movs.
    struct BasicIV {
      uint32_t Reg;
      int64_t Step;
      uint32_t StepBlock; ///< Block/index of the instruction that writes
      size_t StepIndex;   ///< the new value into Reg.
    };

    // Resolves whether the instruction defining R is (a chain equivalent
    // to) R = R + C.
    auto MatchIVUpdate = [&](uint32_t R, const Instruction &I,
                             int64_t &StepOut) {
      auto DefOf = [&](uint32_t X) -> const Instruction * {
        if (DU.Defs[X] != 1 || Sites[X].Block == ~0u ||
            !InLoop[Sites[X].Block])
          return nullptr;
        return &F.Blocks[Sites[X].Block].Insts[Sites[X].Index];
      };
      const Instruction *Cur = &I;
      // Peel a trailing `r = mov x`.
      if (Cur->Op == Opcode::Mov && Cur->A.isReg()) {
        Cur = DefOf(Cur->A.Reg);
        if (!Cur)
          return false;
      }
      if (Cur->Op != Opcode::Add || !Cur->A.isReg() || !Cur->B.isImm())
        return false;
      uint32_t Src = Cur->A.Reg;
      if (Src != R) {
        const Instruction *SrcDef = DefOf(Src);
        if (!SrcDef || SrcDef->Op != Opcode::Mov || !SrcDef->A.isRegNo(R))
          return false;
      }
      StepOut = Cur->B.Imm;
      return true;
    };

    std::vector<BasicIV> IVs;
    for (uint32_t R = 0; R < F.NumRegs; ++R) {
      int InLoopDefs = 0;
      BasicIV IV{R, 0, 0, 0};
      bool Shape = true;
      for (uint32_t BId = 0; BId < F.Blocks.size() && Shape; ++BId) {
        const BasicBlock &B = F.Blocks[BId];
        for (size_t Idx = 0; Idx < B.Insts.size(); ++Idx) {
          const Instruction &I = B.Insts[Idx];
          if (I.Dst != R || !InLoop[BId])
            continue;
          ++InLoopDefs;
          int64_t Step = 0;
          if (InLoopDefs > 1 || !MatchIVUpdate(R, I, Step)) {
            Shape = false;
            break;
          }
          IV.Step = Step;
          IV.StepBlock = BId;
          IV.StepIndex = Idx;
        }
      }
      if (Shape && InLoopDefs == 1)
        IVs.push_back(IV);
    }
    if (IVs.empty())
      continue;

    auto FindIV = [&](uint32_t R) -> const BasicIV * {
      for (const BasicIV &IV : IVs)
        if (IV.Reg == R)
          return &IV;
      return nullptr;
    };

    // One derived candidate per loop per invocation: a = Add p, m with
    // m = Mul i, K (single def/use, in-loop), i a basic IV, p invariant.
    struct Candidate {
      uint32_t AddBlock = 0;
      size_t AddIndex = 0;
      Value P;
      const BasicIV *IV = nullptr;
      int64_t K = 0;
    };
    Candidate Cand;
    bool Found = false;
    for (uint32_t BId : Loop.Blocks) {
      BasicBlock &B = F.Blocks[BId];
      for (size_t Idx = 0; Idx < B.Insts.size() && !Found; ++Idx) {
        Instruction &I = B.Insts[Idx];
        if (I.Op != Opcode::Add || I.Dst == NoReg || !I.A.isReg() ||
            !I.B.isReg())
          continue;
        if (!IsInvariantValue(I.A))
          continue;
        uint32_t M = I.B.Reg;
        if (DU.Defs[M] != 1 || DU.Uses[M] != 1 || Sites[M].Block == ~0u ||
            !InLoop[Sites[M].Block])
          continue;
        const Instruction &MulI =
            F.Blocks[Sites[M].Block].Insts[Sites[M].Index];
        if (MulI.Op != Opcode::Mul || !MulI.A.isReg() || !MulI.B.isImm())
          continue;
        const BasicIV *IV = FindIV(MulI.A.Reg);
        if (!IV)
          continue;
        Cand.AddBlock = BId;
        Cand.AddIndex = Idx;
        Cand.P = I.A;
        Cand.IV = IV;
        Cand.K = MulI.B.Imm;
        Found = true;
      }
      if (Found)
        break;
    }
    if (!Found)
      continue;

    // Rewrite:
    //   preheader:   t = Mul i, K ; iv = Add p, t
    //   after i+=C:  iv = Add iv, C*K
    //   a = Add p, m  ==>  a = Mov iv        (the Mul dies via DCE)
    uint32_t T = F.newReg();
    uint32_t IVReg = F.newReg();
    {
      BasicBlock &Pre = F.Blocks[Loop.Preheader];
      auto Insert =
          Pre.Insts.empty() ? Pre.Insts.end() : Pre.Insts.end() - 1;
      Instruction AddInit;
      AddInit.Op = Opcode::Add;
      AddInit.Dst = IVReg;
      AddInit.A = Cand.P;
      AddInit.B = Value::reg(T);
      Insert = Pre.Insts.insert(Insert, AddInit);
      Instruction MulInit;
      MulInit.Op = Opcode::Mul;
      MulInit.Dst = T;
      MulInit.A = Value::reg(Cand.IV->Reg);
      MulInit.B = Value::imm(Cand.K);
      Pre.Insts.insert(Insert, MulInit);
    }
    {
      Instruction &AddI = F.Blocks[Cand.AddBlock].Insts[Cand.AddIndex];
      uint32_t Dst = AddI.Dst;
      AddI = Instruction{};
      AddI.Op = Opcode::Mov;
      AddI.Dst = Dst;
      AddI.A = Value::reg(IVReg);
    }
    {
      BasicBlock &StepB = F.Blocks[Cand.IV->StepBlock];
      Instruction Advance;
      Advance.Op = Opcode::Add;
      Advance.Dst = IVReg;
      Advance.A = Value::reg(IVReg);
      Advance.B = Value::imm(Cand.IV->Step * Cand.K);
      StepB.Insts.insert(StepB.Insts.begin() + Cand.IV->StepIndex + 1,
                         Advance);
    }
    ++Stats.StrengthReduced;
  }
}

//===----------------------------------------------------------------------===//
// hoistLoopInvariants
//===----------------------------------------------------------------------===//

void gcsafe::opt::hoistLoopInvariants(Function &F, PassStats &Stats) {
  CFGInfo CFG(F);
  std::vector<LoopInfo> Loops = findLoops(F, CFG);
  if (Loops.empty())
    return;
  DefUseCounts DU = countDefsUses(F);
  std::vector<DefSite> Sites;
  computeDefSites(F, DU, Sites);

  for (const LoopInfo &Loop : Loops) {
    if (Loop.Preheader == ~0u)
      continue;
    std::vector<bool> InLoop(F.Blocks.size(), false);
    for (uint32_t B : Loop.Blocks)
      InLoop[B] = true;

    // A register is invariant if its single def lies outside the loop, or
    // it has been hoisted.
    std::vector<bool> Invariant(F.NumRegs, false);
    auto IsInvariantValue = [&](const Value &V) {
      if (!V.isReg())
        return true;
      uint32_t R = V.Reg;
      if (Invariant[R])
        return true;
      if (DU.Defs[R] == 0)
        return true; // parameter
      if (DU.Defs[R] != 1)
        return false;
      if (Sites[R].Block == ~0u)
        return true; // parameter with counted entry def
      return !InLoop[Sites[R].Block];
    };

    BasicBlock &Pre = F.Blocks[Loop.Preheader];
    // Insert hoisted code before the preheader's terminator.
    auto InsertPos = [&]() {
      return Pre.Insts.empty() ? Pre.Insts.end() : Pre.Insts.end() - 1;
    };

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t BId : Loop.Blocks) {
        BasicBlock &B = F.Blocks[BId];
        for (Instruction &I : B.Insts) {
          if (I.Dst == NoReg || !isPure(I) || I.Op == Opcode::Nop ||
              I.Op == Opcode::KeepLive || I.Op == Opcode::Load ||
              I.Op == Opcode::LoadIdx)
            continue; // loads may observe in-loop stores: do not hoist
          if (DU.Defs[I.Dst] != 1)
            continue;
          if (!IsInvariantValue(I.A) || !IsInvariantValue(I.B) ||
              !IsInvariantValue(I.C))
            continue;
          Pre.Insts.insert(InsertPos(), I);
          Invariant[I.Dst] = true;
          I = Instruction{};
          I.Op = Opcode::Nop;
          Changed = true;
          ++Stats.Hoisted;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// fuseAddressing
//===----------------------------------------------------------------------===//

void gcsafe::opt::fuseAddressing(Function &F, PassStats &Stats) {
  DefUseCounts DU = countDefsUses(F);

  for (BasicBlock &B : F.Blocks) {
    // Map register -> index of its defining Add in this block.
    std::unordered_map<uint32_t, size_t> AddDef;
    for (size_t Idx = 0; Idx < B.Insts.size(); ++Idx) {
      Instruction &I = B.Insts[Idx];

      auto TryFuse = [&](Value &AddrOperand, bool IsStore) -> bool {
        if (!AddrOperand.isReg())
          return false;
        auto It = AddDef.find(AddrOperand.Reg);
        if (It == AddDef.end())
          return false;
        Instruction &Def = B.Insts[It->second];
        if (Def.Op != Opcode::Add)
          return false;
        uint32_t R = AddrOperand.Reg;
        if (DU.Defs[R] != 1 || DU.Uses[R] != 1)
          return false;
        // Operands of the add must not be redefined between def and here.
        for (size_t J = It->second + 1; J < Idx; ++J) {
          const Instruction &Between = B.Insts[J];
          if (Between.Dst == NoReg)
            continue;
          if (Def.A.isRegNo(Between.Dst) || Def.B.isRegNo(Between.Dst))
            return false;
        }
        if (IsStore) {
          I.Op = Opcode::StoreIdx;
          I.C = I.B;
        } else {
          I.Op = Opcode::LoadIdx;
        }
        I.A = Def.A;
        I.B = Def.B;
        Def = Instruction{};
        Def.Op = Opcode::Nop;
        ++Stats.Fused;
        return true;
      };

      if (I.Op == Opcode::Load) {
        TryFuse(I.A, /*IsStore=*/false);
      } else if (I.Op == Opcode::Store) {
        Value Addr = I.A;
        if (TryFuse(Addr, /*IsStore=*/true)) {
          // TryFuse already rewrote operands from Def; nothing else to do.
        }
      }

      Instruction &Cur = B.Insts[Idx];
      if (Cur.Op == Opcode::Add && Cur.Dst != NoReg)
        AddDef[Cur.Dst] = Idx;
      else if (Cur.Dst != NoReg)
        AddDef.erase(Cur.Dst);
    }
  }
}

//===----------------------------------------------------------------------===//
// peepholePostprocess
//===----------------------------------------------------------------------===//

namespace {
void runPeephole(Function &F, PassStats &Stats, bool IncludeKLFusion) {
  DefUseCounts DU = countDefsUses(F);

  // Registers used as a KEEP_LIVE base must keep their own identity
  // (pattern 2's stated constraint).
  std::vector<bool> IsKLBase(F.NumRegs, false);
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Insts)
      if (I.Op == Opcode::KeepLive && I.B.isReg())
        IsKLBase[I.B.Reg] = true;

  for (BasicBlock &B : F.Blocks) {
    // Pattern 1: add x,y,z ; keep_live w = z, b ; ld [w] — with b one of
    // x/y — becomes ld [x+y].
    std::unordered_map<uint32_t, size_t> DefIdx;
    for (size_t Idx = 0; Idx < B.Insts.size(); ++Idx) {
      Instruction &I = B.Insts[Idx];

      auto OperandsStable = [&](size_t From, size_t To, const Value &X,
                                const Value &Y) {
        for (size_t J = From + 1; J < To; ++J) {
          uint32_t D = B.Insts[J].Dst;
          if (D == NoReg)
            continue;
          if (X.isRegNo(D) || Y.isRegNo(D))
            return false;
        }
        return true;
      };

      auto TryPattern1 = [&](Value &AddrOperand, bool IsStore) {
        if (!AddrOperand.isReg())
          return;
        uint32_t W = AddrOperand.Reg;
        auto KLIt = DefIdx.find(W);
        if (KLIt == DefIdx.end())
          return;
        Instruction &KL = B.Insts[KLIt->second];
        if (KL.Op != Opcode::KeepLive || DU.Uses[W] != 1 || !KL.A.isReg())
          return;
        uint32_t Z = KL.A.Reg;
        auto AddIt = DefIdx.find(Z);
        if (AddIt == DefIdx.end())
          return;
        Instruction &AddI = B.Insts[AddIt->second];
        if (AddI.Op != Opcode::Add || DU.Uses[Z] != 1 || DU.Defs[Z] != 1 ||
            DU.Defs[W] != 1)
          return;
        // The KEEP_LIVE base must be one of the add operands, so it stays
        // live through the fused load.
        if (!KL.B.isReg() ||
            !(AddI.A == KL.B || AddI.B == KL.B))
          return;
        if (!OperandsStable(AddIt->second, Idx, AddI.A, AddI.B))
          return;
        if (IsStore) {
          I.Op = Opcode::StoreIdx;
          I.C = I.B;
        } else {
          I.Op = Opcode::LoadIdx;
        }
        I.A = AddI.A;
        I.B = AddI.B;
        AddI = Instruction{};
        AddI.Op = Opcode::Nop;
        KL = Instruction{};
        KL.Op = Opcode::Nop;
        ++Stats.PeepholeLoadFusions;
        DU = countDefsUses(F);
      };

      if (IncludeKLFusion) {
        if (I.Op == Opcode::Load)
          TryPattern1(I.A, false);
        else if (I.Op == Opcode::Store)
          TryPattern1(I.A, true);
      }

      // Pattern 3: add x,y,z ; mov w = z (z single-use) => add x,y,w.
      if (I.Op == Opcode::Mov && I.A.isReg() && I.Dst != NoReg) {
        uint32_t Z = I.A.Reg;
        auto AddIt = DefIdx.find(Z);
        if (AddIt != DefIdx.end()) {
          Instruction &AddI = B.Insts[AddIt->second];
          if (AddI.Op == Opcode::Add && DU.Uses[Z] == 1 &&
              DU.Defs[Z] == 1 && DU.Defs[I.Dst] == 1 && !IsKLBase[Z] &&
              OperandsStable(AddIt->second, Idx, AddI.A, AddI.B)) {
            AddI.Dst = I.Dst;
            I = Instruction{};
            I.Op = Opcode::Nop;
            ++Stats.PeepholeAddMoves;
            DU = countDefsUses(F);
            // Update the def index for the moved destination.
            DefIdx[AddI.Dst] = AddIt->second;
          }
        }
      }

      Instruction &Cur = B.Insts[Idx];
      if (Cur.Dst != NoReg)
        DefIdx[Cur.Dst] = Idx;
    }

    // Pattern 2: mov z = x; replace in-block uses of z by x (not if z is a
    // KEEP_LIVE base, and only while x is not redefined).
    for (size_t Idx = 0; Idx < B.Insts.size(); ++Idx) {
      Instruction &MovI = B.Insts[Idx];
      if (MovI.Op != Opcode::Mov || MovI.Dst == NoReg || !MovI.A.isReg())
        continue;
      uint32_t Z = MovI.Dst;
      uint32_t X = MovI.A.Reg;
      if (Z == X || IsKLBase[Z] || DU.Defs[Z] != 1)
        continue;
      // Count uses of z reachable within the block before x or z changes.
      size_t End = B.Insts.size();
      unsigned Replaceable = 0;
      for (size_t J = Idx + 1; J < End; ++J) {
        const Instruction &I = B.Insts[J];
        unsigned Here = 0;
        forEachUse(I, [&](uint32_t R) {
          if (R == Z)
            ++Here;
        });
        Replaceable += Here;
        if (I.Dst == X || I.Dst == Z) {
          End = J + 1;
          break;
        }
      }
      if (Replaceable != DU.Uses[Z] || Replaceable == 0)
        continue;
      for (size_t J = Idx + 1; J < End; ++J) {
        Instruction &I = B.Insts[J];
        auto Replace = [&](Value &V) {
          if (V.isRegNo(Z))
            V = Value::reg(X);
        };
        Replace(I.A);
        Replace(I.B);
        Replace(I.C);
        for (Value &V : I.Args)
          Replace(V);
      }
      MovI = Instruction{};
      MovI.Op = Opcode::Nop;
      ++Stats.PeepholeCoalesced;
      DU = countDefsUses(F);
    }
  }
}

} // namespace

void gcsafe::opt::peepholePostprocess(Function &F, PassStats &Stats) {
  runPeephole(F, Stats, /*IncludeKLFusion=*/true);
}

void gcsafe::opt::coalesceCopies(Function &F, PassStats &Stats) {
  runPeephole(F, Stats, /*IncludeKLFusion=*/false);
}

//===----------------------------------------------------------------------===//
// insertKills
//===----------------------------------------------------------------------===//

void gcsafe::opt::insertKills(Function &F, PassStats &Stats) {
  CFGInfo CFG(F);
  Liveness LV(F, CFG);

  auto MakeKill = [&](uint32_t R) {
    Instruction K;
    K.Op = Opcode::Kill;
    K.A = Value::reg(R);
    ++Stats.KillsInserted;
    return K;
  };

  RegSet Live, Closure(F.NumRegs);
  // (instruction index, register) of every death in the block, in the
  // order of the backward walk: descending index, and for one index the
  // order its kills are emitted in.
  std::vector<std::pair<size_t, uint32_t>> Deaths;
  for (uint32_t BId = 0; BId < F.Blocks.size(); ++BId) {
    BasicBlock &B = F.Blocks[BId];
    size_t N = B.Insts.size();
    Deaths.clear();

    Live = LV.liveOut(BId);
    for (size_t RI = N; RI-- > 0;) {
      const Instruction &I = B.Insts[RI];
      if (I.Dst != NoReg) {
        if (!Live.test(I.Dst) && !I.isTerminator())
          Deaths.emplace_back(RI, I.Dst); // dead on arrival
        Live.clear(I.Dst);
      }
      // Any register in the use closure not yet live dies here (this is
      // its last use going forward).
      forEachUse(I, [&](uint32_t R) { LV.expandUse(R, Closure); });
      Closure.drain([&](uint32_t R) {
        // A register that is both read (directly or as a KEEP_LIVE base)
        // and written by this instruction must not be killed after it:
        // the kill would refer to the freshly written value.
        if (!Live.test(R) && !I.isTerminator() && R != I.Dst)
          Deaths.emplace_back(RI, R);
        Live.set(R);
      });
    }

    std::vector<Instruction> NewInsts;
    NewInsts.reserve(N + Deaths.size() + F.ParamRegs.size());
    // Entry block: parameters never used die immediately.
    if (BId == 0)
      for (uint32_t P : F.ParamRegs)
        if (!LV.liveIn(0).test(P) && !Live.test(P))
          NewInsts.push_back(MakeKill(P));
    size_t Next = Deaths.size();
    for (size_t Idx = 0; Idx < N; ++Idx) {
      NewInsts.push_back(std::move(B.Insts[Idx]));
      size_t First = Next;
      while (First > 0 && Deaths[First - 1].first == Idx)
        --First;
      for (size_t K = First; K < Next; ++K)
        NewInsts.push_back(MakeKill(Deaths[K].second));
      Next = First;
    }
    B.Insts = std::move(NewInsts);
  }
}

//===----------------------------------------------------------------------===//
// removeUnreachableBlocks / pipeline
//===----------------------------------------------------------------------===//

void gcsafe::opt::removeUnreachableBlocks(Function &F) {
  CFGInfo CFG(F);
  for (uint32_t B = 0; B < F.Blocks.size(); ++B)
    if (!CFG.isReachable(B))
      F.Blocks[B].Insts.clear();
}

PassStats gcsafe::opt::optimizeModule(Module &M,
                                      const OptPipelineOptions &Options) {
  PassStats Total;
  support::Stats *Reg = Options.Stats;
  uint64_t PipelineStartNs = Reg ? support::monotonicNowNs() : 0;

  const bool Transactional = static_cast<bool>(Options.CommitGate);
  for (Function &F : M.Functions) {
    PassStats S;

    // Records one committed pass invocation: counter deltas into the
    // function-local stats and — when a registry is attached — under
    // "opt.<name>.*", with a trace event per changing invocation.
    auto Commit = [&](const char *Name, const PassStats &Delta,
                      uint64_t ElapsedNs) {
      S.accumulate(Delta);
      if (Reg) {
        std::string Prefix = std::string("opt.") + Name + ".";
        Reg->add(Prefix + "runs");
        Reg->add(Prefix + "ns", ElapsedNs);
        for (const auto &E : Delta.entries())
          if (E.second)
            Reg->add(Prefix + E.first, E.second);
      }
      if (Options.Trace && Delta.total())
        Options.Trace->emit("pass", Name, ElapsedNs, Delta.total(), F.Name);
    };

    // Runs one named pass over F: the test mutator, then — in
    // transactional mode — the commit gate, which either keeps the result
    // or rolls the function back to its pre-pass snapshot and quarantines
    // the pass. PassCheck always sees the committed state, so a safety
    // verifier can attribute any violation to the pass that just ran (or
    // to the mutator emulating a bug in it).
    auto RunChecked = [&](const char *Name, void (*Pass)(Function &,
                                                         PassStats &)) {
      if (Transactional && Options.Quarantine &&
          Options.Quarantine->count(Name)) {
        if (Reg)
          Reg->add("robust.quarantine_skips");
        return;
      }
      Function Snapshot;
      if (Transactional)
        Snapshot = F;
      PassStats Delta;
      bool Timed = Reg || Options.Trace || Transactional;
      uint64_t StartNs = Timed ? support::monotonicNowNs() : 0;
      Pass(F, Delta);
      uint64_t ElapsedNs = Timed ? support::monotonicNowNs() - StartNs : 0;
      if (Options.PassMutator)
        Options.PassMutator(Name, F);
      bool Committed = true;
      if (Transactional) {
        std::string Reason;
        if (Options.PassDeadlineNs && ElapsedNs > Options.PassDeadlineNs)
          Reason = "deadline";
        else if (!Options.CommitGate(Name, F, Reason) && Reason.empty())
          Reason = "verify_failed";
        if (!Reason.empty()) {
          Committed = false;
          F = std::move(Snapshot);
          if (Options.Quarantine)
            Options.Quarantine->insert(Name);
          if (Options.Rollbacks)
            Options.Rollbacks->push_back({Name, F.Name, Reason, ElapsedNs});
          if (Reg) {
            Reg->add("robust.rollbacks");
            Reg->add(std::string("robust.rollback.") + Name);
          }
          if (Options.Trace)
            Options.Trace->emit("robust", "pass.rollback", ElapsedNs, 0,
                                std::string(Name) + " in " + F.Name + ": " +
                                    Reason);
        }
      }
      if (Committed)
        Commit(Name, Delta, ElapsedNs);
      if (Options.PassCheck)
        Options.PassCheck(Name, F);
    };

    removeUnreachableBlocks(F);
    if (Options.PassCheck)
      Options.PassCheck("(entry)", F);
    if (Options.Level == OptLevel::O2) {
      RunChecked("simplify", simplifyFunction);
      RunChecked("local_cse", localCSE);
      RunChecked("simplify", simplifyFunction);
      RunChecked("reassociate", reassociateDisplacements);
      RunChecked("strength_reduce", strengthReduceIVs);
      RunChecked("simplify", simplifyFunction);
      RunChecked("licm", hoistLoopInvariants);
      RunChecked("simplify", simplifyFunction);
      RunChecked("fuse_addressing", fuseAddressing);
      // A production optimizer coalesces copies anyway; patterns 2 and 3
      // run in every optimized build so the baseline is honest.
      RunChecked("coalesce_copies", coalesceCopies);
      RunChecked("simplify", simplifyFunction);
      if (Options.Postprocess) {
        RunChecked("postprocess", peepholePostprocess);
        RunChecked("simplify", simplifyFunction);
      }
    } else if (Options.Level == OptLevel::Peephole) {
      // The degradation ladder's middle rung: only the KEEP_LIVE-safe
      // copy coalescing and cleanup, no disguising transformations.
      RunChecked("coalesce_copies", coalesceCopies);
      RunChecked("simplify", simplifyFunction);
    }
    RunChecked("insert_kills", insertKills);
    Total.accumulate(S);
  }

  if (Reg) {
    Reg->add("opt.total.ns", support::monotonicNowNs() - PipelineStartNs);
    Reg->add("opt.total.functions", M.Functions.size());
    for (const auto &E : Total.entries())
      Reg->add(std::string("opt.total.") + E.first, E.second);
  }
  return Total;
}

const std::string &gcsafe::opt::passRosterString() {
  // Must list every distinct pass the pipeline above can run, in O2
  // order (Peephole is a subset; insert_kills always runs last). Keep in
  // lockstep with the RunChecked sequence: changing one without the
  // other either misses a needed invalidation or forces a spurious one.
  static const std::string Roster = "simplify,local_cse,reassociate,"
                                    "strength_reduce,licm,fuse_addressing,"
                                    "coalesce_copies,postprocess,"
                                    "insert_kills";
  return Roster;
}
