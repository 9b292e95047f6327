//===- opt/CFG.cpp --------------------------------------------*- C++ -*-===//

#include "opt/CFG.h"

#include <algorithm>
#include <cassert>

using namespace gcsafe;
using namespace gcsafe::opt;
using namespace gcsafe::ir;

void gcsafe::opt::blockSuccessors(const BasicBlock &B,
                                  std::vector<uint32_t> &Out) {
  Out.clear();
  if (B.Insts.empty())
    return;
  const Instruction &T = B.Insts.back();
  switch (T.Op) {
  case Opcode::Jmp:
    Out.push_back(T.Blk1);
    return;
  case Opcode::Br:
    Out.push_back(T.Blk1);
    if (T.Blk2 != T.Blk1)
      Out.push_back(T.Blk2);
    return;
  default:
    return; // Ret or fallthrough-less block
  }
}

unsigned RegSet::count() const {
  unsigned N = 0;
  for (uint64_t W : Words)
    N += static_cast<unsigned>(__builtin_popcountll(W));
  return N;
}

//===----------------------------------------------------------------------===//
// CFGInfo
//===----------------------------------------------------------------------===//

CFGInfo::CFGInfo(const Function &FIn) : F(FIn) {
  size_t N = F.Blocks.size();
  Succs.resize(N);
  Preds.resize(N);
  Reachable.assign(N, false);
  RPOIndex.assign(N, ~0u);
  IDom.assign(N, ~0u);

  for (size_t B = 0; B < N; ++B)
    blockSuccessors(F.Blocks[B], Succs[B]);

  // Post-order DFS from entry (block 0).
  std::vector<uint32_t> PostOrder;
  std::vector<std::pair<uint32_t, size_t>> Stack;
  std::vector<bool> Visited(N, false);
  if (N != 0) {
    Stack.emplace_back(0, 0);
    Visited[0] = true;
    while (!Stack.empty()) {
      auto &[B, NextSucc] = Stack.back();
      if (NextSucc < Succs[B].size()) {
        uint32_t S = Succs[B][NextSucc++];
        if (!Visited[S]) {
          Visited[S] = true;
          Stack.emplace_back(S, 0);
        }
      } else {
        PostOrder.push_back(B);
        Stack.pop_back();
      }
    }
  }
  RPO.assign(PostOrder.rbegin(), PostOrder.rend());
  for (size_t I = 0; I < RPO.size(); ++I) {
    RPOIndex[RPO[I]] = static_cast<uint32_t>(I);
    Reachable[RPO[I]] = true;
  }
  for (size_t B = 0; B < N; ++B)
    if (Reachable[B])
      for (uint32_t S : Succs[B])
        Preds[S].push_back(static_cast<uint32_t>(B));

  computeDominators();
}

void CFGInfo::computeDominators() {
  // Cooper/Harvey/Kennedy iterative algorithm over RPO.
  if (RPO.empty())
    return;
  IDom[RPO[0]] = RPO[0];
  bool Changed = true;
  auto Intersect = [&](uint32_t A, uint32_t B) {
    while (A != B) {
      while (RPOIndex[A] > RPOIndex[B])
        A = IDom[A];
      while (RPOIndex[B] > RPOIndex[A])
        B = IDom[B];
    }
    return A;
  };
  while (Changed) {
    Changed = false;
    for (size_t I = 1; I < RPO.size(); ++I) {
      uint32_t B = RPO[I];
      uint32_t NewIDom = ~0u;
      for (uint32_t P : Preds[B]) {
        if (IDom[P] == ~0u)
          continue;
        NewIDom = NewIDom == ~0u ? P : Intersect(P, NewIDom);
      }
      if (NewIDom != ~0u && IDom[B] != NewIDom) {
        IDom[B] = NewIDom;
        Changed = true;
      }
    }
  }
}

bool CFGInfo::dominates(uint32_t A, uint32_t B) const {
  if (!Reachable[A] || !Reachable[B])
    return false;
  uint32_t Entry = RPO.front();
  while (true) {
    if (B == A)
      return true;
    if (B == Entry)
      return A == Entry;
    B = IDom[B];
    if (B == ~0u)
      return false;
  }
}

//===----------------------------------------------------------------------===//
// Loops
//===----------------------------------------------------------------------===//

std::vector<LoopInfo> gcsafe::opt::findLoops(const Function &F,
                                             const CFGInfo &CFG) {
  std::vector<LoopInfo> Loops;
  size_t N = F.Blocks.size();

  // Collect back edges and group by header.
  std::vector<std::vector<uint32_t>> Latches(N);
  for (size_t B = 0; B < N; ++B) {
    if (!CFG.isReachable(static_cast<uint32_t>(B)))
      continue;
    for (uint32_t S : CFG.successors()[B])
      if (CFG.dominates(S, static_cast<uint32_t>(B)))
        Latches[S].push_back(static_cast<uint32_t>(B));
  }

  for (size_t H = 0; H < N; ++H) {
    if (Latches[H].empty())
      continue;
    LoopInfo Loop;
    Loop.Header = static_cast<uint32_t>(H);
    // Natural loop body: blocks that reach a latch without passing H.
    std::vector<bool> InLoop(N, false);
    InLoop[H] = true;
    std::vector<uint32_t> Work = Latches[H];
    for (uint32_t L : Work)
      InLoop[L] = true;
    while (!Work.empty()) {
      uint32_t B = Work.back();
      Work.pop_back();
      for (uint32_t P : CFG.predecessors()[B])
        if (!InLoop[P]) {
          InLoop[P] = true;
          Work.push_back(P);
        }
    }
    for (size_t B = 0; B < N; ++B)
      if (InLoop[B])
        Loop.Blocks.push_back(static_cast<uint32_t>(B));

    // Unique out-of-loop predecessor of the header = preheader.
    uint32_t Pre = ~0u;
    bool Unique = true;
    for (uint32_t P : CFG.predecessors()[Loop.Header]) {
      if (InLoop[P])
        continue;
      if (Pre != ~0u)
        Unique = false;
      Pre = P;
    }
    if (Unique && Pre != ~0u)
      Loop.Preheader = Pre;
    Loops.push_back(std::move(Loop));
  }
  return Loops;
}

//===----------------------------------------------------------------------===//
// Def/use counts
//===----------------------------------------------------------------------===//

DefUseCounts gcsafe::opt::countDefsUses(const Function &F) {
  DefUseCounts C;
  C.Defs.assign(F.NumRegs, 0);
  C.Uses.assign(F.NumRegs, 0);
  for (uint32_t P : F.ParamRegs)
    ++C.Defs[P]; // defined at entry
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Insts) {
      if (I.Dst != NoReg)
        ++C.Defs[I.Dst];
      forEachUse(I, [&](uint32_t R) { ++C.Uses[R]; });
    }
  return C;
}

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

Liveness::Liveness(const Function &F, const CFGInfo &CFG) {
  size_t N = F.Blocks.size();
  LiveIn.assign(N, RegSet(F.NumRegs));
  LiveOut.assign(N, RegSet(F.NumRegs));
  MaxPressure.assign(N, 0);
  KLBases.assign(F.NumRegs, {});

  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Insts)
      if (I.Op == Opcode::KeepLive && I.Dst != NoReg && I.B.isReg() &&
          I.B.Reg != I.Dst) {
        std::vector<uint32_t> &Bases = KLBases[I.Dst];
        if (std::find(Bases.begin(), Bases.end(), I.B.Reg) == Bases.end())
          Bases.push_back(I.B.Reg);
      }

  // Iterate backward dataflow to fixpoint.
  RegSet Empty(F.NumRegs), Out, In;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto It = CFG.rpo().rbegin(); It != CFG.rpo().rend(); ++It) {
      uint32_t B = *It;
      Out = Empty;
      for (uint32_t S : CFG.successors()[B])
        Out.unionWith(LiveIn[S]);
      In = Out;
      const auto &Insts = F.Blocks[B].Insts;
      for (auto IIt = Insts.rbegin(); IIt != Insts.rend(); ++IIt) {
        const Instruction &I = *IIt;
        if (I.Dst != NoReg)
          In.clear(I.Dst);
        forEachUse(I, [&](uint32_t R) { expandUse(R, In); });
      }
      bool InChanged = LiveIn[B].unionWith(In);
      bool OutChanged = LiveOut[B].unionWith(Out);
      Changed = Changed || InChanged || OutChanged;
    }
  }

  // Pressure: walk each block backward from LiveOut counting live regs.
  RegSet &Live = In;
  for (size_t B = 0; B < N; ++B) {
    Live = LiveOut[B];
    unsigned Max = Live.count();
    const auto &Insts = F.Blocks[B].Insts;
    for (auto IIt = Insts.rbegin(); IIt != Insts.rend(); ++IIt) {
      const Instruction &I = *IIt;
      if (I.Dst != NoReg)
        Live.clear(I.Dst);
      forEachUse(I, [&](uint32_t R) { expandUse(R, Live); });
      unsigned C = Live.count();
      if (C > Max)
        Max = C;
    }
    MaxPressure[B] = Max;
  }
}

void Liveness::expandUse(uint32_t R, RegSet &S) const {
  // Follow the KEEP_LIVE base chains: wherever a KeepLive destination is
  // live, all its bases are live too. Terminates because sets only grow;
  // the common single-base case stays iterative.
  while (R != NoReg && !S.test(R)) {
    S.set(R);
    const std::vector<uint32_t> &Bases = KLBases[R];
    if (Bases.empty())
      return;
    for (size_t I = 1; I < Bases.size(); ++I)
      expandUse(Bases[I], S);
    R = Bases[0];
  }
}
