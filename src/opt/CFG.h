//===- opt/CFG.h - CFG analyses for the optimizer --------------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow analyses over ir::Function: successors/predecessors,
/// reverse post-order, dominators, natural loops, def/use counting, and a
/// KEEP_LIVE-aware liveness analysis.
///
/// The liveness analysis implements the paper's KEEP_LIVE condition (2):
/// the base operand of a KeepLive "must be visible to the collector at all
/// points between the evaluation of the original KEEP_LIVE and the final
/// use" of its result. We realize this by treating every use of a KeepLive
/// destination as also a use of its base register (transitively through
/// chained KeepLives).
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_OPT_CFG_H
#define GCSAFE_OPT_CFG_H

#include "ir/IR.h"

#include <cstdint>
#include <vector>

namespace gcsafe {
namespace opt {

/// Successor block ids of a terminator.
void blockSuccessors(const ir::BasicBlock &B, std::vector<uint32_t> &Out);

/// Dense bitset over virtual registers.
class RegSet {
public:
  explicit RegSet(uint32_t NumRegs = 0) : Words((NumRegs + 63) / 64, 0) {}

  bool test(uint32_t R) const {
    return (Words[R / 64] >> (R % 64)) & 1;
  }
  void set(uint32_t R) { Words[R / 64] |= uint64_t(1) << (R % 64); }
  void clear(uint32_t R) { Words[R / 64] &= ~(uint64_t(1) << (R % 64)); }

  /// this |= RHS; returns true if anything changed.
  bool unionWith(const RegSet &RHS) {
    bool Changed = false;
    for (size_t I = 0; I < Words.size(); ++I) {
      uint64_t Old = Words[I];
      Words[I] |= RHS.Words[I];
      Changed = Changed || Words[I] != Old;
    }
    return Changed;
  }

  unsigned count() const;

  /// Calls \p Fn on every member in ascending order and leaves the set
  /// empty, so one set can be reused without a scan of every register.
  template <typename Callable> void drain(Callable Fn) {
    for (size_t I = 0; I < Words.size(); ++I) {
      uint64_t W = Words[I];
      Words[I] = 0;
      for (; W; W &= W - 1)
        Fn(static_cast<uint32_t>(I * 64 + __builtin_ctzll(W)));
    }
  }

private:
  std::vector<uint64_t> Words;
};

/// Per-function CFG information.
class CFGInfo {
public:
  explicit CFGInfo(const ir::Function &F);

  const std::vector<std::vector<uint32_t>> &successors() const {
    return Succs;
  }
  const std::vector<std::vector<uint32_t>> &predecessors() const {
    return Preds;
  }
  /// Reverse post-order over reachable blocks.
  const std::vector<uint32_t> &rpo() const { return RPO; }
  bool isReachable(uint32_t B) const { return Reachable[B]; }

  /// Immediate dominator of each block (header of idom tree); entry's idom
  /// is itself; unreachable blocks map to ~0u.
  const std::vector<uint32_t> &idom() const { return IDom; }
  bool dominates(uint32_t A, uint32_t B) const;

private:
  void computeDominators();

  const ir::Function &F;
  std::vector<std::vector<uint32_t>> Succs, Preds;
  std::vector<uint32_t> RPO;
  std::vector<uint32_t> RPOIndex;
  std::vector<bool> Reachable;
  std::vector<uint32_t> IDom;
};

/// A natural loop.
struct LoopInfo {
  uint32_t Header = 0;
  uint32_t Preheader = ~0u; ///< Unique out-of-loop predecessor, or ~0u.
  std::vector<uint32_t> Blocks; ///< Includes the header.

  bool contains(uint32_t B) const {
    for (uint32_t LB : Blocks)
      if (LB == B)
        return true;
    return false;
  }
};

/// Finds natural loops (one per back edge; loops sharing a header are
/// merged).
std::vector<LoopInfo> findLoops(const ir::Function &F, const CFGInfo &CFG);

/// Def and use counts per virtual register.
struct DefUseCounts {
  std::vector<uint32_t> Defs;
  std::vector<uint32_t> Uses;
};
DefUseCounts countDefsUses(const ir::Function &F);

/// Calls \p Fn for every register the instruction reads.
template <typename Callable>
void forEachUse(const ir::Instruction &I, Callable Fn) {
  if (I.Op == ir::Opcode::Kill)
    return; // kills are lifetime markers, not uses
  for (const ir::Value *V : {&I.A, &I.B, &I.C})
    if (V->isReg())
      Fn(V->Reg);
  for (const ir::Value &V : I.Args)
    if (V.isReg())
      Fn(V.Reg);
}

/// Per-function liveness with the KEEP_LIVE base extension.
class Liveness {
public:
  Liveness(const ir::Function &F, const CFGInfo &CFG);

  const RegSet &liveIn(uint32_t B) const { return LiveIn[B]; }
  const RegSet &liveOut(uint32_t B) const { return LiveOut[B]; }

  /// Adds \p R and any KEEP_LIVE bases it transitively pins to \p S.
  void expandUse(uint32_t R, RegSet &S) const;

  /// The KEEP_LIVE bases pinned by register \p R (empty if R is not a
  /// KeepLive destination). Exposed for the static safety verifier.
  const std::vector<uint32_t> &keepLiveBases(uint32_t R) const {
    return KLBases[R];
  }

  /// Maximum number of simultaneously live registers at any point in block
  /// \p B (used by the register-pressure cost model).
  unsigned maxPressure(uint32_t B) const { return MaxPressure[B]; }

private:
  std::vector<RegSet> LiveIn, LiveOut;
  std::vector<unsigned> MaxPressure;
  /// KeepLive destination -> base registers. Several KeepLives may write
  /// the same destination along different paths; treating the mapping as a
  /// set (rather than last-writer-wins) keeps the extension conservative —
  /// every base any of them pins stays live wherever the destination is
  /// live.
  std::vector<std::vector<uint32_t>> KLBases;
};

} // namespace opt
} // namespace gcsafe

#endif // GCSAFE_OPT_CFG_H
