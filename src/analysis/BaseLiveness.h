//===- analysis/BaseLiveness.h - Derived-pointer base dataflow -*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dataflow substrate of the static GC-safety verifier
/// (docs/ANALYSIS.md). Two cooperating analyses over one ir::Function:
///
/// *Plain liveness* — classic backward liveness WITHOUT the KEEP_LIVE base
/// extension that opt::Liveness applies. The verifier needs the unextended
/// facts: "will this register's current value be read again?" is the
/// question, and the extension is exactly the property under test.
///
/// *Derived-pointer facts* — a forward analysis computing, per program
/// point, which registers hold KEEP_LIVE-derived pointers and the set of
/// base registers each one depends on. The lattice per register is a set
/// of bases (bottom = not derived); the join at block merges is set union
/// (a register that is derived-from-b along any inflowing path must be
/// treated as pinned to b). Transfer functions:
///
///   KeepLive d, a, b   facts(d) = {b} ∪ facts(b)    (chained KEEP_LIVEs)
///   Mov d, s           facts(d) = facts(s) \ {d}    (copies carry the
///                      derivation; the writeback `p = KEEP_LIVE(p+1, p)`
///                      of the specialized ++/-- expansion self-anchors,
///                      hence the \ {d})
///   any other def of d facts(d) = ⊥                 (fresh value)
///
/// The distinction between a fact that the kill-insertion contract honors
/// (d is literally a KeepLive destination, so opt::Liveness::expandUse
/// extends its bases' live ranges) and one carried through copies matters
/// to the verifier's diagnostics; inKillContract() exposes it.
///
/// Representation. Only two small register sets can appear in a fact:
/// *carriers* (KeepLive destinations with a register base, plus their
/// transitive Mov copies) and *bases* (KeepLive base operands). Both are
/// numbered densely in ascending register order, and the facts at a point
/// are a carriers x bases bit matrix (row c = the bases carrier c is
/// pinned to; an empty row is ⊥). Liveness is a bit vector per block.
/// Every buffer is sized once per function; a function without KeepLives
/// has no carriers and skips the forward analysis.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_ANALYSIS_BASELIVENESS_H
#define GCSAFE_ANALYSIS_BASELIVENESS_H

#include "ir/IR.h"
#include "opt/CFG.h"

#include <cstdint>
#include <vector>

namespace gcsafe {
namespace analysis {

class BaseLiveness;

/// Derived-pointer facts at one program point: the carriers x bases bit
/// matrix of the BaseLiveness that filled it.
class BaseFacts {
public:
  /// True when no register carries a fact.
  bool empty() const;
  /// True when register \p Derived is pinned to base register \p Base.
  bool pinned(uint32_t Derived, uint32_t Base) const;
  /// The bases \p Derived is pinned to, ascending (empty = not derived).
  std::vector<uint32_t> bases(uint32_t Derived) const;

private:
  friend class BaseLiveness;
  uint64_t *row(uint32_t Carrier) {
    return Bits.data() + Carrier * RowWords;
  }
  const uint64_t *row(uint32_t Carrier) const {
    return Bits.data() + Carrier * RowWords;
  }

  const BaseLiveness *Owner = nullptr;
  uint32_t RowWords = 0;
  std::vector<uint64_t> Bits;
};

/// The plain live-after sets of one block's instructions, in one flat
/// buffer that is reused from block to block.
class LiveAfterSets {
public:
  /// True when \p Reg is plain-live just after instruction \p Index.
  bool test(uint32_t Index, uint32_t Reg) const {
    return (Bits[Index * Words + Reg / 64] >> (Reg % 64)) & 1;
  }
  /// Number of instructions of the block.
  size_t size() const { return Count; }

private:
  friend class BaseLiveness;
  std::vector<uint64_t> Bits;
  uint32_t Words = 0;
  size_t Count = 0;
};

class BaseLiveness {
public:
  BaseLiveness(const ir::Function &F, const opt::CFGInfo &CFG);

  /// Plain (unextended) liveness of \p Reg at block boundaries.
  bool liveIn(uint32_t B, uint32_t Reg) const {
    return testBit(LiveIn.data() + B * RegWords, Reg);
  }
  bool liveOut(uint32_t B, uint32_t Reg) const {
    return testBit(LiveOut.data() + B * RegWords, Reg);
  }

  /// Copies the derived-pointer facts at the entry of block \p B into
  /// \p Out, reusing its storage.
  void factsIn(uint32_t B, BaseFacts &Out) const;

  /// Steps \p Facts forward across one instruction (the transfer function
  /// above). Exposed so the verifier can walk a block instruction by
  /// instruction from factsIn().
  void transfer(const ir::Instruction &I, BaseFacts &Facts) const;

  /// Fills \p Out with the plain live-after set of each instruction in
  /// block \p B (set i = live just after Insts[i]).
  void liveAfterPerInstruction(uint32_t B, LiveAfterSets &Out) const;

  /// True when register \p Derived is a KeepLive destination whose
  /// transitive base closure (the one opt::Liveness::expandUse honors when
  /// kills are placed) contains \p Base. Facts carried only through copies
  /// are outside the kill-insertion contract.
  bool inKillContract(uint32_t Derived, uint32_t Base) const;

  /// The registers that can carry a fact, ascending.
  const std::vector<uint32_t> &carriers() const { return Carriers; }
  /// True when \p Reg can be a base (it is some KeepLive's base operand).
  bool isBase(uint32_t Reg) const {
    return Reg < BaseOf.size() && BaseOf[Reg] != None;
  }

  /// Number of distinct derived registers that ever carry a fact.
  unsigned derivedCount() const;

private:
  friend class BaseFacts;
  static constexpr uint32_t None = ~0u;

  static bool testBit(const uint64_t *Words, uint32_t I) {
    return (Words[I / 64] >> (I % 64)) & 1;
  }

  void numberRegisters();
  void computeLiveness();
  void computeFacts();
  void computeContract();

  const ir::Function &F;
  const opt::CFGInfo &CFG;

  /// Plain liveness: one RegWords-word vector per block.
  uint32_t RegWords = 0;
  std::vector<uint64_t> LiveIn, LiveOut;

  /// Register -> carrier / base index (None when it is neither), and the
  /// inverse of the carrier numbering.
  std::vector<uint32_t> CarrierOf, BaseOf, Carriers;
  uint32_t NumBases = 0;
  /// Words per carrier row, and words per matrix.
  uint32_t RowWords = 0, MatrixWords = 0;

  /// Facts at each block's entry: one matrix per block.
  std::vector<uint64_t> FactsIn;
  /// Flow-insensitive KeepLive closure, one row per carrier: every base
  /// expandUse reaches from the carrier, minus the carrier itself. Empty
  /// for carriers that are not KeepLive destinations.
  std::vector<uint64_t> Contract;
};

} // namespace analysis
} // namespace gcsafe

#endif // GCSAFE_ANALYSIS_BASELIVENESS_H
