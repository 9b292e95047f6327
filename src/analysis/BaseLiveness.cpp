//===- analysis/BaseLiveness.cpp ------------------------------*- C++ -*-===//

#include "analysis/BaseLiveness.h"

#include <algorithm>

using namespace gcsafe;
using namespace gcsafe::analysis;
using namespace gcsafe::ir;
using namespace gcsafe::opt;

namespace {

void setBit(uint64_t *Words, uint32_t I) {
  Words[I / 64] |= uint64_t(1) << (I % 64);
}

void clearBit(uint64_t *Words, uint32_t I) {
  Words[I / 64] &= ~(uint64_t(1) << (I % 64));
}

/// Into |= From over \p N words; returns true on change.
bool unionInto(uint64_t *Into, const uint64_t *From, uint32_t N) {
  uint64_t Grown = 0;
  for (uint32_t W = 0; W < N; ++W) {
    Grown |= From[W] & ~Into[W];
    Into[W] |= From[W];
  }
  return Grown != 0;
}

/// True when \p I is a KeepLive whose register base differs from its
/// destination: the only instruction that makes a register derived.
bool pinsBase(const Instruction &I) {
  return I.Op == Opcode::KeepLive && I.Dst != NoReg && I.B.isReg() &&
         I.B.Reg != I.Dst;
}

/// Steps live \p Words backward across \p I: In = (Out \ def) ∪ uses.
void stepBack(const Instruction &I, uint64_t *Words) {
  if (I.Dst != NoReg)
    clearBit(Words, I.Dst);
  forEachUse(I, [&](uint32_t R) { setBit(Words, R); });
}

} // namespace

//===----------------------------------------------------------------------===//
// BaseFacts
//===----------------------------------------------------------------------===//

bool BaseFacts::empty() const {
  return std::all_of(Bits.begin(), Bits.end(),
                     [](uint64_t W) { return W == 0; });
}

bool BaseFacts::pinned(uint32_t Derived, uint32_t Base) const {
  if (!Owner || Derived >= Owner->CarrierOf.size() || !Owner->isBase(Base))
    return false;
  uint32_t C = Owner->CarrierOf[Derived];
  return C != BaseLiveness::None &&
         BaseLiveness::testBit(row(C), Owner->BaseOf[Base]);
}

std::vector<uint32_t> BaseFacts::bases(uint32_t Derived) const {
  std::vector<uint32_t> Out;
  if (!Owner)
    return Out;
  for (uint32_t R = 0; R < Owner->BaseOf.size(); ++R)
    if (pinned(Derived, R))
      Out.push_back(R);
  return Out;
}

//===----------------------------------------------------------------------===//
// BaseLiveness
//===----------------------------------------------------------------------===//

BaseLiveness::BaseLiveness(const Function &FIn, const CFGInfo &CFGIn)
    : F(FIn), CFG(CFGIn) {
  computeLiveness();
  numberRegisters();
  if (Carriers.empty())
    return; // no KeepLive with a base: every fact is ⊥
  computeFacts();
  computeContract();
}

void BaseLiveness::computeLiveness() {
  size_t N = F.Blocks.size();
  RegWords = (F.NumRegs + 63) / 64;
  LiveIn.assign(N * RegWords, 0);
  LiveOut.assign(N * RegWords, 0);

  // Summarize each block as In = Gen ∪ (Out \ Def), walking it backward
  // once; the fixpoint then works on whole words.
  std::vector<uint64_t> Gen(N * RegWords, 0), Def(N * RegWords, 0);
  for (uint32_t B = 0; B < N; ++B) {
    uint64_t *G = Gen.data() + B * RegWords;
    uint64_t *D = Def.data() + B * RegWords;
    const auto &Insts = F.Blocks[B].Insts;
    for (auto It = Insts.rbegin(); It != Insts.rend(); ++It) {
      if (It->Dst != NoReg)
        setBit(D, It->Dst);
      stepBack(*It, G);
    }
  }

  std::vector<uint64_t> Out(RegWords);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto It = CFG.rpo().rbegin(); It != CFG.rpo().rend(); ++It) {
      uint32_t B = *It;
      std::fill(Out.begin(), Out.end(), 0);
      for (uint32_t S : CFG.successors()[B])
        unionInto(Out.data(), LiveIn.data() + S * RegWords, RegWords);
      uint64_t *In = LiveIn.data() + B * RegWords;
      const uint64_t *G = Gen.data() + B * RegWords;
      const uint64_t *D = Def.data() + B * RegWords;
      uint64_t Grown = 0;
      for (uint32_t W = 0; W < RegWords; ++W) {
        uint64_t New = G[W] | (Out[W] & ~D[W]);
        Grown |= New & ~In[W];
        In[W] |= New;
      }
      bool OutChanged =
          unionInto(LiveOut.data() + B * RegWords, Out.data(), RegWords);
      Changed = Changed || Grown != 0 || OutChanged;
    }
  }
}

void BaseLiveness::numberRegisters() {
  CarrierOf.assign(F.NumRegs, None);
  BaseOf.assign(F.NumRegs, None);

  // Carriers are the KeepLive destinations and, transitively, the
  // destinations of Movs from carriers; bases the KeepLive base operands.
  std::vector<bool> IsCarrier(F.NumRegs, false);
  std::vector<const Instruction *> Movs;
  bool Seeded = false;
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Insts) {
      if (pinsBase(I)) {
        IsCarrier[I.Dst] = true;
        BaseOf[I.B.Reg] = 0;
        Seeded = true;
      } else if (I.Op == Opcode::Mov && I.Dst != NoReg && I.A.isReg()) {
        Movs.push_back(&I);
      }
    }
  if (!Seeded)
    return;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const Instruction *I : Movs)
      if (IsCarrier[I->A.Reg] && !IsCarrier[I->Dst]) {
        IsCarrier[I->Dst] = true;
        Changed = true;
      }
  }

  for (uint32_t R = 0; R < F.NumRegs; ++R) {
    if (IsCarrier[R]) {
      CarrierOf[R] = static_cast<uint32_t>(Carriers.size());
      Carriers.push_back(R);
    }
    if (BaseOf[R] != None)
      BaseOf[R] = NumBases++;
  }
  RowWords = (NumBases + 63) / 64;
  MatrixWords = static_cast<uint32_t>(Carriers.size()) * RowWords;
}

void BaseLiveness::computeFacts() {
  // Forward derived-pointer facts to a fixpoint (sets only grow).
  FactsIn.assign(F.Blocks.size() * MatrixWords, 0);
  BaseFacts State;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B : CFG.rpo()) {
      factsIn(B, State);
      for (const Instruction &I : F.Blocks[B].Insts)
        transfer(I, State);
      for (uint32_t S : CFG.successors()[B])
        Changed = unionInto(FactsIn.data() + S * MatrixWords,
                            State.Bits.data(), MatrixWords) ||
                  Changed;
    }
  }
}

void BaseLiveness::computeContract() {
  // Flow-insensitive contract closure, mirroring opt::Liveness::expandUse:
  // Reach(d) = ∪ over KeepLive edges d -> b of {b} ∪ Reach(b).
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Insts)
      if (pinsBase(I))
        Edges.emplace_back(I.Dst, I.B.Reg);
  Contract.assign(MatrixWords, 0);
  for (const auto &[D, Base] : Edges)
    setBit(Contract.data() + CarrierOf[D] * RowWords, BaseOf[Base]);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &[D, Base] : Edges)
      if (CarrierOf[Base] != None)
        Changed = unionInto(Contract.data() + CarrierOf[D] * RowWords,
                            Contract.data() + CarrierOf[Base] * RowWords,
                            RowWords) ||
                  Changed;
  }
  for (uint32_t C = 0; C < Carriers.size(); ++C)
    if (isBase(Carriers[C]))
      clearBit(Contract.data() + C * RowWords, BaseOf[Carriers[C]]);
}

void BaseLiveness::factsIn(uint32_t B, BaseFacts &Out) const {
  Out.Owner = this;
  Out.RowWords = RowWords;
  if (FactsIn.empty()) {
    Out.Bits.clear();
    return;
  }
  Out.Bits.assign(FactsIn.begin() + B * MatrixWords,
                  FactsIn.begin() + (B + 1) * MatrixWords);
}

void BaseLiveness::transfer(const Instruction &I, BaseFacts &Facts) const {
  // Kills are lifetime markers (facts about dead registers are inert), and
  // a register that can never carry a fact has no row to update.
  if (I.Op == Opcode::Kill || I.Dst == NoReg || CarrierOf[I.Dst] == None)
    return;
  uint64_t *Row = Facts.row(CarrierOf[I.Dst]);
  uint32_t Self = BaseOf[I.Dst];

  if (pinsBase(I)) {
    uint32_t From = CarrierOf[I.B.Reg];
    if (From != None)
      std::copy_n(Facts.row(From), RowWords, Row); // chained KLs
    else
      std::fill_n(Row, RowWords, 0);
    setBit(Row, BaseOf[I.B.Reg]);
    if (Self != None)
      clearBit(Row, Self);
    return;
  }

  if (I.Op == Opcode::Mov && I.A.isReg() && CarrierOf[I.A.Reg] != None) {
    uint32_t From = CarrierOf[I.A.Reg];
    if (From != CarrierOf[I.Dst])
      std::copy_n(Facts.row(From), RowWords, Row);
    if (Self != None)
      clearBit(Row, Self); // writeback of the ++/-- expansion self-anchors
    return;
  }

  // Any other definition produces a fresh value; so does a KeepLive with
  // no base or the self-anchored specialized form.
  std::fill_n(Row, RowWords, 0);
}

void BaseLiveness::liveAfterPerInstruction(uint32_t B,
                                           LiveAfterSets &Out) const {
  const auto &Insts = F.Blocks[B].Insts;
  Out.Words = RegWords;
  Out.Count = Insts.size();
  Out.Bits.resize(Insts.size() * RegWords);
  if (Insts.empty())
    return;
  // Set i-1 is set i stepped back across Insts[i].
  uint64_t *Last = Out.Bits.data() + (Insts.size() - 1) * RegWords;
  std::copy_n(LiveOut.data() + B * RegWords, RegWords, Last);
  for (size_t I = Insts.size() - 1; I > 0; --I) {
    uint64_t *Prev = Out.Bits.data() + (I - 1) * RegWords;
    std::copy_n(Prev + RegWords, RegWords, Prev);
    stepBack(Insts[I], Prev);
  }
}

bool BaseLiveness::inKillContract(uint32_t Derived, uint32_t Base) const {
  if (Derived >= CarrierOf.size() || !isBase(Base))
    return false;
  uint32_t C = CarrierOf[Derived];
  return C != None && testBit(Contract.data() + C * RowWords, BaseOf[Base]);
}

unsigned BaseLiveness::derivedCount() const {
  auto NonEmpty = [&](const uint64_t *Row) {
    return std::any_of(Row, Row + RowWords, [](uint64_t W) { return W; });
  };
  unsigned N = 0;
  for (uint32_t C = 0; C < Carriers.size(); ++C) {
    bool Derived = NonEmpty(Contract.data() + C * RowWords);
    for (uint32_t B = 0; !Derived && B < F.Blocks.size(); ++B)
      Derived = NonEmpty(FactsIn.data() + B * MatrixWords + C * RowWords);
    N += Derived;
  }
  return N;
}
