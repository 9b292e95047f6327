//===- vm/VM.cpp ----------------------------------------------*- C++ -*-===//

#include "vm/VM.h"

#include "opt/CFG.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>

using namespace gcsafe;
using namespace gcsafe::vm;
using namespace gcsafe::ir;

namespace {
double bitsToDouble(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}
uint64_t doubleToBits(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}
constexpr int64_t FuncPtrBase = 0x10000;

/// Register-window slots below a frame's register 0: operands that are
/// immediates or absent read the zero slot (and add their inline
/// immediate); a result with no destination register lands in the sink.
/// Neither slot is a GC root.
constexpr int32_t ZeroSlot = -2;
constexpr int32_t SinkSlot = -1;
constexpr uint64_t WindowSlots = 2;

/// A frame without locals takes no VM stack, so register windows are
/// bounded by frame depth instead: one frame per 16 bytes of VM stack,
/// the least a frame with locals takes.
constexpr uint64_t MinFrameBytes = 16;

constexpr uint64_t Never = std::numeric_limits<uint64_t>::max();

/// Operation of a decoded instruction: the IR opcode, with loads and
/// stores split by width and calls by callee kind.
enum class DOp : uint8_t {
  Nop, Mov,
  Add, Sub, Mul, DivS, DivU, RemS, RemU,
  And, Or, Xor, Shl, ShrA, ShrL, Neg, Not,
  FAdd, FSub, FMul, FDiv, FNeg,
  CmpEq, CmpNe, CmpLtS, CmpLeS, CmpGtS, CmpGeS,
  CmpLtU, CmpLeU, CmpGtU, CmpGeU,
  FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe,
  SExt, ZExt, SIToFP, FPToSI,
  // Load/LoadIdx at A + B (B is the zero slot for Load), by width.
  Load1S, Load1U, Load2S, Load2U, Load4S, Load4U, Load8,
  // Store/StoreIdx of C at A + B, by width.
  Store1, Store2, Store4, Store8,
  AddrLocal,
  Jmp, Br, Ret,
  CallDirect, CallIndirect, CallBuiltin,
  KeepLive, CheckSameObj, Kill,
  /// Not an IR instruction: reached by falling off the end of a block
  /// that has no terminator.
  FellOff,
};
} // namespace

//===----------------------------------------------------------------------===//
// Decoded form
//===----------------------------------------------------------------------===//

/// One decoded instruction. Every operand is a register-window index plus
/// an inline immediate, and reads as Regs[Idx] + Imm: a register operand
/// has Imm 0, an immediate (or absent) operand indexes the zero slot.
struct VM::DecodedInst {
  struct BranchInfo {
    uint32_t Target[2];  ///< Flat PCs: taken (Jmp, Br true), Br false.
    uint32_t Penalty[2]; ///< Spill cycles charged on entering each target.
  };
  struct CallInfo {
    uint32_t ArgBegin; ///< First operand in DecodedFunction::Args.
    uint32_t ArgCount;
    int32_t Callee;    ///< CallDirect: function index.
    uint32_t Flat;     ///< Flat IR index: the allocation-site id.
  };

  DOp Code = DOp::Nop;
  Opcode IrOp = Opcode::Nop; ///< For cycle-sample kinds.
  uint8_t Size = 8;          ///< SExt/ZExt width in bytes.
  Builtin Fn = Builtin::None; ///< CallBuiltin: which builtin.
  uint32_t Cycles = 0;       ///< Modeled cost, charged before execution.
  int32_t Dst = SinkSlot, A = ZeroSlot, B = ZeroSlot, C = ZeroSlot;
  uint64_t ImmA = 0, ImmB = 0, ImmC = 0;
  union {
    BranchInfo Br;
    CallInfo Call;
    uint64_t Offset; ///< AddrLocal frame offset; FellOff block index.
  };

  DecodedInst() : Offset(0) {}
};

struct VM::DecodedFunction {
  struct Operand {
    int32_t Idx;
    uint64_t Imm;
  };

  const Function *IR = nullptr;
  uint32_t EntryPenalty = 0; ///< Spill cycles of entering block 0.
  std::vector<DecodedInst> Code;
  std::vector<Operand> Args; ///< Call arguments, by CallInfo::ArgBegin.
};

namespace {
/// Modeled cycles of one IR instruction under \p MM.
unsigned instructionCycles(const Instruction &I, const MachineModel &MM,
                           bool KeepLiveCostsCall) {
  switch (I.Op) {
  case Opcode::KeepLive: // empty assembly sequence (or a real call in the
                         // naive implementation)
    return KeepLiveCostsCall ? MM.CyclesCall : 0;
  case Opcode::Kill:
  case Opcode::Nop:
    return 0;
  case Opcode::Mov:
    return MM.CyclesMov;
  case Opcode::Mul:
    return MM.CyclesMul;
  case Opcode::DivS: case Opcode::DivU:
  case Opcode::RemS: case Opcode::RemU:
    return MM.CyclesDiv;
  case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul: case Opcode::FDiv:
  case Opcode::FNeg:
  case Opcode::FCmpEq: case Opcode::FCmpNe: case Opcode::FCmpLt:
  case Opcode::FCmpLe: case Opcode::FCmpGt: case Opcode::FCmpGe:
  case Opcode::SIToFP: case Opcode::FPToSI:
    return MM.CyclesFloat;
  case Opcode::Load:
  case Opcode::LoadIdx: // the fused addition is free
    return MM.CyclesLoad;
  case Opcode::Store:
  case Opcode::StoreIdx:
    return MM.CyclesStore;
  case Opcode::Jmp:
  case Opcode::Br:
    return MM.CyclesBranch;
  case Opcode::Ret:
  case Opcode::Call:
    return MM.CyclesCall;
  case Opcode::CheckSameObj:
    return MM.CyclesCheck;
  default:
    return MM.CyclesAlu;
  }
}

DOp loadOp(uint8_t Size, bool Signed) {
  switch (Size) {
  case 1: return Signed ? DOp::Load1S : DOp::Load1U;
  case 2: return Signed ? DOp::Load2S : DOp::Load2U;
  case 4: return Signed ? DOp::Load4S : DOp::Load4U;
  default: return DOp::Load8;
  }
}

DOp storeOp(uint8_t Size) {
  switch (Size) {
  case 1: return DOp::Store1;
  case 2: return DOp::Store2;
  case 4: return DOp::Store4;
  default: return DOp::Store8;
  }
}

/// The decoded operation of the opcodes that map one to one.
DOp simpleOp(Opcode Op) {
  switch (Op) {
#define GCSAFE_SAME_OP(X) case Opcode::X: return DOp::X;
    GCSAFE_SAME_OP(Nop) GCSAFE_SAME_OP(Mov)
    GCSAFE_SAME_OP(Add) GCSAFE_SAME_OP(Sub) GCSAFE_SAME_OP(Mul)
    GCSAFE_SAME_OP(DivS) GCSAFE_SAME_OP(DivU) GCSAFE_SAME_OP(RemS)
    GCSAFE_SAME_OP(RemU) GCSAFE_SAME_OP(And) GCSAFE_SAME_OP(Or)
    GCSAFE_SAME_OP(Xor) GCSAFE_SAME_OP(Shl) GCSAFE_SAME_OP(ShrA)
    GCSAFE_SAME_OP(ShrL) GCSAFE_SAME_OP(Neg) GCSAFE_SAME_OP(Not)
    GCSAFE_SAME_OP(FAdd) GCSAFE_SAME_OP(FSub) GCSAFE_SAME_OP(FMul)
    GCSAFE_SAME_OP(FDiv) GCSAFE_SAME_OP(FNeg)
    GCSAFE_SAME_OP(CmpEq) GCSAFE_SAME_OP(CmpNe) GCSAFE_SAME_OP(CmpLtS)
    GCSAFE_SAME_OP(CmpLeS) GCSAFE_SAME_OP(CmpGtS) GCSAFE_SAME_OP(CmpGeS)
    GCSAFE_SAME_OP(CmpLtU) GCSAFE_SAME_OP(CmpLeU) GCSAFE_SAME_OP(CmpGtU)
    GCSAFE_SAME_OP(CmpGeU) GCSAFE_SAME_OP(FCmpEq) GCSAFE_SAME_OP(FCmpNe)
    GCSAFE_SAME_OP(FCmpLt) GCSAFE_SAME_OP(FCmpLe) GCSAFE_SAME_OP(FCmpGt)
    GCSAFE_SAME_OP(FCmpGe) GCSAFE_SAME_OP(SExt) GCSAFE_SAME_OP(ZExt)
    GCSAFE_SAME_OP(SIToFP) GCSAFE_SAME_OP(FPToSI)
    GCSAFE_SAME_OP(AddrLocal) GCSAFE_SAME_OP(Ret)
    GCSAFE_SAME_OP(KeepLive) GCSAFE_SAME_OP(CheckSameObj)
#undef GCSAFE_SAME_OP
  default:
    assert(false && "opcode needs its own decoding");
    return DOp::Nop;
  }
}
} // namespace

VM::VM(const Module &MIn, VMOptions Options) : M(MIn), Opts(std::move(Options)) {
  gc::CollectorConfig GC;
  GC.AllocCountTrigger = Opts.GcAllocTrigger;
  GC.PoisonOnFree = true;
  GC.AllInteriorPointers = Opts.AllInteriorPointers;
  GC.EventLimit = Opts.GcEventLimit;
  GC.Trace = Opts.Trace;
  GC.Oom = Opts.GcOomPolicy;
  GC.OomRetries = Opts.GcOomRetries;
  GC.MaxHeapPages = Opts.GcMaxHeapPages;
  GC.AuditEachCollection = Opts.GcAuditEachCollection;
  GC.Faults = Opts.Faults;
  GC.CollectDeadlineNs = Opts.GcDeadlineNs;
  GC.Profile = Opts.Profile ? &Opts.Profile->Heap : nullptr;
  C = std::make_unique<gc::Collector>(GC);
  Check = std::make_unique<gc::PointerCheck>(*C);

  Globals.assign(M.GlobalsSize ? M.GlobalsSize : 1, 0);
  for (const GlobalVar &G : M.Globals)
    if (!G.InitData.empty())
      std::memcpy(Globals.data() + G.Offset, G.InitData.data(),
                  G.InitData.size());
  Stack.assign(Opts.StackSize, 0);
  RegStack.assign(1024, 0);
  Decoded.resize(M.Functions.size());

  // GC-roots: "the machine stack, registers, and statically allocated
  // memory". Registers are scanned bottom frame first, each frame's in
  // ascending order: which reference marks an object first, and so the
  // false-retention candidates, depends on this order.
  C->addRootScanner([this](gc::RootVisitor &V) {
    V.visitRange(Globals.data(), Globals.data() + Globals.size());
    V.visitRange(Stack.data(), Stack.data() + StackTop);
    for (const Frame &Fr : Frames) {
      const uint64_t *Regs = RegStack.data() + Fr.RegBase + WindowSlots;
      V.visitRange(Regs, Regs + Fr.F->IR->NumRegs);
    }
  });
}

VM::~VM() = default;

void VM::fail(const std::string &Message) {
  if (!Halted) {
    Result.Ok = false;
    Result.Error = Message;
    Halted = true;
    EventAt = 0;
  }
}

const VM::DecodedFunction &VM::decoded(uint32_t Index) {
  if (!Decoded[Index])
    decode(Index);
  return *Decoded[Index];
}

void VM::decode(uint32_t Index) {
  const Function &F = M.Functions[Index];
  auto D = std::make_unique<DecodedFunction>();
  D->IR = &F;

  // Register-pressure spill penalty of entering each block.
  std::vector<uint32_t> Penalty(std::max<size_t>(F.Blocks.size(), 1), 0);
  if (!F.Blocks.empty()) {
    opt::CFGInfo CFG(F);
    opt::Liveness LV(F, CFG);
    for (uint32_t B = 0; B < F.Blocks.size(); ++B) {
      unsigned P = LV.maxPressure(B);
      Penalty[B] = P > Opts.Model.NumRegs
                       ? (P - Opts.Model.NumRegs) * Opts.Model.CyclesSpill
                       : 0;
    }
  }
  D->EntryPenalty = Penalty[0];

  // Flat layout: the blocks' instructions in order, plus a FellOff
  // sentinel after any block that does not end in a terminator. Verified IR
  // has none, so there a flat PC is the flat IR index.
  auto Terminated = [](const BasicBlock &B) {
    return !B.Insts.empty() && B.Insts.back().isTerminator();
  };
  std::vector<uint32_t> BlockPC(F.Blocks.size(), 0);
  uint32_t PC = 0;
  for (size_t B = 0; B < F.Blocks.size(); ++B) {
    BlockPC[B] = PC;
    PC += static_cast<uint32_t>(F.Blocks[B].Insts.size()) +
          (Terminated(F.Blocks[B]) ? 0 : 1);
  }

  auto Operand = [](const Value &V, int32_t &Idx, uint64_t &Imm) {
    Idx = ZeroSlot;
    Imm = 0;
    switch (V.Kind) {
    case Value::ValueKind::None:
      break;
    case Value::ValueKind::Reg:
      Idx = static_cast<int32_t>(V.Reg);
      break;
    case Value::ValueKind::Imm:
      Imm = static_cast<uint64_t>(V.Imm);
      break;
    case Value::ValueKind::FImm:
      Imm = doubleToBits(V.FImm);
      break;
    }
  };

  D->Code.reserve(PC ? PC : 1);
  uint32_t Flat = 0;
  for (size_t BI = 0; BI < F.Blocks.size(); ++BI) {
    const BasicBlock &B = F.Blocks[BI];
    for (const Instruction &I : B.Insts) {
      DecodedInst X;
      X.IrOp = I.Op;
      X.Size = I.Size;
      X.Cycles = instructionCycles(I, Opts.Model, Opts.KeepLiveCostsCall);
      X.Dst = I.Dst == NoReg ? SinkSlot : static_cast<int32_t>(I.Dst);
      Operand(I.A, X.A, X.ImmA);
      Operand(I.B, X.B, X.ImmB);
      Operand(I.C, X.C, X.ImmC);
      switch (I.Op) {
      case Opcode::Load:
        X.B = ZeroSlot;
        X.ImmB = 0;
        [[fallthrough]];
      case Opcode::LoadIdx:
        X.Code = loadOp(I.Size, I.SignedLoad);
        break;
      case Opcode::Store:
        // The stored value moves to C so both forms store C at A + B.
        X.C = X.B;
        X.ImmC = X.ImmB;
        X.B = ZeroSlot;
        X.ImmB = 0;
        [[fallthrough]];
      case Opcode::StoreIdx:
        X.Code = storeOp(I.Size);
        break;
      case Opcode::AddrLocal:
        X.Code = DOp::AddrLocal;
        X.Offset = static_cast<uint64_t>(I.Aux);
        break;
      case Opcode::AddrGlobal:
        // The globals area never moves: a constant address.
        X.Code = DOp::Mov;
        X.A = ZeroSlot;
        X.ImmA = reinterpret_cast<uint64_t>(Globals.data()) +
                 static_cast<uint64_t>(I.Aux);
        break;
      case Opcode::Jmp:
      case Opcode::Br:
        X.Code = I.Op == Opcode::Jmp ? DOp::Jmp : DOp::Br;
        X.Br.Target[0] = BlockPC[I.Blk1];
        X.Br.Penalty[0] = Penalty[I.Blk1];
        X.Br.Target[1] = I.Op == Opcode::Br ? BlockPC[I.Blk2] : 0;
        X.Br.Penalty[1] = I.Op == Opcode::Br ? Penalty[I.Blk2] : 0;
        break;
      case Opcode::Call:
        X.Code = I.BuiltinCallee != Builtin::None ? DOp::CallBuiltin
                 : I.Callee >= 0                  ? DOp::CallDirect
                                                  : DOp::CallIndirect;
        X.Call.ArgBegin = static_cast<uint32_t>(D->Args.size());
        X.Call.ArgCount = static_cast<uint32_t>(I.Args.size());
        X.Call.Callee = I.Callee;
        X.Call.Flat = Flat;
        X.Fn = I.BuiltinCallee;
        for (const Value &V : I.Args) {
          DecodedFunction::Operand O;
          Operand(V, O.Idx, O.Imm);
          D->Args.push_back(O);
        }
        break;
      case Opcode::Kill:
        // Zeroes A's register; a non-register Kill zeroes the sink.
        X.Code = DOp::Kill;
        X.Dst = I.A.isReg() ? static_cast<int32_t>(I.A.Reg) : SinkSlot;
        break;
      default:
        X.Code = simpleOp(I.Op);
        break;
      }
      D->Code.push_back(X);
      ++Flat;
    }
    if (!Terminated(B)) {
      DecodedInst X;
      X.Code = DOp::FellOff;
      X.Offset = BI;
      D->Code.push_back(X);
    }
  }
  if (D->Code.empty()) { // no blocks at all
    DecodedInst X;
    X.Code = DOp::FellOff;
    X.Offset = Never;
    D->Code.push_back(X);
  }
  Decoded[Index] = std::move(D);
}

uint64_t *VM::pushFrame(const DecodedFunction &F, const DecodedInst *Call,
                        const DecodedInst *RetPC) {
  uint64_t Base = (StackTop + 15) & ~uint64_t(15);
  if (Base + F.IR->FrameSize > Stack.size() ||
      Frames.size() >= Opts.StackSize / MinFrameBytes) {
    fail("VM stack overflow");
    return nullptr;
  }
  uint64_t Window = WindowSlots + F.IR->NumRegs;
  if (RegTop + Window > RegStack.size())
    RegStack.resize(std::max(RegTop + Window, 2 * RegStack.size()));
  uint64_t *Regs = RegStack.data() + RegTop + WindowSlots;
  std::memset(Regs - WindowSlots, 0, Window * sizeof(uint64_t));
  if (Call) {
    const Frame &Caller = Frames.back();
    const uint64_t *CallerRegs =
        RegStack.data() + Caller.RegBase + WindowSlots;
    const DecodedFunction::Operand *Args =
        Caller.F->Args.data() + Call->Call.ArgBegin;
    const std::vector<uint32_t> &Params = F.IR->ParamRegs;
    size_t N = std::min<size_t>(Params.size(), Call->Call.ArgCount);
    for (size_t I = 0; I < N; ++I)
      Regs[Params[I]] = CallerRegs[Args[I].Idx] + Args[I].Imm;
  }
  std::memset(Stack.data() + Base, 0, F.IR->FrameSize);
  Frames.push_back({&F, RegTop, Base, RetPC, Call ? Call->Dst : SinkSlot});
  RegTop += Window;
  StackTop = Base + F.IR->FrameSize;
  Result.Cycles += F.EntryPenalty + Opts.Model.CyclesCall;
  Result.SpillCycles += F.EntryPenalty;
  return Regs;
}

void VM::tagAllocSite(const DecodedFunction &F, const DecodedInst &I,
                      const char *Kind) {
  if (!Opts.Profile)
    return;
  auto It = SiteCache.find(&I);
  if (It == SiteCache.end()) {
    size_t Site = Opts.Profile->Heap.internSite(F.IR->Name, I.Call.Flat, Kind);
    It = SiteCache.emplace(&I, Site).first;
  }
  C->setAllocSite(It->second);
}

namespace {
/// Sampling-profiler category for the executing instruction: the cycle
/// attribution buckets of RunResult, refined with memory/branch/call/alu.
const char *sampleKind(Opcode Op, Builtin Callee) {
  switch (Op) {
  case Opcode::KeepLive:
    return "keep_live";
  case Opcode::CheckSameObj:
    return "checks";
  case Opcode::Kill:
    return "kill";
  case Opcode::Load:
  case Opcode::LoadIdx:
  case Opcode::Store:
  case Opcode::StoreIdx:
  case Opcode::AddrLocal:
  case Opcode::AddrGlobal:
    return "memory";
  case Opcode::Jmp:
  case Opcode::Br:
    return "branch";
  case Opcode::Call:
    switch (Callee) {
    case Builtin::GcMalloc:
    case Builtin::GcMallocAtomic:
    case Builtin::Malloc:
    case Builtin::Calloc:
    case Builtin::Realloc:
      return "allocator";
    case Builtin::SameObj:
    case Builtin::PreIncr:
    case Builtin::PostIncr:
      return "checks";
    default:
      return "call";
    }
  case Opcode::Ret:
    return "call";
  default:
    return "alu";
  }
}
} // namespace

void VM::recordCycleSample(const DecodedInst &I) {
  uint64_t Weight = Result.Cycles - LastSampleCycles;
  LastSampleCycles = Result.Cycles;
  // The executing function may already have returned (Ret) or called out
  // (Call), so find it by the instruction and force it to be the leaf.
  const DecodedFunction *Leaf = nullptr;
  for (const auto &D : Decoded)
    if (D && &I >= D->Code.data() && &I < D->Code.data() + D->Code.size())
      Leaf = D.get();
  assert(Leaf && "sampled instruction belongs to no function");
  std::string Stack;
  for (const Frame &Fr : Frames) {
    if (!Stack.empty())
      Stack += ';';
    Stack += Fr.F->IR->Name;
  }
  if (Frames.empty() || Frames.back().F != Leaf) {
    if (!Stack.empty())
      Stack += ';';
    Stack += Leaf->IR->Name;
  }
  Opts.Profile->Cycles.addSample(Stack, Leaf->IR->Name,
                                 sampleKind(I.IrOp, I.Fn), Weight);
}

bool VM::checkMemoryAccess(uint64_t Addr, const char *What) {
  if (Addr < 0x1000) {
    fail(std::string("null/small-pointer dereference in ") + What);
    return false;
  }
  if (Opts.DetectFreedAccess &&
      C->pointsToFreedObject(reinterpret_cast<const void *>(Addr)))
    ++Result.FreedAccesses;
  return true;
}

void VM::runBuiltin(const DecodedFunction &F, const DecodedInst &I,
                    uint64_t *Regs) {
  const DecodedFunction::Operand *Args = F.Args.data() + I.Call.ArgBegin;
  auto Arg = [&](size_t Idx) -> uint64_t {
    return Idx < I.Call.ArgCount ? Regs[Args[Idx].Idx] + Args[Idx].Imm : 0;
  };
  auto SetDst = [&](uint64_t V) { Regs[I.Dst] = V; };
  const char *FnName = F.IR->Name.c_str();

  // Exhaustion is a structured run error, never a crash: the typed
  // allocation surface turns a failed request into RunResult::Error.
  auto AllocOrFail = [&](uint64_t Size, bool Atomic,
                         const char *What) -> void * {
    gc::AllocResult R = Atomic ? C->tryAllocateAtomic(Size)
                               : C->tryAllocate(Size);
    if (!R.ok())
      fail(std::string("out of memory: ") + What + "(" +
           std::to_string(Size) + " bytes) failed: " +
           gc::allocStatusName(R.Status));
    return R.Ptr;
  };

  switch (I.Fn) {
  case Builtin::GcMalloc:
  case Builtin::Malloc: {
    Result.Cycles += Opts.Model.CyclesAllocator;
    Result.AllocatorCycles += Opts.Model.CyclesAllocator;
    uint64_t Size = Arg(0);
    ++Result.AllocCount;
    Result.AllocBytes += Size;
    tagAllocSite(F, I,
                 I.Fn == Builtin::Malloc ? "malloc" : "GC_malloc");
    void *P = AllocOrFail(Size, false, "GC_malloc");
    if (!P)
      return;
    SetDst(reinterpret_cast<uint64_t>(P));
    return;
  }
  case Builtin::GcMallocAtomic: {
    Result.Cycles += Opts.Model.CyclesAllocator;
    Result.AllocatorCycles += Opts.Model.CyclesAllocator;
    uint64_t Size = Arg(0);
    ++Result.AllocCount;
    Result.AllocBytes += Size;
    tagAllocSite(F, I, "GC_malloc_atomic");
    void *P = AllocOrFail(Size, true, "GC_malloc_atomic");
    if (!P)
      return;
    SetDst(reinterpret_cast<uint64_t>(P));
    return;
  }
  case Builtin::Calloc: {
    Result.Cycles += Opts.Model.CyclesAllocator;
    Result.AllocatorCycles += Opts.Model.CyclesAllocator;
    uint64_t N = Arg(0), Each = Arg(1);
    if (Each && N > UINT64_MAX / Each) {
      fail("out of memory: calloc(" + std::to_string(N) + ", " +
           std::to_string(Each) + ") overflows");
      return;
    }
    uint64_t Size = N * Each;
    ++Result.AllocCount;
    Result.AllocBytes += Size;
    tagAllocSite(F, I, "calloc");
    void *P = AllocOrFail(Size, false, "calloc");
    if (!P)
      return;
    SetDst(reinterpret_cast<uint64_t>(P));
    return;
  }
  case Builtin::Realloc: {
    Result.Cycles += Opts.Model.CyclesAllocator;
    Result.AllocatorCycles += Opts.Model.CyclesAllocator;
    uint64_t Old = Arg(0);
    uint64_t Size = Arg(1);
    ++Result.AllocCount;
    Result.AllocBytes += Size;
    tagAllocSite(F, I, "realloc");
    void *New = AllocOrFail(Size, false, "realloc");
    if (!New)
      return;
    if (Old) {
      size_t OldSize = C->objectSize(reinterpret_cast<void *>(Old));
      size_t CopyLen = OldSize < Size ? OldSize : Size;
      std::memcpy(New, reinterpret_cast<void *>(Old), CopyLen);
    }
    SetDst(reinterpret_cast<uint64_t>(New));
    return;
  }
  case Builtin::Free:
    // "remove all calls to free" — the collector reclaims.
    return;
  case Builtin::GcCollect:
    C->collect();
    return;
  case Builtin::PrintInt: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%" PRId64,
                  static_cast<int64_t>(Arg(0)));
    Result.Output += Buf;
    break;
  }
  case Builtin::PrintChar:
    Result.Output.push_back(static_cast<char>(Arg(0)));
    break;
  case Builtin::PrintStr: {
    const char *S = reinterpret_cast<const char *>(Arg(0));
    if (!S) {
      fail("print_str(NULL)");
      return;
    }
    size_t Len = strnlen(S, 1 << 20);
    Result.Output.append(S, Len);
    break;
  }
  case Builtin::PrintDouble: {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "%g", bitsToDouble(Arg(0)));
    Result.Output += Buf;
    break;
  }
  case Builtin::AssertTrue:
    if (Arg(0) == 0)
      fail("assert_true failed in VM program");
    return;
  case Builtin::RandSeed:
    Prng = Arg(0) ? Arg(0) : 0x9E3779B97F4A7C15ull;
    return;
  case Builtin::RandNext: {
    // xorshift64*
    Prng ^= Prng >> 12;
    Prng ^= Prng << 25;
    Prng ^= Prng >> 27;
    uint64_t V = Prng * 0x2545F4914F6CDD1Dull;
    SetDst(V >> 1); // keep it a nonnegative long
    return;
  }
  case Builtin::SameObj: {
    Result.Cycles += Opts.Model.CyclesCheck;
    Result.CheckCycles += Opts.Model.CyclesCheck;
    size_t Before = Check->violationCount();
    Check->sameObj(reinterpret_cast<const void *>(Arg(0)),
                   reinterpret_cast<const void *>(Arg(1)), FnName);
    SetDst(Arg(0));
    if (Opts.HaltOnCheckViolation && Check->violationCount() != Before)
      fail("pointer-arithmetic check violation");
    return;
  }
  case Builtin::PreIncr:
  case Builtin::PostIncr: {
    Result.Cycles += Opts.Model.CyclesCheck;
    Result.CheckCycles += Opts.Model.CyclesCheck;
    uint64_t Slot = Arg(0);
    if (!checkMemoryAccess(Slot, "GC_*_incr"))
      return;
    size_t Before = Check->violationCount();
    auto *PP = reinterpret_cast<void **>(Slot);
    void *Out = I.Fn == Builtin::PreIncr
                    ? Check->preIncr(PP, static_cast<ptrdiff_t>(Arg(1)),
                                     FnName)
                    : Check->postIncr(PP, static_cast<ptrdiff_t>(Arg(1)),
                                      FnName);
    SetDst(reinterpret_cast<uint64_t>(Out));
    if (Opts.HaltOnCheckViolation && Check->violationCount() != Before)
      fail("pointer-arithmetic check violation");
    return;
  }
  case Builtin::None:
    fail("call to unresolved builtin");
    return;
  }
  // Output grew: the limit is checked before the next instruction.
  if (Result.Output.size() > Opts.MaxOutputBytes)
    EventAt = 0;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

/// Charges an instruction that is counted but stopped before it executes
/// (budget, output limit, watchdog), exactly as if it had started.
void VM::chargeUnexecuted(const DecodedInst &I) {
  ++Result.InstructionsExecuted;
  Result.Cycles += I.Cycles;
  switch (I.Code) {
  case DOp::KeepLive:
    ++Result.KeepLiveExecuted;
    Result.KeepLiveCycles += I.Cycles;
    break;
  case DOp::Kill:
    ++Result.KillsExecuted;
    break;
  case DOp::CheckSameObj:
    Result.CheckCycles += I.Cycles;
    break;
  default:
    break;
  }
}

/// The slow path between two instructions, taken once the instruction
/// count reaches EventAt. Runs the checks that follow \p Executed (cycle
/// sample, periodic collection; none before the first instruction), stops
/// if the run is over, then runs the checks that precede \p Next (falling
/// off a block, instruction budget, output limit, deadline watchdogs) and
/// sets the next EventAt. Returns false when execution stops.
bool VM::handleEvents(const DecodedInst *Executed, const DecodedInst *Next) {
  uint64_t N = Result.InstructionsExecuted;
  if (Executed) {
    // The sample period elapsed sometime during this instruction (it may
    // charge several cycle sources at once: spill penalties, builtin
    // costs); attribute the whole gap to it.
    uint64_t SampleEvery = Opts.Profile ? Opts.Profile->SamplePeriodCycles : 0;
    if (SampleEvery && Result.Cycles - LastSampleCycles >= SampleEvery)
      recordCycleSample(*Executed);
    if (N == NextGcAt) {
      C->collect();
      NextGcAt += Opts.GcInstructionPeriod;
    }
  }
  if (Halted || Frames.empty())
    return false;

  if (Next->Code == DOp::FellOff) {
    const Function &F = *Frames.back().F->IR;
    std::string Block =
        Next->Offset < F.Blocks.size() ? F.Blocks[Next->Offset].Name : "";
    fail("control fell off the end of block '" + Block + "' in " + F.Name);
    return false;
  }
  const char *Stop = nullptr;
  bool Watchdogs = Opts.VmDeadlineNs || Opts.GcDeadlineNs;
  if (N + 1 > Opts.MaxInstructions) {
    Stop = "instruction budget exceeded";
  } else if (Result.Output.size() > Opts.MaxOutputBytes) {
    Stop = "output limit exceeded";
  } else if (Watchdogs && ((N + 1) & 511) == 0) {
    // Deadline watchdogs: wall clock is polled every 512 instructions to
    // keep the hot loop free of syscalls; the GC deadline is detected by
    // the collector itself and only acted on here.
    if (Opts.VmDeadlineNs &&
        support::monotonicNowNs() - RunStartNs > Opts.VmDeadlineNs) {
      Result.WatchdogTimeout = true;
      if (Opts.Trace)
        Opts.Trace->emit("robust", "vm.deadline",
                         support::monotonicNowNs() - RunStartNs,
                         Opts.VmDeadlineNs);
      Stop = "watchdog: VM run deadline exceeded";
    } else if (Opts.GcDeadlineNs && C->stats().GcDeadlineExceeded > 0) {
      Result.WatchdogTimeout = true;
      Stop = "watchdog: GC collection deadline exceeded";
    }
  }
  if (Stop) {
    chargeUnexecuted(*Next);
    fail(Stop);
    return false;
  }

  uint64_t At = std::min(Opts.MaxInstructions, NextGcAt);
  if (Watchdogs)
    At = std::min(At, ((N + 1) & ~uint64_t(511)) + 511);
  if (Opts.Profile && Opts.Profile->SamplePeriodCycles)
    At = N + 1;
  EventAt = At;
  return true;
}

/// The interpreter loop over decoded instructions. Per instruction it
/// counts, charges the precomputed cycles and executes; every other check
/// sits behind the single compare against EventAt. The instruction and
/// cycle counts and EventAt live in locals while the loop runs and are
/// written back around every call that reads or changes them.
void VM::execute() {
  const DecodedInst *Code = nullptr, *PC = nullptr;
  uint64_t *R = nullptr;
  uint64_t FrameAddr = 0, N = 0, Cycles = 0, Events = 0;
  bool InGlobalInit = M.GlobalInitIndex >= 0;

  // Resume in the frame now on top (at its start, after a call or a
  // return).
  auto Resume = [&](const DecodedInst *To) {
    Code = Frames.back().F->Code.data();
    PC = To;
    R = RegStack.data() + Frames.back().RegBase + WindowSlots;
    FrameAddr =
        reinterpret_cast<uint64_t>(Stack.data()) + Frames.back().FrameBase;
  };
  auto Store = [&] {
    Result.InstructionsExecuted = N;
    Result.Cycles = Cycles;
  };
  auto Load = [&] {
    N = Result.InstructionsExecuted;
    Cycles = Result.Cycles;
    Events = EventAt;
  };
  Resume(Frames.back().F->Code.data());
  if (!handleEvents(nullptr, PC))
    return;
  Load();

#define OPA (R[I->A] + I->ImmA)
#define OPB (R[I->B] + I->ImmB)
#define OPC (R[I->C] + I->ImmC)
#define DST R[I->Dst]
#define SIGNED(X) static_cast<int64_t>(X)
#define FP(X) bitsToDouble(X)
#define FAIL(Msg)                                                              \
  do {                                                                         \
    fail(Msg);                                                                 \
    Events = 0;                                                                \
  } while (0)
  for (;;) {
    const DecodedInst *I = PC++;
    ++N;
    Cycles += I->Cycles;
    switch (I->Code) {
    case DOp::Nop: break;
    case DOp::Mov: DST = OPA; break;
    case DOp::Add: DST = OPA + OPB; break;
    case DOp::Sub: DST = OPA - OPB; break;
    case DOp::Mul: DST = OPA * OPB; break;
    case DOp::DivS: {
      int64_t Den = SIGNED(OPB);
      if (Den == 0)
        FAIL("division by zero");
      else
        DST = static_cast<uint64_t>(SIGNED(OPA) / Den);
      break;
    }
    case DOp::DivU: {
      uint64_t Den = OPB;
      if (Den == 0)
        FAIL("division by zero");
      else
        DST = OPA / Den;
      break;
    }
    case DOp::RemS: {
      int64_t Den = SIGNED(OPB);
      if (Den == 0)
        FAIL("remainder by zero");
      else
        DST = static_cast<uint64_t>(SIGNED(OPA) % Den);
      break;
    }
    case DOp::RemU: {
      uint64_t Den = OPB;
      if (Den == 0)
        FAIL("remainder by zero");
      else
        DST = OPA % Den;
      break;
    }
    case DOp::And: DST = OPA & OPB; break;
    case DOp::Or: DST = OPA | OPB; break;
    case DOp::Xor: DST = OPA ^ OPB; break;
    case DOp::Shl: DST = OPA << (OPB & 63); break;
    case DOp::ShrA: DST = static_cast<uint64_t>(SIGNED(OPA) >> (OPB & 63)); break;
    case DOp::ShrL: DST = OPA >> (OPB & 63); break;
    case DOp::Neg: DST = static_cast<uint64_t>(-SIGNED(OPA)); break;
    case DOp::Not: DST = ~OPA; break;
    case DOp::FAdd: DST = doubleToBits(FP(OPA) + FP(OPB)); break;
    case DOp::FSub: DST = doubleToBits(FP(OPA) - FP(OPB)); break;
    case DOp::FMul: DST = doubleToBits(FP(OPA) * FP(OPB)); break;
    case DOp::FDiv: DST = doubleToBits(FP(OPA) / FP(OPB)); break;
    case DOp::FNeg: DST = doubleToBits(-FP(OPA)); break;
    case DOp::CmpEq: DST = OPA == OPB; break;
    case DOp::CmpNe: DST = OPA != OPB; break;
    case DOp::CmpLtS: DST = SIGNED(OPA) < SIGNED(OPB); break;
    case DOp::CmpLeS: DST = SIGNED(OPA) <= SIGNED(OPB); break;
    case DOp::CmpGtS: DST = SIGNED(OPA) > SIGNED(OPB); break;
    case DOp::CmpGeS: DST = SIGNED(OPA) >= SIGNED(OPB); break;
    case DOp::CmpLtU: DST = OPA < OPB; break;
    case DOp::CmpLeU: DST = OPA <= OPB; break;
    case DOp::CmpGtU: DST = OPA > OPB; break;
    case DOp::CmpGeU: DST = OPA >= OPB; break;
    case DOp::FCmpEq: DST = FP(OPA) == FP(OPB); break;
    case DOp::FCmpNe: DST = FP(OPA) != FP(OPB); break;
    case DOp::FCmpLt: DST = FP(OPA) < FP(OPB); break;
    case DOp::FCmpLe: DST = FP(OPA) <= FP(OPB); break;
    case DOp::FCmpGt: DST = FP(OPA) > FP(OPB); break;
    case DOp::FCmpGe: DST = FP(OPA) >= FP(OPB); break;
    case DOp::SExt: {
      unsigned Bits = I->Size * 8;
      uint64_t V = OPA;
      if (Bits < 64) {
        uint64_t Mask = (uint64_t(1) << Bits) - 1;
        V &= Mask;
        if (V >> (Bits - 1))
          V |= ~Mask;
      }
      DST = V;
      break;
    }
    case DOp::ZExt: {
      unsigned Bits = I->Size * 8;
      uint64_t V = OPA;
      if (Bits < 64)
        V &= (uint64_t(1) << Bits) - 1;
      DST = V;
      break;
    }
    case DOp::SIToFP: DST = doubleToBits(static_cast<double>(SIGNED(OPA))); break;
    case DOp::FPToSI:
      DST = static_cast<uint64_t>(static_cast<int64_t>(FP(OPA)));
      break;
#define GCSAFE_LOAD(OP, T)                                                     \
  case DOp::OP: {                                                                   \
    uint64_t Addr = OPA + OPB;                                                 \
    if (!checkMemoryAccess(Addr, "load")) {                                    \
      Events = 0;                                                              \
      break;                                                                    \
    }                                                                          \
    T V;                                                                       \
    std::memcpy(&V, reinterpret_cast<const void *>(Addr), sizeof(V));         \
    DST = static_cast<uint64_t>(V);                                            \
    break;                                                                      \
  }
    GCSAFE_LOAD(Load1S, int8_t)
    GCSAFE_LOAD(Load1U, uint8_t)
    GCSAFE_LOAD(Load2S, int16_t)
    GCSAFE_LOAD(Load2U, uint16_t)
    GCSAFE_LOAD(Load4S, int32_t)
    GCSAFE_LOAD(Load4U, uint32_t)
    GCSAFE_LOAD(Load8, uint64_t)
#undef GCSAFE_LOAD
#define GCSAFE_STORE(OP, T)                                                    \
  case DOp::OP: {                                                                   \
    uint64_t Addr = OPA + OPB;                                                 \
    T V = static_cast<T>(OPC);                                                 \
    if (!checkMemoryAccess(Addr, "store")) {                                   \
      Events = 0;                                                              \
      break;                                                                    \
    }                                                                          \
    std::memcpy(reinterpret_cast<void *>(Addr), &V, sizeof(V));               \
    break;                                                                      \
  }
    GCSAFE_STORE(Store1, uint8_t)
    GCSAFE_STORE(Store2, uint16_t)
    GCSAFE_STORE(Store4, uint32_t)
    GCSAFE_STORE(Store8, uint64_t)
#undef GCSAFE_STORE
    case DOp::AddrLocal: DST = FrameAddr + I->Offset; break;
    case DOp::Jmp: {
      PC = Code + I->Br.Target[0];
      if (uint32_t Spill = I->Br.Penalty[0]) {
        Cycles += Spill;
        Result.SpillCycles += Spill;
      }
      break;
    }
    case DOp::Br: {
      unsigned Side = OPA ? 0 : 1;
      PC = Code + I->Br.Target[Side];
      if (uint32_t Spill = I->Br.Penalty[Side]) {
        Cycles += Spill;
        Result.SpillCycles += Spill;
      }
      break;
    }
    case DOp::Ret: {
      uint64_t RetVal = OPA;
      Frame Done = Frames.back();
      Frames.pop_back();
      StackTop = Done.FrameBase;
      RegTop = Done.RegBase;
      if (!Frames.empty()) {
        Resume(Done.RetPC);
        R[Done.RetDst] = RetVal;
      } else if (InGlobalInit) {
        InGlobalInit = false;
        StackTop = 0;
        Store();
        if (pushFrame(decoded(static_cast<uint32_t>(M.MainIndex)), nullptr,
                      nullptr))
          Resume(Frames.back().F->Code.data());
        Load();
      } else {
        Result.ExitCode = static_cast<long>(RetVal);
        Events = 0;
      }
      break;
    }
    case DOp::CallDirect:
    case DOp::CallIndirect:
    case DOp::CallBuiltin: {
      Store();
      if (Opts.GcCallPeriod && --CallsUntilGc == 0) {
        CallsUntilGc = Opts.GcCallPeriod;
        C->collect(); // call-site-only collection (optimization 4 regime)
      }
      if (I->Code == DOp::CallBuiltin) {
        runBuiltin(*Frames.back().F, *I, R);
      } else {
        int32_t Callee = I->Call.Callee;
        if (I->Code == DOp::CallIndirect)
          Callee = static_cast<int32_t>(SIGNED(OPA) - FuncPtrBase);
        if (Callee < 0 ||
            static_cast<size_t>(Callee) >= M.Functions.size()) {
          fail("indirect call through a non-function value");
        } else {
          const DecodedFunction &F = decoded(static_cast<uint32_t>(Callee));
          if (pushFrame(F, I, PC))
            Resume(F.Code.data());
        }
      }
      Load();
      break;
    }
    case DOp::KeepLive: {
      ++Result.KeepLiveExecuted;
      Result.KeepLiveCycles += I->Cycles;
      DST = OPA;
      break;
    }
    case DOp::CheckSameObj: {
      Result.CheckCycles += I->Cycles;
      size_t Before = Check->violationCount();
      Check->sameObj(reinterpret_cast<const void *>(OPA),
                     reinterpret_cast<const void *>(OPB),
                     Frames.back().F->IR->Name.c_str());
      DST = OPA;
      if (Opts.HaltOnCheckViolation && Check->violationCount() != Before)
        FAIL("pointer-arithmetic check violation");
      break;
    }
    case DOp::Kill: {
      ++Result.KillsExecuted;
      DST = 0;
      break;
    }
    case DOp::FellOff: {
      // Reached without a pending event: un-count it and stop as the
      // event path would have.
      --N;
      Store();
      handleEvents(nullptr, I);
      return;
    }
    }
    if (N >= Events) {
      Store();
      if (!handleEvents(I, PC))
        return;
      Load();
    }
  }
#undef FAIL
#undef OPA
#undef OPB
#undef OPC
#undef DST
#undef SIGNED
#undef FP
}

RunResult VM::run() {
  Result = RunResult();
  Result.Ok = true;

  if (M.MainIndex < 0) {
    fail("module has no main()");
    return Result;
  }

  NextGcAt = Opts.GcInstructionPeriod ? Opts.GcInstructionPeriod : Never;
  CallsUntilGc = Opts.GcCallPeriod;
  LastSampleCycles = 0;
  RunStartNs = Opts.VmDeadlineNs || Opts.GcDeadlineNs
                   ? support::monotonicNowNs()
                   : 0;

  int32_t First = M.GlobalInitIndex >= 0 ? M.GlobalInitIndex : M.MainIndex;
  if (pushFrame(decoded(static_cast<uint32_t>(First)), nullptr, nullptr))
    execute();

  Result.Collections = C->stats().Collections;
  Result.ChecksPerformed = Check->checkCount();
  Result.CheckViolations = Check->violationCount();
  Result.Gc = C->stats();
  if (Opts.Trace)
    Opts.Trace->emit("vm", "run.end", Result.Cycles,
                     Result.InstructionsExecuted);
  return Result;
}
