//===- vm/VM.h - IR interpreter over the conservative GC -------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an ir::Module on a simulated machine whose heap is the
/// conservative collector from src/gc. The GC-roots are exactly what the
/// paper lists — "the machine stack, registers, and statically allocated
/// memory": every frame's register file, the VM stack (frame slots), and
/// the globals area are scanned conservatively.
///
/// Collections can be triggered adversarially: after every allocation
/// (collector AllocCountTrigger) and/or at a fixed instruction period
/// (GcInstructionPeriod), modeling the paper's "asynchronously triggered
/// collector" under which all its transformations must stay safe. Freed
/// objects are poisoned, and loads from freed heap slots are detected and
/// reported — this is how premature collection becomes observable.
///
/// The VM also accounts cycles under a MachineModel (including a register
/// pressure penalty) and runs the checked-mode CheckSameObj instruction
/// against the collector's page table, recording violations like the
/// paper's GC_same_obj.
///
/// Each function is decoded once, on its first call, into a flat array of
/// instructions with resolved operands and precomputed cycle costs; the
/// interpreter loop over it keeps every check other than counting,
/// charging and executing behind a single compare (see VM.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_VM_VM_H
#define GCSAFE_VM_VM_H

#include "gc/Check.h"
#include "gc/Collector.h"
#include "ir/IR.h"
#include "vm/Machine.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace gcsafe {
namespace vm {

struct VMOptions {
  MachineModel Model = sparc10();

  /// Collector: collect after this many allocations (0 = bytes-based only).
  size_t GcAllocTrigger = 0;
  /// Collect every N executed instructions (0 = off). The adversarial
  /// asynchronous scheduler.
  uint64_t GcInstructionPeriod = 0;
  /// Collect every N call instructions (0 = off): the paper's
  /// optimization-4 regime where "garbage collections can be triggered
  /// only at procedure calls".
  uint64_t GcCallPeriod = 0;
  /// Collector recognizes heap-stored interior pointers (paper default).
  /// false = the Extensions section's base-pointers-only mode.
  bool AllInteriorPointers = true;

  uint64_t MaxInstructions = 2000000000;
  /// VM stack bytes for frame slots. Also bounds call depth at one frame
  /// per 16 bytes, so recursion without locals still overflows.
  size_t StackSize = 1 << 20;
  size_t MaxOutputBytes = 4 << 20;

  /// Wall-clock watchdogs (docs/ROBUSTNESS.md §5), 0 = off. A stuck run
  /// is a fault, not a hang: exceeding VmDeadlineNs (whole-run budget,
  /// checked every ~512 instructions) or GcDeadlineNs (per-collection
  /// mark+sweep budget, via CollectorStats::GcDeadlineExceeded) stops the
  /// VM with RunResult::WatchdogTimeout set.
  uint64_t VmDeadlineNs = 0;
  uint64_t GcDeadlineNs = 0;

  /// Cost KEEP_LIVE as a real external call (the paper's naive
  /// implementation: "a call to an external function whose implementation
  /// is unavailable to the compiler ... terribly inefficient"). Semantics
  /// are unchanged; only the cycle charge differs.
  bool KeepLiveCostsCall = false;

  /// Record loads/stores that touch freed (swept) heap objects.
  bool DetectFreedAccess = true;
  /// Stop execution at the first checked-mode violation.
  bool HaltOnCheckViolation = false;

  /// Per-collection event records kept by the collector (0 = off).
  size_t GcEventLimit = 256;
  /// Optional event sink shared with the collector: GC phase events plus
  /// a cat="vm" run summary are emitted here.
  support::TraceBuffer *Trace = nullptr;

  /// Collector OOM policy. The VM itself always uses the typed-result
  /// allocation surface, so exhaustion becomes a structured run error
  /// ("out of memory: ...") rather than a process abort; this still
  /// controls how hard the collector tries to recover first.
  gc::OomPolicy GcOomPolicy = gc::OomPolicy::Graceful;
  /// Recovery retries after the emergency collection.
  unsigned GcOomRetries = 3;
  /// Hard cap on collector heap pages (0 = unlimited).
  size_t GcMaxHeapPages = 0;
  /// Run a heap-integrity audit after every collection.
  bool GcAuditEachCollection = false;
  /// Optional failpoint registry passed through to the collector.
  support::FaultInjector *Faults = nullptr;

  /// Optional profiler (docs/OBSERVABILITY.md §6). When set, its
  /// HeapProfile is attached to the collector and every allocation builtin
  /// is tagged with its (function, flat instruction index) site; when
  /// Profile->SamplePeriodCycles > 0 the VM additionally records one cycle
  /// sample (call stack + leaf instruction kind) per period.
  support::Profiler *Profile = nullptr;
};

struct RunResult {
  bool Ok = false;
  std::string Error;
  std::string Output;
  long ExitCode = 0;
  /// The run was stopped by a deadline watchdog (VmDeadlineNs /
  /// GcDeadlineNs); Error says which. Maps to ExitWatchdogTimeout.
  bool WatchdogTimeout = false;

  uint64_t InstructionsExecuted = 0;
  uint64_t Cycles = 0;
  uint64_t SpillCycles = 0;

  // Cycle attribution: where the total went. The paper's slowdown numbers
  // are exactly (Cycles_safe - Cycles_base) / Cycles_base; the split below
  // says how much of a run is safety machinery rather than user code.
  uint64_t KeepLiveExecuted = 0; ///< KEEP_LIVE pseudo-ops executed.
  uint64_t KeepLiveCycles = 0;   ///< Their cycle charge (nonzero only when
                                 ///< KeepLiveCostsCall models the naive
                                 ///< external-call implementation).
  uint64_t KillsExecuted = 0;    ///< Register-death Kill pseudo-ops.
  uint64_t CheckCycles = 0;      ///< GC_same_obj / GC_*_incr checking.
  uint64_t AllocatorCycles = 0;  ///< Allocation entry points.

  uint64_t Collections = 0;
  uint64_t AllocCount = 0;
  uint64_t AllocBytes = 0;

  uint64_t ChecksPerformed = 0;
  uint64_t CheckViolations = 0;

  /// Loads/stores that touched a freed heap object — evidence of a
  /// GC-safety failure (premature collection).
  uint64_t FreedAccesses = 0;

  /// Snapshot of the collector's counters (including per-collection
  /// CollectionEvent records) at the end of the run.
  gc::CollectorStats Gc;

  /// Cycles not attributed to safety, checking, allocation or modeled
  /// spills — the paper's "user code".
  uint64_t userCycles() const {
    uint64_t Overhead =
        KeepLiveCycles + CheckCycles + AllocatorCycles + SpillCycles;
    return Cycles > Overhead ? Cycles - Overhead : 0;
  }
};

class VM {
public:
  VM(const ir::Module &M, VMOptions Options = VMOptions());
  ~VM();
  VM(const VM &) = delete;
  VM &operator=(const VM &) = delete;

  /// Runs __globals_init (if present) then main. Reusable only once.
  RunResult run();

  gc::Collector &collector() { return *C; }

private:
  struct DecodedFunction;
  struct DecodedInst;
  struct Frame {
    const DecodedFunction *F = nullptr;
    uint64_t RegBase = 0;   ///< Start of the frame's window in RegStack.
    uint64_t FrameBase = 0; ///< Offset of the frame's slots in Stack.
    const DecodedInst *RetPC = nullptr; ///< Caller's next instruction.
    int32_t RetDst = 0; ///< Caller register (or sink) for the return value.
  };

  const DecodedFunction &decoded(uint32_t Index);
  void decode(uint32_t Index);
  uint64_t *pushFrame(const DecodedFunction &F, const DecodedInst *Call,
                      const DecodedInst *RetPC);
  void execute();
  bool handleEvents(const DecodedInst *Executed, const DecodedInst *Next);
  void chargeUnexecuted(const DecodedInst &I);
  void runBuiltin(const DecodedFunction &F, const DecodedInst &I,
                  uint64_t *Regs);
  void tagAllocSite(const DecodedFunction &F, const DecodedInst &I,
                    const char *Kind);
  void recordCycleSample(const DecodedInst &I);
  bool checkMemoryAccess(uint64_t Addr, const char *What);
  void fail(const std::string &Message);

  const ir::Module &M;
  VMOptions Opts;
  std::unique_ptr<gc::Collector> C;
  std::unique_ptr<gc::PointerCheck> Check;

  std::vector<char> Globals;
  std::vector<char> Stack;
  uint64_t StackTop = 0;
  /// Every frame's register window, contiguous: [zero slot, sink slot,
  /// registers...]. Only the registers are GC roots.
  std::vector<uint64_t> RegStack;
  uint64_t RegTop = 0;
  std::vector<Frame> Frames;
  /// Decoded form of each ir::Function, by function index, made on the
  /// function's first call.
  std::vector<std::unique_ptr<DecodedFunction>> Decoded;

  RunResult Result;
  bool Halted = false;
  /// Instruction count at which execute() leaves its fast path to run the
  /// budget, output, watchdog, collection and sampling checks (0 = at the
  /// next instruction boundary).
  uint64_t EventAt = 0;
  uint64_t NextGcAt = 0;
  uint64_t CallsUntilGc = 0;
  uint64_t RunStartNs = 0;
  uint64_t Prng = 0x9E3779B97F4A7C15ull;

  // Profiling state (unused when Opts.Profile is null): interned site ids
  // per allocation instruction, and the cycle count at the last sample.
  std::unordered_map<const DecodedInst *, size_t> SiteCache;
  uint64_t LastSampleCycles = 0;
};

} // namespace vm
} // namespace gcsafe

#endif // GCSAFE_VM_VM_H
