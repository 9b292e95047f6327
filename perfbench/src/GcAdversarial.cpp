//===- perfbench/src/GcAdversarial.cpp - Collection-heavy VM ---*- C++ -*-===//
//
// gc_adversarial: a closed loop with one client over modules compiled
// during set-up. Each op runs one table workload, compiled in a GC-safe
// mode, under the VM's adversarial asynchronous collector (a collection
// every GcPeriod instructions) with freed-access detection on. The VM is
// used allocation- and collection-heavy: a VM change that costs the
// collector shows here, and this is the benchmark's only workload where
// the VM's time is measured on its own.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "vm/VM.h"

using namespace gcsafe;

namespace perfbench {
namespace {

/// Instructions between forced collections, sized so that mark + sweep
/// is at least 40% of VM wall across the mix on the host it was sized on.
constexpr uint64_t GcPeriod = 200;
/// The latency limit behind slo_ratio: 1.5 times the p99 job cost on the
/// host it was sized on, in its slow stretches (about 500 ms).
constexpr double GcLimitMs = 750;

struct GcJob {
  const workloads::Workload *W;
  CompileMode Mode;
  driver::CompileResult Compiled;
};

std::string gcKey(const GcJob &J) {
  return std::string("gc/") + J.W->Name + "/" +
         driver::compileModeToken(J.Mode) + "/p" + std::to_string(GcPeriod);
}

} // namespace

void runGcAdversarial(const RunConfig &C, ExactCounts &X, Result &R) {
  std::vector<GcJob> Jobs;
  double SetupS = timedSetup(9, [&] {
    Jobs.clear();
    for (const workloads::Workload *W : workloads::benchmarkSuite())
      for (CompileMode M : gcSafeModes()) {
        driver::Compilation Comp(W->Name, W->Source);
        driver::CompileOptions CO;
        CO.Mode = M;
        Jobs.push_back({W, M, Comp.compile(CO)});
        if (!Jobs.back().Compiled.Ok)
          R.fail(gcKey(Jobs.back()) + " does not compile");
      }
  });
  if (!R.correct())
    return;

  Tracer Off(false);
  auto Op = [&](Tracer &T, TracedPhase *P, size_t Job, uint64_t I) {
    const GcJob &J = Jobs[Job];
    T.beginOp(uint32_t(I));
    vm::RunResult Run;
    {
      Tracer::Scope S(T, "vm.run");
      vm::VMOptions VO;
      VO.GcInstructionPeriod = GcPeriod;
      VO.DetectFreedAccess = true;
      vm::VM Machine(J.Compiled.Module, VO);
      Run = Machine.run();
    }
    T.endOp();
    if (P)
      addRunCounts(*P, Run);
    std::string Key = gcKey(J);
    if (!Run.Ok || Run.ExitCode != 0) {
      R.fail(Key + " failed: " + Run.Error);
      return false;
    }
    if (Run.Output != goldenOutput(J.W->Name)) {
      R.fail(Key + " printed '" + Run.Output + "', not its golden output");
      return false;
    }
    if (Run.FreedAccesses != 0) {
      R.fail(Key + " touched " + std::to_string(Run.FreedAccesses) +
             " freed heap objects in a GC-safe mode");
      return false;
    }
    X.record(Key,
             {{"cycles", Run.Cycles},
              {"instructions", Run.InstructionsExecuted},
              {"collections", Run.Gc.Collections},
              {"keep_lives_executed", Run.KeepLiveExecuted},
              {"kills_executed", Run.KillsExecuted},
              {"check_violations", Run.CheckViolations},
              {"alloc_count", Run.Gc.AllocationCount}},
             R);
    return true;
  };

  if (!C.Trace) {
    LoopStats L = closedLoop(
        C.Seconds, GcLimitMs, Jobs.size(), C.Seed,
        [&](size_t Job, uint64_t I) { return Op(Off, nullptr, Job, I); });
    reportEndToEnd(R, L, SetupS);
    return;
  }

  LoopStats Untraced = closedLoop(
      C.Seconds / 2, GcLimitMs, Jobs.size(), C.Seed,
      [&](size_t Job, uint64_t I) { return Op(Off, nullptr, Job, I); });
  R.Attempted += Untraced.Ops;
  R.Failed += Untraced.Failed;

  Tracer T(true);
  TracedPhase P;
  P.T = &T;
  LoopStats Traced = closedLoop(
      C.Seconds / 2, GcLimitMs, Jobs.size(), C.Seed + 1,
      [&](size_t Job, uint64_t I) { return Op(T, &P, Job, I); });
  R.Attempted += Traced.Ops;
  R.Failed += Traced.Failed;
  P.Ops = Traced.Ops;
  P.OpsPerS = Traced.OpsPerS;
  P.CountsMatch = X.matchRatio();
  reportLayers(R, P, Untraced.OpsPerS);
  if (!T.writeChrome(C.OutDir + "/trace-gc_adversarial.json"))
    R.fail("cannot write the Chrome trace under " + C.OutDir);
}

} // namespace perfbench
