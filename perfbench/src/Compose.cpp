//===- perfbench/src/Compose.cpp - Layer-by-layer compile ------*- C++ -*-===//
//
// The traced run's compile: driver::Compilation::compile rebuilt from the
// public call of each layer, with a span around every call. compile_verify
// checks, before timing, that the composed module prints exactly as the
// driver's does; otherwise the per-layer numbers would describe a
// different program.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/SafetyVerifier.h"
#include "annotate/Annotator.h"
#include "ir/Lower.h"
#include "ir/Verify.h"
#include "opt/Passes.h"

#include <cstring>
#include <sstream>

using namespace gcsafe;

namespace perfbench {

driver::CompileResult composeCompile(driver::Compilation &C, CompileMode Mode,
                                     Tracer &T, LayerCounts &K) {
  driver::CompileResult Result;
  Tracer::Scope Compile(T, "driver.compile");
  {
    Tracer::Scope S(T, "cfront.parse");
    if (!C.parse()) {
      Result.Errors = C.renderedDiagnostics();
      return Result;
    }
  }
  K.SourceBytes += C.buffer().size();

  annotate::AnnotationMap Map;
  if (annotates(Mode)) {
    Tracer::Scope S(T, "annotate");
    Map = annotate::annotateTranslationUnit(C.tu(), {});
    Result.AnnotStats = Map.stats();
  }
  K.KeepLives += Result.AnnotStats.KeepLives;

  ir::LowerOptions LO;
  if (Mode == CompileMode::O2Safe || Mode == CompileMode::O2SafePost) {
    LO.SafetyMode = ir::LowerOptions::Safety::KeepLive;
    LO.Annotations = &Map;
  } else if (Mode == CompileMode::Debug) {
    LO.AllVarsInMemory = true;
  } else if (Mode == CompileMode::DebugChecked) {
    LO.AllVarsInMemory = true;
    LO.SafetyMode = ir::LowerOptions::Safety::Checked;
    LO.Annotations = &Map;
  }
  {
    Tracer::Scope S(T, "ir.lower");
    Result.Module = ir::lowerTranslationUnit(C.tu(), LO, C.diags());
  }
  if (C.diags().hasErrors()) {
    Result.Errors = C.renderedDiagnostics();
    return Result;
  }
  K.InstrsLowered += instructionCount(Result.Module);

  auto CheckSafety = [&](const ir::Function &F, const char *Pass,
                         bool KillPlacement) {
    Tracer::Scope S(T, "analysis.verify");
    analysis::SafetyVerifyOptions VO;
    VO.Pass = Pass;
    VO.CheckKillPlacement = KillPlacement;
    analysis::verifyFunctionSafety(F, VO, Result.SafetyDiags);
    ++K.VerifyCalls;
  };
  for (const ir::Function &F : Result.Module.Functions)
    CheckSafety(F, "(lower)", false);

  opt::OptPipelineOptions PO;
  bool Debuggable =
      Mode == CompileMode::Debug || Mode == CompileMode::DebugChecked;
  PO.Level = Debuggable ? opt::OptLevel::O0 : opt::OptLevel::O2;
  PO.Postprocess = Mode == CompileMode::O2SafePost;
  PO.Stats = &Result.Stats;
  analysis::KeepLiveContinuity Continuity;
  PO.PassCheck = [&](const char *Pass, const ir::Function &F) {
    if (std::strcmp(Pass, "(entry)") == 0) {
      Continuity.record(F);
      return;
    }
    CheckSafety(F, Pass, false);
    {
      Tracer::Scope S(T, "analysis.verify");
      Continuity.check(F, Pass, Result.SafetyDiags);
    }
    Tracer::Scope S(T, "ir.verify");
    ir::verifyFunction(F, Result.IRVerifyErrors, Pass);
  };
  {
    Tracer::Scope S(T, "opt");
    Result.OptStats = opt::optimizeModule(Result.Module, PO);
  }
  K.InstrsOut += instructionCount(Result.Module);
  K.Rewrites += Result.OptStats.total();
  // opt.<pass>.applied: the rewrites each roster pass made, from the
  // optimizer's own "opt.<pass>.<counter>" registry entries.
  std::stringstream Roster(opt::passRosterString());
  for (std::string Pass; std::getline(Roster, Pass, ',');) {
    std::string Prefix = "opt." + Pass + ".";
    uint64_t Applied = 0;
    for (const auto &[Name, V] : Result.OptStats.entries())
      Applied += Result.Stats.get(Prefix + Name);
    K.PassApplied[Pass] += Applied;
  }

  for (const ir::Function &F : Result.Module.Functions)
    CheckSafety(F, "(final)", true);
  Result.SafetyOk = Result.SafetyDiags.empty();
  for (const ir::Function &F : Result.Module.Functions)
    if (F.Name != "__globals_init")
      Result.CodeSizeUnits += ir::functionSizeUnits(F);
  Result.Ok = true;
  return Result;
}

void addRunCounts(TracedPhase &P, const vm::RunResult &Run) {
  P.MarkNs += Run.Gc.MarkNs;
  P.SweepNs += Run.Gc.SweepNs;
  P.Instrs += Run.InstructionsExecuted;
  P.Cycles += Run.Cycles;
  P.FreedAccesses += Run.FreedAccesses;
  P.CheckViolations += Run.CheckViolations;
  P.Collections += Run.Gc.Collections;
  P.WordsScanned += Run.Gc.WordsScanned;
  P.MarkedObjects += Run.Gc.MarkedObjects;
  P.Allocs += Run.Gc.AllocationCount;
  P.FalseRetention += Run.Gc.FalseRetentionCandidates;
}

void reportLayers(Result &R, const TracedPhase &P, double UntracedOpsPerS) {
  std::map<std::string, uint64_t> Self = P.T->selfNsByName();
  double Ops = P.Ops ? double(P.Ops) : 1.0;
  auto PerOp = [&](uint64_t V) { return double(V) / Ops; };
  auto SelfOf = [&](const char *Name) {
    auto It = Self.find(Name);
    return It == Self.end() ? uint64_t(0) : It->second;
  };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  const LayerCounts &K = P.Counts;

  R.set("cfront.parse_ns", PerOp(SelfOf("cfront.parse")), "ns");
  R.set("cfront.source_bytes", PerOp(K.SourceBytes), "bytes");
  R.set("annotate.ns", PerOp(SelfOf("annotate")), "ns");
  R.set("annotate.keep_lives", PerOp(K.KeepLives), "count");
  R.set("rewrite.render_ns", PerOp(SelfOf("rewrite.render")), "ns");
  R.set("ir.lower_ns", PerOp(SelfOf("ir.lower")), "ns");
  R.set("ir.verify_ns", PerOp(SelfOf("ir.verify")), "ns");
  R.set("ir.instrs_lowered", PerOp(K.InstrsLowered), "count");
  R.set("opt.ns", PerOp(SelfOf("opt")), "ns");
  R.set("opt.instrs_out", PerOp(K.InstrsOut), "count");
  R.set("opt.rewrites", PerOp(K.Rewrites), "count");
  std::stringstream Roster(opt::passRosterString());
  for (std::string Pass; std::getline(Roster, Pass, ',');) {
    auto It = K.PassApplied.find(Pass);
    R.set("opt." + Pass + ".applied",
          PerOp(It == K.PassApplied.end() ? 0 : It->second), "count");
  }
  R.set("analysis.verify_ns", PerOp(SelfOf("analysis.verify")), "ns");
  R.set("analysis.verify_calls", PerOp(K.VerifyCalls), "count");

  uint64_t Wall = P.T->opWallNs();
  // Time inside an op that no layer span covers: the benchmark's glue
  // around the calls plus the driver.compile span's own gaps.
  uint64_t Uncovered = SelfOf("op") + SelfOf("driver.compile");
  auto Total = P.T->totalNsByName();
  R.set("driver.compile_ns", PerOp(Total["driver.compile"]), "ns");
  R.set("driver.self_ns", PerOp(Uncovered), "ns");
  R.set("driver.report_ns", PerOp(SelfOf("driver.report")), "ns");

  uint64_t GcNs = P.MarkNs + P.SweepNs;
  uint64_t VmRun = SelfOf("vm.run");
  R.set("vm.run_ns", PerOp(VmRun), "ns");
  R.set("vm.self_ns", PerOp(VmRun > GcNs ? VmRun - GcNs : 0), "ns");
  R.set("vm.instrs", PerOp(P.Instrs), "count");
  R.set("vm.ns_per_instr",
        Ratio(double(VmRun > GcNs ? VmRun - GcNs : 0), double(P.Instrs)),
        "ns");
  R.set("vm.modelled_cycles", PerOp(P.Cycles), "cycles");
  R.set("vm.freed_accesses", double(P.FreedAccesses), "count");
  R.set("vm.check_violations", double(P.CheckViolations), "count");
  R.set("vm.counts_match_reference", P.CountsMatch, "ratio");

  R.set("gc.collections", PerOp(P.Collections), "count");
  R.set("gc.mark_ns", PerOp(P.MarkNs), "ns");
  R.set("gc.sweep_ns", PerOp(P.SweepNs), "ns");
  R.set("gc.share_of_vm", Ratio(double(GcNs), double(VmRun)), "ratio");
  R.set("gc.words_scanned", PerOp(P.WordsScanned), "count");
  R.set("gc.words_per_marked_object",
        Ratio(double(P.WordsScanned), double(P.MarkedObjects)), "count");
  R.set("gc.allocs", PerOp(P.Allocs), "count");
  R.set("gc.false_retention_candidates", PerOp(P.FalseRetention), "count");

  const ServeLayer &S = P.Serve;
  R.set("analysis.memo_hit_ratio", S.MemoHitRatio, "ratio");
  R.set("serve.hit_ratio", S.HitRatio, "ratio");
  R.set("serve.hit_ns", S.HitNs, "ns");
  R.set("serve.miss_ns", S.MissNs, "ns");
  R.set("serve.key_ns", PerOp(SelfOf("serve.key")), "ns");
  R.set("serve.cache_lookup_ns", PerOp(SelfOf("serve.cache_lookup")), "ns");
  R.set("serve.stage_cache_lookup_ns", S.StageCacheLookupNs, "ns");
  R.set("serve.payload_parse_ns", PerOp(SelfOf("serve.payload_parse")),
        "ns");
  R.set("serve.queue_wait_ns", S.QueueWaitNs, "ns");
  R.set("serve.shed", S.Shed, "count");
  R.set("serve.capacity_per_s", S.CapacityPerS, "1/s");
  R.set("loadgen.lag_p99_ms", S.LagP99Ms, "ms");

  R.set("trace.coverage",
        Wall ? 1.0 - double(Uncovered) / double(Wall) : 0.0, "ratio");
  R.set("trace.overhead_ratio", Ratio(P.OpsPerS, UntracedOpsPerS), "ratio");
}

} // namespace perfbench
