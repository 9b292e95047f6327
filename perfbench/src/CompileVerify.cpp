//===- perfbench/src/CompileVerify.cpp - Verified compiles -----*- C++ -*-===//
//
// compile_verify: a closed loop with one client. Each op is one
// driver::RequestContext compile with no run, under
// --verify-safety=each-pass and --verify-ir=each-pass, over the eight
// workloads in all five modes, with no shared VerifyMemo. The optimizer
// and the safety verifier do most of the work; the VM none.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Request.h"
#include "ir/Verify.h"

using namespace gcsafe;

namespace perfbench {
namespace {

/// The latency limit behind slo_ratio: 1.5 times the p99 job cost on the
/// host it was sized on, in its slow stretches (about 20 ms).
constexpr double VerifyLimitMs = 30;

struct VerifyJob {
  const workloads::Workload *W;
  CompileMode Mode;
};

std::vector<VerifyJob> verifyJobs() {
  std::vector<VerifyJob> Jobs;
  for (const workloads::Workload *W :
       {&workloads::cordtest(), &workloads::cfrac(), &workloads::gawk(),
        &workloads::gawkBuggy(), &workloads::gs(),
        &workloads::displacedIndex(), &workloads::strcpyLoop(),
        &workloads::charIndex()})
    for (CompileMode M : allModes())
      Jobs.push_back({W, M});
  return Jobs;
}

std::string verifyKey(const VerifyJob &J) {
  return std::string("verify/") + J.W->Name + "/" +
         driver::compileModeToken(J.Mode);
}

/// The verdict oracle plus the exact counts of one verified compile.
bool checkVerdict(const VerifyJob &J, int ExitCode, const support::Json &Lint,
                  const support::Json &Report, ExactCounts &X, Result &R) {
  std::string Key = verifyKey(J);
  const support::Json *Clean = Lint.get("clean");
  if (ExitCode != 0 || !Clean || !Clean->asBool()) {
    R.fail(Key + " is not verified safe (exit " + std::to_string(ExitCode) +
           ")");
    return false;
  }
  const support::Json *Diags = Lint.get("diagnostics");
  X.record(Key,
           {{"code_size_units",
             jsonCount(Report, {"compile", "code_size_units"})},
            {"keep_lives",
             jsonCount(Report, {"compile", "annotator", "keep_lives"})},
            {"kills_inserted",
             jsonCount(Report,
                       {"compile", "passes", "total", "kills_inserted"})},
            {"diagnostics", Diags ? uint64_t(Diags->size()) : ~uint64_t(0)}},
           R);
  return true;
}

} // namespace

void runCompileVerify(const RunConfig &C, ExactCounts &X, Result &R) {
  std::vector<VerifyJob> Jobs = verifyJobs();
  double SetupS = timedSetup(9, [&] {
    for (const VerifyJob &J : Jobs) {
      driver::Compilation Comp(J.W->Name, J.W->Source);
      driver::CompileOptions CO;
      CO.Mode = J.Mode;
      if (!Comp.compile(CO).Ok)
        R.fail(verifyKey(J) + " does not compile");
    }
  });

  auto UntracedOp = [&](size_t Job, uint64_t) {
    const VerifyJob &J = Jobs[Job];
    driver::RequestOptions O;
    O.Name = J.W->Name;
    O.Source = J.W->Source;
    O.Mode = J.Mode;
    O.Verify = driver::SafetyVerify::EachPass;
    O.VerifyIREachPass = true;
    driver::RequestContext Ctx(std::move(O));
    driver::RequestOutcome Out = Ctx.execute();
    return checkVerdict(J, Out.ExitCode, Out.Lint, Out.Report, X, R);
  };

  if (!C.Trace) {
    LoopStats L =
        closedLoop(C.Seconds, VerifyLimitMs, Jobs.size(), C.Seed, UntracedOp);
    reportEndToEnd(R, L, SetupS);
    return;
  }

  LoopStats Untraced = closedLoop(C.Seconds / 2, VerifyLimitMs, Jobs.size(),
                                  C.Seed, UntracedOp);
  R.Attempted += Untraced.Ops;
  R.Failed += Untraced.Failed;

  Tracer Off(false);
  LayerCounts Ignored;
  for (const VerifyJob &J : Jobs) {
    driver::Compilation A(J.W->Name, J.W->Source), B(J.W->Name, J.W->Source);
    driver::CompileOptions CO;
    CO.Mode = J.Mode;
    CO.Verify = driver::SafetyVerify::EachPass;
    CO.VerifyIREachPass = true;
    driver::CompileResult Ref = A.compile(CO);
    driver::CompileResult Got = composeCompile(B, J.Mode, Off, Ignored);
    if (!Ref.Ok || !Got.Ok ||
        ir::printModule(Ref.Module) != ir::printModule(Got.Module) ||
        Ref.SafetyDiags.size() != Got.SafetyDiags.size())
      R.fail("composed compile of " + verifyKey(J) +
             " differs from Compilation::compile");
  }

  Tracer T(true);
  TracedPhase P;
  P.T = &T;
  auto TracedOp = [&](size_t Job, uint64_t I) {
    const VerifyJob &J = Jobs[Job];
    T.beginOp(uint32_t(I));
    std::unique_ptr<driver::Compilation> Comp;
    {
      Tracer::Scope S(T, "cfront.parse");
      Comp = std::make_unique<driver::Compilation>(J.W->Name, J.W->Source);
    }
    driver::CompileResult CR =
        composeCompile(*Comp, J.Mode, T, P.Counts);
    bool Verified = false;
    if (CR.Ok) {
      Tracer::Scope S(T, "ir.verify");
      std::vector<std::string> Errors;
      Verified = ir::verifyModule(CR.Module, Errors) &&
                 CR.IRVerifyErrors.empty();
    }
    support::Json Lint, Report;
    if (CR.Ok) {
      Tracer::Scope S(T, "driver.report");
      Lint = driver::buildLintReport(J.W->Name, J.Mode, true, CR,
                                     &Comp->buffer());
      Report = driver::buildRunReport(J.W->Name, J.Mode, "sparc10", CR,
                                      nullptr);
      std::string Text = Lint.dump(0) + Report.dump(0);
      (void)Text;
    }
    T.endOp();
    int Exit = !Verified ? 1 : CR.SafetyOk ? 0 : 3;
    return checkVerdict(J, Exit, Lint, Report, X, R);
  };
  LoopStats Traced = closedLoop(C.Seconds / 2, VerifyLimitMs, Jobs.size(),
                                C.Seed + 1, TracedOp);
  R.Attempted += Traced.Ops;
  R.Failed += Traced.Failed;
  P.Ops = Traced.Ops;
  P.OpsPerS = Traced.OpsPerS;
  P.CountsMatch = X.matchRatio();
  reportLayers(R, P, Untraced.OpsPerS);
  if (!T.writeChrome(C.OutDir + "/trace-compile_verify.json"))
    R.fail("cannot write the Chrome trace under " + C.OutDir);
}

} // namespace perfbench
