//===- perfbench/src/main.cpp - Benchmark driver entry point ---*- C++ -*-===//
//
// gcsafe-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR] [--reference FILE]
//                  [--write-reference FILE]
//
// Runs one workload and prints, as its last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "failures", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half and the metrics are the
// per-layer ones. Exits 1 when an oracle failed, 2 on a usage error.
// perfbench/run.py builds this program and is the command to use.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "vm/VM.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

using namespace gcsafe;
using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "gcsafe-perfbench: %s\n"
               "usage: gcsafe-perfbench --workload gc_adversarial|"
               "compile_verify|serve_mix --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--reference FILE] [--write-reference FILE]\n",
               Why);
  return 2;
}

/// The paper's checker caught the buggy gawk immediately; the benchmark's
/// inputs are only trusted while that still holds, so every run checks it.
void checkGawkBuggy(Result &R) {
  const workloads::Workload &B = workloads::gawkBuggy();
  vm::RunResult Run =
      driver::compileAndRun(B.Name, B.Source, CompileMode::DebugChecked);
  if (!Run.Ok || Run.CheckViolations == 0)
    R.fail("gawk-buggy under -g checked reported no check violation");
  if (Run.Output != goldenOutput(B.Name))
    R.fail("gawk-buggy under -g checked printed the wrong output");
}

/// Merges the run's exact counts into \p Path (keys this run recorded
/// overwrite, others stay), so one file can collect every workload.
bool writeReference(const std::string &Path, const ExactCounts &X) {
  support::Json Counts = support::Json::object();
  std::ifstream IS(Path);
  if (IS) {
    std::stringstream SS;
    SS << IS.rdbuf();
    support::Json Old;
    std::string Error;
    if (support::Json::parse(SS.str(), Old, Error))
      if (const support::Json *C = Old.get("counts"))
        Counts = *C;
  }
  support::Json Recorded = X.toJson();
  for (const auto &[Key, F] : Recorded.members())
    Counts[Key] = F;
  support::Json Doc = support::Json::object();
  Doc["schema"] = support::Json::string("gcsafe-perfbench-counts-v1");
  Doc["counts"] = std::move(Counts);
  std::ofstream OS(Path);
  OS << Doc.dump(1) << "\n";
  return bool(OS);
}

} // namespace

int main(int argc, char **argv) {
  RunConfig C;
  std::string WriteReference;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value after " + A).c_str());
    std::string V = argv[++I];
    try {
      if (A == "--workload")
        C.Workload = V;
      else if (A == "--seed")
        C.Seed = std::stoull(V), HaveSeed = true;
      else if (A == "--seconds")
        C.Seconds = std::stod(V), HaveSeconds = true;
      else if (A == "--trace")
        C.Trace = std::stoi(V) != 0, HaveTrace = true;
      else if (A == "--out-dir")
        C.OutDir = V;
      else if (A == "--reference")
        C.ReferencePath = V;
      else if (A == "--write-reference")
        WriteReference = V;
      else
        return usage(("unknown option " + A).c_str());
    } catch (const std::exception &) {
      return usage(("bad value for " + A).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || C.Workload.empty())
    return usage("--workload, --seed, --seconds and --trace are required");
  if (!(C.Seconds > 0))
    return usage("--seconds must be positive");

  Result R;
  ExactCounts X;
  if (!C.ReferencePath.empty()) {
    std::string Error;
    if (!X.loadReference(C.ReferencePath, Error))
      return usage(Error.c_str());
  }

  using WorkloadFn = void (*)(const RunConfig &, ExactCounts &, Result &);
  static const std::map<std::string, WorkloadFn> Workloads = {
      {"gc_adversarial", runGcAdversarial},
      {"compile_verify", runCompileVerify},
      {"serve_mix", runServeMix}};
  auto W = Workloads.find(C.Workload);
  if (W == Workloads.end())
    return usage(("unknown workload " + C.Workload).c_str());
  checkGawkBuggy(R);
  if (R.correct())
    W->second(C, X, R);

  if (!WriteReference.empty() && !writeReference(WriteReference, X))
    R.fail("cannot write " + WriteReference);

  support::Json Out = support::Json::object();
  Out["correct"] = support::Json::boolean(R.correct());
  Out["attempted"] = support::Json::integer(R.Attempted);
  Out["failed"] = support::Json::integer(R.Failed);
  support::Json Failures = support::Json::array();
  for (const std::string &F : R.Failures)
    Failures.push(support::Json::string(F));
  Out["failures"] = std::move(Failures);
  support::Json Metrics = support::Json::object();
  for (const auto &[Name, VU] : R.Metrics) {
    support::Json M = support::Json::object();
    M["value"] = support::Json::number(VU.first);
    M["unit"] = support::Json::string(VU.second);
    Metrics[Name] = std::move(M);
  }
  Out["metrics"] = std::move(Metrics);
  std::cout << Out.dump(0) << std::endl;
  return R.correct() ? 0 : 1;
}
