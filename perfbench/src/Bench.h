//===- perfbench/src/Bench.h - The repository benchmark --------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark driver (see perfbench/README.md): the
/// run configuration, the result a workload fills in, the correctness
/// oracles' bookkeeping, the in-memory span tracer of the traced run, the
/// exact-count ledger checked against reference_counts.json, and the
/// seeded job streams. The benchmark sits outside the program: it only
/// calls the public functions of each module.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_PERFBENCH_BENCH_H
#define GCSAFE_PERFBENCH_BENCH_H

#include "driver/Request.h"
#include "support/Stats.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using gcsafe::driver::CompileMode;

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its Chrome trace file.
  std::string OutDir = ".";
  /// reference_counts.json; empty = do not compare.
  std::string ReferencePath;
};

/// What one workload run reports: the oracle verdicts, the op counts and
/// the metrics by name, in the order they were set.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Named reasons of every oracle failure; empty = correct.
  std::vector<std::string> Failures;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;

  void fail(const std::string &Reason);
  void set(const std::string &Name, double Value, const char *Unit);
  bool correct() const { return Failures.empty(); }
};

/// The five compile modes, in the paper's order.
const std::vector<CompileMode> &allModes();
/// The GC-safe ones (all but the -O2 baseline).
const std::vector<CompileMode> &gcSafeModes();
const std::vector<std::string> &machines();
/// True for the modes whose compile runs the annotator.
bool annotates(CompileMode Mode);

/// The hand-written golden output line of a workload, the same strings
/// as tests/test_workloads.cpp (the benchmark keeps its own copy). Empty
/// for an unknown name.
std::string goldenOutput(const std::string &WorkloadName);

/// The integer at \p Path in a report, or ~0 when it is missing.
uint64_t jsonCount(const gcsafe::support::Json &J,
                   std::initializer_list<const char *> Path);
/// The program output recorded in a run report ("" when absent).
std::string runOutput(const gcsafe::support::Json &Report);

/// Cycles through seeded shuffles of [0, Count): every consecutive block
/// of Count jobs covers each job once, so a run's mix does not depend on
/// the seed beyond its last partial block.
class JobStream {
public:
  JobStream(size_t Count, uint64_t Seed);
  size_t next();

private:
  std::vector<size_t> Order;
  size_t Pos;
  std::mt19937_64 Rng;
};

double nowSeconds();
/// CPU seconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID): on a
/// virtual machine it leaves out the time the host takes the vCPU away.
double threadCpuSeconds();
/// VmHWM of the process, in MB.
double peakRssMb();
/// Quantile \p Q of \p Values by linear interpolation (sorts a copy).
double quantile(std::vector<double> Values, double Q);
double median(std::vector<double> Values);

/// The outcome of a loop and the figures it reports.
struct LoopStats {
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  uint64_t WithinLimit = 0;
  /// VmHWM after a fixed number of ops, so that it does not grow with
  /// the number of ops a faster program completes in the same time.
  double PeakRssMb = 0;
  double OpsPerS = 0;
  double P50Ms = 0, P90Ms = 0, P99Ms = 0;
};

/// A closed loop with one client: runs Op(Job, I) back to back until
/// \p Seconds of wall time have passed and every job ran at least once,
/// drawing each Job from a JobStream over \p JobCount jobs. Op returns
/// false on failure; ops succeeding within \p LimitMs count toward
/// WithinLimit. The peak RSS is taken after the first pass over the jobs.
///
/// Each op is timed on the client thread's CPU clock, which leaves out
/// the time the hypervisor steals. On a shared host the same op still
/// runs up to half again as long for seconds at a time. The program is
/// deterministic, so a job does the same work on every repeat and that
/// interference only ever adds time: a job's cost is its fastest repeat. Each job is equally frequent in the mix,
/// so the latency quantiles are taken over the job costs and the rate is
/// one pass over the mix at those costs.
template <typename Fn>
LoopStats closedLoop(double Seconds, double LimitMs, size_t JobCount,
                     uint64_t Seed, Fn &&Op) {
  JobStream Jobs(JobCount, Seed);
  LoopStats L;
  std::vector<double> BestMs(JobCount, 1e300);
  double Start = nowSeconds();
  for (uint64_t I = 0;; ++I) {
    if (L.Ops >= JobCount && nowSeconds() - Start >= Seconds)
      break;
    size_t Job = Jobs.next();
    double C0 = threadCpuSeconds();
    bool Ok = Op(Job, I);
    double Ms = (threadCpuSeconds() - C0) * 1e3;
    BestMs[Job] = std::min(BestMs[Job], Ms);
    ++L.Ops;
    if (!Ok)
      ++L.Failed;
    else if (Ms <= LimitMs)
      ++L.WithinLimit;
    if (L.Ops == JobCount)
      L.PeakRssMb = peakRssMb();
  }
  double PassMs = 0;
  for (double Ms : BestMs)
    PassMs += Ms;
  L.OpsPerS = double(JobCount) / (PassMs / 1e3);
  L.P50Ms = quantile(BestMs, 0.50);
  L.P90Ms = quantile(BestMs, 0.90);
  L.P99Ms = quantile(BestMs, 0.99);
  return L;
}

/// Sets the end-to-end metrics every workload reports from one loop.
void reportEndToEnd(Result &R, const LoopStats &L, double SetupS);

/// Runs \p Setup \p Times times and returns the median wall seconds; the
/// last run's state is what the workload keeps.
template <typename Fn> double timedSetup(unsigned Times, Fn &&Setup) {
  std::vector<double> S;
  for (unsigned I = 0; I < Times; ++I) {
    double T0 = nowSeconds();
    Setup();
    S.push_back(nowSeconds() - T0);
  }
  return median(S);
}

//===----------------------------------------------------------------------===//
// Spans (traced run only)
//===----------------------------------------------------------------------===//

/// In-memory spans recorded around the benchmark's calls into each layer.
/// Nothing is written until writeChrome() at exit. When disabled every
/// call is a no-op, so the same composed code runs with tracing off.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  struct Span {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    int32_t Parent;
    uint32_t Op;
  };

  /// Opens the root span of op \p Op.
  void beginOp(uint32_t Op);
  void endOp();

  class Scope {
  public:
    Scope(Tracer &T, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int32_t Id;
  };

  /// Self time (duration minus the children's durations) summed per span
  /// name; the root spans are under "op".
  std::map<std::string, uint64_t> selfNsByName() const;
  /// Durations summed per span name.
  std::map<std::string, uint64_t> totalNsByName() const;
  /// Sum of the root spans' durations.
  uint64_t opWallNs() const;
  /// Writes the spans of the first ops, up to about MaxChromeSpans, as
  /// Chrome trace_event "X" events (the metrics use every span).
  static constexpr size_t MaxChromeSpans = 50000;
  bool writeChrome(const std::string &Path) const;

private:
  int32_t open(const char *Name);
  void close(int32_t Id);

  bool Enabled;
  std::vector<Span> Spans;
  int32_t Current = -1;
  uint32_t CurOp = 0;
};

//===----------------------------------------------------------------------===//
// Exact counts
//===----------------------------------------------------------------------===//

/// Deterministic counters per job key (modelled cycles, instructions,
/// KEEP_LIVE/kill counts, code size...). Every record of a key must repeat
/// the first bit for bit, and match the reference captured in
/// reference_counts.json when one is loaded.
class ExactCounts {
public:
  using Fields = std::vector<std::pair<std::string, uint64_t>>;

  /// Loads reference_counts.json; false (with a reason) on a bad file.
  bool loadReference(const std::string &Path, std::string &Error);
  void record(const std::string &Key, const Fields &F, Result &R);
  /// Share of recorded keys whose counts equal the reference.
  double matchRatio() const;
  /// The recorded keys as a reference document.
  gcsafe::support::Json toJson() const;

private:
  std::map<std::string, Fields> Seen;
  std::map<std::string, Fields> Reference;
  bool HasReference = false;
  std::map<std::string, bool> Matches;
};

//===----------------------------------------------------------------------===//
// Composed layer calls (traced run)
//===----------------------------------------------------------------------===//

/// Per-op counters the composed pipeline collects beside its spans.
struct LayerCounts {
  uint64_t SourceBytes = 0;
  uint64_t KeepLives = 0;
  uint64_t InstrsLowered = 0;
  uint64_t InstrsOut = 0;
  uint64_t Rewrites = 0;
  uint64_t VerifyCalls = 0;
  std::map<std::string, uint64_t> PassApplied;
};

/// Compilation::compile rebuilt from the public layer calls, one span per
/// layer: parse, annotate, lower, optimize (with each-pass safety and
/// structural verification) and the final safety check.
/// The module must print exactly as Compilation::compile's does.
gcsafe::driver::CompileResult
composeCompile(gcsafe::driver::Compilation &C, CompileMode Mode,
               Tracer &T, LayerCounts &K);

/// Total IR instructions of a module.
uint64_t instructionCount(const gcsafe::ir::Module &M);

/// Sets the per-layer metrics shared by every workload from the spans
/// and counters of a traced phase. Metrics a workload does not exercise
/// read 0.
struct ServeLayer {
  double HitRatio = 0, HitNs = 0, MissNs = 0, QueueWaitNs = 0;
  double StageCacheLookupNs = 0, Shed = 0, MemoHitRatio = 0, LagP99Ms = 0;
  double CapacityPerS = 0;
};
struct TracedPhase {
  const Tracer *T = nullptr;
  uint64_t Ops = 0;
  LayerCounts Counts;
  ServeLayer Serve;
  uint64_t MarkNs = 0, SweepNs = 0;
  uint64_t Instrs = 0, Cycles = 0, FreedAccesses = 0, CheckViolations = 0;
  uint64_t Collections = 0, WordsScanned = 0, MarkedObjects = 0;
  uint64_t Allocs = 0, FalseRetention = 0;
  double OpsPerS = 0;
  /// ExactCounts::matchRatio() of the run.
  double CountsMatch = 0;
};
void addRunCounts(TracedPhase &P, const gcsafe::vm::RunResult &Run);
void reportLayers(Result &R, const TracedPhase &P, double UntracedOpsPerS);

/// The job key of one (workload, mode, machine) run.
std::string runKey(const std::string &Workload, CompileMode Mode,
                   const std::string &Machine);
/// The exact counts of one executed run report (gcsafe-run-report-v1).
ExactCounts::Fields runReportCounts(const gcsafe::support::Json &Report);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runGcAdversarial(const RunConfig &C, ExactCounts &X, Result &R);
void runCompileVerify(const RunConfig &C, ExactCounts &X, Result &R);
void runServeMix(const RunConfig &C, ExactCounts &X, Result &R);

} // namespace perfbench

#endif // GCSAFE_PERFBENCH_BENCH_H
