//===- perfbench/src/Common.cpp -------------------------------*- C++ -*-===//

#include "Bench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <time.h>

using namespace gcsafe;

namespace perfbench {

void Result::fail(const std::string &Reason) {
  // One line per distinct reason keeps a systematic failure readable.
  if (std::find(Failures.begin(), Failures.end(), Reason) == Failures.end())
    Failures.push_back(Reason);
}

void Result::set(const std::string &Name, double Value, const char *Unit) {
  Metrics.push_back({Name, {Value, Unit}});
}

const std::vector<CompileMode> &allModes() {
  static const std::vector<CompileMode> M = {
      CompileMode::O2, CompileMode::O2Safe, CompileMode::O2SafePost,
      CompileMode::Debug, CompileMode::DebugChecked};
  return M;
}

const std::vector<CompileMode> &gcSafeModes() {
  static const std::vector<CompileMode> M = {
      CompileMode::O2Safe, CompileMode::O2SafePost, CompileMode::Debug,
      CompileMode::DebugChecked};
  return M;
}

const std::vector<std::string> &machines() {
  static const std::vector<std::string> M = {"sparc2", "sparc10",
                                             "pentium90"};
  return M;
}

bool annotates(CompileMode Mode) {
  return Mode == CompileMode::O2Safe || Mode == CompileMode::O2SafePost ||
         Mode == CompileMode::DebugChecked;
}

std::string goldenOutput(const std::string &Name) {
  static const std::map<std::string, std::string> Golden = {
      {"cordtest", "cordtest sum=130250\n"},
      {"cfrac", "cfrac check=70401\n"},
      {"gawk", "gawk total=8879285\n"},
      {"gawk-buggy", "gawk total=8879285\n"},
      {"gs", "gs check=100034\n"},
      {"displaced-index", "sum=5995\n"},
      {"strcpy-loop", "copied=204400\n"},
      {"char-index", "f sum=1650000\n"},
  };
  auto It = Golden.find(Name);
  return It == Golden.end() ? std::string() : It->second;
}

uint64_t jsonCount(const support::Json &J,
                   std::initializer_list<const char *> Path) {
  const support::Json *Cur = &J;
  for (const char *P : Path)
    if (!(Cur = Cur->get(P)))
      return ~uint64_t(0);
  return uint64_t(Cur->asInt());
}

std::string runOutput(const support::Json &Report) {
  const support::Json *Run = Report.get("run");
  const support::Json *Out = Run ? Run->get("output") : nullptr;
  return Out ? Out->asString() : std::string();
}

JobStream::JobStream(size_t Count, uint64_t Seed)
    : Order(Count), Pos(Count), Rng(Seed) {
  for (size_t I = 0; I < Count; ++I)
    Order[I] = I;
}

size_t JobStream::next() {
  if (Pos == Order.size()) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    Pos = 0;
  }
  return Order[Pos++];
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double threadCpuSeconds() {
  timespec TS;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return double(TS.tv_sec) + double(TS.tv_nsec) * 1e-9;
}

/// VmHWM of /proc/self/status, not getrusage's ru_maxrss: the latter keeps
/// the peak of the process image before exec, i.e. of the forking parent.
double peakRssMb() {
  std::ifstream IS("/proc/self/status");
  for (std::string Line; std::getline(IS, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // The line is in kB.
  return 0;
}

void reportEndToEnd(Result &R, const LoopStats &L, double SetupS) {
  R.Attempted += L.Ops;
  R.Failed += L.Failed;
  R.set("ops_per_s", L.OpsPerS, "1/s");
  R.set("op_p50_ms", L.P50Ms, "ms");
  R.set("op_p90_ms", L.P90Ms, "ms");
  R.set("op_p99_ms", L.P99Ms, "ms");
  R.set("slo_ratio", L.Ops ? double(L.WithinLimit) / double(L.Ops) : 0,
        "ratio");
  R.set("peak_rss_mb", L.PeakRssMb, "MB");
  R.set("setup_s", SetupS, "s");
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

int32_t Tracer::open(const char *Name) {
  if (!Enabled)
    return -1;
  Spans.push_back({Name, support::monotonicNowNs(), 0, Current, CurOp});
  Current = int32_t(Spans.size() - 1);
  return Current;
}

void Tracer::close(int32_t Id) {
  if (Id < 0)
    return;
  Spans[size_t(Id)].EndNs = support::monotonicNowNs();
  Current = Spans[size_t(Id)].Parent;
}

void Tracer::beginOp(uint32_t Op) {
  CurOp = Op;
  open("op");
}

void Tracer::endOp() { close(Current); }

Tracer::Scope::Scope(Tracer &T, const char *Name) : T(T), Id(T.open(Name)) {}
Tracer::Scope::~Scope() { T.close(Id); }

std::map<std::string, uint64_t> Tracer::selfNsByName() const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[size_t(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, uint64_t> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    Self[Spans[I].Name] += Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
  }
  return Self;
}

std::map<std::string, uint64_t> Tracer::totalNsByName() const {
  std::map<std::string, uint64_t> Total;
  for (const Span &S : Spans)
    Total[S.Name] += S.EndNs - S.StartNs;
  return Total;
}

uint64_t Tracer::opWallNs() const {
  uint64_t Ns = 0;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Ns += S.EndNs - S.StartNs;
  return Ns;
}

bool Tracer::writeChrome(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  // Spans are recorded in start order, which is the nondecreasing-ts
  // order the trace_event format asks for.
  OS << "{\"traceEvents\":[\n"
     << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
        "\"args\":{\"name\":\"gcsafe-perfbench\"}}";
  char Buf[64];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Keeps the file loadable: whole ops only, up to MaxChromeSpans.
    if (S.Parent < 0 && I >= MaxChromeSpans)
      break;
    OS << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"layer\",\"name\":\""
       << S.Name << "\",";
    std::snprintf(Buf, sizeof(Buf), "\"ts\":%.3f,\"dur\":%.3f",
                  double(S.StartNs - Base) / 1e3,
                  double(S.EndNs - S.StartNs) / 1e3);
    OS << Buf << ",\"args\":{\"op\":" << S.Op << ",\"id\":" << I
       << ",\"parent\":" << S.Parent << "}}";
  }
  OS << "\n]}\n";
  return bool(OS);
}

//===----------------------------------------------------------------------===//
// ExactCounts
//===----------------------------------------------------------------------===//

bool ExactCounts::loadReference(const std::string &Path, std::string &Error) {
  std::ifstream IS(Path);
  if (!IS) {
    Error = "cannot read " + Path;
    return false;
  }
  std::stringstream SS;
  SS << IS.rdbuf();
  support::Json Doc;
  if (!support::Json::parse(SS.str(), Doc, Error))
    return false;
  const support::Json *Keys = Doc.get("counts");
  if (!Keys || !Keys->isObject()) {
    Error = Path + ": no \"counts\" object";
    return false;
  }
  for (const auto &[Key, Obj] : Keys->members()) {
    Fields F;
    for (const auto &[Name, V] : Obj.members())
      F.push_back({Name, uint64_t(V.asInt())});
    Reference[Key] = std::move(F);
  }
  HasReference = true;
  return true;
}

void ExactCounts::record(const std::string &Key, const Fields &F,
                         Result &R) {
  auto [It, Inserted] = Seen.emplace(Key, F);
  if (!Inserted) {
    if (It->second != F)
      R.fail("exact counts of " + Key + " differ between repeats");
    return;
  }
  if (!HasReference)
    return;
  auto Ref = Reference.find(Key);
  bool Match = Ref != Reference.end();
  if (Match) {
    // The reference names its fields; compare them as a set so a
    // re-ordered file still matches.
    Fields A = F, B = Ref->second;
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    Match = A == B;
  }
  Matches[Key] = Match;
  if (!Match)
    R.fail("exact counts of " + Key + " differ from reference_counts.json");
}

double ExactCounts::matchRatio() const {
  if (Matches.empty())
    return 0;
  size_t N = 0;
  for (const auto &[Key, M] : Matches)
    N += M;
  return double(N) / double(Matches.size());
}

support::Json ExactCounts::toJson() const {
  support::Json Keys = support::Json::object();
  for (const auto &[Key, F] : Seen) {
    support::Json Obj = support::Json::object();
    for (const auto &[Name, V] : F)
      Obj[Name] = support::Json::integer(V);
    Keys[Key] = std::move(Obj);
  }
  return Keys;
}

//===----------------------------------------------------------------------===//
// Run keys and counts
//===----------------------------------------------------------------------===//

std::string runKey(const std::string &Workload, CompileMode Mode,
                   const std::string &Machine) {
  return Workload + "/" + driver::compileModeToken(Mode) + "/" + Machine;
}

ExactCounts::Fields runReportCounts(const support::Json &Report) {
  const support::Json &R = Report;
  return {
      {"cycles", jsonCount(R, {"run", "cycles"})},
      {"instructions", jsonCount(R, {"run", "instructions"})},
      {"keep_lives_executed", jsonCount(R, {"run", "keep_lives_executed"})},
      {"kills_executed", jsonCount(R, {"run", "kills_executed"})},
      {"check_violations", jsonCount(R, {"run", "checks", "violations"})},
      {"alloc_count", jsonCount(R, {"run", "gc", "alloc_count"})},
      {"keep_lives", jsonCount(R, {"compile", "annotator", "keep_lives"})},
      {"kills_inserted",
       jsonCount(R, {"compile", "passes", "total", "kills_inserted"})},
      {"code_size_units", jsonCount(R, {"compile", "code_size_units"})},
  };
}

uint64_t instructionCount(const ir::Module &M) {
  uint64_t N = 0;
  for (const ir::Function &F : M.Functions)
    for (const ir::BasicBlock &B : F.Blocks)
      N += B.Insts.size();
  return N;
}

} // namespace perfbench
