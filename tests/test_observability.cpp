//===- tests/test_observability.cpp - Stats, trace and report tests -------===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// The observability layer's contract (docs/OBSERVABILITY.md):
//
//  * Json round-trips its own output, preserving member order and the
//    int/double distinction;
//  * Stats nests dotted paths and merges registries;
//  * TraceBuffer is a bounded ring that counts what it drops;
//  * pass counters and GC/VM counters are deterministic on a fixed input
//    (two identical compiles/runs report identical numbers);
//  * buildRunReport emits the gcsafe-run-report-v1 document, whose cycle
//    attribution sums to the run's total cycles.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "support/Stats.h"
#include "support/Trace.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace gcsafe;
using namespace gcsafe::support;

namespace {

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(Json, BuildAndAccess) {
  Json Doc = Json::object();
  Doc["b"] = Json::integer(int64_t(2));
  Doc["a"] = Json::string("x");
  Doc["c"] = Json::array();
  Doc["c"].push(Json::number(1.5));
  Doc["c"].push(Json::boolean(true));
  Doc["c"].push(Json::null());

  // Insertion order, not sorted order.
  ASSERT_EQ(Doc.members().size(), 3u);
  EXPECT_EQ(Doc.members()[0].first, "b");
  EXPECT_EQ(Doc.members()[1].first, "a");
  EXPECT_EQ(Doc.members()[2].first, "c");

  EXPECT_EQ(Doc.get("b")->asInt(), 2);
  EXPECT_EQ(Doc.get("a")->asString(), "x");
  EXPECT_EQ(Doc.get("c")->size(), 3u);
  EXPECT_FALSE(Doc.has("missing"));
  EXPECT_EQ(Doc.get("missing"), nullptr);
}

TEST(Json, RoundTrip) {
  Json Doc = Json::object();
  Doc["int"] = Json::integer(int64_t(-42));
  Doc["big"] = Json::integer(int64_t(1) << 53);
  Doc["dbl"] = Json::number(2.25);
  Doc["whole_dbl"] = Json::number(3.0); // must reparse as a double
  Doc["str"] = Json::string("line\nquote\" tab\t unicode\x01");
  Doc["null"] = Json::null();
  Doc["t"] = Json::boolean(true);
  Doc["arr"] = Json::array();
  Doc["arr"].push(Json::integer(int64_t(1)));
  Doc["nested"] = Json::object();
  Doc["nested"]["k"] = Json::string("v");

  for (int Indent : {0, 2}) {
    std::string Text = Doc.dump(Indent);
    Json Back;
    std::string Error;
    ASSERT_TRUE(Json::parse(Text, Back, Error)) << Error;
    EXPECT_EQ(Back.dump(Indent), Text);
    EXPECT_TRUE(Back.get("int")->isInt());
    EXPECT_EQ(Back.get("int")->asInt(), -42);
    EXPECT_EQ(Back.get("big")->asInt(), int64_t(1) << 53);
    EXPECT_TRUE(Back.get("dbl")->kind() == Json::Kind::Double);
    EXPECT_DOUBLE_EQ(Back.get("dbl")->asDouble(), 2.25);
    EXPECT_TRUE(Back.get("whole_dbl")->kind() == Json::Kind::Double);
    EXPECT_EQ(Back.get("str")->asString(), Doc.get("str")->asString());
    EXPECT_TRUE(Back.get("null")->isNull());
    EXPECT_TRUE(Back.get("t")->asBool());
    EXPECT_EQ(Back.get("nested")->get("k")->asString(), "v");
  }
}

TEST(Json, ParseRejectsMalformed) {
  Json Out;
  std::string Error;
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "\"unterminated",
        "1 2", "{\"a\":1,}", "nul"}) {
    EXPECT_FALSE(Json::parse(Bad, Out, Error)) << "accepted: " << Bad;
    EXPECT_FALSE(Error.empty());
  }
}

TEST(Json, EscapeRoundTrip) {
  std::string Nasty;
  for (int C = 1; C < 128; ++C)
    Nasty.push_back(static_cast<char>(C));
  Json Doc = Json::object();
  Doc["s"] = Json::string(Nasty);
  Json Back;
  std::string Error;
  ASSERT_TRUE(Json::parse(Doc.dump(0), Back, Error)) << Error;
  EXPECT_EQ(Back.get("s")->asString(), Nasty);
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

TEST(Stats, CountersAndNesting) {
  Stats S;
  S.add("opt.cse.csed", 3);
  S.add("opt.cse.csed", 2);
  S.add("opt.cse.runs");
  S.set("gc.collections", 7);
  S.setString("meta.mode", "safe");
  EXPECT_EQ(S.get("opt.cse.csed"), 5u);
  EXPECT_EQ(S.get("opt.cse.runs"), 1u);
  EXPECT_EQ(S.get("absent"), 0u);
  EXPECT_TRUE(S.has("gc.collections"));
  EXPECT_FALSE(S.has("absent"));

  Json J = S.toJson();
  ASSERT_TRUE(J.has("opt"));
  EXPECT_EQ(J.get("opt")->get("cse")->get("csed")->asInt(), 5);
  EXPECT_EQ(J.get("gc")->get("collections")->asInt(), 7);
  EXPECT_EQ(J.get("meta")->get("mode")->asString(), "safe");
}

TEST(Stats, Merge) {
  Stats A, B;
  A.add("x", 1);
  A.add("only_a", 2);
  B.add("x", 10);
  B.add("only_b", 20);
  A.merge(B);
  EXPECT_EQ(A.get("x"), 11u);
  EXPECT_EQ(A.get("only_a"), 2u);
  EXPECT_EQ(A.get("only_b"), 20u);
}

//===----------------------------------------------------------------------===//
// Histogram (docs/OBSERVABILITY.md §8)
//===----------------------------------------------------------------------===//

TEST(Histogram, BoundsAreMonotoneAndBucketsSumToCount) {
  Histogram H;
  const std::vector<uint64_t> &B = H.bounds();
  ASSERT_FALSE(B.empty());
  for (size_t I = 1; I < B.size(); ++I)
    EXPECT_LT(B[I - 1], B[I]) << "bound " << I;

  // One value per bucket, including the overflow bucket past the last
  // bound: the bucket counts must account for every recorded value.
  for (uint64_t Bound : B)
    H.record(Bound); // lands at-or-under its own bound
  H.record(B.back() + 1); // overflow
  EXPECT_EQ(H.count(), B.size() + 1);
  uint64_t Sum = 0;
  for (size_t I = 0; I <= B.size(); ++I)
    Sum += H.bucketCount(I);
  EXPECT_EQ(Sum, H.count());
  EXPECT_EQ(H.bucketCount(B.size()), 1u); // the overflow value
}

TEST(Histogram, PercentilesAreOrderedAndClampedToObservedMax) {
  Histogram H;
  EXPECT_EQ(H.percentile(0.5), 0u); // empty histogram
  for (uint64_t V = 1; V <= 100; ++V)
    H.record(V * 1000);
  uint64_t P50 = H.percentile(0.50);
  uint64_t P90 = H.percentile(0.90);
  uint64_t P99 = H.percentile(0.99);
  EXPECT_LE(P50, P90);
  EXPECT_LE(P90, P99);
  EXPECT_LE(P99, H.max());
  EXPECT_EQ(H.min(), 1000u);
  EXPECT_EQ(H.max(), 100000u);
  // A single sample: every percentile is exactly that sample, never a
  // bucket bound above it.
  Histogram One;
  One.record(1234567);
  EXPECT_EQ(One.percentile(0.5), 1234567u);
  EXPECT_EQ(One.percentile(0.99), 1234567u);
}

TEST(Histogram, JsonCarriesBucketsAndInfinityBound) {
  Histogram H;
  H.record(500);
  H.record(2000000);
  Json J = H.toJson();
  EXPECT_EQ(J.get("count")->asInt(), 2);
  EXPECT_EQ(J.get("sum_ns")->asInt(), 2000500);
  EXPECT_EQ(J.get("min_ns")->asInt(), 500);
  EXPECT_EQ(J.get("max_ns")->asInt(), 2000000);
  const Json *Buckets = J.get("buckets");
  ASSERT_TRUE(Buckets && Buckets->isArray());
  // Final bucket is the overflow with le_ns "inf"; all counts sum to 2.
  EXPECT_EQ(Buckets->at(Buckets->size() - 1).get("le_ns")->asString(), "inf");
  int64_t Sum = 0;
  for (size_t I = 0; I < Buckets->size(); ++I)
    Sum += Buckets->at(I).get("count")->asInt();
  EXPECT_EQ(Sum, 2);
}

//===----------------------------------------------------------------------===//
// TraceBuffer
//===----------------------------------------------------------------------===//

TEST(Trace, RingDropsOldest) {
  TraceBuffer T(4);
  for (uint64_t I = 0; I < 10; ++I)
    T.emit("cat", "ev", I);
  EXPECT_EQ(T.dropped(), 6u);
  auto Events = T.snapshot();
  ASSERT_EQ(Events.size(), 4u);
  // Oldest-first snapshot of the last 4 of 10 events.
  EXPECT_EQ(Events.front().Value, 6u);
  EXPECT_EQ(Events.back().Value, 9u);

  Json J = T.toJson();
  EXPECT_EQ(J.get("schema")->asString(), "gcsafe-trace-v1");
  EXPECT_EQ(J.get("emitted")->asInt(), 10);
  EXPECT_EQ(J.get("dropped")->asInt(), 6);
  EXPECT_EQ(J.get("events")->size(), 4u);
}

TEST(Trace, DetailIsOptionalInJson) {
  TraceBuffer T(8);
  T.emit("a", "plain");
  T.emit("a", "detailed", 1, 2, "some detail");
  Json J = T.toJson();
  EXPECT_FALSE(J.get("events")->at(0).has("detail"));
  ASSERT_TRUE(J.get("events")->at(1).has("detail"));
  EXPECT_EQ(J.get("events")->at(1).get("detail")->asString(), "some detail");
}

//===----------------------------------------------------------------------===//
// End-to-end determinism and the run report
//===----------------------------------------------------------------------===//

const char *ListProgram = R"(
struct node { struct node *next; long v; };
int main(void) {
  struct node *head = 0;
  long i;
  long sum = 0;
  for (i = 0; i < 50; i = i + 1) {
    struct node *n = (struct node *)gc_malloc(sizeof(struct node));
    n->next = head;
    n->v = i;
    head = n;
  }
  for (; head; head = head->next)
    sum = sum + head->v;
  return (int)sum;
}
)";

struct CompiledRun {
  driver::CompileResult CR;
  vm::RunResult Run;
};

CompiledRun compileAndRunOnce(support::TraceBuffer *Trace = nullptr) {
  driver::Compilation C("list", ListProgram);
  driver::CompileOptions CO;
  CO.Mode = driver::CompileMode::O2Safe;
  CO.Trace = Trace;
  CompiledRun R;
  R.CR = C.compile(CO);
  if (!R.CR.Ok)
    return R;
  vm::VMOptions VO;
  VO.GcAllocTrigger = 10; // deterministic: collect every 10 allocations
  VO.Trace = Trace;
  vm::VM Machine(R.CR.Module, VO);
  R.Run = Machine.run();
  return R;
}

TEST(Observability, PassCountersAreDeterministic) {
  CompiledRun A = compileAndRunOnce();
  CompiledRun B = compileAndRunOnce();
  ASSERT_TRUE(A.CR.Ok && B.CR.Ok);

  // Every non-timing counter must match across identical compiles.
  for (const Stats::Entry &E : A.CR.Stats.entries()) {
    if (E.Path.size() > 3 && E.Path.compare(E.Path.size() - 3, 3, "_ns") == 0)
      continue;
    if (E.Path.size() > 3 && E.Path.compare(E.Path.size() - 3, 3, ".ns") == 0)
      continue;
    EXPECT_EQ(B.CR.Stats.get(E.Path), E.Count) << E.Path;
  }
  // The optimizer did something observable on this input.
  EXPECT_GT(A.CR.Stats.get("opt.total.functions"), 0u);
  EXPECT_TRUE(A.CR.Stats.has("phase.optimize_ns"));
  EXPECT_TRUE(A.CR.Stats.has("phase.parse_ns"));
}

TEST(Observability, RunCountersAreDeterministic) {
  CompiledRun A = compileAndRunOnce();
  CompiledRun B = compileAndRunOnce();
  ASSERT_TRUE(A.Run.Ok && B.Run.Ok);
  EXPECT_EQ(A.Run.ExitCode, 50 * 49 / 2);
  EXPECT_EQ(A.Run.InstructionsExecuted, B.Run.InstructionsExecuted);
  EXPECT_EQ(A.Run.Cycles, B.Run.Cycles);
  EXPECT_EQ(A.Run.KeepLiveExecuted, B.Run.KeepLiveExecuted);
  EXPECT_GT(A.Run.KeepLiveExecuted, 0u);

  // 51 allocations (50 nodes + the VM's output buffer-free program still
  // allocates only the nodes here) at trigger 10 → a fixed collection count.
  EXPECT_EQ(A.Run.Collections, B.Run.Collections);
  EXPECT_GT(A.Run.Collections, 0u);
  EXPECT_EQ(A.Run.Gc.Events.size(), A.Run.Collections);

  // Marking-accuracy counters match too (heap layout is deterministic).
  EXPECT_EQ(A.Run.Gc.WordsScanned, B.Run.Gc.WordsScanned);
  EXPECT_EQ(A.Run.Gc.PointerHits, B.Run.Gc.PointerHits);
  EXPECT_EQ(A.Run.Gc.MarkedObjects, B.Run.Gc.MarkedObjects);
}

TEST(Observability, CollectionEventsRecorded) {
  CompiledRun A = compileAndRunOnce();
  ASSERT_TRUE(A.Run.Ok);
  ASSERT_FALSE(A.Run.Gc.Events.empty());
  uint64_t CumulativeMarked = 0;
  for (size_t I = 0; I < A.Run.Gc.Events.size(); ++I) {
    const gc::CollectionEvent &E = A.Run.Gc.Events[I];
    EXPECT_EQ(E.Index, I);
    EXPECT_GT(E.WordsScanned, 0u);
    EXPECT_GE(E.PointerHits, E.MarkedObjects);
    EXPECT_GE(E.PagesScanned, 1u);
    CumulativeMarked += E.MarkedObjects;
  }
  EXPECT_EQ(A.Run.Gc.MarkedObjects, CumulativeMarked);
}

TEST(Observability, EventLimitBoundsRecords) {
  driver::Compilation C("list", ListProgram);
  driver::CompileOptions CO;
  CO.Mode = driver::CompileMode::O2Safe;
  driver::CompileResult CR = C.compile(CO);
  ASSERT_TRUE(CR.Ok);
  // 2 and 3 wrap the ring at different points of the run.
  for (size_t Limit : {size_t(2), size_t(3)}) {
    vm::VMOptions VO;
    VO.GcAllocTrigger = 5;
    VO.GcEventLimit = Limit;
    vm::VM Machine(CR.Module, VO);
    vm::RunResult Run = Machine.run();
    ASSERT_TRUE(Run.Ok);
    EXPECT_GT(Run.Collections, Limit + 1);
    // Only the most recent records are kept, oldest first and consecutive;
    // cumulatives still cover all.
    ASSERT_EQ(Run.Gc.Events.size(), Limit);
    EXPECT_EQ(Run.Gc.Events.back().Index, Run.Collections - 1);
    uint64_t Expect = Run.Collections - Limit;
    for (const gc::CollectionEvent &E : Run.Gc.Events)
      EXPECT_EQ(E.Index, Expect++) << "limit " << Limit;
    for (size_t I = 0; I < Limit; ++I)
      EXPECT_EQ(Run.Gc.Events[I].Index, Run.Collections - Limit + I);
  }
}

TEST(Observability, CycleAttributionSumsToTotal) {
  CompiledRun A = compileAndRunOnce();
  ASSERT_TRUE(A.Run.Ok);
  EXPECT_EQ(A.Run.userCycles() + A.Run.KeepLiveCycles + A.Run.CheckCycles +
                A.Run.AllocatorCycles + A.Run.SpillCycles,
            A.Run.Cycles);
  // KEEP_LIVE expands to an empty asm by default: executed but free.
  EXPECT_EQ(A.Run.KeepLiveCycles, 0u);
  EXPECT_GT(A.Run.AllocatorCycles, 0u);
}

TEST(Observability, TraceCarriesPhasePassAndGcEvents) {
  TraceBuffer Trace(1024);
  CompiledRun A = compileAndRunOnce(&Trace);
  ASSERT_TRUE(A.Run.Ok);
  bool SawPhase = false, SawPass = false, SawGc = false, SawVm = false;
  uint64_t LastT = 0;
  for (const TraceEvent &E : Trace.snapshot()) {
    EXPECT_GE(E.TimeNs, LastT);
    LastT = E.TimeNs;
    std::string Cat = E.Category;
    SawPhase |= Cat == "phase";
    SawPass |= Cat == "pass";
    SawGc |= Cat == "gc";
    SawVm |= Cat == "vm";
  }
  EXPECT_TRUE(SawPhase);
  EXPECT_TRUE(SawPass);
  EXPECT_TRUE(SawGc);
  EXPECT_TRUE(SawVm);
}

TEST(Observability, RunReportSchemaAndRoundTrip) {
  CompiledRun A = compileAndRunOnce();
  ASSERT_TRUE(A.CR.Ok && A.Run.Ok);
  Json Report = driver::buildRunReport("list.c", driver::CompileMode::O2Safe,
                                       "sparc10", A.CR, &A.Run);

  EXPECT_EQ(Report.get("schema")->asString(), "gcsafe-run-report-v1");
  EXPECT_EQ(Report.get("mode")->asString(), "-O2 safe");
  ASSERT_TRUE(Report.has("compile"));
  ASSERT_TRUE(Report.has("run"));

  const Json *Compile = Report.get("compile");
  EXPECT_TRUE(Compile->get("ok")->asBool());
  EXPECT_GT(Compile->get("code_size_units")->asInt(), 0);
  EXPECT_TRUE(Compile->has("phases_ns"));
  EXPECT_TRUE(Compile->has("annotator"));
  EXPECT_GT(Compile->get("annotator")->get("keep_lives")->asInt(), 0);
  EXPECT_TRUE(Compile->has("passes"));

  const Json *Run = Report.get("run");
  EXPECT_EQ(Run->get("exit_code")->asInt(), 50 * 49 / 2);
  const Json *Attr = Run->get("cycle_attribution");
  ASSERT_NE(Attr, nullptr);
  int64_t Sum = 0;
  for (const auto &KV : Attr->members())
    Sum += KV.second.asInt();
  EXPECT_EQ(Sum, Run->get("cycles")->asInt());
  const Json *Gc = Run->get("gc");
  ASSERT_NE(Gc, nullptr);
  EXPECT_EQ(Gc->get("events")->size(),
            static_cast<size_t>(Gc->get("collections")->asInt()));

  // The emitted text reparses to an identical document.
  std::string Text = Report.dump(2);
  Json Back;
  std::string Error;
  ASSERT_TRUE(Json::parse(Text, Back, Error)) << Error;
  EXPECT_EQ(Back.dump(2), Text);
}

TEST(Observability, CompileOnlyReportOmitsRun) {
  driver::Compilation C("list", ListProgram);
  driver::CompileOptions CO;
  CO.Mode = driver::CompileMode::O2;
  driver::CompileResult CR = C.compile(CO);
  ASSERT_TRUE(CR.Ok);
  Json Report = driver::buildRunReport("list.c", driver::CompileMode::O2,
                                       "sparc10", CR, nullptr);
  EXPECT_TRUE(Report.has("compile"));
  EXPECT_FALSE(Report.has("run"));
  // O2 (unsafe) mode annotates nothing.
  EXPECT_EQ(Report.get("compile")->get("annotator")->get("keep_lives")
                ->asInt(),
            0);
}

} // namespace
