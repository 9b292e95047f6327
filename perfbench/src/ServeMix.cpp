//===- perfbench/src/ServeMix.cpp - Open-loop compile service --*- C++ -*-===//
//
// serve_mix: an open loop. One client thread sends requests at seeded
// Poisson arrival times into a serve::CompileService with three workers,
// Run=true, final safety verification and a memory cache only (no store,
// no isolation). The rate is fixed at half the service's capacity on the
// host it was sized on; the traced run measures the capacity again. Most
// requests repeat a hot set of (workload, mode, machine) keys and hit the
// cache; the rest carry a salt comment in the source and miss. Hits
// bypass the VM and cost the key computation (parse, annotate, render,
// hash), the cache and the queue; misses compile, verify (through the
// service's VerifyMemo, which a salted program of a known function body
// hits) and run.
//
// Latency is timed from each request's due time, so a stalled service
// also charges the requests queued behind the stall. A run whose client
// itself fell behind is invalid, not slow.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "annotate/Annotator.h"
#include "serve/Service.h"
#include "support/Hash.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <pthread.h>
#include <sched.h>
#include <thread>

using namespace gcsafe;

namespace perfbench {
namespace {

/// "Most requests repeat a hot set": four in five are hits. There is no
/// production trace to take the share from.
constexpr double ServeMissShare = 0.2;
constexpr unsigned ServeWorkers = 3;
/// The open loop's rate: half the capacity (serve.capacity_per_s of the
/// traced run) measured on the host it was sized on, enough load that
/// requests queue behind misses, with headroom for the host's speed to dip
/// without saturating the service. Re-derive it when the capacity moves.
constexpr double ServeRatePerS = 110;
/// Seconds of saturated load that measure the capacity (at most a quarter
/// of the run).
constexpr double CalibrateS = 3;
/// Requests kept in flight while measuring the capacity: enough that the
/// queue never drains behind a long miss.
constexpr size_t CalibrateInFlight = 4 * ServeWorkers;
/// The latency limit behind slo_ratio: 1.5 times the open loop's p99
/// latency on the host it was sized on, in its slow stretches (about
/// 100 ms).
constexpr double ServeLimitMs = 150;
/// peak_rss_mb is read once this many requests have completed.
constexpr size_t RssSampleRequests = 200;
/// A run whose client sent its p99 request later than this after its due
/// time measured a starved client, not the service (the client polls, so
/// its lag is normally microseconds).
constexpr double MaxLagP99Ms = 25;

struct ServeKey {
  const workloads::Workload *W;
  CompileMode Mode;
  std::string Machine;
};

struct Request {
  /// Index into the hot set, or -1 for a salted miss.
  int Hot;
  ServeKey Key;
  double DueS;
};

driver::RequestOptions requestOptions(const ServeKey &K, uint64_t Salt) {
  driver::RequestOptions O;
  O.Name = K.W->Name;
  O.Source = K.W->Source;
  if (Salt)
    O.Source += "\n/* salt " + std::to_string(Salt) + " */\n";
  O.Mode = K.Mode;
  O.MachineName = K.Machine;
  O.Run = true;
  O.Verify = driver::SafetyVerify::Final;
  return O;
}

/// Mean of one metricsSnapshot() stage histogram between two snapshots.
double stageMeanNs(const support::Json &Before, const support::Json &After,
                   const char *Stage) {
  auto Get = [&](const support::Json &M, const char *Key) {
    const support::Json *S = M.get("stages");
    S = S ? S->get(Stage) : nullptr;
    S = S ? S->get(Key) : nullptr;
    return S ? double(S->asInt()) : 0.0;
  };
  double N = Get(After, "count") - Get(Before, "count");
  return N > 0 ? (Get(After, "sum_ns") - Get(Before, "sum_ns")) / N : 0.0;
}

class ServeMix {
public:
  ServeMix(const RunConfig &C, ExactCounts &X, Result &R)
      : C(C), X(X), R(R), Rng(C.Seed) {
    for (const workloads::Workload *W : workloads::benchmarkSuite())
      for (CompileMode M : allModes()) {
        for (const std::string &Machine : machines())
          All.push_back({W, M, Machine});
        Hot.push_back({W, M, machines()[Rng() % machines().size()]});
      }
  }

  void run();

private:
  /// Set-up: a fresh service with the hot set compiled into its cache.
  void warm();
  /// \p N requests of the mix, due over \p Seconds.
  std::vector<Request> schedule(size_t N, double Seconds);
  /// Requests per second the service completes when saturated with the
  /// open loop's mix for \p Seconds.
  double capacity(double Seconds);
  /// The open loop; returns the latencies of every request sent.
  LoopStats openLoop(const std::vector<Request> &Reqs,
                     std::vector<double> &LagMs);
  void check(const Request &Q, uint64_t Salt, const serve::ServeResult &S,
             bool &Ok);
  /// One hit composed from the public calls it is made of.
  bool composedHit(Tracer &T, size_t H, uint64_t I);

  const RunConfig &C;
  ExactCounts &X;
  Result &R;
  std::mt19937_64 Rng;
  std::vector<ServeKey> All, Hot;
  std::unique_ptr<serve::CompileService> Svc;
  std::vector<std::string> ColdPayload, HotCacheKey;
  std::vector<driver::RequestOptions> HotOptions;
  uint64_t NextSalt = 1;
  std::mutex CheckMu; ///< Guards R and X against the checker thread.
};

void ServeMix::warm() {
  Svc.reset();
  serve::ServiceOptions SO;
  SO.Workers = ServeWorkers;
  SO.CacheMaxEntries = 1 << 16;
  Svc = std::make_unique<serve::CompileService>(SO);
  std::vector<std::future<serve::ServeResult>> Futures;
  for (const ServeKey &K : Hot)
    Futures.push_back(Svc->submit(requestOptions(K, 0)));
  ColdPayload.assign(Hot.size(), "");
  HotCacheKey.assign(Hot.size(), "");
  for (size_t H = 0; H < Hot.size(); ++H) {
    serve::ServeResult S = Futures[H].get();
    Request Q{int(H), Hot[H], 0};
    bool Ok = true;
    check(Q, 0, S, Ok);
    ColdPayload[H] = serve::serveResultToJson(S).dump(0);
    HotCacheKey[H] = S.CacheKey;
  }
}

std::vector<Request> ServeMix::schedule(size_t N, double Seconds) {
  // A Poisson process conditioned on its count: N arrivals at sorted
  // uniform times. The miss share is exact and both key streams cycle
  // through seeded shuffles, so the seed moves the order of the requests,
  // not their mix.
  std::uniform_real_distribution<double> U(0, Seconds);
  std::vector<double> Due(N);
  for (double &D : Due)
    D = U(Rng);
  std::sort(Due.begin(), Due.end());
  std::vector<char> IsMiss(N, 0);
  std::fill_n(IsMiss.begin(), size_t(std::llround(double(N) * ServeMissShare)),
              1);
  std::shuffle(IsMiss.begin(), IsMiss.end(), Rng);
  JobStream MissJobs(All.size(), Rng()), HotJobs(Hot.size(), Rng());
  std::vector<Request> Reqs;
  for (size_t I = 0; I < N; ++I) {
    if (IsMiss[I]) {
      Reqs.push_back({-1, All[MissJobs.next()], Due[I]});
    } else {
      size_t H = HotJobs.next();
      Reqs.push_back({int(H), Hot[H], Due[I]});
    }
  }
  return Reqs;
}

void ServeMix::check(const Request &Q, uint64_t Salt,
                     const serve::ServeResult &S, bool &Ok) {
  std::string Key = runKey(Q.Key.W->Name, Q.Key.Mode, Q.Key.Machine);
  std::lock_guard<std::mutex> Lock(CheckMu);
  Ok = false;
  if (!S.Ok || S.ExitCode != 0) {
    R.fail("serve " + Key + ": " +
           (S.Status.empty() ? S.Error : S.Status + ": " + S.Error));
    return;
  }
  bool WasWarmed = Q.Hot >= 0 && !ColdPayload[size_t(Q.Hot)].empty();
  if (WasWarmed) {
    if (!S.Cached)
      R.fail("serve " + Key + ": a hot key missed the cache");
    else if (serve::serveResultToJson(S).dump(0) !=
             ColdPayload[size_t(Q.Hot)])
      R.fail("serve " + Key + ": hit payload differs from the cold payload");
    else
      Ok = true;
    return;
  }
  if (S.Cached && Salt)
    R.fail("serve " + Key + ": a salted request hit the cache");
  else if (runOutput(S.Report) != goldenOutput(Q.Key.W->Name))
    R.fail("serve " + Key + ": printed the wrong output");
  else {
    // A salt comment changes the key, never the program: the counts are
    // those of the unsalted job.
    X.record(Key, runReportCounts(S.Report), R);
    Ok = true;
  }
}

double ServeMix::capacity(double Seconds) {
  struct Pending {
    size_t Index;
    uint64_t Salt;
    std::future<serve::ServeResult> F;
  };
  // Far more requests than a saturated service completes in Seconds.
  std::vector<Request> Reqs = schedule(size_t(Seconds * 5000) + 1, 1);
  std::deque<Pending> InFlight;
  size_t Next = 0, Done = 0;
  double StartS = nowSeconds();
  for (;;) {
    while (InFlight.size() < CalibrateInFlight && Next < Reqs.size() &&
           nowSeconds() - StartS < Seconds) {
      uint64_t Salt = Reqs[Next].Hot >= 0 ? 0 : NextSalt++;
      InFlight.push_back(
          {Next, Salt, Svc->submit(requestOptions(Reqs[Next].Key, Salt))});
      ++Next;
    }
    if (InFlight.empty())
      break;
    Pending P = std::move(InFlight.front());
    InFlight.pop_front();
    bool Ok = false;
    check(Reqs[P.Index], P.Salt, P.F.get(), Ok);
    ++Done;
    ++R.Attempted;
    R.Failed += !Ok;
  }
  return double(Done) / (nowSeconds() - StartS);
}

LoopStats ServeMix::openLoop(const std::vector<Request> &Reqs,
                             std::vector<double> &LagMs) {
  struct Pending {
    size_t Index;
    uint64_t Salt;
    std::future<serve::ServeResult> F;
  };
  struct Done {
    size_t Index;
    uint64_t Salt;
    serve::ServeResult S;
  };
  std::vector<double> Latency(Reqs.size(), 0);
  std::vector<char> Good(Reqs.size(), 0);

  // The output checks run on their own thread, off the client's clock,
  // at idle priority: the client and the three workers already claim the
  // host's four vCPUs whenever the service is busy.
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Done> ToCheck;
  bool Finished = false;
  std::thread Checker([&] {
    sched_param Idle{};
    pthread_setschedparam(pthread_self(), SCHED_IDLE, &Idle);
    for (;;) {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [&] { return Finished || !ToCheck.empty(); });
      if (ToCheck.empty())
        return;
      Done D = std::move(ToCheck.front());
      ToCheck.pop_front();
      Lock.unlock();
      bool Ok = false;
      check(Reqs[D.Index], D.Salt, D.S, Ok);
      Good[D.Index] = Ok;
    }
  });

  // One client thread sends each request at its due time and stamps each
  // completion. It polls rather than sleeps: on a virtual machine, waking
  // a sleeping thread can take milliseconds, which would be charged to
  // the service.
  std::vector<Pending> InFlight;
  LagMs.clear();
  double StartS = nowSeconds() + 0.005, EndS = StartS, RssMb = 0;
  size_t Next = 0, Completed = 0;
  uint64_t Salt = Reqs.empty() || Reqs[0].Hot >= 0 ? 0 : NextSalt++;
  driver::RequestOptions NextOpts = Reqs.empty()
                                        ? driver::RequestOptions()
                                        : requestOptions(Reqs[0].Key, Salt);
  while (Next < Reqs.size() || !InFlight.empty()) {
    double Now = nowSeconds();
    if (Next < Reqs.size() && Now >= StartS + Reqs[Next].DueS) {
      LagMs.push_back((Now - StartS - Reqs[Next].DueS) * 1e3);
      InFlight.push_back({Next, Salt, Svc->submit(std::move(NextOpts))});
      if (++Next < Reqs.size()) {
        Salt = Reqs[Next].Hot >= 0 ? 0 : NextSalt++;
        NextOpts = requestOptions(Reqs[Next].Key, Salt);
      }
      continue;
    }
    for (size_t I = 0; I < InFlight.size();) {
      Pending &P = InFlight[I];
      if (P.F.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++I;
        continue;
      }
      double End = nowSeconds();
      EndS = std::max(EndS, End);
      Latency[P.Index] = (End - StartS - Reqs[P.Index].DueS) * 1e3;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        ToCheck.push_back({P.Index, P.Salt, P.F.get()});
      }
      Cv.notify_one();
      InFlight[I] = std::move(InFlight.back());
      InFlight.pop_back();
      if (++Completed == std::min(RssSampleRequests, Reqs.size()))
        RssMb = peakRssMb();
    }
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Finished = true;
  }
  Cv.notify_one();
  Checker.join();

  LoopStats L;
  L.Ops = Reqs.size();
  L.PeakRssMb = RssMb;
  // The rate is the offered one unless the service fell behind.
  L.OpsPerS = double(Reqs.size()) / (EndS - StartS);
  for (size_t I = 0; I < Reqs.size(); ++I) {
    if (!Good[I])
      ++L.Failed;
    else if (Latency[I] <= ServeLimitMs)
      ++L.WithinLimit;
  }
  L.P50Ms = quantile(Latency, 0.50);
  L.P90Ms = quantile(Latency, 0.90);
  L.P99Ms = quantile(Latency, 0.99);
  return L;
}

/// RequestContext::parse + preprocessedSource, through the calls they
/// delegate to, so that annotate and render get a span each.
std::string composedPreprocess(Tracer &T, const driver::RequestOptions &O) {
  std::unique_ptr<driver::Compilation> Comp;
  {
    Tracer::Scope S(T, "cfront.parse");
    Comp = std::make_unique<driver::Compilation>(O.Name, O.Source);
    Comp->parse();
  }
  if (!annotates(O.Mode))
    return O.Source;
  annotate::AnnotationMap Map;
  {
    Tracer::Scope S(T, "annotate");
    Map = annotate::annotateTranslationUnit(Comp->tu(), O.Annot);
  }
  Tracer::Scope S(T, "rewrite.render");
  return annotate::renderAnnotatedSource(
      Comp->buffer(), Map,
      O.Mode == CompileMode::DebugChecked ? annotate::AnnotationMode::Checked
                                          : annotate::AnnotationMode::GCSafe);
}

bool ServeMix::composedHit(Tracer &T, size_t H, uint64_t I) {
  const driver::RequestOptions &O = HotOptions[H];
  T.beginOp(uint32_t(I));
  std::string Pre = composedPreprocess(T, O);
  std::string Key;
  {
    Tracer::Scope S(T, "serve.key");
    support::ContentHasher Hasher(driver::keyFingerprint());
    Hasher.update(Pre);
    Hasher.update(serve::canonicalFlagString(O));
    Key = Hasher.hex();
  }
  std::string Payload;
  bool Hit;
  {
    Tracer::Scope S(T, "serve.cache_lookup");
    Hit = Svc->cache().lookup(Key, Payload);
  }
  bool Parsed;
  {
    Tracer::Scope S(T, "serve.payload_parse");
    support::Json J;
    std::string Error;
    serve::ServeResult Warm;
    Parsed = support::Json::parse(Payload, J, Error) &&
             serve::serveResultFromJson(J, Warm);
  }
  T.endOp();
  if (Key != HotCacheKey[H] || !Hit || !Parsed || Payload != ColdPayload[H]) {
    R.fail("composed hit of " +
           runKey(O.Name, O.Mode, O.MachineName) +
           " does not replay the service's cached payload");
    return false;
  }
  return true;
}

void ServeMix::run() {
  double SetupS = timedSetup(5, [&] { warm(); });
  if (!R.correct())
    return;

  std::vector<double> LagMs;
  // The traced run measures the capacity in its open-loop half.
  double CalS = std::min(CalibrateS, C.Seconds / 4);
  double OpenS = C.Trace ? C.Seconds / 2 - CalS : C.Seconds;
  size_t N = std::max<size_t>(1, size_t(std::llround(ServeRatePerS * OpenS)));
  support::Json MetricsBefore = Svc->metricsSnapshot();
  serve::CacheStats CacheBefore = Svc->cache().stats();
  uint64_t MemoHitsBefore = Svc->verifyMemo().hits();
  uint64_t MemoMissesBefore = Svc->verifyMemo().misses();
  LoopStats L = openLoop(schedule(N, OpenS), LagMs);
  double LagP99 = quantile(LagMs, 0.99);
  if (LagP99 > MaxLagP99Ms)
    R.fail("invalid run: the client's p99 lag was " +
           std::to_string(LagP99) + " ms");
  if (!C.Trace) {
    reportEndToEnd(R, L, SetupS);
    return;
  }
  R.Attempted += L.Ops;
  R.Failed += L.Failed;

  TracedPhase P;
  support::Json MetricsAfter = Svc->metricsSnapshot();
  serve::CacheStats CacheAfter = Svc->cache().stats();
  double Lookups = double(CacheAfter.Hits + CacheAfter.Misses -
                          CacheBefore.Hits - CacheBefore.Misses);
  P.Serve.HitRatio =
      Lookups > 0 ? double(CacheAfter.Hits - CacheBefore.Hits) / Lookups : 0;
  P.Serve.MissNs = stageMeanNs(MetricsBefore, MetricsAfter, "compile");
  P.Serve.QueueWaitNs = stageMeanNs(MetricsBefore, MetricsAfter, "queue_wait");
  P.Serve.StageCacheLookupNs =
      stageMeanNs(MetricsBefore, MetricsAfter, "cache_lookup");
  const support::Json *Q = MetricsAfter.get("queue");
  const support::Json *Shed = Q ? Q->get("shed") : nullptr;
  P.Serve.Shed = Shed ? double(Shed->asInt()) : 0;
  double MemoHits = double(Svc->verifyMemo().hits() - MemoHitsBefore);
  double MemoLookups =
      MemoHits + double(Svc->verifyMemo().misses() - MemoMissesBefore);
  P.Serve.MemoHitRatio = MemoLookups > 0 ? MemoHits / MemoLookups : 0;
  P.Serve.LagP99Ms = LagP99;
  P.Serve.CapacityPerS = capacity(CalS);

  // The hit replay: passes over the hot set, each request composed from
  // the public calls a hit is made of, against the service's cache.
  Tracer Off(false), T(true);
  HotOptions.clear();
  for (const ServeKey &K : Hot) {
    HotOptions.push_back(requestOptions(K, 0));
    // The composed key path must hash exactly what the service hashes.
    driver::RequestContext Ctx(HotOptions.back());
    std::string Error;
    if (!Ctx.parse(Error) ||
        Ctx.preprocessedSource() != composedPreprocess(Off, HotOptions.back()))
      R.fail("composed preprocessing of " +
             runKey(K.W->Name, K.Mode, K.Machine) +
             " differs from RequestContext::preprocessedSource");
  }
  LoopStats Plain =
      closedLoop(C.Seconds / 4, ServeLimitMs, Hot.size(), C.Seed,
                 [&](size_t H, uint64_t I) { return composedHit(Off, H, I); });
  LoopStats Traced =
      closedLoop(C.Seconds / 4, ServeLimitMs, Hot.size(), C.Seed + 1,
                 [&](size_t H, uint64_t I) { return composedHit(T, H, I); });
  R.Attempted += Plain.Ops + Traced.Ops;
  R.Failed += Plain.Failed + Traced.Failed;
  P.T = &T;
  P.Ops = Traced.Ops;
  P.OpsPerS = Traced.OpsPerS;
  P.Serve.HitNs = double(T.opWallNs()) / double(Traced.Ops);
  P.CountsMatch = X.matchRatio();
  reportLayers(R, P, Plain.OpsPerS);
  if (!T.writeChrome(C.OutDir + "/trace-serve_mix.json"))
    R.fail("cannot write the Chrome trace under " + C.OutDir);
}

} // namespace

void runServeMix(const RunConfig &C, ExactCounts &X, Result &R) {
  ServeMix(C, X, R).run();
}

} // namespace perfbench
