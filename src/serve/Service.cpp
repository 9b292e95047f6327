//===- serve/Service.cpp --------------------------------------*- C++ -*-===//

#include "serve/Service.h"

#include "driver/Isolate.h"
#include "support/ExitCodes.h"
#include "support/Hash.h"
#include "support/Interleave.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <sstream>

#include <unistd.h>

using namespace gcsafe;
using namespace gcsafe::serve;

std::string
gcsafe::serve::canonicalFlagString(const driver::RequestOptions &O) {
  // Every field that can change the outcome of a compile, in a fixed
  // order. Adding a field here is a cache-format change: old and new
  // processes simply stop sharing entries, which is always safe.
  std::ostringstream OS;
  OS << "mode=" << driver::compileModeToken(O.Mode)
     << ";machine=" << O.MachineName << ";run=" << (O.Run ? 1 : 0)
     << ";verify=" << static_cast<int>(O.Verify)
     << ";verify_ir=" << (O.VerifyIREachPass ? 1 : 0)
     << ";self_heal=" << (O.SelfHeal ? 1 : 0)
     << ";rung=" << driver::optRungName(O.StartRung)
     << ";pass_deadline=" << O.PassDeadlineNs
     << ";fail_inject=" << O.FailInjectSpec
     << ";corrupt_kind=" << O.CorruptKind
     << ";gc_period=" << O.GcInstructionPeriod
     << ";gc_alloc_trigger=" << O.GcAllocTrigger
     << ";gc_call_period=" << O.GcCallPeriod
     << ";gc_deadline=" << O.GcDeadlineNs
     << ";vm_deadline=" << O.VmDeadlineNs
     << ";deadline=" << O.DeadlineNs
     << ";no_opt1=" << (O.Annot.SkipCopies ? 0 : 1)
     << ";no_opt2=" << (O.Annot.SpecializeIncDec ? 0 : 1)
     << ";slow_bases=" << (O.Annot.PreferSlowBases ? 1 : 0)
     << ";at_calls_only="
     << (O.Annot.Trigger == annotate::GcTrigger::AtCallsOnly ? 1 : 0);
  return OS.str();
}

support::Json gcsafe::serve::serveResultToJson(const ServeResult &R) {
  using support::Json;
  Json J = Json::object();
  J["ok"] = Json::boolean(R.Ok);
  J["exit_code"] = Json::integer(int64_t(R.ExitCode));
  J["degraded"] = Json::boolean(R.Degraded);
  J["rung"] = Json::string(R.Rung);
  Json Q = Json::array();
  for (const std::string &P : R.Quarantined)
    Q.push(Json::string(P));
  J["quarantined"] = std::move(Q);
  if (!R.Status.empty())
    J["status"] = Json::string(R.Status);
  if (!R.Error.empty())
    J["error"] = Json::string(R.Error);
  if (R.HasReport)
    J["report"] = R.Report;
  if (R.HasLint)
    J["lint"] = R.Lint;
  return J;
}

bool gcsafe::serve::serveResultFromJson(const support::Json &J,
                                        ServeResult &Out) {
  if (!J.isObject() || !J.has("exit_code") || !J.has("ok"))
    return false;
  Out.Ok = J.get("ok")->asBool();
  Out.ExitCode = static_cast<int>(J.get("exit_code")->asInt());
  if (const support::Json *D = J.get("degraded"))
    Out.Degraded = D->asBool();
  if (const support::Json *R = J.get("rung"))
    Out.Rung = R->asString();
  if (const support::Json *Q = J.get("quarantined"))
    for (size_t I = 0; I < Q->size(); ++I)
      Out.Quarantined.push_back(Q->at(I).asString());
  if (const support::Json *S = J.get("status"))
    Out.Status = S->asString();
  if (const support::Json *E = J.get("error"))
    Out.Error = E->asString();
  if (const support::Json *R = J.get("report")) {
    Out.Report = *R;
    Out.HasReport = true;
  }
  if (const support::Json *L = J.get("lint")) {
    Out.Lint = *L;
    Out.HasLint = true;
  }
  return true;
}

namespace {

/// Pool worker index of the current thread (0 = a caller thread, e.g.
/// compile() or a test): stamps flight-recorder events so the Chrome
/// export gets one track per worker.
thread_local uint32_t CurrentWorker = 0;

/// Election ticket and identity of the pooled request about to run on
/// this thread (ticket 0 = none: compile() callers are not ordered
/// against the pool).
thread_local uint64_t CurrentTicket = 0;
thread_local size_t CurrentIdentity = 0;

/// A request id reduced to filename-safe characters for the flight-dump
/// path (the client controls the id; it must not traverse directories).
std::string fsSafeId(const std::string &Rid) {
  std::string Out = Rid.empty() ? "unnamed" : Rid;
  for (char &C : Out)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '.' &&
        C != '_' && C != '-')
      C = '_';
  return Out;
}

/// Lifts a driver outcome into the service's result shape.
ServeResult resultFromOutcome(driver::RequestOutcome &&Outcome) {
  ServeResult R;
  R.Ok = Outcome.Ok;
  R.ExitCode = Outcome.ExitCode;
  R.Degraded = Outcome.Degraded;
  R.Rung = Outcome.Rung;
  R.Quarantined = std::move(Outcome.Quarantined);
  R.Error = std::move(Outcome.Error);
  R.Report = std::move(Outcome.Report);
  R.HasReport = Outcome.HasReport;
  R.Lint = std::move(Outcome.Lint);
  R.HasLint = Outcome.HasLint;
  return R;
}

/// A serialized payload back into a result; false when it does not parse.
bool resultFromPayload(const std::string &Payload, ServeResult &Out) {
  support::Json J;
  std::string Error;
  return support::Json::parse(Payload, J, Error) && serveResultFromJson(J, Out);
}

ServeResult typedResult(const char *Status, int ExitCode, std::string Error) {
  ServeResult R;
  R.Ok = false;
  R.Status = Status;
  R.ExitCode = ExitCode;
  R.Error = std::move(Error);
  return R;
}

/// Clamps every watchdog to the remaining wall budget, so a request with
/// a deadline cannot out-sleep it inside the VM or the GC.
void clampWatchdogs(driver::RequestOptions &O, uint64_t DeadlineAtNs) {
  if (!DeadlineAtNs)
    return;
  uint64_t Now = support::monotonicNowNs();
  uint64_t Remain = DeadlineAtNs > Now ? DeadlineAtNs - Now : 1;
  auto Clamp = [Remain](uint64_t &V) { V = V ? std::min(V, Remain) : Remain; };
  Clamp(O.VmDeadlineNs);
  Clamp(O.GcDeadlineNs);
  if (O.SelfHeal)
    Clamp(O.PassDeadlineNs);
}

} // namespace

CompileService::CompileService(ServiceOptions O)
    : Opts(O), Cache(O.CacheMaxEntries), Front(O.CacheMaxEntries),
      StartNs(support::monotonicNowNs()),
      Trace(O.TraceCapacity ? O.TraceCapacity : 4096),
      Flight(O.FlightCapacity ? O.FlightCapacity : 2048) {
  if (!Opts.StoreDir.empty()) {
    Store::Options SO;
    SO.Dir = Opts.StoreDir;
    SO.Fingerprint = driver::keyFingerprint();
    SO.Inject = [this](const std::string &Site) { return injectFault(Site); };
    SO.Trace = [this](const char *Name, uint64_t Value, uint64_t Aux,
                      std::string Detail) {
      support::RankedGuard Lock(TraceMu);
      Trace.emit("store", Name, Value, Aux, std::move(Detail));
    };
    Disk.reset(new Store(std::move(SO)));
    // Scrub before the first worker can read: nothing unvalidated is
    // ever reachable from a request.
    ScrubReport = Disk->scrub();
  }
  unsigned N = Opts.Workers ? Opts.Workers : 1;
  Pool.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Pool.emplace_back([this, I] {
      CurrentWorker = I + 1; // 0 is reserved for caller threads.
      workerLoop();
    });
}

CompileService::~CompileService() { stop(); }

void CompileService::stop() {
  {
    support::RankedGuard Lock(QueueMu);
    if (Stopping.load(std::memory_order_relaxed))
      return;
    Stopping.store(true, std::memory_order_release);
  }
  QueueCv.notifyAll();
  for (std::thread &T : Pool)
    T.join();
}

void CompileService::drain() {
  {
    support::RankedGuard Lock(QueueMu);
    if (Draining.load(std::memory_order_relaxed))
      return;
    Draining.store(true, std::memory_order_release);
  }
  traceEmit("service.drain", 0, 0, "");
}

void CompileService::waitIdle() {
  support::RankedLock Lock(QueueMu);
  IdleCv.wait(Lock, [this]() GCSAFE_REQUIRES(QueueMu) {
    return Queue.empty() && Active == 0;
  });
}

ServiceHealth CompileService::health() const {
  // A point-in-time sample built entirely from the lock-free gauges: a
  // supervisor probing readiness never contends with admission.
  ServiceHealth H;
  H.Workers = static_cast<unsigned>(Pool.size());
  H.QueueDepth = QueueDepth.load(std::memory_order_acquire);
  H.QueueMax = Opts.QueueMax;
  H.Draining = Draining.load(std::memory_order_acquire);
  H.Stopping = Stopping.load(std::memory_order_acquire);
  H.Isolate = Opts.Isolate;
  H.Ready = !H.Stopping && !H.Draining &&
            (!Opts.QueueMax || H.QueueDepth < Opts.QueueMax);
  return H;
}

bool CompileService::injectFault(const std::string &Site) {
  if (!Opts.Faults)
    return false;
  support::RankedGuard Lock(FaultMu);
  return Opts.Faults->shouldFail(Opts.Faults->siteId(Site));
}

void CompileService::workerLoop() {
  for (;;) {
    std::packaged_task<ServeResult()> Task;
    {
      support::RankedLock Lock(QueueMu);
      QueueCv.wait(Lock, [this]() GCSAFE_REQUIRES(QueueMu) {
        return Stopping.load(std::memory_order_relaxed) || !Queue.empty();
      });
      if (Queue.empty()) {
        if (Stopping.load(std::memory_order_relaxed))
          return;
        continue;
      }
      Task = std::move(Queue.front().Task);
      CurrentIdentity = Queue.front().Identity;
      Queue.pop_front();
      QueueDepth.store(Queue.size(), std::memory_order_release);
      ++Active;
      CurrentTicket = ++Dequeued;
      support::RankedGuard Turn(InFlightMu);
      Turns.emplace(CurrentIdentity, CurrentTicket);
    }
    GCSAFE_INTERLEAVE_POINT("serve.queue.pop");
    Task();
    {
      support::RankedGuard Lock(QueueMu);
      --Active;
    }
    IdleCv.notifyAll();
  }
}

CompileService::Admission
CompileService::admit(driver::RequestOptions Request, bool UseCache) {
  Admission A;
  // The deadline clock starts at admission: time spent queued counts
  // against the request's budget — so does the queue-wait histogram.
  A.SubmitNs = support::monotonicNowNs();
  A.DeadlineAtNs = Request.DeadlineNs ? A.SubmitNs + Request.DeadlineNs : 0;
  A.UseCache = UseCache;
  A.TraceId = assignRequestId(Request);
  A.Flags = canonicalFlagString(Request);
  support::ContentHasher H(driver::keyFingerprint());
  H.update(Request.Source);
  H.update(A.Flags);
  A.RawKey = H.hex();
  A.Request = std::move(Request);
  return A;
}

bool CompileService::answerFromCache(const Admission &A, ServeResult &Out) {
  if (!A.UseCache || !Opts.CacheEnabled)
    return false;
  // An expired request is left to compileAt, which reports the expiry.
  uint64_t LookupStartNs = support::monotonicNowNs();
  if (A.DeadlineAtNs && LookupStartNs > A.DeadlineAtNs)
    return false;
  // The frontend is a pure function of the raw source and the flags, so
  // a raw key that compiled once names its canonical key for good. A mode
  // that compiles the source as written needs no entry: its raw key is
  // the canonical key. A preprocessing mode must not fall back on the raw
  // key, which may be another request's canonical key (its annotated
  // text).
  std::string Key = A.RawKey, Payload;
  if (driver::preprocesses(A.Request.Mode) && !Front.lookup(A.RawKey, Key))
    return false;
  // Only a hit counts here: a miss is counted by the worker's first
  // probe, so each request counts one hit or one miss.
  if (!Cache.lookup(Key, Payload, /*CountMiss=*/false))
    return false;
  uint64_t LookupNs = support::monotonicNowNs() - LookupStartNs;
  ServeResult Warm;
  if (!resultFromPayload(Payload, Warm))
    return false;
  beginRequest(A, 0);
  recordLookup(A, LookupNs);
  Out = replayHit(A, Key, std::move(Warm));
  return true;
}

std::future<ServeResult>
CompileService::submit(driver::RequestOptions Request, bool UseCache) {
  bool Injected = injectFault("serve.queue.full");
  Admission A = admit(std::move(Request), UseCache);
  // A hit is answered here, on the caller's thread: it takes no queue
  // slot and no election ticket. A stopping or draining service, or an
  // injected full queue, sheds it below like any other request.
  if (!Injected && !Stopping.load(std::memory_order_acquire) &&
      !Draining.load(std::memory_order_acquire)) {
    ServeResult Hit;
    if (answerFromCache(A, Hit)) {
      std::promise<ServeResult> P;
      P.set_value(std::move(Hit));
      return P.get_future();
    }
  }
  std::string Name = A.Request.Name;
  std::string TraceId = A.TraceId;
  std::string Rid = A.Request.RequestId;
  size_t Identity = std::hash<std::string>()(A.RawKey);

  std::packaged_task<ServeResult()> Task(
      [this, A = std::move(A)] { return compileAt(A); });
  std::future<ServeResult> F = Task.get_future();

  const char *Shed = nullptr;
  std::string Why;
  {
    support::RankedGuard Lock(QueueMu);
    if (Stopping.load(std::memory_order_relaxed)) {
      Shed = "shutdown";
      Why = "the service is shutting down";
    } else if (Draining.load(std::memory_order_relaxed)) {
      Shed = "draining";
      Why = "the service is draining";
    } else if (Injected) {
      Shed = "overloaded";
      Why = "the submit queue is full (injected serve.queue.full)";
    } else if (Opts.QueueMax && Queue.size() >= Opts.QueueMax) {
      Shed = "overloaded";
      Why = "the submit queue is full (" + std::to_string(Opts.QueueMax) +
            " requests deep)";
    } else {
      Queue.push_back({std::move(Task), Identity});
      size_t Depth = Queue.size();
      // The gauges shadow Queue under QueueMu; peak's read-modify-write
      // is safe because every writer holds the lock — the atomics exist
      // for the lock-free snapshot readers.
      QueueDepth.store(Depth, std::memory_order_release);
      if (Depth > QueuePeak.load(std::memory_order_relaxed))
        QueuePeak.store(Depth, std::memory_order_release);
    }
  }
  if (!Shed) {
    QueueCv.notifyOne();
    return F;
  }

  // Shed: resolve the caller's future immediately with a typed result.
  // The discarded task's future is never observed; the request never
  // counts as executed (serve.requests counts work, serve.queue.shed
  // counts refusals).
  QueueShed.fetch_add(1, std::memory_order_relaxed);
  traceEmit("queue.shed", 0, 0, TraceId + " " + Name + ": " + Why);
  Flight.record("serve", "queue.shed", TraceId, 0, CurrentWorker);
  std::promise<ServeResult> P;
  ServeResult R =
      typedResult(Shed, support::ExitOverloaded, "request shed: " + Why);
  R.RequestId = Rid;
  P.set_value(std::move(R));
  return P.get_future();
}

std::string CompileService::assignRequestId(driver::RequestOptions &Request) {
  uint64_t Seq = RequestSeq.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Request.RequestId.empty())
    Request.RequestId = "r-" + std::to_string(Seq);
  return Request.RequestId + "#" + std::to_string(Seq);
}

void CompileService::passTurnLocked(size_t Identity, uint64_t Ticket) {
  auto Range = Turns.equal_range(Identity);
  for (auto It = Range.first; It != Range.second; ++It)
    if (It->second == Ticket) {
      Turns.erase(It);
      break;
    }
  TurnCv.notifyAll();
}

void CompileService::passTurn(size_t Identity, uint64_t Ticket) {
  support::RankedGuard Lock(InFlightMu);
  passTurnLocked(Identity, Ticket);
}

void CompileService::traceEmit(const char *Name, uint64_t Value,
                               uint64_t Aux, std::string Detail) {
  support::RankedGuard Lock(TraceMu);
  Trace.emit("serve", Name, Value, Aux, std::move(Detail));
}

void CompileService::countResult(const ServeResult &R) {
  if (R.Ok)
    ResponsesOk.fetch_add(1, std::memory_order_relaxed);
  else
    ResponsesError.fetch_add(1, std::memory_order_relaxed);
  if (R.Degraded)
    ResponsesDegraded.fetch_add(1, std::memory_order_relaxed);
}

ServeResult CompileService::compile(const driver::RequestOptions &Request,
                                    bool UseCache) {
  Admission A = admit(Request, UseCache);
  ServeResult Hit;
  if (answerFromCache(A, Hit))
    return Hit;
  return compileAt(A);
}

void CompileService::beginRequest(const Admission &A, uint64_t QueueWaitNs) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  traceEmit("request.begin", 0, 0, A.TraceId + " " + A.Request.Name);
  Flight.record("serve", "request.begin", A.TraceId, 0, CurrentWorker);
  {
    support::RankedGuard Lock(HistMu);
    HistQueueWait.record(QueueWaitNs);
  }
  Flight.record("serve", "queue.wait", A.TraceId, QueueWaitNs, CurrentWorker);
}

void CompileService::recordLookup(const Admission &A, uint64_t LookupNs) {
  {
    support::RankedGuard Lock(HistMu);
    HistCacheLookup.record(LookupNs);
  }
  Flight.record("serve", "cache.lookup", A.TraceId, LookupNs, CurrentWorker);
}

ServeResult CompileService::replayHit(const Admission &A,
                                      const std::string &Key,
                                      ServeResult Warm) {
  Warm.CacheKey = Key;
  Warm.Cached = true;
  traceEmit("cache.hit", 0, 0, A.TraceId + " " + Key);
  Flight.record("serve", "cache.hit", A.TraceId, 0, CurrentWorker);
  return finishRequest(A, std::move(Warm), 1);
}

ServeResult CompileService::finishRequest(const Admission &A, ServeResult R,
                                          uint64_t CachedAux) {
  R.RequestId = A.Request.RequestId;
  countResult(R);
  uint64_t E2ENs = support::monotonicNowNs() - A.SubmitNs;
  {
    support::RankedGuard Lock(HistMu);
    HistE2E.record(E2ENs);
  }
  Flight.record("serve", "e2e", A.TraceId, E2ENs, CurrentWorker);
  traceEmit("request.end", uint64_t(R.ExitCode), CachedAux,
            A.TraceId + " " + A.Request.Name);
  Flight.record("serve", "request.end", A.TraceId, uint64_t(R.ExitCode),
                CurrentWorker);
  return R;
}

ServeResult CompileService::compileAt(const Admission &A) {
  const driver::RequestOptions &Request = A.Request;
  const std::string &TraceId = A.TraceId;
  const uint64_t DeadlineAtNs = A.DeadlineAtNs;
  const uint32_t Worker = CurrentWorker;
  // Given up at the election below, or on any earlier return.
  struct TurnGuard {
    CompileService *S;
    size_t Identity;
    uint64_t Ticket;
    void pass() {
      if (Ticket)
        S->passTurn(Identity, Ticket);
      Ticket = 0;
    }
    ~TurnGuard() { pass(); }
  } Turn{this, CurrentIdentity, CurrentTicket};
  CurrentTicket = 0;
  uint64_t BeginNs = support::monotonicNowNs();
  beginRequest(A, BeginNs > A.SubmitNs ? BeginNs - A.SubmitNs : 0);

  // A request that expired while queued never starts — and never gets a
  // chance to insert anything into the cache or the memo.
  if (DeadlineAtNs && support::monotonicNowNs() > DeadlineAtNs) {
    DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
    traceEmit("request.deadline", 0, 0, TraceId + " " + Request.Name);
    Flight.record("serve", "request.deadline", TraceId, 0, Worker);
    return finishRequest(
        A,
        typedResult("deadline", support::ExitWatchdogTimeout,
                    "deadline expired before the compile started"),
        0);
  }

  // Request-private state; the only shared pieces are content-keyed.
  driver::RequestOptions Opts2 = Request;
  Opts2.Memo = &Memo;
  clampWatchdogs(Opts2, DeadlineAtNs);
  driver::RequestContext Ctx(std::move(Opts2));

  ServeResult Result;
  std::string ParseError;
  bool Parsed = Ctx.parse(ParseError);
  if (Parsed) {
    // The cache key hashes what the compiler will actually consume: the
    // preprocessed (annotated) source, the mode and the canonical flag
    // string. Two textually different flag spellings with the same
    // canonical form share an entry; any outcome-relevant difference
    // changes the key (docs/SERVING.md "Cache invalidation"). The flag
    // string is built from the request *as submitted* — the clamped
    // watchdogs above are wall-clock residue, not request identity. The
    // hasher is seeded with the build fingerprint (key-format version +
    // optimizer pass roster), so a binary whose output could differ keys
    // into a disjoint namespace: an upgrade can never replay a stale
    // payload, from memory or from the durable store.
    support::ContentHasher H(driver::keyFingerprint());
    H.update(Ctx.preprocessedSource());
    H.update(A.Flags);
    Result.CacheKey = H.hex();
  }

  bool WantCache = A.UseCache && Opts.CacheEnabled && !Result.CacheKey.empty();
  // The next identical request is answered at admission; the payload key
  // stays the canonical one, so warm bytes, the durable store and
  // textually different sources that annotate alike are as before.
  if (WantCache && driver::preprocesses(Request.Mode))
    Front.insert(A.RawKey, Result.CacheKey);

  // Releases single-flight leadership on every exit path below.
  struct FlightGuard {
    CompileService *S = nullptr;
    std::string Key;
    ~FlightGuard() {
      if (!S)
        return;
      {
        support::RankedGuard L(S->InFlightMu);
        S->InFlight.erase(Key);
      }
      S->InFlightCv.notifyAll();
    }
  } Leader;

  if (WantCache) {
    // Lookup / single-flight loop: hit → replay; miss with no one else
    // compiling this key → become the leader and compile; miss while a
    // leader is in flight → wait and re-check (the leader's insert turns
    // the re-check into a hit, so concurrent identical requests cost one
    // compile, not N). A leader whose result was uncacheable wakes the
    // waiters into electing the next leader, so progress is guaranteed.
    bool LookupTimed = false;
    bool StoreProbed = false;
    for (;;) {
      std::string Payload;
      uint64_t LookupStartNs = support::monotonicNowNs();
      bool Hit = Cache.lookup(Result.CacheKey, Payload);
      if (!LookupTimed) {
        // Only the first probe counts: re-checks after waiting out a
        // single-flight leader measure the leader, not the cache.
        LookupTimed = true;
        recordLookup(A, support::monotonicNowNs() - LookupStartNs);
      }
      // A hit here is a store promotion, a single-flight re-check, or a
      // raw key the front index had not seen (or had evicted). An
      // unparseable payload cannot happen via insert(); it is treated as
      // a miss and overwritten below.
      ServeResult Warm;
      if (Hit && resultFromPayload(Payload, Warm))
        return replayHit(A, Result.CacheKey, std::move(Warm));
      // Memory miss: read through to the durable store (once — a re-loop
      // after a store hit or a single-flight wait consults memory only).
      // A validated disk entry is promoted into the memory cache and
      // replayed through the normal hit path above, so a warm-restart
      // response is byte-identical to the response that was cached.
      if (Disk && !StoreProbed) {
        StoreProbed = true;
        std::string DiskPayload;
        if (Disk->lookup(Result.CacheKey, DiskPayload)) {
          Cache.insert(Result.CacheKey, DiskPayload);
          Flight.record("serve", "store.hit", TraceId, 0, Worker);
          continue;
        }
      }
      support::RankedLock L(InFlightMu);
      if (Turn.Ticket) {
        // A miss takes its side only after every identical request
        // dequeued before it has taken its own, so the first one
        // submitted is the one that leads. An earlier one may publish
        // while we wait, so look again before electing.
        auto MyTurn = [this, &Turn]() GCSAFE_REQUIRES(InFlightMu) {
          return Turns.lower_bound(Turn.Identity)->second == Turn.Ticket;
        };
        if (!MyTurn()) {
          TurnCv.wait(L, MyTurn);
          continue;
        }
        passTurnLocked(Turn.Identity, Turn.Ticket);
        Turn.Ticket = 0;
      }
      if (!InFlight.count(Result.CacheKey)) {
        // A leader may have published and left between our probe above
        // and this lock: its payload is then cached, so look again
        // rather than compile it twice.
        if (Cache.contains(Result.CacheKey))
          continue;
        InFlight.insert(Result.CacheKey);
        Leader.S = this;
        Leader.Key = Result.CacheKey;
        break;
      }
      // Counted by the hook while the lock is still held, so "observed
      // waiting" can never race the leader's release+notify: the leader
      // needs this mutex to erase its key, and we do not drop it between
      // the in-flight check and the wait below.
      GCSAFE_INTERLEAVE_POINT("serve.singleflight.wait");
      if (DeadlineAtNs) {
        uint64_t Now = support::monotonicNowNs();
        if (Now >= DeadlineAtNs ||
            InFlightCv.waitFor(L, std::chrono::nanoseconds(
                                      DeadlineAtNs - Now)) ==
                std::cv_status::timeout) {
          // The budget ran out while queued behind the leader: same
          // typed expiry as a deadline that fired anywhere else.
          L.unlock();
          DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
          traceEmit("request.deadline", 0, 0, TraceId + " " + Request.Name);
          Flight.record("serve", "request.deadline", TraceId, 0, Worker);
          ServeResult R =
              typedResult("deadline", support::ExitWatchdogTimeout,
                          "deadline expired while waiting for an "
                          "in-flight identical compile");
          R.CacheKey = Result.CacheKey;
          return finishRequest(A, std::move(R), 0);
        }
      } else {
        InFlightCv.wait(L);
      }
    }
    // The leader's window: it holds single-flight for this key but has
    // not started (let alone published) the compile. The re-election
    // test parks the first leader here and kills it with the
    // serve.worker.crash failpoint below.
    GCSAFE_INTERLEAVE_POINT("serve.singleflight.elect");
    traceEmit("cache.miss", 0, 0, TraceId + " " + Result.CacheKey);
    Flight.record("serve", "cache.miss", TraceId, 0, Worker);
  }
  Turn.pass(); // uncached requests take no side

  if (Opts.Isolate) {
    std::string Key = Result.CacheKey;
    uint64_t IsoStartNs = support::monotonicNowNs();
    Result = isolatedCompile(Request, DeadlineAtNs, TraceId);
    uint64_t IsoNs = support::monotonicNowNs() - IsoStartNs;
    {
      support::RankedGuard Lock(HistMu);
      HistIsolate.record(IsoNs);
    }
    Flight.record("serve", "isolate", TraceId, IsoNs, Worker);
    Result.CacheKey = Key;
  } else if (injectFault("serve.worker.crash")) {
    // An in-process worker cannot survive a real SIGSEGV, so without
    // Opts.Isolate the crash failpoint models the *disposition* instead:
    // the same typed result, telemetry and flight dump as a sandboxed
    // crash whose retries ran out. The payoff is determinism — a leader
    // can be killed between its election and its publish without a fork,
    // which is how tests/test_race.cpp drives single-flight re-election.
    traceEmit("worker.crash", 0, 0, TraceId + " " + Request.Name);
    Flight.record("serve", "worker.crash", TraceId, 0, Worker);
    if (!Opts.FlightDir.empty())
      Flight.dumpToFile(Opts.FlightDir + "/flightrec-" +
                            fsSafeId(Request.RequestId) + ".json",
                        "crash", Request.RequestId, TraceId, 0);
    std::string Key = Result.CacheKey;
    Result = typedResult("crashed", support::ExitWorkerCrash,
                         "worker crash injected (serve.worker.crash)");
    Result.CacheKey = Key;
  } else {
    uint64_t ExecStartNs = support::monotonicNowNs();
    ServeResult Executed = resultFromOutcome(Ctx.execute());
    uint64_t ExecNs = support::monotonicNowNs() - ExecStartNs;
    {
      support::RankedGuard Lock(HistMu);
      HistCompile.record(ExecNs);
    }
    Flight.record("serve", "compile", TraceId, ExecNs, Worker);
    if (Opts.StitchTraces)
      // Nest the compiler's own spans under this request in the Chrome
      // export. The driver ring's categories/names are string literals,
      // so storing them by pointer in the flight ring is safe.
      for (const support::TraceEvent &E : Ctx.trace().snapshot())
        Flight.record(E.Category, E.Name, TraceId, E.Value, Worker,
                      E.TimeNs);
    Executed.CacheKey = Result.CacheKey;
    Result = std::move(Executed);
  }

  // The service-side deadline guard: whatever the request was doing when
  // its budget ran out, the caller gets a typed deadline result.
  bool Expired = DeadlineAtNs && support::monotonicNowNs() > DeadlineAtNs;
  if (Expired && Result.Status.empty()) {
    DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
    traceEmit("request.deadline", uint64_t(Result.ExitCode), 0,
              TraceId + " " + Request.Name);
    Flight.record("serve", "request.deadline", TraceId, 0, Worker);
    std::string Key = Result.CacheKey;
    Result = typedResult("deadline", support::ExitWatchdogTimeout,
                         "deadline expired during the compile");
    Result.CacheKey = Key;
  }

  // Never cache a service-level disposition (shed/deadline/crash) or a
  // timing-dependent watchdog expiry of a deadline request: cache entries
  // must be pure functions of content, and an expired request must not
  // poison the cache for the identical request asked with more budget.
  // The cached payload is written before RequestId is stamped on the
  // result, so warm replays stay byte-identical across requests.
  bool Cacheable = WantCache && Result.Status.empty() &&
                   !(DeadlineAtNs &&
                     Result.ExitCode == support::ExitWatchdogTimeout);
  if (Cacheable) {
    std::string Payload = serveResultToJson(Result).dump(0);
    Cache.insert(Result.CacheKey, Payload);
    // Write through to the durable store: the exact bytes the memory
    // cache replays, so a restart replays them too. Failures are the
    // store's problem (counted, possibly degrading it) — never this
    // request's; the response is already committed above.
    if (Disk)
      Disk->insert(Result.CacheKey, Payload);
    // Between the insert and the FlightGuard's release: a waiter woken
    // here must still re-check the cache, not assume the key vanished.
    GCSAFE_INTERLEAVE_POINT("serve.singleflight.publish");
  }

  return finishRequest(A, std::move(Result), 0);
}

ServeResult
CompileService::isolatedCompile(const driver::RequestOptions &Request,
                                uint64_t DeadlineAtNs,
                                const std::string &TraceId) {
  driver::OptRung Rung = Request.StartRung;
  bool Descended = false;
  // Terminal "crashed" results dump the flight ring next to the response
  // (gcsafe-flightrec-v1): the post-mortem names the victim request and
  // carries its last events. The dump runs in the parent, outside signal
  // context, but reuses the same async-signal-safe writer.
  auto DumpCrash = [&](int Signal) {
    if (Opts.FlightDir.empty())
      return;
    Flight.dumpToFile(Opts.FlightDir + "/flightrec-" +
                          fsSafeId(Request.RequestId) + ".json",
                      "crash", Request.RequestId, TraceId, Signal);
  };
  for (unsigned Attempt = 0;; ++Attempt) {
    IsolateRequests.fetch_add(1, std::memory_order_relaxed);
    // The crash failpoint is drawn in the parent (the injector is shared,
    // service-wide state the child must not touch) and the verdict is
    // carried across the fork by value.
    bool InjectCrash = injectFault("serve.worker.crash");

    uint64_t TimeoutMs = Opts.IsolateTimeoutMs;
    if (DeadlineAtNs) {
      uint64_t Now = support::monotonicNowNs();
      uint64_t RemainMs =
          DeadlineAtNs > Now ? (DeadlineAtNs - Now) / 1000000ull + 1 : 1;
      TimeoutMs = TimeoutMs ? std::min(TimeoutMs, RemainMs) : RemainMs;
    }

    driver::RequestOptions ChildOpts = Request;
    // The child is a fresh single-threaded process: it must not touch the
    // shared memo (its mutex may be held by another worker at fork time),
    // and its updates would die with it anyway.
    ChildOpts.Memo = nullptr;
    clampWatchdogs(ChildOpts, DeadlineAtNs);
    if (Descended) {
      ChildOpts.SelfHeal = true;
      ChildOpts.StartRung = Rung;
    }

    driver::SandboxOutcome Out = driver::runInSandbox(
        [&ChildOpts, InjectCrash](int Fd) -> int {
          if (InjectCrash)
            raise(SIGSEGV);
          driver::RequestContext Ctx(std::move(ChildOpts));
          ServeResult R = resultFromOutcome(Ctx.execute());
          std::string Payload = serveResultToJson(R).dump(0);
          size_t Off = 0;
          while (Off < Payload.size()) {
            ssize_t W = write(Fd, Payload.data() + Off, Payload.size() - Off);
            if (W <= 0)
              return support::ExitError;
            Off += static_cast<size_t>(W);
          }
          return support::ExitSuccess;
        },
        TimeoutMs);

    switch (Out.St) {
    case driver::SandboxOutcome::Status::SpawnError:
      DumpCrash(0);
      return typedResult("crashed", support::ExitWorkerCrash,
                         "could not spawn an isolated worker");
    case driver::SandboxOutcome::Status::TimedOut: {
      IsolateTimeouts.fetch_add(1, std::memory_order_relaxed);
      traceEmit("worker.timeout", Out.DurationMs, Attempt,
                TraceId + " " + Request.Name);
      Flight.record("serve", "worker.timeout", TraceId, Out.DurationMs,
                    CurrentWorker);
      bool RequestDeadline =
          DeadlineAtNs && support::monotonicNowNs() > DeadlineAtNs;
      return typedResult(
          "deadline", support::ExitWatchdogTimeout,
          RequestDeadline
              ? "isolated worker killed at the request deadline"
              : "isolated worker killed after " +
                    std::to_string(Out.DurationMs) + "ms (--isolate-timeout)");
    }
    case driver::SandboxOutcome::Status::Signaled: {
      IsolateCrashes.fetch_add(1, std::memory_order_relaxed);
      traceEmit("worker.crash", uint64_t(Out.Signal), Attempt,
                TraceId + " " + Request.Name);
      Flight.record("serve", "worker.crash", TraceId, uint64_t(Out.Signal),
                    CurrentWorker);
      bool Expired = DeadlineAtNs && support::monotonicNowNs() > DeadlineAtNs;
      if (Attempt < Opts.IsolateRetries && !Expired) {
        // The batch driver's recovery move, per request: re-enter the
        // degradation ladder one rung lower — a crash at full
        // optimization often clears at a simpler one.
        IsolateRetries.fetch_add(1, std::memory_order_relaxed);
        Rung = driver::lowerRung(Rung);
        Descended = true;
        continue;
      }
      DumpCrash(Out.Signal);
      return typedResult(
          "crashed", support::ExitWorkerCrash,
          "isolated worker killed by signal " + std::to_string(Out.Signal) +
              " on attempt " + std::to_string(Attempt + 1) + " at rung " +
              driver::optRungName(Descended ? Rung : Request.StartRung));
    }
    case driver::SandboxOutcome::Status::Exited:
      break;
    }

    ServeResult R;
    if (!resultFromPayload(Out.Payload, R)) {
      DumpCrash(0);
      return typedResult("crashed", support::ExitWorkerCrash,
                         "isolated worker exited (status " +
                             std::to_string(Out.ExitCode) +
                             ") without a result payload");
    }
    return R;
  }
}

support::Stats CompileService::statsSnapshot() const {
  support::Stats S;
  S.set("serve.workers", Pool.size());
  S.set("serve.uptime_ns", support::monotonicNowNs() - StartNs);
  S.set("serve.requests", Requests.load(std::memory_order_relaxed));
  S.set("serve.responses.ok", ResponsesOk.load(std::memory_order_relaxed));
  S.set("serve.responses.error",
        ResponsesError.load(std::memory_order_relaxed));
  S.set("serve.responses.degraded",
        ResponsesDegraded.load(std::memory_order_relaxed));
  // depth is a point-in-time sample, not a lifetime total: report it
  // with Gauge kind so consumers (Stats::merge, --stats printing) never
  // treat it as a monotonic counter. peak and shed stay true counters.
  // Both gauges are lock-free mirrors of the queue (written under
  // QueueMu, sampled here with acquire), so snapshotting never blocks
  // admission.
  S.setFloat("serve.queue.depth",
             static_cast<double>(QueueDepth.load(std::memory_order_acquire)));
  S.set("serve.queue.peak", QueuePeak.load(std::memory_order_acquire));
  S.set("serve.queue.shed", QueueShed.load(std::memory_order_relaxed));
  S.set("serve.deadline.expired",
        DeadlineExpired.load(std::memory_order_relaxed));
  S.set("serve.isolate.requests",
        IsolateRequests.load(std::memory_order_relaxed));
  S.set("serve.isolate.crashes",
        IsolateCrashes.load(std::memory_order_relaxed));
  S.set("serve.isolate.retries",
        IsolateRetries.load(std::memory_order_relaxed));
  S.set("serve.isolate.timeouts",
        IsolateTimeouts.load(std::memory_order_relaxed));
  CacheStats C = Cache.stats();
  S.set("serve.cache.hits", C.Hits);
  S.set("serve.cache.misses", C.Misses);
  S.set("serve.cache.insertions", C.Insertions);
  S.set("serve.cache.evictions", C.Evictions);
  S.set("serve.cache.entries", C.Entries);
  S.set("serve.cache.bytes", C.Bytes);
  S.set("serve.verify_memo.hits", Memo.hits());
  S.set("serve.verify_memo.misses", Memo.misses());
  S.set("serve.verify_memo.entries", Memo.entries());
  // Always present (zeros without a store) so every consumer of the
  // schema sees one shape; degraded is a 0/1 gauge, not a counter.
  StoreStats D = Disk ? Disk->stats() : StoreStats();
  S.set("serve.store.hits", D.Hits);
  S.set("serve.store.misses", D.Misses);
  S.set("serve.store.writes", D.Writes);
  S.set("serve.store.scrubbed", D.Scrubbed);
  S.set("serve.store.quarantined", D.Quarantined);
  S.set("serve.store.io_errors", D.IoErrors);
  S.setFloat("serve.store.degraded", D.Degraded ? 1.0 : 0.0);
  return S;
}

std::vector<support::TraceEvent> CompileService::traceSnapshot() const {
  support::RankedGuard Lock(TraceMu);
  return Trace.snapshot();
}

support::Json CompileService::metricsSnapshot() const {
  using support::Json;
  Json M = Json::object();
  M["schema"] = Json::string("gcsafe-metrics-v1");
  uint64_t Now = support::monotonicNowNs();
  uint64_t UptimeNs = Now > StartNs ? Now - StartNs : 1;
  uint64_t Req = Requests.load(std::memory_order_relaxed);
  M["uptime_ns"] = Json::integer(UptimeNs);
  M["requests"] = Json::integer(Req);
  M["rate_rps"] =
      Json::number(double(Req) * 1e9 / static_cast<double>(UptimeNs));
  // depth is a *sampled gauge* — the value at snapshot time, not a
  // lifetime total like peak and shed (which are true counters).
  Json Q = Json::object();
  Q["depth"] =
      Json::integer(uint64_t(QueueDepth.load(std::memory_order_acquire)));
  Q["peak"] =
      Json::integer(uint64_t(QueuePeak.load(std::memory_order_acquire)));
  Q["shed"] = Json::integer(QueueShed.load(std::memory_order_relaxed));
  M["queue"] = std::move(Q);
  Json Stages = Json::object();
  {
    support::RankedGuard Lock(HistMu);
    Stages["queue_wait"] = HistQueueWait.toJson();
    Stages["cache_lookup"] = HistCacheLookup.toJson();
    Stages["compile"] = HistCompile.toJson();
    Stages["isolate"] = HistIsolate.toJson();
    Stages["e2e"] = HistE2E.toJson();
  }
  M["stages"] = std::move(Stages);
  // Mirrors serve.store.* in statsSnapshot(): always present, zeros
  // without a store, degraded as a 0/1 gauge.
  StoreStats D = Disk ? Disk->stats() : StoreStats();
  Json St = Json::object();
  St["hits"] = Json::integer(D.Hits);
  St["misses"] = Json::integer(D.Misses);
  St["writes"] = Json::integer(D.Writes);
  St["scrubbed"] = Json::integer(D.Scrubbed);
  St["quarantined"] = Json::integer(D.Quarantined);
  St["io_errors"] = Json::integer(D.IoErrors);
  St["degraded"] = Json::integer(uint64_t(D.Degraded ? 1 : 0));
  M["store"] = std::move(St);
  return M;
}
