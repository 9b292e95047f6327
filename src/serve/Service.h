//===- serve/Service.h - The in-process compile service --------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CompileService: a thread pool of compile workers in front of the
/// re-entrant driver (driver/Request.h), a content-addressed response
/// cache (serve/Cache.h) and a shared per-function verification memo.
/// Both gcsafe-serve (over a unix socket) and gcsafe-batch --service
/// (in-process) sit on this class; docs/SERVING.md is the architecture
/// document.
///
/// Every request gets a fresh RequestContext — fault injector, trace
/// ring, self-heal ladder and quarantine set are all request-private —
/// so nothing a request degrades leaks into the next one. The only
/// cross-request state is deliberately shareable: the response cache and
/// the verify memo, both keyed purely on content.
///
/// Overload behavior (docs/SERVING.md §"Operating under load"): submit()
/// is admission-controlled — past QueueMax queued requests (or once the
/// service is draining or stopping) a request is *shed* with a typed
/// ServeResult instead of queueing unboundedly. A request may carry a
/// wall-clock deadline (RequestOptions::DeadlineNs): the remaining budget
/// is clamped into the pass/GC/VM watchdogs, a request that expires in
/// the queue never starts, and an expired result is never cached. With
/// ServiceOptions::Isolate each cache miss compiles in a forked sandbox
/// (driver/Isolate.h) so a crashing compile costs one request, not the
/// process; crashes retry one degradation-ladder rung lower.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SERVE_SERVICE_H
#define GCSAFE_SERVE_SERVICE_H

#include "driver/Request.h"
#include "serve/Cache.h"
#include "serve/Store.h"
#include "serve/Telemetry.h"
#include "support/RankedMutex.h"

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace gcsafe {
namespace serve {

struct ServiceOptions {
  unsigned Workers = 4;
  size_t CacheMaxEntries = 1024;
  bool CacheEnabled = true;
  /// Capacity of the service-level cat="serve" trace ring.
  size_t TraceCapacity = 4096;
  /// Admission control: submit() sheds (typed "overloaded" result) once
  /// this many requests are queued. 0 = unbounded (the pre-hardening
  /// behavior, kept for benchmarking the difference).
  size_t QueueMax = 256;
  /// Run each cache-missing compile in a forked sandbox: a SIGSEGV in
  /// the compiler costs that one request, and crashes retry one ladder
  /// rung lower (driver/Isolate.h).
  bool Isolate = false;
  /// Per-sandbox wall timeout under Isolate (SIGKILL past it; 0 = none).
  uint64_t IsolateTimeoutMs = 30000;
  /// Crash retries per request under Isolate, each one rung lower.
  unsigned IsolateRetries = 1;
  /// Optional *service-wide* failpoint injector (serve.queue.full,
  /// serve.worker.crash, serve.conn.stall). Unlike the per-request
  /// injectors it is shared across threads; the service serializes every
  /// consult behind a mutex. Must outlive the service. May be null.
  support::FaultInjector *Faults = nullptr;
  /// Capacity of the lock-free flight-recorder ring (serve/Telemetry.h).
  size_t FlightCapacity = 2048;
  /// When non-empty, every request that ends "crashed" dumps the flight
  /// ring to DIR/flightrec-<request_id>.json (gcsafe-flightrec-v1), so a
  /// post-mortem can read the victim's last events. The directory must
  /// exist. Empty = no dumps (the ring still records).
  std::string FlightDir;
  /// Re-emit each in-process compile's driver trace events (cat
  /// "phase"/"pass"/"gc"/"vm") into the flight ring stamped with the
  /// request's trace id, so the Chrome export nests compiler internals
  /// under the request span. Off by default: the service trace ring stays
  /// pure cat="serve" and high-volume VM events stay out of the flight
  /// ring unless an operator asks (gcsafe-serve --trace-chrome).
  bool StitchTraces = false;
  /// When non-empty, a crash-safe on-disk response store (serve/Store.h)
  /// backs the in-memory cache under DIR/gcsafe-store-v1/: validated
  /// entries survive restarts, a startup scrub quarantines anything it
  /// cannot prove intact, and persistent IO errors degrade the store to
  /// memory-only without affecting service availability. Empty = memory
  /// cache only (the pre-durability behavior).
  std::string StoreDir;
};

/// One request's result as the service reports it: the driver outcome
/// plus the cache verdict.
struct ServeResult {
  bool Ok = false;
  bool Cached = false;
  int ExitCode = 0;
  bool Degraded = false;
  std::string Rung = "full";
  std::vector<std::string> Quarantined;
  std::string CacheKey; ///< Empty when the request was uncacheable.
  /// The request's service-level identity: the client-supplied id, or one
  /// the service generated at admission. Like CacheKey it is stamped on
  /// the result *after* any cache replay — it is never part of the cached
  /// payload, which keeps warm and cold payloads byte-identical.
  std::string RequestId;
  /// Service-level disposition, empty for a normally-executed request:
  /// "overloaded" (shed at admission), "draining"/"shutdown" (rejected
  /// by a stopping service), "deadline" (the request's wall-clock budget
  /// expired), "crashed" (an isolated worker died and retries ran out).
  /// Never set on a cached payload — these results are not cacheable.
  std::string Status;
  std::string Error;
  support::Json Report;
  bool HasReport = false;
  support::Json Lint;
  bool HasLint = false;
};

/// A point-in-time readiness snapshot (the protocol's "health" op).
struct ServiceHealth {
  bool Ready = false; ///< Accepting work: not draining/stopping, queue below max.
  unsigned Workers = 0;
  size_t QueueDepth = 0;
  size_t QueueMax = 0;
  bool Draining = false;
  bool Stopping = false;
  bool Isolate = false;
};

/// The canonical flag string entering the cache key: every
/// compilation-relevant RequestOptions field in a fixed order
/// (docs/SERVING.md documents the invalidation rules this implies).
std::string canonicalFlagString(const driver::RequestOptions &Opts);

/// Serialization of a ServeResult as the cached payload (and back). The
/// payload is the single source of a warm response, which is what makes
/// warm and cold responses byte-identical.
support::Json serveResultToJson(const ServeResult &R);
bool serveResultFromJson(const support::Json &J, ServeResult &Out);

class CompileService {
public:
  explicit CompileService(ServiceOptions Opts = {});
  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;
  ~CompileService(); ///< stop(): drains the queue and joins the workers.

  /// Runs one request on the calling thread (cache consulted first).
  /// Admission control does not apply, but the request's DeadlineNs does
  /// (measured from this call).
  ServeResult compile(const driver::RequestOptions &Request,
                      bool UseCache = true);

  /// Enqueues one request for the worker pool. Admission-controlled: on
  /// a full queue — or a draining or stopped service — the returned
  /// future is already resolved to a typed shed result (Status
  /// "overloaded"/"draining"/"shutdown", exit code ExitOverloaded)
  /// instead of enqueueing work that would never run.
  std::future<ServeResult> submit(driver::RequestOptions Request,
                                  bool UseCache = true);

  /// Stops admitting new requests; already-queued work still runs.
  /// waitIdle() then blocks until the queue and the workers are empty —
  /// the graceful-shutdown pair behind the protocol's "drain" op.
  void drain();
  void waitIdle();

  /// Idempotent: rejects new submits, lets the workers drain the queue,
  /// and joins them. The destructor calls it; a submit that observes the
  /// stopped service fails fast with a typed result rather than racing
  /// the teardown.
  void stop();

  /// Readiness for an external supervisor (the "health" op).
  ServiceHealth health() const;

  /// One consult of the service-wide failpoint injector (serialized; the
  /// injector itself is not thread-safe). False when no injector is
  /// configured. The daemon uses this for serve.conn.stall.
  bool injectFault(const std::string &Site) GCSAFE_EXCLUDES(FaultMu);

  /// The serve.* stats keys (docs/OBSERVABILITY.md §"serve").
  support::Stats statsSnapshot() const;

  /// The gcsafe-metrics-v1 snapshot behind the protocol's "metrics" op
  /// (docs/OBSERVABILITY.md §8): uptime, request rate, a *sampled* queue
  /// depth gauge, and per-stage latency histograms (queue_wait,
  /// cache_lookup, compile, isolate, e2e) with p50/p90/p99/max.
  support::Json metricsSnapshot() const;

  /// Snapshot of the service-level cat="serve" trace ring.
  std::vector<support::TraceEvent> traceSnapshot() const
      GCSAFE_EXCLUDES(TraceMu);

  /// The daemon-wide lock-free telemetry ring (serve/Telemetry.h).
  const FlightRecorder &flightRecorder() const { return Flight; }

  const ServiceOptions &options() const { return Opts; }
  driver::VerifyMemo &verifyMemo() { return Memo; }
  ContentCache &cache() { return Cache; }
  /// The durable store, or null when ServiceOptions::StoreDir is empty.
  Store *store() { return Disk.get(); }
  /// The startup scrub's gcsafe-store-v1 report (null JSON when there is
  /// no store).
  const support::Json &scrubReport() const { return ScrubReport; }

private:
  void workerLoop() GCSAFE_EXCLUDES(QueueMu);
  void traceEmit(const char *Name, uint64_t Value, uint64_t Aux,
                 std::string Detail) GCSAFE_EXCLUDES(TraceMu);
  /// The compile body shared by compile() and the pool: cache lookup,
  /// deadline bookkeeping, in-process or sandboxed execution, cache
  /// insert. DeadlineAtNs is the absolute monotonic expiry (0 = none);
  /// SubmitNs is when the request was admitted — the queue-wait and
  /// end-to-end histograms measure from it.
  ServeResult compileAt(const driver::RequestOptions &Request, bool UseCache,
                        uint64_t DeadlineAtNs, uint64_t SubmitNs,
                        const std::string &TraceId);
  /// One cache-missing compile under Opts.Isolate: forked sandbox,
  /// SIGKILL deadline, crash retries one rung lower. TraceId stamps the
  /// crash telemetry; a final "crashed" result dumps the flight ring.
  ServeResult isolatedCompile(const driver::RequestOptions &Request,
                              uint64_t DeadlineAtNs,
                              const std::string &TraceId);
  void countResult(const ServeResult &R);
  /// Assigns Request.RequestId (when the client sent none) and returns
  /// the request's unique trace id: "<request_id>#<seq>". The sequence
  /// suffix is what keeps duplicate client-supplied ids distinguishable
  /// in traces while the echoed id stays exactly what the client sent.
  std::string assignRequestId(driver::RequestOptions &Request);

  ServiceOptions Opts;
  ContentCache Cache;
  /// Durable tier behind Cache (serve/Store.h); null without StoreDir.
  /// Thread-safe; its internal rank (serve.store) sits above every lock
  /// the service holds at a store call site, and the store never calls
  /// back into the service while holding it.
  std::unique_ptr<Store> Disk;
  support::Json ScrubReport; ///< Startup scrub result (null w/o store).
  driver::VerifyMemo Memo;
  const uint64_t StartNs; ///< Service birth; uptime/rate baseline.

  mutable support::RankedMutex TraceMu{support::LockRank::ServeTrace,
                                       "serve.trace"};
  support::TraceBuffer Trace GCSAFE_GUARDED_BY(TraceMu);

  /// Lock-free; safe to record from any worker and dump from a signal.
  FlightRecorder Flight;

  /// Per-stage latency histograms (support::Histogram is not
  /// thread-safe; every record/read goes through HistMu).
  mutable support::RankedMutex HistMu{support::LockRank::ServeHist,
                                      "serve.hist"};
  support::Histogram HistQueueWait GCSAFE_GUARDED_BY(HistMu),
      HistCacheLookup GCSAFE_GUARDED_BY(HistMu),
      HistCompile GCSAFE_GUARDED_BY(HistMu),
      HistIsolate GCSAFE_GUARDED_BY(HistMu),
      HistE2E GCSAFE_GUARDED_BY(HistMu);

  std::atomic<uint64_t> RequestSeq{0}; ///< Trace-id uniquifier.

  /// Serializes Opts.Faults consults (the injector is not thread-safe).
  mutable support::RankedMutex FaultMu{support::LockRank::ServeFault,
                                       "serve.faults"};

  std::atomic<uint64_t> Requests{0}, ResponsesOk{0}, ResponsesError{0},
      ResponsesDegraded{0};
  std::atomic<uint64_t> QueueShed{0}, DeadlineExpired{0};
  std::atomic<uint64_t> IsolateRequests{0}, IsolateCrashes{0},
      IsolateRetries{0}, IsolateTimeouts{0};

  /// Single-flight: cache keys a request is currently compiling. A
  /// concurrent same-key miss waits for the leader and replays its
  /// cached payload instead of duplicating the compile — this is what
  /// makes "cold then warm" deterministic even when both requests are
  /// in flight together, and it keeps a thundering herd of identical
  /// requests from multiplying load under overload. A leader whose
  /// result turned out uncacheable wakes the waiters into re-electing
  /// (tests/test_race.cpp forces that schedule deterministically).
  support::RankedMutex InFlightMu{support::LockRank::ServeInFlight,
                                  "serve.singleflight"};
  support::CondVar InFlightCv;
  std::set<std::string> InFlight GCSAFE_GUARDED_BY(InFlightMu);

  /// Election order among identical requests (same source and flags).
  /// Each pooled request takes a ticket at dequeue, so in submission
  /// order, and gives it up once it has hit the cache or taken its
  /// single-flight side; a miss may not take a side while an identical
  /// request holds a lower ticket. Without this, two identical requests
  /// dequeued together race their parses to the election and the later
  /// one can lead, so the earlier replays it as "cached". The wait is
  /// bounded: every lower ticket is already running and gives its ticket
  /// up before it blocks on anything. A hash collision only orders two
  /// unrelated requests.
  support::CondVar TurnCv;
  /// Tickets not yet given up, keyed by request identity; equal keys
  /// keep insertion (= ticket) order.
  std::multimap<size_t, uint64_t> Turns GCSAFE_GUARDED_BY(InFlightMu);
  void passTurnLocked(size_t Identity, uint64_t Ticket)
      GCSAFE_REQUIRES(InFlightMu);
  void passTurn(size_t Identity, uint64_t Ticket) GCSAFE_EXCLUDES(InFlightMu);

  mutable support::RankedMutex QueueMu{support::LockRank::ServeQueue,
                                       "serve.queue"};
  support::CondVar QueueCv;
  support::CondVar IdleCv;
  struct QueuedTask {
    std::packaged_task<ServeResult()> Task;
    size_t Identity; ///< Election-order key (see Turns).
  };
  std::deque<QueuedTask> Queue GCSAFE_GUARDED_BY(QueueMu);
  size_t Active GCSAFE_GUARDED_BY(QueueMu) = 0; ///< Mid-execute requests.
  uint64_t Dequeued GCSAFE_GUARDED_BY(QueueMu) = 0; ///< Last ticket issued.
  /// Sampled gauges mirroring Queue under QueueMu, readable lock-free by
  /// statsSnapshot()/metricsSnapshot()/health() — the snapshot paths
  /// never contend with admission (memory orders: store-release under
  /// the lock, load-acquire at the sample site; the pairing only orders
  /// the gauge against its own publication, nothing else is inferred).
  std::atomic<size_t> QueueDepth{0};
  std::atomic<size_t> QueuePeak{0};
  std::atomic<bool> Draining{false}; ///< Written under QueueMu.
  std::atomic<bool> Stopping{false}; ///< Written under QueueMu.
  std::vector<std::thread> Pool;
};

} // namespace serve
} // namespace gcsafe

#endif // GCSAFE_SERVE_SERVICE_H
