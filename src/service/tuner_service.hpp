/**
 * @file
 * TunerService — fault-tolerant tuning-as-a-service over a WacoTuner.
 *
 * The tuner itself is single-query (the HNSW visited-epoch scratch is not
 * safe for concurrent walks), so the service runs ONE worker thread that
 * owns the tuner and serializes searches, and gets its resilience from
 * everything around that thread:
 *
 *  - Admission control: a bounded queue (load shedding with a typed Shed
 *    response, never an unbounded backlog) and a per-tenant in-flight cap
 *    so one noisy client cannot starve the rest.
 *  - Deadlines + cancellation: every request carries a CancelToken (client
 *    deadline and/or explicit cancel()) that the tuner polls at phase
 *    boundaries, HNSW frontier steps, and between top-k measurements.
 *  - Circuit breaker: consecutive tunes whose measurements ALL failed trip
 *    the breaker; while open, requests skip the measurement phase and are
 *    ranked by model score alone, with a deterministic half-open probe.
 *  - Degradation ladder, best rung first:
 *        FullSearch -> CacheHit -> ModelOnly -> DefaultSchedule
 *    Every response records the rung it was served from, so a client can
 *    tell a co-optimized answer from a safe fallback.
 *  - Crash-safe result cache: (patternKey, algorithm) -> winning schedule,
 *    persisted via an append-only checksummed journal that recovers across
 *    restarts (service/result_cache.hpp). The key is an exact O(nnz) hash
 *    of the pattern (tensor/coo.hpp), so a repeat is answered inside
 *    submit() without copying the matrix, and a merely similar pattern
 *    (a transpose, one moved nonzero) misses.
 *
 * Every response is typed and every degraded answer is still a *valid*
 * schedule (worst rung = the CSR-row-parallel default); the service never
 * returns garbage and never throws across the API boundary. An input with
 * a zero extent has no valid schedule at all: submit() answers it Failed
 * at admission, before it reaches the worker.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/waco_tuner.hpp"
#include "service/circuit_breaker.hpp"
#include "service/result_cache.hpp"
#include "util/cancel.hpp"
#include "util/common.hpp"

namespace waco::service {

/** Final disposition of one request. */
enum class ServiceStatus : u32 {
    Accepted,         ///< Queued; not a final status.
    Ok,               ///< Served from the requested quality (full or cache).
    Shed,             ///< Rejected at admission (queue/tenant cap).
    DeadlineExceeded, ///< Deadline fired before any usable result existed.
    Cancelled,        ///< Client cancelled the ticket.
    Degraded,         ///< Served, but from a lower ladder rung.
    Failed,           ///< Internal error; response carries the default key.
};

const char* serviceStatusName(ServiceStatus s);

/** Which ladder rung produced the response's schedule. */
enum class DegradationRung : u32 {
    FullSearch,      ///< ANNS walk + top-k re-measurement (the paper path).
    CacheHit,        ///< Cross-request result cache.
    ModelOnly,       ///< Best hit by predicted cost, unmeasured.
    DefaultSchedule, ///< CSR-row-parallel fallback; always valid.
};

const char* rungName(DegradationRung r);

/** Service policy knobs. */
struct ServiceConfig
{
    /** Max requests waiting in the queue; submits beyond this are Shed. */
    u32 maxQueue = 16;
    /** Max queued+running requests per tenant; beyond this, Shed. */
    u32 maxInflightPerTenant = 4;
    /** Deadline applied when submit() passes none (+inf = none). */
    double defaultDeadlineSeconds =
        std::numeric_limits<double>::infinity();
    /** Measurement-backend circuit breaker policy. */
    BreakerConfig breaker = {};
    /** Result-cache journal path; empty = in-memory cache only. */
    std::string cacheJournalPath;
};

/** What the client gets back. */
struct TuneResponse
{
    ServiceStatus status = ServiceStatus::Failed;
    DegradationRung rung = DegradationRung::DefaultSchedule;
    /** SuperSchedule::key() of the answer — parseable, verifier-checkable,
     *  and never empty for a completed (non-Shed) request, with one
     *  exception: an input with a zero extent fails at admission with an
     *  empty key, because no legal schedule exists for it. */
    std::string scheduleKey;
    /** Measured runtime when @ref measured, else predicted cost (ModelOnly)
     *  or +inf (nothing was scored). */
    double expectedSeconds = std::numeric_limits<double>::infinity();
    /** True when expectedSeconds came from a real measurement. */
    bool measured = false;
    /** Submit-to-completion wall time. */
    double latencySeconds = 0.0;
    /** Human-readable detail (cancel reason, error message, ...). */
    std::string detail;
};

/**
 * Handle to one submitted request. Shed and cache-hit tickets complete
 * synchronously inside submit(); the rest complete on the worker thread.
 * Thread-safe; keep the shared_ptr alive until you are done with wait().
 */
class TuneTicket
{
  public:
    /** Submit-time disposition: Accepted, Shed, Ok (cache hit), or Failed
     *  (an input with a zero extent, which no schedule can run). */
    ServiceStatus admission() const;

    /** Request client-side cancellation (idempotent, races allowed). */
    void cancel();

    bool done() const;

    /** Block until the response is ready and return it. */
    const TuneResponse& wait();

  private:
    friend class TunerService;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool done_ = false;
    ServiceStatus admission_ = ServiceStatus::Accepted;
    TuneResponse response_;

    // Request payload. The matrix is copied only when the request is
    // queued (the client's matrix may go away); cache hits never copy it.
    SparseMatrix matrix_;
    std::string tenant_;
    bool enqueued_ = false; ///< Holds a tenant in-flight slot until finish.
    u64 patternKey_ = 0;    ///< patternKey(matrix), the result-cache key.
    CancelToken cancelToken_;
    std::chrono::steady_clock::time_point submitTime_;
};

using TicketPtr = std::shared_ptr<TuneTicket>;

/** Aggregate service counters (see also the global metrics registry). */
struct ServiceStats
{
    u64 submitted = 0;
    u64 completed = 0; ///< Final non-Shed responses delivered.
    u64 shed = 0;
    u64 ok = 0;
    u64 degraded = 0;
    u64 cancelled = 0;
    u64 deadlineExceeded = 0;
    u64 failed = 0;
    u64 cacheHits = 0;
    u64 cacheMisses = 0;
    u64 rungCounts[4] = {0, 0, 0, 0}; ///< Indexed by DegradationRung.
    u64 breakerOpened = 0;
    u64 breakerClosed = 0;
    u64 breakerHalfOpened = 0;
};

/** The server. Owns a worker thread; construction starts it. */
class TunerService
{
  public:
    /** @param tuner a trained tuner (train() + graph built). Must outlive
     *  the service; the service serializes all access to it. */
    explicit TunerService(WacoTuner& tuner, ServiceConfig cfg = {});
    ~TunerService();

    TunerService(const TunerService&) = delete;
    TunerService& operator=(const TunerService&) = delete;

    /**
     * Submit one matrix for tuning. Never blocks on tuning work and never
     * throws: overload is reported as a Shed ticket, a cross-request
     * cache hit completes immediately (status Ok, rung CacheHit), and so
     * does an input with a zero extent (status Failed, empty key).
     * @param deadline_seconds relative deadline; NaN = use the config
     *        default; +inf = none.
     */
    TicketPtr submit(const SparseMatrix& m,
                     const std::string& tenant = "default",
                     double deadline_seconds =
                         std::numeric_limits<double>::quiet_NaN());

    /** Stop the worker; queued requests complete as Cancelled. Idempotent
     *  (also run by the destructor). */
    void shutdown();

    /** Pause/resume the worker between requests (deterministic tests:
     *  pause(), fill the queue, assert shedding, resume()). */
    void pause();
    void resume();

    /** Requests currently waiting (excludes the one being processed). */
    u64 queueDepth() const;

    ServiceStats stats() const;

    const ResultCache& cache() const { return cache_; }
    const CircuitBreaker& breaker() const { return breaker_; }

  private:
    void workerLoop();
    void process(const TicketPtr& t);
    /** Fill and deliver the response; updates counters and latency. */
    void finish(const TicketPtr& t, TuneResponse&& r);
    std::string defaultKeyFor(const SparseMatrix& m) const;

    WacoTuner& tuner_;
    ServiceConfig cfg_;
    ResultCache cache_;
    CircuitBreaker breaker_;

    mutable std::mutex mutex_; ///< Guards queue/tenant/stat state below.
    std::condition_variable cv_;
    std::deque<TicketPtr> queue_;
    std::unordered_map<std::string, u32> tenantInflight_;
    bool stopping_ = false;
    bool paused_ = false;
    ServiceStats stats_;

    std::thread worker_; ///< Started last; owns all tuner access.
};

} // namespace waco::service
