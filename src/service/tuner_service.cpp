#include "service/tuner_service.hpp"

#include <cmath>

#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace waco::service {

namespace {

double
elapsedSince(std::chrono::steady_clock::time_point t0)
{
    auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double>(dt).count();
}

} // namespace

const char*
serviceStatusName(ServiceStatus s)
{
    switch (s) {
      case ServiceStatus::Accepted: return "accepted";
      case ServiceStatus::Ok: return "ok";
      case ServiceStatus::Shed: return "shed";
      case ServiceStatus::DeadlineExceeded: return "deadline-exceeded";
      case ServiceStatus::Cancelled: return "cancelled";
      case ServiceStatus::Degraded: return "degraded";
      case ServiceStatus::Failed: return "failed";
    }
    return "?";
}

const char*
rungName(DegradationRung r)
{
    switch (r) {
      case DegradationRung::FullSearch: return "full-search";
      case DegradationRung::CacheHit: return "cache-hit";
      case DegradationRung::ModelOnly: return "model-only";
      case DegradationRung::DefaultSchedule: return "default-schedule";
    }
    return "?";
}

// ---------------------------------------------------------------- TuneTicket

ServiceStatus
TuneTicket::admission() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return admission_;
}

void
TuneTicket::cancel()
{
    cancelToken_.cancel();
}

bool
TuneTicket::done() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return done_;
}

const TuneResponse&
TuneTicket::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return done_; });
    return response_;
}

// --------------------------------------------------------------- TunerService

TunerService::TunerService(WacoTuner& tuner, ServiceConfig cfg)
    : tuner_(tuner), cfg_(std::move(cfg)), cache_(cfg_.cacheJournalPath),
      breaker_(cfg_.breaker)
{
    fatalIf(cfg_.maxInflightPerTenant == 0,
            "ServiceConfig.maxInflightPerTenant must be >= 1");
    worker_ = std::thread([this] { workerLoop(); });
}

TunerService::~TunerService()
{
    shutdown();
}

std::string
TunerService::defaultKeyFor(const SparseMatrix& m) const
{
    ProblemShape shape =
        ProblemShape::forMatrix(tuner_.algorithm(), m.rows(), m.cols());
    return defaultSchedule(shape).key();
}

TicketPtr
TunerService::submit(const SparseMatrix& m, const std::string& tenant,
                     double deadline_seconds)
{
    WACO_SPAN("service.submit");
    auto t = std::make_shared<TuneTicket>();
    t->tenant_ = tenant;
    t->submitTime_ = std::chrono::steady_clock::now();
    t->patternKey_ = patternKey(m);
    if (std::isnan(deadline_seconds))
        deadline_seconds = cfg_.defaultDeadlineSeconds;
    t->cancelToken_.setDeadline(deadline_seconds);

    WACO_COUNT("service.requests", 1);

    // No schedule is legal for an input with a zero extent (not even the
    // default floor every other response falls back to): fail it here.
    std::string zero = zeroExtentError(
        ProblemShape::forMatrix(tuner_.algorithm(), m.rows(), m.cols()));
    if (!zero.empty()) {
        TuneResponse r;
        r.status = ServiceStatus::Failed;
        r.rung = DegradationRung::DefaultSchedule;
        r.detail = std::move(zero);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.submitted;
        }
        {
            std::lock_guard<std::mutex> tlock(t->mutex_);
            t->admission_ = ServiceStatus::Failed;
        }
        finish(t, std::move(r));
        return t;
    }

    // Fast path: the exact same pattern was already co-optimized — answer
    // from the cache without copying the matrix, queueing, or tuning.
    CachedResult hit;
    if (cache_.lookup(t->patternKey_, tuner_.algorithm(), &hit)) {
        WACO_COUNT("service.cache.hits", 1);
        TuneResponse r;
        r.status = ServiceStatus::Ok;
        r.rung = DegradationRung::CacheHit;
        r.scheduleKey = hit.scheduleKey;
        r.expectedSeconds = hit.seconds;
        r.measured = true;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.submitted;
            ++stats_.cacheHits;
        }
        {
            std::lock_guard<std::mutex> tlock(t->mutex_);
            t->admission_ = ServiceStatus::Ok;
        }
        finish(t, std::move(r));
        return t;
    }
    WACO_COUNT("service.cache.misses", 1);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.submitted;
        ++stats_.cacheMisses;
        bool queue_full = queue_.size() >= cfg_.maxQueue;
        bool tenant_full =
            tenantInflight_[tenant] >= cfg_.maxInflightPerTenant;
        if (stopping_ || queue_full || tenant_full) {
            ++stats_.shed;
            WACO_COUNT("service.shed", 1);
            TuneResponse r;
            r.status = ServiceStatus::Shed;
            r.detail = stopping_          ? "service shutting down"
                       : queue_full       ? "queue full"
                                          : "tenant in-flight cap";
            std::lock_guard<std::mutex> tlock(t->mutex_);
            t->admission_ = ServiceStatus::Shed;
            t->response_ = std::move(r);
            t->done_ = true;
            t->cv_.notify_all();
            return t;
        }
        ++tenantInflight_[tenant];
        t->matrix_ = m; // only queued requests need their own copy
        t->enqueued_ = true;
        queue_.push_back(t);
        WACO_GAUGE("service.queue_depth", static_cast<double>(queue_.size()));
    }
    cv_.notify_one();
    return t;
}

void
TunerService::finish(const TicketPtr& t, TuneResponse&& r)
{
    r.latencySeconds = elapsedSince(t->submitTime_);
    WACO_HIST("service.latency_us", r.latencySeconds * 1e6);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.completed;
        ++stats_.rungCounts[static_cast<u32>(r.rung)];
        switch (r.status) {
          case ServiceStatus::Ok: ++stats_.ok; break;
          case ServiceStatus::Degraded:
            ++stats_.degraded;
            WACO_COUNT("service.degraded", 1);
            break;
          case ServiceStatus::Cancelled:
            ++stats_.cancelled;
            WACO_COUNT("service.cancelled", 1);
            break;
          case ServiceStatus::DeadlineExceeded:
            ++stats_.deadlineExceeded;
            WACO_COUNT("service.deadline_exceeded", 1);
            break;
          case ServiceStatus::Failed:
            ++stats_.failed;
            WACO_COUNT("service.failed", 1);
            break;
          default: break;
        }
        if (t->enqueued_) {
            auto it = tenantInflight_.find(t->tenant_);
            if (it != tenantInflight_.end() && it->second > 0)
                --it->second;
        }
    }
    std::lock_guard<std::mutex> tlock(t->mutex_);
    t->response_ = std::move(r);
    t->done_ = true;
    t->cv_.notify_all();
}

void
TunerService::process(const TicketPtr& t)
{
    WACO_SPAN("service.request");
    TuneResponse r;
    r.scheduleKey = defaultKeyFor(t->matrix_); // safe floor; overwritten

    // Queued long enough for the deadline to fire (or the client cancelled
    // while we waited)? Answer with the typed floor response immediately.
    if (t->cancelToken_.stopRequested()) {
        r.status = t->cancelToken_.cancelled() ? ServiceStatus::Cancelled
                                               : ServiceStatus::DeadlineExceeded;
        r.rung = DegradationRung::DefaultSchedule;
        r.detail = "expired while queued";
        finish(t, std::move(r));
        return;
    }

    // A duplicate may have been queued behind the request that populated
    // the cache — re-check before paying for a search.
    CachedResult hit;
    if (cache_.lookup(t->patternKey_, tuner_.algorithm(), &hit)) {
        WACO_COUNT("service.cache.hits", 1);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.cacheHits;
            --stats_.cacheMisses; // submit() charged a miss prematurely
        }
        r.status = ServiceStatus::Ok;
        r.rung = DegradationRung::CacheHit;
        r.scheduleKey = hit.scheduleKey;
        r.expectedSeconds = hit.seconds;
        r.measured = true;
        finish(t, std::move(r));
        return;
    }

    TuneControl ctl;
    ctl.cancel = &t->cancelToken_;
    bool measure_allowed = breaker_.allowMeasure();
    ctl.skipMeasure = !measure_allowed;

    try {
        TuneOutcome out = tuner_.tune(t->matrix_, ctl);

        // Feed the breaker from what the measurement phase actually saw:
        // "every call discarded" is the signature of a dead backend, and a
        // single clean measurement heals it.
        if (measure_allowed && out.remeasureStats.calls > 0) {
            if (out.remeasureStats.discarded == out.remeasureStats.calls)
                breaker_.recordFailure();
            else
                breaker_.recordSuccess();
        }

        r.scheduleKey = out.best.key();
        r.expectedSeconds = out.bestMeasured.seconds;
        r.measured = out.bestMeasured.valid;
        if (out.fellBack) {
            r.status = ServiceStatus::Degraded;
            r.rung = DegradationRung::DefaultSchedule;
            r.detail = "all top-k candidates invalid";
        } else if (out.modelOnly) {
            r.status = ServiceStatus::Degraded;
            r.rung = DegradationRung::ModelOnly;
            r.detail = measure_allowed ? "deadline hit before a valid "
                                         "measurement"
                                       : "circuit breaker open";
        } else if (out.truncated) {
            r.status = ServiceStatus::Degraded;
            r.rung = DegradationRung::FullSearch;
            r.detail = "search/measure truncated by deadline";
        } else {
            r.status = ServiceStatus::Ok;
            r.rung = DegradationRung::FullSearch;
            // Only un-degraded, measured winners enter the cache: a cache
            // hit must be as good as the full protocol's answer.
            if (r.measured)
                cache_.put(t->patternKey_, tuner_.algorithm(),
                           {r.scheduleKey, r.expectedSeconds});
        }
    } catch (const CancelledError& e) {
        r.status = t->cancelToken_.cancelled() ? ServiceStatus::Cancelled
                                               : ServiceStatus::DeadlineExceeded;
        r.rung = DegradationRung::DefaultSchedule;
        r.scheduleKey = defaultKeyFor(t->matrix_);
        r.expectedSeconds = std::numeric_limits<double>::infinity();
        r.measured = false;
        r.detail = e.what();
    } catch (const std::exception& e) {
        logWarn(std::string("service: tune failed: ") + e.what());
        r.status = ServiceStatus::Failed;
        r.rung = DegradationRung::DefaultSchedule;
        r.scheduleKey = defaultKeyFor(t->matrix_);
        r.expectedSeconds = std::numeric_limits<double>::infinity();
        r.measured = false;
        r.detail = e.what();
    }
    finish(t, std::move(r));
}

void
TunerService::workerLoop()
{
    for (;;) {
        TicketPtr t;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] {
                return stopping_ || (!paused_ && !queue_.empty());
            });
            if (stopping_)
                return; // shutdown() drains the queue itself
            t = queue_.front();
            queue_.pop_front();
            WACO_GAUGE("service.queue_depth",
                       static_cast<double>(queue_.size()));
        }
        process(t);
    }
}

void
TunerService::shutdown()
{
    std::deque<TicketPtr> drained;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ && !worker_.joinable() && queue_.empty())
            return;
        stopping_ = true;
        drained.swap(queue_);
    }
    cv_.notify_all();
    if (worker_.joinable())
        worker_.join();
    for (const TicketPtr& t : drained) {
        TuneResponse r;
        r.status = ServiceStatus::Cancelled;
        r.rung = DegradationRung::DefaultSchedule;
        r.scheduleKey = defaultKeyFor(t->matrix_);
        r.detail = "service shutdown";
        finish(t, std::move(r));
    }
}

void
TunerService::pause()
{
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
}

void
TunerService::resume()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    cv_.notify_all();
}

u64
TunerService::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

ServiceStats
TunerService::stats() const
{
    ServiceStats s;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        s = stats_;
    }
    s.breakerOpened = breaker_.timesOpened();
    s.breakerClosed = breaker_.timesClosed();
    s.breakerHalfOpened = breaker_.timesHalfOpened();
    return s;
}

} // namespace waco::service
