/**
 * @file
 * Circuit breaker around the measurement backend.
 *
 * A long-lived tuner server cannot let a dead or flapping measurement
 * harness stall every request in retry loops: after `failureThreshold`
 * consecutive tunes whose every measurement failed (visible in
 * RobustMeasurer stats: discarded == calls), the breaker OPENS and
 * requests degrade to model-score-only ranking — bounded-quality answers
 * with zero backend traffic. After `probeAfter` degraded requests the
 * breaker goes HALF-OPEN and lets exactly one probe request measure; a
 * healthy probe CLOSES the breaker, a failed one re-opens it and the
 * count starts over.
 *
 * Deliberately request-counted, not wall-clock-timed: the cooldown is a
 * deterministic function of traffic, so tests can assert exact transition
 * sequences and a quiet server does not probe a dead backend on a timer.
 */
#pragma once

#include <mutex>

#include "util/common.hpp"

namespace waco::service {

enum class BreakerState : u32 { Closed, Open, HalfOpen };

/** Breaker policy knobs. */
struct BreakerConfig
{
    /** Consecutive all-measurements-failed tunes that open the breaker. */
    u32 failureThreshold = 3;
    /** Degraded requests served while open before a half-open probe. */
    u32 probeAfter = 8;
};

/** Thread-safe three-state breaker (Closed -> Open -> HalfOpen -> ...). */
class CircuitBreaker
{
  public:
    explicit CircuitBreaker(BreakerConfig cfg = {});

    BreakerState state() const;

    /**
     * Admission check for one request's measurement phase. Returns true
     * when the request may measure: always while Closed, and for the
     * single probe request once `probeAfter` degraded requests have been
     * served while Open (the call that flips Open -> HalfOpen *is* the
     * probe). Returns false — degrade to model-only — otherwise, including
     * while a probe is already in flight.
     */
    bool allowMeasure();

    /** Report the measurement outcome of a request that was allowed. */
    void recordSuccess();
    void recordFailure();

    /** Lifetime transition counters (for stats/tests). */
    u64 timesOpened() const;
    u64 timesClosed() const;
    u64 timesHalfOpened() const;

  private:
    BreakerConfig cfg_;
    mutable std::mutex mutex_;
    BreakerState state_ = BreakerState::Closed;
    u32 consecutiveFailures_ = 0;
    u32 degradedSinceOpen_ = 0;
    u64 opened_ = 0;
    u64 closed_ = 0;
    u64 halfOpened_ = 0;
};

} // namespace waco::service
