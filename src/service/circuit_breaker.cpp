#include "service/circuit_breaker.hpp"

#include "util/metrics.hpp"

namespace waco::service {

CircuitBreaker::CircuitBreaker(BreakerConfig cfg) : cfg_(cfg)
{
    fatalIf(cfg_.failureThreshold == 0,
            "BreakerConfig.failureThreshold must be >= 1");
    fatalIf(cfg_.probeAfter == 0, "BreakerConfig.probeAfter must be >= 1");
}

BreakerState
CircuitBreaker::state() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
}

bool
CircuitBreaker::allowMeasure()
{
    std::lock_guard<std::mutex> lock(mutex_);
    switch (state_) {
      case BreakerState::Closed:
        return true;
      case BreakerState::Open:
        if (++degradedSinceOpen_ >= cfg_.probeAfter) {
            state_ = BreakerState::HalfOpen;
            ++halfOpened_;
            WACO_COUNT("service.breaker.half_opened", 1);
            return true; // this request is the probe
        }
        return false;
      case BreakerState::HalfOpen:
        return false; // probe already in flight
    }
    return true;
}

void
CircuitBreaker::recordSuccess()
{
    std::lock_guard<std::mutex> lock(mutex_);
    consecutiveFailures_ = 0;
    if (state_ != BreakerState::Closed) {
        state_ = BreakerState::Closed;
        ++closed_;
        WACO_COUNT("service.breaker.closed", 1);
    }
}

void
CircuitBreaker::recordFailure()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++consecutiveFailures_;
    if (state_ == BreakerState::HalfOpen ||
        (state_ == BreakerState::Closed &&
         consecutiveFailures_ >= cfg_.failureThreshold)) {
        state_ = BreakerState::Open;
        degradedSinceOpen_ = 0;
        ++opened_;
        WACO_COUNT("service.breaker.opened", 1);
    }
}

u64
CircuitBreaker::timesOpened() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return opened_;
}

u64
CircuitBreaker::timesClosed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

u64
CircuitBreaker::timesHalfOpened() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return halfOpened_;
}

} // namespace waco::service
