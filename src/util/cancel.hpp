/**
 * @file
 * Cooperative cancellation: a CancelToken combines an explicit client
 * cancel flag with an absolute deadline, and long-running phases poll it at
 * their natural checkpoints (tuner phase boundaries, HNSW frontier steps,
 * between top-k measurements). Polling is two relaxed atomic loads plus a
 * clock read only when a deadline is armed, so threading a token through a
 * hot loop is free when nobody cancels.
 *
 * Lives in util (not service) because the core tuner and the ANN search
 * honor tokens without depending on the service layer.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/common.hpp"

namespace waco {

/** The budget that never runs out (setDeadline leaves a token unarmed). */
inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/**
 * Thrown by cancellation-aware code when a token fired at a point where no
 * partial result exists yet (e.g. before feature extraction finished).
 * Deliberately NOT a FatalError: callers that installed the token catch it
 * and degrade; nobody else should swallow it by accident.
 */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(const std::string& msg)
        : std::runtime_error(msg)
    {}
};

/** Shared cancel/deadline state; safe to poll and fire from any thread. */
class CancelToken
{
  public:
    /** Explicit client-side cancellation (idempotent). */
    void cancel() { cancelled_.store(true, std::memory_order_release); }

    /** Arm the deadline @p seconds from now (monotonic clock). */
    void
    setDeadline(double seconds)
    {
        if (!std::isfinite(seconds)) {
            clearDeadline();
            return;
        }
        auto now = std::chrono::steady_clock::now().time_since_epoch();
        i64 now_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
        deadline_ns_.store(now_ns + static_cast<i64>(seconds * 1e9),
                           std::memory_order_release);
    }

    void
    clearDeadline()
    {
        deadline_ns_.store(std::numeric_limits<i64>::max(),
                           std::memory_order_release);
    }

    /** True after cancel() (deadline expiry does not set this). */
    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_acquire);
    }

    /** True once the armed deadline has passed. */
    bool
    expired() const
    {
        i64 dl = deadline_ns_.load(std::memory_order_acquire);
        if (dl == std::numeric_limits<i64>::max())
            return false;
        auto now = std::chrono::steady_clock::now().time_since_epoch();
        return std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                   .count() >= dl;
    }

    /** The poll: cancelled or past deadline. */
    bool stopRequested() const { return cancelled() || expired(); }

    /** Seconds until the deadline; +inf when unarmed, <= 0 when expired. */
    double
    remainingSeconds() const
    {
        i64 dl = deadline_ns_.load(std::memory_order_acquire);
        if (dl == std::numeric_limits<i64>::max())
            return std::numeric_limits<double>::infinity();
        auto now = std::chrono::steady_clock::now().time_since_epoch();
        i64 now_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
        return static_cast<double>(dl - now_ns) * 1e-9;
    }

  private:
    std::atomic<bool> cancelled_{false};
    std::atomic<i64> deadline_ns_{std::numeric_limits<i64>::max()};
};

} // namespace waco
