/**
 * @file
 * RobustMeasurer: bounded-retry + median-of-k denoising on top of any
 * MeasurementBackend, so one flaky or noisy measurement never poisons a
 * label or a tuning decision.
 *
 * Per logical measurement it takes up to `medianOf` samples; each sample is
 * retried immediately, up to `maxAttempts` times, on transient failures
 * (MeasurementError throws or invalid results). If every attempt of every
 * sample fails, the call is *discarded*: it returns an invalid Measurement
 * carrying the last failure reason, and the caller decides how to degrade
 * (the dataset builder skips the schedule, the tuner falls back to the CSR
 * default).
 */
#pragma once

#include "perfmodel/cost_model.hpp"

namespace waco {

/** Retry/denoise policy of a RobustMeasurer. */
struct RetryPolicy
{
    /** Attempts per sample before it is abandoned (>= 1). */
    u32 maxAttempts = 3;
    /** Valid samples collected per call; the median is reported (>= 1).
     *  1 = no remeasurement, matching the raw backend call-for-call. */
    u32 medianOf = 1;
};

/** Cumulative outcome statistics across all calls of one RobustMeasurer. */
struct MeasureStats
{
    u64 calls = 0;     ///< Logical measure() calls.
    u64 attempts = 0;  ///< Backend invocations (incl. retries).
    u64 retries = 0;   ///< Attempts that were re-issued after a failure.
    u64 faults = 0;    ///< MeasurementError throws absorbed.
    u64 invalid = 0;   ///< Invalid results seen (non-timeout).
    u64 timeouts = 0;  ///< Invalid results with reason "timeout".
    u64 discarded = 0; ///< Calls whose every attempt failed.
};

/** Retrying, denoising wrapper around a MeasurementBackend. */
class RobustMeasurer : public MeasurementBackend
{
  public:
    /** @param backend the possibly flaky backend; must outlive this. */
    explicit RobustMeasurer(const MeasurementBackend& backend,
                            RetryPolicy policy = {});

    const RetryPolicy& policy() const { return policy_; }
    const MeasureStats& stats() const { return stats_; }

    Measurement measure(const SparseInput& in, const ProblemShape& shape,
                        const SuperSchedule& s) const override;
    u64 measurementCount() const override { return stats_.calls; }

  private:
    const MeasurementBackend& backend_;
    RetryPolicy policy_;
    mutable MeasureStats stats_;
};

} // namespace waco
