/**
 * @file
 * FaultyOracle: a MeasurementBackend decorator that makes the deterministic
 * RuntimeOracle behave like real hardware — noisy and occasionally
 * failing. Every fault is drawn from an explicitly seeded Rng, so fault
 * sequences are reproducible run-to-run and tests can assert exact retry
 * statistics.
 *
 * Fault model, applied per measure() call in this order:
 *  1. transient failure with probability failProb — alternating (by a
 *     seeded coin) between throwing MeasurementError and returning an
 *     invalid Measurement with reason "transient",
 *  2. multiplicative log-normal noise: seconds *= exp(sigma * N(0,1)).
 *
 * The measurement-time budget (the paper drops schedules that run for over
 * a minute) is not a fault: RobustMeasurer applies it to every backend's
 * result, this one's noisy seconds included (RetryPolicy::timeoutSeconds).
 */
#pragma once

#include "perfmodel/cost_model.hpp"
#include "util/rng.hpp"

namespace waco {

/** Knobs of the injected fault distribution. */
struct FaultConfig
{
    /** Probability a call fails transiently (throw or invalid result). */
    double failProb = 0.0;
    /** Sigma of the multiplicative log-normal runtime noise (0 = exact). */
    double noiseSigma = 0.0;
    /** Seed of the fault stream (independent of the measured workload). */
    u64 seed = 0x5eed;
};

/** Counters describing what a FaultyOracle actually injected. */
struct FaultStats
{
    u64 calls = 0;     ///< measure() invocations.
    u64 thrown = 0;    ///< Transient failures raised as MeasurementError.
    u64 invalid = 0;   ///< Transient failures returned as invalid results.

    u64 faults() const { return thrown + invalid; }
};

/** Seeded fault-injecting decorator around any MeasurementBackend. */
class FaultyOracle : public MeasurementBackend
{
  public:
    /** @param inner backend whose results are corrupted; must outlive this. */
    FaultyOracle(const MeasurementBackend& inner, FaultConfig cfg)
        : inner_(inner), cfg_(cfg), rng_(cfg.seed)
    {}

    const FaultStats& stats() const { return stats_; }

    /** Measure through the inner backend (which gets @p budgetSeconds),
     *  then inject this call's faults. */
    Measurement measure(const SparseInput& in, const ProblemShape& shape,
                        const SuperSchedule& s,
                        double budgetSeconds = kUnbounded) const override;
    u64 measurementCount() const override { return stats_.calls; }

  private:
    const MeasurementBackend& inner_;
    FaultConfig cfg_;
    mutable Rng rng_;
    mutable FaultStats stats_;
};

} // namespace waco
