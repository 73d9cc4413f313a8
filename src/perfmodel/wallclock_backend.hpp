/**
 * @file
 * WallclockMeasurer: a MeasurementBackend that actually RUNS the lowered
 * nest and reports elapsed wall time, instead of estimating it like the
 * analytical RuntimeOracle.
 *
 * Each measure() call builds the input in the schedule's format (over the
 * storage budget -> invalid Measurement, exactly like the oracle),
 * lowers the schedule, synthesizes deterministic dense operands with the
 * layouts the schedule picked, and executes the nest through an injected
 * KernelBackend — the interpreter, or the JIT'd CompiledBackend, which is
 * what `tune_cli --backend compiled` wires up. One warm-up run pays
 * compilation/caching up front; the reported time is the median of three
 * timed rounds (RetryPolicy::medianOf repeats whole measurements above
 * this). The schedule's thread annotation is capped at the host's
 * hardware threads: the paper's 24/48-thread annotations would
 * oversubscribe a small machine into pure noise. Only the
 * `seconds`/`valid`/storage fields of Measurement are populated — the
 * analytical breakdown diagnostics stay zero.
 */
#pragma once

#include <atomic>

#include "codegen/kernel_backend.hpp"
#include "perfmodel/cost_model.hpp"

namespace waco {

/** Measures (input, shape, schedule) triples by executing them. */
class WallclockMeasurer final : public MeasurementBackend
{
  public:
    explicit WallclockMeasurer(KernelBackend& exec) : exec_(exec) {}

    Measurement measure(const SparseInput& in, const ProblemShape& shape,
                        const SuperSchedule& s) const override;

    u64 measurementCount() const override { return measurements_.load(); }

    /** The execution engine measurements run through. */
    KernelBackend& engine() const { return exec_; }

  private:
    Measurement run(const HierSparseTensor& t, const ProblemShape& shape,
                    const SuperSchedule& s) const;

    KernelBackend& exec_;
    mutable std::atomic<u64> measurements_{0};
};

} // namespace waco
