/**
 * @file
 * The runtime oracle: a deterministic analytical performance model that
 * plays the role of the paper's hardware measurements.
 *
 * Given a sparse input, a ProblemShape and a SuperSchedule, the oracle
 * sizes the schedule's format (formatFootprint: level sizes and bytes,
 * without assembling the tensor) and estimates the execution time of the
 * TACO-style loop nest on a MachineConfig. The model captures the couplings
 * the paper identifies as performance-critical:
 *
 *  - traversal cost per level format (U loop overhead vs C pos/crd loads),
 *  - dense-block padding compute and the compiler SIMD cliff (Figure 14),
 *  - discordant loop orders needing searches over compressed levels,
 *  - cache reuse of dense operands under split-induced tiling (hierarchical
 *    working-set analysis over the actual nonzero pattern),
 *  - OpenMP dynamic load balance simulated chunk-by-chunk from the actual
 *    per-iteration work histogram (chunk size / thread count effects),
 *  - a global memory-bandwidth bound.
 *
 * Everything is a deterministic function of (pattern, format, schedule,
 * machine), so "measurements" are reproducible and the learned cost model
 * has a well-defined target. The oracle walks the same lowered LoopNest
 * (ir/loopnest.hpp) the interpreter executes, and its pattern scans fan
 * out over the persistent thread pool for large inputs (the bitmap-OR
 * distinct counting is order-independent, so parallelism does not change
 * any estimate).
 */
#pragma once

#include <array>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/loopnest.hpp"
#include "ir/schedule.hpp"
#include "perfmodel/machine.hpp"
#include "tensor/coo.hpp"
#include "tensor/format.hpp"
#include "util/cancel.hpp"

namespace waco {

/** One oracle measurement with a diagnostic breakdown. */
struct Measurement
{
    /** Estimated kernel runtime in seconds; +inf when invalid. */
    double seconds = 0.0;
    /** False when the format exceeded the storage budget or the run its
     *  time budget ("timeout", as the paper drops >1 min schedules). */
    bool valid = true;
    std::string invalidReason;

    // --- diagnostics (used by Table 6 attribution and tests) ---
    double computeSeconds = 0.0;   ///< Critical-path compute component.
    double memorySeconds = 0.0;    ///< Bandwidth-bound component.
    double serialSeconds = 0.0;    ///< Work outside the parallel loop.
    double imbalance = 1.0;        ///< Makespan / ideal parallel time.
    double missBytes = 0.0;        ///< Estimated DRAM traffic.
    bool simdUsed = false;         ///< Innermost loop vectorized.
    u64 storedValues = 0;          ///< Values incl. dense-block padding.
    u64 formatBytes = 0;           ///< Storage footprint of the format.
};

/**
 * Thrown by measurement backends for *transient* failures (the analogue of
 * a hardware run crashing or being evicted): callers that care about
 * robustness catch it and retry; everything else treats it as fatal.
 */
class MeasurementError : public std::runtime_error
{
  public:
    explicit MeasurementError(const std::string& msg)
        : std::runtime_error(msg)
    {}
};

/**
 * Anything that can "run" a (input, shape, schedule) triple and report a
 * runtime: the deterministic RuntimeOracle, a FaultyOracle decorator that
 * injects noise/failures, a RobustMeasurer that retries another backend,
 * or a WallclockMeasurer that executes the nest. There is one entry point
 * for every input order: a matrix (SpMV / SpMM / SDDMM / fused) and a
 * 3-tensor (MTTKRP) both arrive as a SparseInput. Implementations may
 * throw MeasurementError for transient failures.
 * A backend that runs code stops a run past @p budgetSeconds and reports
 * it invalid "timeout"; RobustMeasurer applies that rule to every result.
 */
class MeasurementBackend
{
  public:
    virtual ~MeasurementBackend() = default;

    /** Measure @p s on @p in; @p shape must come from the same input. */
    virtual Measurement measure(const SparseInput& in,
                                const ProblemShape& shape,
                                const SuperSchedule& s,
                                double budgetSeconds = kUnbounded) const = 0;

    /** Total measurement count so far (tuning-cost accounting, Fig. 17). */
    virtual u64 measurementCount() const = 0;
};

/** Deterministic stand-in for running the generated kernel on hardware. */
class RuntimeOracle : public MeasurementBackend
{
  public:
    explicit RuntimeOracle(MachineConfig machine)
        : machine_(std::move(machine))
    {}

    const MachineConfig& machine() const { return machine_; }

    /** Estimate @p s on @p in. A schedule that fails to lower or whose
     *  format exceeds HierSparseTensor::kDefaultMaxBytes is invalid. */
    Measurement measure(const SparseInput& in, const ProblemShape& shape,
                        const SuperSchedule& s,
                        double budgetSeconds = kUnbounded) const override;

    /**
     * Estimated cost of converting canonical COO into the schedule's format
     * (the T_formatconvert term of Section 5.6).
     */
    double conversionSeconds(u64 nnz, u64 stored_values) const;

    /** Total measurement count so far (tuning-cost accounting, Fig. 17). */
    u64 measurementCount() const override { return measurements_.load(); }

  private:
    /** The analytical model proper. Walks the lowered @p nest for all loop
     *  and level structure (positions, extents, discordance) — the same IR
     *  the interpreter executes — instead of re-deriving it from @p s. */
    Measurement measureImpl(const std::vector<std::array<u32, 3>>& coords,
                            u64 nnz, const ProblemShape& shape,
                            const SuperSchedule& s, const LoopNest& nest,
                            const FormatFootprint& fmt) const;

    MachineConfig machine_;
    mutable std::atomic<u64> measurements_{0};
};

} // namespace waco
