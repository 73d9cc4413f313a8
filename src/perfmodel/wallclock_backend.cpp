#include "perfmodel/wallclock_backend.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace waco {

namespace {

/** Timed executions per measure(); their median is reported. */
constexpr u32 kTimedRounds = 3;

/** Deterministic integer values in 1..3, one Rng seeded per input:
 *  measurements must not depend on which measure() call happened first. */
void
fillDeterministic(std::size_t input, std::vector<float>& data)
{
    Rng rng(input + 1);
    for (auto& x : data)
        x = static_cast<float>(rng.uniformInt(1, 3));
}

Measurement
invalid(const std::string& why)
{
    Measurement r;
    r.valid = false;
    r.seconds = std::numeric_limits<double>::infinity();
    r.invalidReason = why;
    return r;
}

} // namespace

Measurement
WallclockMeasurer::run(const HierSparseTensor& t, const ProblemShape& shape,
                       const SuperSchedule& s) const
{
    LoopNest nest = lower(s, shape);

    // Dense operands, sized by the einsum and laid out as scheduled.
    const DenseInputs in =
        makeDenseInputs(nest, inputRowMajorOf(s), t, fillDeterministic);

    ParallelConfig par{
        std::min(std::max(1u, s.numThreads), hardwareThreads()),
        std::max(1u, s.ompChunk)};

    // Warm-up run: pays JIT compilation / cache population and faults the
    // operands in, so the timed rounds measure steady-state execution.
    exec_.execute(nest, in.args, par);

    std::vector<double> rounds;
    rounds.reserve(kTimedRounds);
    for (u32 r = 0; r < kTimedRounds; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        exec_.execute(nest, in.args, par);
        auto t1 = std::chrono::steady_clock::now();
        rounds.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
    std::sort(rounds.begin(), rounds.end());

    Measurement r;
    r.seconds = rounds[rounds.size() / 2];
    r.storedValues = t.storedValues();
    r.formatBytes = t.bytes();
    WACO_COUNT("wallclock.measurements", 1);
    return r;
}

Measurement
WallclockMeasurer::measure(const SparseInput& in, const ProblemShape& shape,
                           const SuperSchedule& s) const
{
    measurements_.fetch_add(1);
    try {
        return run(HierSparseTensor::build(formatOf(s, shape), in), shape, s);
    } catch (const FormatTooLarge& e) {
        return invalid(e.what());
    }
}

} // namespace waco
