#include "perfmodel/wallclock_backend.hpp"

#include <algorithm>
#include <limits>

#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

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
invalid(const std::string& why, double seconds)
{
    Measurement r;
    r.valid = false;
    r.seconds = seconds;
    r.invalidReason = why;
    return r;
}

} // namespace

std::vector<std::vector<double>>
timeRounds(u32 rounds, const std::vector<std::function<void()>>& sides)
{
    for (const auto& side : sides)
        side();
    std::vector<std::vector<double>> secs(sides.size());
    for (u32 r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < sides.size(); ++i) {
            const std::size_t k = (r + i) % sides.size();
            Timer t;
            sides[k]();
            secs[k].push_back(t.seconds());
        }
    }
    return secs;
}

Measurement
WallclockMeasurer::run(const HierSparseTensor& t, const ProblemShape& shape,
                       const SuperSchedule& s, double budgetSeconds) const
{
    LoopNest nest = lower(s, shape);

    // Dense operands, sized by the einsum and laid out as scheduled.
    const DenseInputs in =
        makeDenseInputs(nest, inputRowMajorOf(s), t, fillDeterministic);

    ParallelConfig par{
        std::min(std::max(1u, s.numThreads), hardwareThreads()),
        std::max(1u, s.ompChunk)};

    Measurement r;
    try {
        r.seconds = median(timeRounds(kTimedRounds, {[&] {
            exec_.execute(nest, in.args, par, budgetSeconds);
        }})[0]);
    } catch (const CancelledError&) {
        return invalid("timeout", budgetSeconds);
    }
    r.storedValues = t.storedValues();
    r.formatBytes = t.bytes();
    WACO_COUNT("wallclock.measurements", 1);
    return r;
}

Measurement
WallclockMeasurer::measure(const SparseInput& in, const ProblemShape& shape,
                           const SuperSchedule& s, double budgetSeconds) const
{
    measurements_.fetch_add(1);
    try {
        return run(HierSparseTensor::build(formatOf(s, shape), in), shape, s,
                   budgetSeconds);
    } catch (const FormatTooLarge& e) {
        return invalid(e.what(), std::numeric_limits<double>::infinity());
    }
}

} // namespace waco
