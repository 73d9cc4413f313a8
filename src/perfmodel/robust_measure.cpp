#include "perfmodel/robust_measure.hpp"

#include <algorithm>
#include <limits>

#include "util/common.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace waco {

RobustMeasurer::RobustMeasurer(const MeasurementBackend& backend,
                               RetryPolicy policy)
    : backend_(backend), policy_(policy)
{
    fatalIf(policy_.maxAttempts == 0, "RetryPolicy.maxAttempts must be >= 1");
    fatalIf(policy_.medianOf == 0, "RetryPolicy.medianOf must be >= 1");
}

Measurement
RobustMeasurer::measure(const SparseInput& in, const ProblemShape& shape,
                        const SuperSchedule& s) const
{
    WACO_SPAN("measure.call");
    ++stats_.calls;
    WACO_COUNT("measure.calls", 1);
    std::vector<Measurement> samples;
    Measurement last_failure;
    last_failure.seconds = std::numeric_limits<double>::infinity();
    last_failure.valid = false;
    last_failure.invalidReason = "no attempt made";

    for (u32 sample = 0; sample < policy_.medianOf; ++sample) {
        bool got_sample = false;
        for (u32 try_n = 0; try_n < policy_.maxAttempts; ++try_n) {
            if (try_n > 0) {
                ++stats_.retries;
                WACO_COUNT("measure.retries", 1);
            }
            ++stats_.attempts;
            WACO_COUNT("measure.attempts", 1);
            Measurement m;
            try {
                m = backend_.measure(in, shape, s);
            } catch (const MeasurementError& e) {
                ++stats_.faults;
                WACO_COUNT("measure.faults", 1);
                last_failure.invalidReason = e.what();
                continue;
            }
            if (!m.valid) {
                if (m.invalidReason == "timeout") {
                    ++stats_.timeouts;
                    WACO_COUNT("measure.timeouts", 1);
                } else {
                    ++stats_.invalid;
                    WACO_COUNT("measure.invalid", 1);
                }
                last_failure = m;
                continue;
            }
            samples.push_back(std::move(m));
            got_sample = true;
            break;
        }
        // One exhausted sample means the backend is persistently failing
        // for this schedule; taking more samples would not help.
        if (!got_sample)
            break;
    }

    if (samples.empty()) {
        ++stats_.discarded;
        WACO_COUNT("measure.discarded", 1);
        return last_failure;
    }

    // Median-of-k denoising: report the sample with the median runtime so
    // the diagnostic breakdown stays internally consistent, but pin the
    // headline seconds to the exact median (mean of middles when even).
    std::sort(samples.begin(), samples.end(),
              [](const Measurement& a, const Measurement& b) {
                  return a.seconds < b.seconds;
              });
    Measurement out = samples[(samples.size() - 1) / 2];
    if (samples.size() % 2 == 0) {
        out.seconds = 0.5 * (samples[samples.size() / 2 - 1].seconds +
                             samples[samples.size() / 2].seconds);
    }
    return out;
}

} // namespace waco
