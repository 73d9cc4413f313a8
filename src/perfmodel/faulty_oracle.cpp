#include "perfmodel/faulty_oracle.hpp"

#include <cmath>

namespace waco {

Measurement
FaultyOracle::measure(const SparseInput& in, const ProblemShape& shape,
                      const SuperSchedule& s) const
{
    Measurement m = inner_.measure(in, shape, s);
    ++stats_.calls;

    // 1. Transient failure: the run crashed or the harness lost it. Drawn
    //    before the noise draw so the Rng stream is identical whether or
    //    not the inner measurement was valid.
    if (cfg_.failProb > 0.0 && rng_.bernoulli(cfg_.failProb)) {
        if (rng_.bernoulli(0.5)) {
            ++stats_.thrown;
            throw MeasurementError("injected transient measurement failure");
        }
        ++stats_.invalid;
        Measurement bad;
        bad.seconds = std::numeric_limits<double>::infinity();
        bad.valid = false;
        bad.invalidReason = "transient";
        return bad;
    }

    // 2. Log-normal multiplicative noise on the runtime.
    if (cfg_.noiseSigma > 0.0 && m.valid)
        m.seconds *= std::exp(rng_.normal(0.0, cfg_.noiseSigma));

    // 3. Timeout budget: over-budget runs are killed, not reported. The
    //    reported time is clamped to the budget — the harness observed
    //    exactly timeoutSeconds of wall clock before killing the run, so
    //    aggregate timing stats and latency histograms stay finite.
    if (m.valid && m.seconds > cfg_.timeoutSeconds) {
        ++stats_.timeouts;
        m.seconds = cfg_.timeoutSeconds;
        m.valid = false;
        m.invalidReason = "timeout";
    }
    return m;
}

} // namespace waco
