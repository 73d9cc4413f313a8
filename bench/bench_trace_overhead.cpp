/**
 * @file
 * Observability overhead: cost of the tracing/metrics layer when it is
 * compiled in but runtime-disabled (the shipping default). Two twin
 * kernels run the same dot-product workload; one is salted with
 * WACO_SPAN / WACO_COUNT / WACO_HIST at the same density as the
 * instrumented pipeline (one span plus a few counters per ~16K-element
 * kernel call), the other is bare. With observability disabled, the
 * instrumented twin must stay within 2% of the bare one — the zero-cost
 * contract from DESIGN.md §8. For reference the enabled path is timed
 * too (expected to cost real time; no assertion).
 *
 * Timing goes through timeRounds (perfmodel/wallclock_backend.hpp): bare
 * and disabled alternate which runs first each round, so run order and
 * host drift hit both alike; each side reports its best round (a min over
 * rounds discards scheduler noise, which a <2% bound cannot tolerate in a
 * mean), and the ratio prints with the IQR of its per-round ratios.
 *
 * `--smoke` shrinks repetitions for the `perf` ctest gate
 * (`ctest -C perf -L perf`) but keeps the 2% hard failure (exit 1).
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common.hpp"
#include "perfmodel/wallclock_backend.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

using namespace waco;
using namespace waco::bench;

namespace {

constexpr u32 kVecLen = 16 * 1024;

/**
 * The workload both twins call: one dot product over 16K floats, seeded
 * with @p salt so repeated calls cannot be common-subexpression'd away.
 * Shared between the twins on purpose — the pipeline instruments phase
 * boundaries *around* work, so the hot loop's codegen must be identical
 * and only the macro sites differ. (Putting the macros in the same
 * function as the loop measures a register-allocation artifact instead:
 * the live Span forces the accumulator into memory.)
 */
[[gnu::noinline]] double
work(const float* a, const float* b, u32 salt)
{
    double acc = salt;
    for (u32 i = 0; i < kVecLen; ++i)
        acc += static_cast<double>(a[i]) * b[i];
    return acc;
}

/** Bare call: no observability. */
[[gnu::noinline]] double
kernelBare(const std::vector<float>& a, const std::vector<float>& b, u32 salt)
{
    return work(a.data(), b.data(), salt);
}

/** Same call wrapped with observability at pipeline density. */
[[gnu::noinline]] double
kernelInstrumented(const std::vector<float>& a, const std::vector<float>& b,
                   u32 salt)
{
    WACO_SPAN("overhead.kernel");
    WACO_COUNT("overhead.calls", 1);
    double acc = work(a.data(), b.data(), salt);
    WACO_HIST("overhead.result_ns", static_cast<u64>(acc < 0 ? 0 : acc));
    WACO_COUNT("overhead.elements", kVecLen);
    return acc;
}

} // namespace

int
main(int argc, char** argv)
{
    argc = parseObservabilityFlags(argc, argv);
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    Timer total;
    printHeader("Observability overhead",
                smoke ? "Disabled-path tax (smoke reps)"
                      : "Disabled-path tax of tracing + metrics");

    std::vector<float> a(kVecLen), b(kVecLen);
    for (u32 i = 0; i < kVecLen; ++i) {
        a[i] = 1.0f + 1e-4f * static_cast<float>(i % 997);
        b[i] = 1.0f - 1e-4f * static_cast<float>(i % 991);
    }

    const u32 kReps = smoke ? 15u : 40u;
    const u32 kCalls = smoke ? 400u : 2000u;
    double sink = 0.0;
    // One timed side: kCalls invocations of @p fn.
    auto calls = [&](auto fn) {
        return [&, fn] {
            for (u32 c = 0; c < kCalls; ++c)
                sink += fn(a, b, c);
        };
    };
    auto best = [](const std::vector<double>& secs) {
        return *std::min_element(secs.begin(), secs.end());
    };

    trace::setEnabled(false);
    metrics::setEnabled(false);
    auto off = timeRounds(kReps, {calls(kernelBare),
                                  calls(kernelInstrumented)});

    // The warm-up of the enabled pass faults in the thread-local shard, so
    // allocation never lands inside a timed round.
    trace::setEnabled(true);
    metrics::setEnabled(true);
    auto on = timeRounds(kReps, {calls(kernelInstrumented)});
    trace::setEnabled(false);
    metrics::setEnabled(false);
    u64 spans = trace::snapshot().size();
    trace::clear();

    double bare = best(off[0]), disabled = best(off[1]), enabled = best(on[0]);
    double disabled_ratio = disabled / bare;
    double enabled_ratio = enabled / bare;
    const std::vector<int> widths = {22, 14, 10, 14};
    printRow({"Variant", "Best time", "vs bare", "IQR vs bare"}, widths);
    printRow({"bare kernel", timeCell(bare), "1.00x", ""}, widths);
    printRow({"instrumented, off", timeCell(disabled),
              speedupCell(disabled_ratio), ratioIqrCell(off[1], off[0])},
             widths);
    printRow({"instrumented, on", timeCell(enabled),
              speedupCell(enabled_ratio), ""},
             widths);
    std::printf("(enabled pass recorded %llu spans; checksum %.3g)\n",
                static_cast<unsigned long long>(spans), sink);

    writeObservabilityOutputs();
    std::printf("[bench completed in %.1fs]\n", total.seconds());
    if (disabled_ratio >= 1.02) {
        std::fprintf(stderr,
                     "FAIL: disabled observability costs %.2f%% (budget 2%%)\n",
                     (disabled_ratio - 1.0) * 100.0);
        return 1;
    }
    return 0;
}
