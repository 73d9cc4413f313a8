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
 * `--smoke` shrinks repetitions for the `perf` ctest gate
 * (`ctest -C perf -L perf`) but keeps the 2% hard failure (exit 1).
 */
#include <cstdio>
#include <cstring>
#include <vector>

#include "common.hpp"
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

/**
 * Best-of-reps seconds for @p calls invocations of @p fn. Min over
 * repetitions discards scheduler noise, which a <2% assertion cannot
 * tolerate in a mean.
 */
template <typename Fn>
double
bestSeconds(u32 reps, u32 calls, const std::vector<float>& a,
            const std::vector<float>& b, Fn&& fn, double& sink)
{
    double best = 1e30;
    for (u32 r = 0; r < reps; ++r) {
        Timer t;
        for (u32 c = 0; c < calls; ++c)
            sink += fn(a, b, c);
        best = std::min(best, t.seconds());
    }
    return best;
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

    // Warm-up: fault in code paths and (for the enabled pass later) the
    // thread-local shard so allocation never lands inside a timed region.
    sink += kernelBare(a, b, 0) + kernelInstrumented(a, b, 0);

    trace::setEnabled(false);
    metrics::setEnabled(false);
    double bare = bestSeconds(kReps, kCalls, a, b, kernelBare, sink);
    double disabled = bestSeconds(kReps, kCalls, a, b, kernelInstrumented,
                                  sink);

    trace::setEnabled(true);
    metrics::setEnabled(true);
    sink += kernelInstrumented(a, b, 0);
    double enabled = bestSeconds(kReps, kCalls, a, b, kernelInstrumented,
                                 sink);
    trace::setEnabled(false);
    metrics::setEnabled(false);
    u64 spans = trace::snapshot().size();
    trace::clear();

    double disabled_ratio = disabled / bare;
    double enabled_ratio = enabled / bare;
    printRow({"Variant", "Best time", "vs bare"}, {22, 14, 10});
    printRow({"bare kernel", timeCell(bare), "1.00x"}, {22, 14, 10});
    printRow({"instrumented, off", timeCell(disabled),
              speedupCell(disabled_ratio)},
             {22, 14, 10});
    printRow({"instrumented, on", timeCell(enabled),
              speedupCell(enabled_ratio)},
             {22, 14, 10});
    std::printf("(enabled pass recorded %llu spans; checksum %.3g)\n",
                static_cast<unsigned long long>(spans), sink);

    if (FILE* f = std::fopen("BENCH_trace_overhead.json", "w")) {
        std::fprintf(f,
                     "{\n  \"bench\": \"trace_overhead\",\n"
                     "  \"smoke\": %s,\n"
                     "  \"bare_sec\": %.9f,\n"
                     "  \"disabled_sec\": %.9f,\n"
                     "  \"enabled_sec\": %.9f,\n"
                     "  \"disabled_overhead\": %.6f,\n"
                     "  \"enabled_overhead\": %.6f\n}\n",
                     smoke ? "true" : "false", bare, disabled, enabled,
                     disabled_ratio - 1.0, enabled_ratio - 1.0);
        std::fclose(f);
        std::printf("wrote BENCH_trace_overhead.json\n");
    }

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
