/**
 * @file
 * Tuning-as-a-service throughput and tail latency: multi-threaded clients
 * firing a repeat-heavy request mix (cache hits), a slice of tight
 * deadlines (degradation), and unconstrained full searches at a
 * TunerService, reporting requests/sec, p50/p99 latency, the shed rate,
 * and the degradation-rung breakdown.
 *
 * `--smoke` shrinks every size for the tier-1 ctest run and hard-fails
 * (exit 1) when any request comes back Failed or un-typed — the service's
 * "typed response, never garbage" contract is checked here too, not only
 * in the unit tests.
 */
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "codegen/kernel_backend.hpp"
#include "common.hpp"
#include "perfmodel/wallclock_backend.hpp"
#include "service/tuner_service.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace waco;
using namespace waco::bench;
using namespace waco::service;

int
main(int argc, char** argv)
{
    argc = parseObservabilityFlags(argc, argv);
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;

    const u32 threads = smoke ? 3 : 4;
    const u32 per_thread = smoke ? 20 : 150;
    const u32 pool_size = smoke ? 4 : 12;
    const u32 total = threads * per_thread;

    printHeader("server_throughput",
                "Tuner service: throughput, tail latency, degradation mix");

    setLogLevel(LogLevel::Off);
    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 4;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = smoke ? 8 : 16;
    opt.train.epochs = smoke ? 3 : 5;
    opt.train.batchSchedules = 8;
    opt.topK = smoke ? 4 : 6;
    opt.efSearch = smoke ? 12 : 24;
    WacoTuner tuner(Algorithm::SpMV, MachineConfig::intel24(), opt);
    CorpusOptions copt;
    copt.count = smoke ? 6 : 10;
    copt.minDim = 128;
    copt.maxDim = 512;
    copt.minNnz = 500;
    copt.maxNnz = 2000;
    tuner.train(makeCorpus(copt, 141));
    setLogLevel(LogLevel::Info);

    std::vector<SparseMatrix> pool;
    for (u64 s = 0; s < pool_size; ++s) {
        Rng rng(700 + s);
        pool.push_back(genUniform(256, 256, 1200, rng));
    }

    ServiceConfig cfg;
    cfg.maxQueue = 32;
    cfg.maxInflightPerTenant = 64;
    TunerService server(tuner, cfg);

    // The request mix: mostly unconstrained (repeats become cache hits),
    // one slice under a deadline tight enough to truncate some searches.
    std::vector<std::vector<TuneResponse>> responses(threads);
    Timer wall;
    std::vector<std::thread> clients;
    for (u32 c = 0; c < threads; ++c) {
        clients.emplace_back([&, c] {
            Rng rng(4000 + c);
            std::string tenant = "client-" + std::to_string(c);
            for (u32 i = 0; i < per_thread; ++i) {
                u32 mi = static_cast<u32>(
                    rng.uniformInt(0, static_cast<i64>(pool.size()) - 1));
                double dl = rng.bernoulli(0.2)
                                ? 0.002
                                : std::numeric_limits<double>::infinity();
                responses[c].push_back(
                    server.submit(pool[mi], tenant, dl)->wait());
            }
        });
    }
    for (auto& c : clients)
        c.join();
    double seconds = wall.seconds();

    ServiceStats stats = server.stats();
    u64 failed = 0, untyped = 0;
    std::vector<double> latencies; // of answered (not shed) requests
    for (const auto& per_client : responses) {
        for (const TuneResponse& r : per_client) {
            if (r.status != ServiceStatus::Shed)
                latencies.push_back(r.latencySeconds);
            failed += r.status == ServiceStatus::Failed;
            bool typed = r.status == ServiceStatus::Ok ||
                         r.status == ServiceStatus::Shed ||
                         r.status == ServiceStatus::Degraded ||
                         r.status == ServiceStatus::Cancelled ||
                         r.status == ServiceStatus::DeadlineExceeded;
            untyped += !typed;
            if (r.status != ServiceStatus::Shed && r.scheduleKey.empty())
                ++untyped;
        }
    }
    double rps = seconds > 0 ? static_cast<double>(total) / seconds : 0.0;
    double shed_rate =
        stats.submitted ? static_cast<double>(stats.shed) /
                              static_cast<double>(stats.submitted)
                        : 0.0;

    const std::vector<int> widths = {24, 14};
    printRow({"requests", std::to_string(total)}, widths);
    printRow({"wall seconds", numCell(seconds, 3)}, widths);
    printRow({"throughput req/s", numCell(rps, 1)}, widths);
    auto ms = [&](double p) {
        return latencies.empty() ? 0.0 : percentile(latencies, p) * 1e3;
    };
    printRow({"latency p50 ms", numCell(ms(50.0), 3)}, widths);
    printRow({"latency p99 ms", numCell(ms(99.0), 3)}, widths);
    printRow({"shed rate", numCell(shed_rate, 4)}, widths);
    printRow({"cache hits", std::to_string(stats.cacheHits)}, widths);
    for (u32 r = 0; r < 4; ++r)
        printRow({std::string("rung ") +
                      rungName(static_cast<DegradationRung>(r)),
                  std::to_string(stats.rungCounts[r])},
                 widths);
    printRow({"failed", std::to_string(failed)}, widths);

    // ---- warm-cache rung: compiled kernels memoized across services ----
    // Requests measured on real wall time through the JIT backend. The
    // first (cold) service pays the kernel compiles; a SECOND service on
    // the same request fingerprints re-searches and re-measures from a
    // cold result cache, yet must perform ZERO compiler invocations —
    // every kernel is a KernelCache hit. Hard exit-1 contract.
    bool warm_ran = false;
    u64 cold_compiles = 0, warm_recompiles = 0, warm_fallbacks = 0;
    if (compiledBackend().compilerAvailable()) {
        warm_ran = true;
        metrics::setEnabled(true);
        WallclockMeasurer wallclock(compiledBackend());
        tuner.setMeasurementBackend(wallclock);
        auto serve_pool_once = [&] {
            TunerService jit_server(tuner, cfg);
            for (const auto& mtx : pool)
                jit_server.submit(mtx)->wait();
        };
        u64 c0 = compiledBackend().stats().compiles;
        serve_pool_once();
        u64 c1 = compiledBackend().stats().compiles;
        u64 f1 = compiledBackend().stats().fallbacks;
        serve_pool_once();
        cold_compiles = c1 - c0;
        warm_recompiles = compiledBackend().stats().compiles - c1;
        warm_fallbacks = compiledBackend().stats().fallbacks - f1;
        printRow({"cold compiles", std::to_string(cold_compiles)}, widths);
        printRow({"warm recompiles", std::to_string(warm_recompiles)},
                 widths);
    } else {
        printRow({"warm-cache rung", "skipped (no cc)"}, widths);
    }

    writeObservabilityOutputs();

    // Hard contract checks (tier-1 smoke gate): every response is typed,
    // nothing Failed, and the repeat-heavy mix actually hit the cache.
    if (failed > 0 || untyped > 0) {
        std::fprintf(stderr,
                     "FAIL: %llu failed, %llu untyped responses\n",
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(untyped));
        return 1;
    }
    if (stats.cacheHits == 0) {
        std::fprintf(stderr, "FAIL: repeat-heavy mix produced 0 cache hits\n");
        return 1;
    }
    if (stats.completed + stats.shed != stats.submitted) {
        std::fprintf(stderr, "FAIL: request accounting does not balance\n");
        return 1;
    }
    if (warm_ran && (warm_recompiles != 0 || warm_fallbacks != 0)) {
        std::fprintf(stderr,
                     "FAIL: warm-cache rung recompiled %llu kernel(s) / "
                     "fell back %llu time(s) on repeat fingerprints\n",
                     static_cast<unsigned long long>(warm_recompiles),
                     static_cast<unsigned long long>(warm_fallbacks));
        return 1;
    }
    if (warm_ran && cold_compiles == 0) {
        std::fprintf(stderr,
                     "FAIL: warm-cache rung performed no compiles at all "
                     "(JIT backend was not exercised)\n");
        return 1;
    }
    return 0;
}
