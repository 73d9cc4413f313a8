/**
 * @file
 * Command-line tuner: point it at a MatrixMarket file (or let it generate
 * a demo matrix), pick an algorithm, and get back the co-optimized format
 * + schedule, the C kernel implementing it, and the expected
 * speedup on the modelled machine.
 *
 * The fault-injection flags drive the whole fault-tolerance layer end to
 * end: measurements flow oracle -> FaultyOracle -> RobustMeasurer, corpus
 * labeling checkpoints to --checkpoint and resumes from it, and training
 * runs with gradient clipping + divergence rollback.
 *
 * --verify-only runs the static analysis pipeline (schedule verifier,
 * lowering, loop-nest verifier, asymptotic-dominance perf notes) over one
 * schedule — the CSR default, or any schedule given as a key() string via
 * --schedule — without training or measuring anything. Legal schedules
 * additionally print their asymptotic bound profile and WACO-S3xx notes
 * explaining every bound on which the default schedule beats them.
 * Diagnostics print to stdout and, with --diag-out, export as JSON; the
 * exit code is 1 when any WACO-… error-severity finding fires, 0
 * otherwise.
 *
 * --serve demos the tuning-as-a-service layer instead of a single tune:
 * a TunerService is stood up over the trained tuner and a batch of
 * requests (repeats included, so the cross-request cache shows itself) is
 * pushed through with per-request deadlines (--deadline-ms), a bounded
 * admission queue (--max-queue), and, with --cache-journal, a crash-safe
 * persistent result cache — the demo then "restarts" the server on the
 * same journal and shows the repeated request served from the recovered
 * cache with zero new measurements.
 *
 * Usage: example_tune_cli [spmv|spmm|sddmm] [matrix.mtx]
 *          [--alg NAME] (any matrix algorithm by name, e.g.
 *                        --alg fused_sddmm_spmm)
 *          [--faults P] [--noise SIGMA] [--timeout SECS]
 *          [--retries N] [--median K] [--checkpoint FILE]
 *          [--trace-out FILE] [--metrics-out FILE]
 *          [--verify-only] [--schedule KEY] [--diag-out FILE]
 *          [--serve] [--deadline-ms N] [--max-queue N]
 *          [--cache-journal FILE]
 *          [--backend interp|compiled]
 *          [--emit-out DIR] (writes DIR/<alg>_kernel.c, the kernel the
 *                            compiled backend builds for the schedule)
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "analysis/asymptotic_cost.hpp"
#include "analysis/loopnest_verifier.hpp"
#include "analysis/schedule_verifier.hpp"
#include "codegen/emit.hpp"
#include "codegen/kernel_backend.hpp"
#include "core/waco_tuner.hpp"
#include "data/generators.hpp"
#include "perfmodel/faulty_oracle.hpp"
#include "perfmodel/wallclock_backend.hpp"
#include "service/tuner_service.hpp"
#include "tensor/mmio.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

using namespace waco;

namespace {

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [spmv|spmm|sddmm] [matrix.mtx]\n"
                 "          [--alg NAME]  (e.g. --alg fused_sddmm_spmm)\n"
                 "          [--faults P] [--noise SIGMA] [--timeout SECS]\n"
                 "          [--retries N] [--median K] [--checkpoint FILE]\n"
                 "          [--trace-out FILE] [--metrics-out FILE]\n"
                 "          [--verify-only] [--schedule KEY] "
                 "[--diag-out FILE]\n"
                 "          [--serve] [--deadline-ms N] [--max-queue N]\n"
                 "          [--cache-journal FILE]\n"
                 "          [--backend interp|compiled]\n"
                 "          [--emit-out DIR]  (writes DIR/<alg>_kernel.c)\n",
                 argv0);
    std::exit(2);
}

/** The C translation unit the JIT backend compiles for @p s. */
std::string
kernelSourceFor(const SuperSchedule& s, const ProblemShape& shape)
{
    LoopNest nest = lower(s, shape);
    KernelEmitOptions kopt;
    kopt.inputRowMajor = inputRowMajorOf(s);
    kopt.cacheKey = kernelCacheKey(nest, kopt.inputRowMajor);
    return emitKernelC(nest, kopt);
}

/** Write the kernel for @p s to @p dir/<alg>_kernel.c. */
void
emitSourcesTo(const std::string& dir, const SuperSchedule& s,
              const ProblemShape& shape)
{
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + algorithmName(s.alg) + "_kernel.c";
    std::ofstream(path) << kernelSourceFor(s, shape);
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
run(int argc, char** argv)
{
    setLogLevel(LogLevel::Warn);
    Algorithm alg = Algorithm::SpMM;
    std::string matrix_path;
    FaultConfig faults;
    bool faulty = false;
    RetryPolicy retry;
    std::string checkpoint_path;
    std::string trace_path, metrics_path;
    bool verify_only = false;
    std::string schedule_key, diag_path;
    bool serve = false;
    double deadline_ms = std::numeric_limits<double>::infinity();
    u32 max_queue = 16;
    std::string journal_path;
    KernelBackendKind backend_kind = KernelBackendKind::Interpreter;
    bool backend_set = false;
    std::string emit_dir;

    for (int i = 1; i < argc; ++i) {
        auto num = [&](double lo) {
            if (i + 1 >= argc)
                usage(argv[0]);
            double v = std::atof(argv[++i]);
            if (v < lo)
                usage(argv[0]);
            return v;
        };
        if (!std::strcmp(argv[i], "spmv"))
            alg = Algorithm::SpMV;
        else if (!std::strcmp(argv[i], "spmm"))
            alg = Algorithm::SpMM;
        else if (!std::strcmp(argv[i], "sddmm"))
            alg = Algorithm::SDDMM;
        else if (!std::strcmp(argv[i], "--alg")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            if (!algorithmFromName(argv[++i], alg)) {
                std::fprintf(stderr, "unknown algorithm '%s'\n", argv[i]);
                usage(argv[0]);
            }
            if (algorithmInfo(alg).sparseOrder != 2) {
                std::fprintf(stderr,
                             "'%s' is not a matrix algorithm; this tool "
                             "tunes 2D sparse inputs\n",
                             argv[i]);
                usage(argv[0]);
            }
        } else if (!std::strcmp(argv[i], "--faults")) {
            faults.failProb = num(0.0);
            faulty = true;
        } else if (!std::strcmp(argv[i], "--noise")) {
            faults.noiseSigma = num(0.0);
            faulty = true;
        } else if (!std::strcmp(argv[i], "--timeout")) {
            faults.timeoutSeconds = num(0.0);
            faulty = true;
        } else if (!std::strcmp(argv[i], "--retries")) {
            retry.maxAttempts = static_cast<u32>(num(1.0));
        } else if (!std::strcmp(argv[i], "--median")) {
            retry.medianOf = static_cast<u32>(num(1.0));
        } else if (!std::strcmp(argv[i], "--checkpoint")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            checkpoint_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--trace-out")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            trace_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--metrics-out")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            metrics_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--verify-only")) {
            verify_only = true;
        } else if (!std::strcmp(argv[i], "--schedule")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            schedule_key = argv[++i];
        } else if (!std::strcmp(argv[i], "--diag-out")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            diag_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--serve")) {
            serve = true;
        } else if (!std::strcmp(argv[i], "--deadline-ms")) {
            deadline_ms = num(0.0);
        } else if (!std::strcmp(argv[i], "--max-queue")) {
            max_queue = static_cast<u32>(num(0.0));
        } else if (!std::strcmp(argv[i], "--cache-journal")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            journal_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--backend")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            if (!kernelBackendFromName(argv[++i], backend_kind)) {
                std::fprintf(stderr, "unknown backend '%s'\n", argv[i]);
                usage(argv[0]);
            }
            backend_set = true;
        } else if (!std::strcmp(argv[i], "--emit-out")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            emit_dir = argv[++i];
        } else if (argv[i][0] != '-' && matrix_path.empty()) {
            matrix_path = argv[i];
        } else {
            usage(argv[0]);
        }
    }

    // Observability is off by default; either output flag switches the
    // whole pipeline to instrumented mode before any work starts.
    if (!trace_path.empty())
        trace::setEnabled(true);
    if (!metrics_path.empty())
        metrics::setEnabled(true);

    if (backend_set && backend_kind == KernelBackendKind::Compiled) {
        if (compiledBackend().compilerAvailable())
            std::printf("kernel backend: compiled (%s)\n",
                        compiledBackend().compilerPath().c_str());
        else
            std::printf("kernel backend: compiled requested, but no "
                        "working C compiler was found; executions fall "
                        "back to the interpreter\n");
    }

    Rng rng(77);
    SparseMatrix m = !matrix_path.empty()
        ? readMatrixMarketFile(matrix_path)
        : genPowerLawRows(4096, 4096, 60000, 0.9, rng, false);
    std::printf("%s on '%s' (%u x %u, %llu nnz)\n",
                algorithmName(alg).c_str(), m.name().c_str(), m.rows(),
                m.cols(), static_cast<unsigned long long>(m.nnz()));

    if (verify_only) {
        // Static check only: no training, no measurement, no codegen.
        auto shape = ProblemShape::forMatrix(alg, m.rows(), m.cols());
        SuperSchedule s = schedule_key.empty()
                              ? defaultSchedule(shape)
                              : SuperSchedule::parseKey(schedule_key);
        auto diags = analysis::verifyLowered(s, shape);
        // WACO-S3xx: how this schedule's asymptotic bounds compare to the
        // default's (emits nothing for schedules the verifier rejects).
        analysis::asymptoticPerfNotes(s, shape, diags);
        std::printf("verifying schedule\n  %s\n", s.key().c_str());
        if (!diags.hasErrors())
            std::printf("%s",
                        analysis::asymptoticBounds(s, shape)
                            .describe()
                            .c_str());
        std::printf("%llu error(s), %llu warning(s), %llu perf note(s)\n",
                    static_cast<unsigned long long>(diags.errorCount()),
                    static_cast<unsigned long long>(diags.warningCount()),
                    static_cast<unsigned long long>(diags.noteCount()));
        if (!diags.empty())
            std::printf("%s", diags.format().c_str());
        if (!diag_path.empty()) {
            analysis::writeDiagnosticsJson(diags, diag_path);
            std::printf("wrote diagnostics to %s\n", diag_path.c_str());
        }
        if (!emit_dir.empty() && !diags.hasErrors())
            emitSourcesTo(emit_dir, s, shape);
        return diags.hasErrors() ? 1 : 0;
    }

    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 6;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = 15;
    opt.train.epochs = 5;
    opt.retry = retry;
    if (faulty) {
        // A flaky backend needs the full hardening: retries, denoising,
        // gradient clipping and divergence rollback.
        if (retry.medianOf == 1)
            opt.retry.medianOf = 3;
        opt.train.clipNorm = 10.0;
        opt.train.divergeFactor = 10.0;
    }
    WacoTuner tuner(alg, MachineConfig::intel24(), opt);
    std::unique_ptr<FaultyOracle> faulty_backend;
    if (faulty) {
        std::printf("fault injection: fail %.0f%%, noise sigma %.2f, "
                    "timeout %.3gs; retries %u, median-of-%u\n",
                    faults.failProb * 100.0, faults.noiseSigma,
                    faults.timeoutSeconds, opt.retry.maxAttempts,
                    opt.retry.medianOf);
        faulty_backend =
            std::make_unique<FaultyOracle>(tuner.oracle(), faults);
        tuner.setMeasurementBackend(*faulty_backend);
    }
    std::unique_ptr<WallclockMeasurer> wallclock;
    if (backend_set) {
        if (faulty)
            std::printf("note: --backend measures real wall time; the "
                        "fault-injection flags shape the analytical oracle "
                        "and are ignored\n");
        KernelBackend& engine =
            backend_kind == KernelBackendKind::Compiled
                ? static_cast<KernelBackend&>(compiledBackend())
                : interpreterBackend();
        wallclock = std::make_unique<WallclockMeasurer>(engine);
        tuner.setMeasurementBackend(*wallclock);
        std::printf("measurements: wall-clock execution through the '%s' "
                    "backend\n",
                    engine.name().c_str());
    }

    CorpusOptions copt;
    copt.count = 10;
    copt.minDim = 1024;
    copt.maxDim = 8192;
    copt.minNnz = 4000;
    copt.maxNnz = 60000;
    auto corpus = makeCorpus(copt, 78);
    std::printf("training the cost model on a synthetic corpus...\n");
    if (!checkpoint_path.empty()) {
        // Checkpointed labeling: re-running after an interruption resumes
        // from the flushed prefix instead of relabeling from scratch.
        LabelingOptions lopt;
        lopt.schedulesPerMatrix = opt.schedulesPerMatrix;
        lopt.seed = opt.seed;
        lopt.checkpointPath = checkpoint_path;
        RobustMeasurer robust(tuner.backend(), opt.retry);
        auto ds = buildDatasetResumable(alg, corpus, robust, lopt);
        tuner.trainOnDataset(ds);
    } else {
        tuner.train(corpus);
    }

    if (serve) {
        using namespace waco::service;
        ServiceConfig scfg;
        scfg.maxQueue = max_queue;
        // The demo batch comes from one "tenant"; let the queue bound, not
        // the per-tenant fairness cap, be the admission limit here.
        scfg.maxInflightPerTenant = std::max(max_queue, 1u) + 1;
        scfg.defaultDeadlineSeconds = deadline_ms * 1e-3;
        scfg.cacheJournalPath = journal_path;

        // The demo batch: the input matrix three times (the 2nd/3rd show
        // the cross-request cache) plus a couple of fresh patterns.
        Rng srng(177);
        std::vector<SparseMatrix> batch = {m, m};
        batch.push_back(genUniform(1024, 1024, 20000, srng));
        batch.push_back(genPowerLawRows(2048, 2048, 30000, 1.2, srng));
        batch.push_back(m);

        std::string journal_note =
            journal_path.empty() ? "" : ", journal " + journal_path;
        std::printf("\n--- serving %zu requests (deadline %.3g ms, "
                    "queue %u%s) ---\n",
                    batch.size(), deadline_ms, max_queue,
                    journal_note.c_str());
        auto serve_batch = [&](TunerService& server) {
            std::vector<TicketPtr> tickets;
            for (const auto& req : batch)
                tickets.push_back(server.submit(req));
            std::printf("  %-4s %-18s %-17s %-10s %s\n", "#", "status",
                        "rung", "ms", "expected ms");
            std::vector<double> latencies; // of answered (not shed) requests
            for (std::size_t i = 0; i < tickets.size(); ++i) {
                const TuneResponse& r = tickets[i]->wait();
                std::printf("  %-4zu %-18s %-17s %-10.3f %.3f\n", i,
                            serviceStatusName(r.status), rungName(r.rung),
                            r.latencySeconds * 1e3,
                            r.expectedSeconds * 1e3);
                if (r.status != ServiceStatus::Shed)
                    latencies.push_back(r.latencySeconds);
            }
            ServiceStats st = server.stats();
            auto ms = [&](double p) {
                return latencies.empty() ? 0.0
                                         : percentile(latencies, p) * 1e3;
            };
            std::printf("  p50 %.3f ms, p99 %.3f ms, %llu cache hit(s), "
                        "%llu shed\n",
                        ms(50.0), ms(99.0),
                        static_cast<unsigned long long>(st.cacheHits),
                        static_cast<unsigned long long>(st.shed));
        };
        u64 measured_before = tuner.backend().measurementCount();
        {
            TunerService server(tuner, scfg);
            serve_batch(server);
        }
        if (!journal_path.empty()) {
            // Cold restart on the same journal: the repeated request is
            // served from the recovered cache without re-measuring.
            std::printf("\n--- cold restart: recovering %s ---\n",
                        journal_path.c_str());
            TunerService server(tuner, scfg);
            std::printf("  recovered %llu cached result(s), dropped %llu "
                        "torn byte(s)\n",
                        static_cast<unsigned long long>(
                            server.cache().recoveredRecords()),
                        static_cast<unsigned long long>(
                            server.cache().droppedBytes()));
            u64 count_before = tuner.backend().measurementCount();
            const TuneResponse& r = server.submit(m)->wait();
            std::printf("  repeat request: %s via %s (%.3f ms, %llu new "
                        "measurements)\n",
                        serviceStatusName(r.status), rungName(r.rung),
                        r.latencySeconds * 1e3,
                        static_cast<unsigned long long>(
                            tuner.backend().measurementCount() -
                            count_before));
        }
        (void)measured_before;
        if (!metrics_path.empty()) {
            metrics::writeMetricsJson(metrics_path);
            std::printf("wrote metrics to %s\n", metrics_path.c_str());
        }
        if (!trace_path.empty()) {
            trace::writeChromeTrace(trace_path);
            std::printf("wrote Chrome trace to %s\n", trace_path.c_str());
        }
        return 0;
    }

    auto outcome = tuner.tune(m);
    auto shape = ProblemShape::forMatrix(alg, m.rows(), m.cols());
    auto fixed = tuner.oracle().measure(m, shape, defaultSchedule(shape));
    std::printf("\n--- chosen configuration ---\n%s",
                outcome.best.describe().c_str());
    std::printf("expected: %.3f ms vs CSR default %.3f ms (%.2fx)\n",
                outcome.bestMeasured.seconds * 1e3, fixed.seconds * 1e3,
                fixed.seconds / outcome.bestMeasured.seconds);
    std::printf("asym filter: %llu dominated candidate(s) dropped "
                "unmeasured, %llu kept\n",
                static_cast<unsigned long long>(outcome.asymRejected),
                static_cast<unsigned long long>(outcome.asymKept));
    if (faulty) {
        const auto& st = outcome.remeasureStats;
        std::printf("remeasure stats: %llu attempts, %llu retries, "
                    "%llu faults, %llu timeouts, %llu discarded%s\n",
                    static_cast<unsigned long long>(st.attempts),
                    static_cast<unsigned long long>(st.retries),
                    static_cast<unsigned long long>(st.faults),
                    static_cast<unsigned long long>(st.timeouts),
                    static_cast<unsigned long long>(st.discarded),
                    outcome.fellBack ? " (fell back to CSR default)" : "");
    }
    if (backend_set && backend_kind == KernelBackendKind::Compiled) {
        CompiledBackendStats st = compiledBackend().stats();
        std::printf("compiled backend: %llu compile(s), %llu cache hit(s), "
                    "%llu fallback(s)\n",
                    static_cast<unsigned long long>(st.compiles),
                    static_cast<unsigned long long>(st.cacheHits),
                    static_cast<unsigned long long>(st.fallbacks));
    }
    if (!emit_dir.empty())
        emitSourcesTo(emit_dir, outcome.best, shape);
    std::printf("\n--- generated C (the compiled kernel) ---\n%s",
                kernelSourceFor(outcome.best, shape).c_str());
    if (!trace_path.empty()) {
        trace::writeChromeTrace(trace_path);
        std::printf("\nwrote Chrome trace to %s (chrome://tracing)\n",
                    trace_path.c_str());
    }
    if (!metrics_path.empty()) {
        metrics::writeMetricsJson(metrics_path);
        std::printf("wrote metrics to %s\n", metrics_path.c_str());
    }
    return 0;
}

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
