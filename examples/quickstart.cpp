/**
 * @file
 * Quickstart: the 60-second tour of the WACO library.
 *
 *  1. Make (or load) a sparse matrix.
 *  2. Express formats with the TACO-style format abstraction and run the
 *     real execution engine on them.
 *  3. Train a small workload-aware co-optimizer and let it pick the format
 *     and schedule for a new matrix.
 *
 * Usage: example_quickstart [matrix.mtx]
 * (With no argument a synthetic matrix is used, so the example always runs.)
 */
#include <cstdio>

#include "codegen/emit.hpp"
#include "codegen/kernel_backend.hpp"
#include "core/waco_tuner.hpp"
#include "data/generators.hpp"
#include "exec/reference.hpp"
#include "tensor/mmio.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

using namespace waco;

int
main(int argc, char** argv)
{
    setLogLevel(LogLevel::Warn);

    // ---- 1. A sparse matrix --------------------------------------------
    Rng rng(7);
    SparseMatrix m = argc > 1 ? readMatrixMarketFile(argv[1])
                              : genDenseBlocks(2048, 2048, 8, 400, 0.9, rng);
    std::printf("matrix '%s': %u x %u, %llu nonzeros (density %.4f%%)\n",
                m.name().c_str(), m.rows(), m.cols(),
                static_cast<unsigned long long>(m.nnz()),
                m.density() * 100.0);

    // ---- 2. Formats + the real executor --------------------------------
    DenseVector x(m.cols());
    x.randomize(rng);
    auto reference = spmvReference(m, x);
    std::printf("\nSpMV wall-clock across formats (real execution):\n");
    for (const auto& desc :
         {FormatDescriptor::csr(m.rows(), m.cols()),
          FormatDescriptor::csc(m.rows(), m.cols()),
          FormatDescriptor::bcsr(m.rows(), m.cols(), 8, 8),
          FormatDescriptor::ucu(m.rows(), m.cols(), 16)}) {
        // Every format runs as a loop nest lowered from its storage order.
        auto t = HierSparseTensor::build(desc, m);
        LoopNest nest = lowerStorageOrder(Algorithm::SpMV, desc);
        LoopNestArgs args{.a = &t, .vecB = &x};
        Timer timer;
        auto y = interpreterBackend().execute(nest, args).vec;
        double ms = timer.millis();
        std::printf("  %-22s %8.2f ms   stored %8llu vals (%.2fx padding)"
                    "   max|err| %.2e\n",
                    desc.name().c_str(), ms,
                    static_cast<unsigned long long>(t.storedValues()),
                    static_cast<double>(t.storedValues()) / m.nnz(),
                    maxAbsDiff(reference, y));
    }

    // ---- 3. Workload-aware co-optimization ------------------------------
    std::printf("\ntraining a small co-optimizer (SpMV)...\n");
    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 6;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = 15;
    opt.train.epochs = 5;
    WacoTuner tuner(Algorithm::SpMV, MachineConfig::intel24(), opt);

    CorpusOptions copt;
    copt.count = 10;
    copt.minDim = 512;
    copt.maxDim = 2048;
    copt.minNnz = 2000;
    copt.maxNnz = 10000;
    tuner.train(makeCorpus(copt, 99));

    auto outcome = tuner.tune(m);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, m.rows(), m.cols());
    auto fixed = tuner.oracle().measure(m, shape, defaultSchedule(shape));
    std::printf("\nWACO chose:\n%s", outcome.best.describe().c_str());
    std::printf("format: %s\n", formatOf(outcome.best, shape).name().c_str());
    std::printf("predicted machine time: %s vs CSR default %s (%.2fx)\n",
                outcome.bestMeasured.seconds < 1
                    ? std::to_string(outcome.bestMeasured.seconds * 1e3)
                          .substr(0, 5)
                          .append("ms")
                          .c_str()
                    : "??",
                std::to_string(fixed.seconds * 1e3).substr(0, 5)
                    .append("ms")
                    .c_str(),
                fixed.seconds / outcome.bestMeasured.seconds);
    std::printf("tuning overhead: %.2fs (feature %.2fs, search %.2fs, "
                "re-measure %.2fs)\n",
                outcome.tuningSeconds(), outcome.featureSeconds,
                outcome.searchSeconds, outcome.remeasureSeconds);

    // Execute the chosen format and schedule for real and validate.
    auto chosen = HierSparseTensor::build(formatOf(outcome.best, shape), m);
    LoopNestArgs args{.a = &chosen, .vecB = &x};
    auto y = interpreterBackend().execute(lower(outcome.best, shape), args).vec;
    std::printf("result check vs reference: max|err| = %.2e\n",
                maxAbsDiff(reference, y));

    // Show the C kernel the compiled backend builds for this schedule.
    KernelEmitOptions eo;
    eo.inputRowMajor = inputRowMajorOf(outcome.best);
    std::printf("\ngenerated C for the chosen schedule:\n%s",
                emitKernelC(lower(outcome.best, shape), eo).c_str());
    return 0;
}
