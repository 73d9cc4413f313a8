/**
 * @file
 * CP decomposition by alternating least squares on a sparse 3-tensor: the
 * MTTKRP kernel dominates ALS, so tuning the tensor's format pays across
 * the many iterations. Runs real MTTKRP + a simplified ALS factor update
 * (gradient step instead of the full normal-equations solve, to keep the
 * example dependency-free), then tunes the tensor with WACO.
 */
#include <cmath>
#include <cstdio>

#include "codegen/kernel_backend.hpp"
#include "core/waco_tuner.hpp"
#include "data/generators.hpp"
#include "exec/reference.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

using namespace waco;

int
main()
{
    setLogLevel(LogLevel::Warn);
    Rng rng(61);
    const u32 di = 1024, dk = 768, dl = 512, rank = 16;
    auto tensor = genTensor3(di, dk, dl, 60000, rng);
    std::printf("tensor: %u x %u x %u, %llu nonzeros\n", di, dk, dl,
                static_cast<unsigned long long>(tensor.nnz()));

    DenseMatrix a(di, rank), b(dk, rank), c(dl, rank);
    a.randomize(rng);
    b.randomize(rng);
    c.randomize(rng);

    // MTTKRP over the CSF-stored tensor: D[i,j] = A[i,k,l] B[k,j] C[l,j].
    auto csf = HierSparseTensor::build(FormatDescriptor::csf3d(di, dk, dl),
                                       tensor);
    LoopNest nest =
        lowerStorageOrder(Algorithm::MTTKRP, csf.descriptor(), rank);
    LoopNestArgs args{.a = &csf, .matB = &b, .matC = &c};

    // A few ALS-flavored sweeps: factor A absorbs the MTTKRP of the other
    // two factors (simplified: plain replacement + normalization).
    Timer timer;
    for (int sweep = 0; sweep < 3; ++sweep) {
        auto m = interpreterBackend().execute(nest, args).mat;
        for (u64 i = 0; i < a.rows(); ++i) {
            float norm = 0.0f;
            for (u32 j = 0; j < rank; ++j)
                norm += m.at(i, j) * m.at(i, j);
            norm = std::sqrt(norm) + 1e-6f;
            for (u32 j = 0; j < rank; ++j)
                a.at(i, j) = m.at(i, j) / norm;
        }
    }
    std::printf("3 ALS sweeps (real MTTKRP, |j|=%u): %.1f ms\n", rank,
                timer.millis());
    // Sanity: the CSF nest agrees with the reference.
    auto want = mttkrpReference(tensor, b, c);
    auto got = interpreterBackend().execute(nest, args).mat;
    std::printf("kernel check: max|err| = %.2e\n", maxAbsDiff(want, got));

    std::printf("\ntraining a small MTTKRP co-optimizer...\n");
    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 5;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = 12;
    opt.train.epochs = 5;
    WacoTuner tuner(Algorithm::MTTKRP, MachineConfig::intel24(), opt);
    CorpusOptions copt;
    copt.count = 8;
    copt.minDim = 256;
    copt.maxDim = 1024;
    copt.minNnz = 4000;
    copt.maxNnz = 30000;
    tuner.train(makeCorpus3d(copt, 62));

    auto outcome = tuner.tune(tensor);
    auto shape = ProblemShape::forTensor3(Algorithm::MTTKRP, di, dk, dl);
    auto fixed = tuner.oracle().measure(tensor, shape,
                                        defaultSchedule(shape));
    std::printf("WACO chose:\n%s", outcome.best.describe().c_str());
    std::printf("machine-model time %.3f ms vs CSF default %.3f ms "
                "(%.2fx)\n",
                outcome.bestMeasured.seconds * 1e3, fixed.seconds * 1e3,
                fixed.seconds / outcome.bestMeasured.seconds);
    std::printf("(an ALS solver runs MTTKRP thousands of times, so even "
                "modest per-call wins amortize the tuning cost)\n");
    return 0;
}
