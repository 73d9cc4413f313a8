/**
 * @file
 * Sparse attention scores via SDDMM: D[i,j] = M[i,j] * (Q K^T)[i,j], where
 * M is a banded+random attention mask — the pattern used by sparse
 * transformers. Demonstrates the SDDMM-specific freedom the paper
 * highlights (Section 5.2.1): with no reduction over either sparse index,
 * WACO may parallelize rows OR columns and pick row-/column-major formats
 * freely.
 */
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
    Rng rng(51);

    // Attention mask: local window + random global tokens.
    const u32 seq = 4096, head = 64;
    auto local = genBanded(seq, seq, 32, 0.9, rng);
    auto global = genHotColumns(seq, seq, 40000, 16, rng);
    std::vector<Triplet> t;
    for (u64 n = 0; n < local.nnz(); ++n)
        t.push_back({local.rowIndices()[n], local.colIndices()[n], 1.0f});
    for (u64 n = 0; n < global.nnz(); ++n)
        t.push_back({global.rowIndices()[n], global.colIndices()[n], 1.0f});
    SparseMatrix mask(seq, seq, std::move(t), "attention-mask");
    std::printf("attention mask: %u x %u, %llu allowed pairs (%.3f%%)\n",
                seq, seq, static_cast<unsigned long long>(mask.nnz()),
                mask.density() * 100);

    // Real SDDMM: scores = mask .* (Q K^T). B row-major, C column-major,
    // exactly the layouts the paper fixes for SDDMM.
    DenseMatrix q(seq, head, Layout::RowMajor);
    DenseMatrix kT(head, seq, Layout::ColMajor);
    q.randomize(rng);
    kT.randomize(rng);
    auto csr = HierSparseTensor::build(FormatDescriptor::csr(seq, seq), mask);
    LoopNestArgs args{.a = &csr, .matB = &q, .matC = &kT};
    LoopNest nest =
        lowerStorageOrder(Algorithm::SDDMM, csr.descriptor(), head);
    Timer timer;
    auto scores = interpreterBackend().execute(nest, args).sparse;
    std::printf("real SDDMM: %.1f ms for %llu scores\n", timer.millis(),
                static_cast<unsigned long long>(scores.nnz()));
    auto ref = sddmmReference(mask, q, kT);
    double err = 0;
    for (u64 n = 0; n < ref.nnz(); ++n)
        err = std::max(err, std::abs(static_cast<double>(ref.values()[n]) -
                                     scores.values()[n]));
    std::printf("validated against reference: max|err| = %.2e\n", err);

    // Tune the mask's format+schedule for repeated attention computation.
    std::printf("\ntraining a small SDDMM co-optimizer...\n");
    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 6;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = 15;
    opt.train.epochs = 5;
    WacoTuner tuner(Algorithm::SDDMM, MachineConfig::intel24(), opt);
    CorpusOptions copt;
    copt.count = 10;
    copt.minDim = 1024;
    copt.maxDim = 8192;
    copt.minNnz = 4000;
    copt.maxNnz = 40000;
    tuner.train(makeCorpus(copt, 52));

    auto outcome = tuner.tune(mask);
    auto shape = ProblemShape::forMatrix(Algorithm::SDDMM, seq, seq);
    auto fixed = tuner.oracle().measure(mask, shape, defaultSchedule(shape));
    const auto& info = algorithmInfo(Algorithm::SDDMM);
    std::printf("WACO chose:\n%s", outcome.best.describe().c_str());
    std::printf("parallelized over the '%s' index (SDDMM may parallelize "
                "rows or columns)\n",
                info.indexNames[slotIndex(outcome.best.parallelSlot)].c_str());
    std::printf("machine-model time %.3f ms vs CSR default %.3f ms "
                "(%.2fx)\n",
                outcome.bestMeasured.seconds * 1e3, fixed.seconds * 1e3,
                fixed.seconds / outcome.bestMeasured.seconds);
    return 0;
}
