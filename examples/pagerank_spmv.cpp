/**
 * @file
 * PageRank on a synthetic web-graph-like (Kronecker) matrix — the paper's
 * Table 8 SpMV scenario with N_runs = 50 iterations.
 *
 * Demonstrates the end-to-end accounting a real application faces: the
 * tuned kernel is only worth its tuning cost if the kernel is invoked
 * enough times. PageRank's ~50 SpMVs are NOT enough to amortize WACO
 * (matching the paper's conclusion), and the example shows the numbers.
 * The power iteration itself runs for real, as a CSR-format SpMV nest, and
 * is checked against the COO reference.
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

namespace {

/** Column-normalize by out-degree and transpose once: PR works on A^T. */
SparseMatrix
transition(const SparseMatrix& graph)
{
    auto out_deg = graph.rowNnz();
    std::vector<Triplet> t;
    for (u64 n = 0; n < graph.nnz(); ++n) {
        u32 src = graph.rowIndices()[n];
        t.push_back({graph.colIndices()[n], src,
                     1.0f / static_cast<float>(std::max<u32>(1, out_deg[src]))});
    }
    return SparseMatrix(graph.cols(), graph.rows(), std::move(t));
}

/** PageRank power iterations r' = d * spmv(r) + (1-d)/n, where spmv
 *  multiplies by the transition matrix. */
template <typename SpMV>
DenseVector
pagerank(u32 n, u32 iters, SpMV&& spmv, double damping = 0.85)
{
    DenseVector r(n, 1.0f / static_cast<float>(n));
    for (u32 it = 0; it < iters; ++it) {
        auto next = spmv(r);
        for (u64 i = 0; i < n; ++i) {
            r[i] = static_cast<float>(damping * next[i] +
                                      (1.0 - damping) / n);
        }
    }
    return r;
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Warn);
    Rng rng(31);
    auto graph = genKronecker(13, rng); // 8192-node scale-free-ish graph
    std::printf("web graph: %u nodes, %llu edges\n", graph.rows(),
                static_cast<unsigned long long>(graph.nnz()));

    // Run the real PageRank to have an actual application result: the
    // transition matrix stored as CSR, each SpMV its storage-order nest.
    SparseMatrix pt = transition(graph);
    auto csr = HierSparseTensor::build(
        FormatDescriptor::csr(pt.rows(), pt.cols()), pt);
    LoopNest nest = lowerStorageOrder(Algorithm::SpMV, csr.descriptor());
    Timer timer;
    auto ranks = pagerank(graph.rows(), 50, [&](const DenseVector& r) {
        LoopNestArgs args{.a = &csr, .vecB = &r};
        return interpreterBackend().execute(nest, args).vec;
    });
    double pr_seconds = timer.seconds();
    auto want = pagerank(graph.rows(), 50, [&](const DenseVector& r) {
        return spmvReference(pt, r);
    });
    u32 top = 0;
    for (u32 i = 1; i < graph.rows(); ++i) {
        if (ranks[i] > ranks[top])
            top = i;
    }
    std::printf("50 power iterations in %.1f ms (real execution); "
                "top node %u with rank %.5f\n",
                pr_seconds * 1e3, top, ranks[top]);
    std::printf("validated against reference: max|err| = %.2e\n",
                maxAbsDiff(want, ranks));

    // Now the auto-tuning economics on the simulated 24-core machine.
    std::printf("\ntraining a small SpMV co-optimizer...\n");
    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 6;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = 15;
    opt.train.epochs = 5;
    WacoTuner tuner(Algorithm::SpMV, MachineConfig::intel24(), opt);
    CorpusOptions copt;
    copt.count = 10;
    copt.minDim = 1024;
    copt.maxDim = 8192;
    copt.minNnz = 4000;
    copt.maxNnz = 40000;
    tuner.train(makeCorpus(copt, 32));

    auto outcome = tuner.tune(graph);
    auto shape =
        ProblemShape::forMatrix(Algorithm::SpMV, graph.rows(), graph.cols());
    auto fixed = tuner.oracle().measure(graph, shape, defaultSchedule(shape));
    double speedup = fixed.seconds / outcome.bestMeasured.seconds;
    double tuning = outcome.tuningSeconds() + outcome.convertSeconds;
    std::printf("WACO: %.3f ms/SpMV vs CSR default %.3f ms (%.2fx), "
                "tuning cost %.2f s\n",
                outcome.bestMeasured.seconds * 1e3, fixed.seconds * 1e3,
                speedup, tuning);

    double per_run_gain = fixed.seconds - outcome.bestMeasured.seconds;
    if (per_run_gain > 0) {
        double breakeven = tuning / per_run_gain;
        std::printf("break-even after %.0f SpMV invocations; PageRank runs "
                    "50 -> %s\n",
                    breakeven,
                    breakeven > 50
                        ? "NOT worth tuning (use BestFormat or MKL instead, "
                          "as Table 8 concludes)"
                        : "worth tuning");
    } else {
        std::printf("no speedup found for this graph; the default was "
                    "already optimal.\n");
    }
    return 0;
}
