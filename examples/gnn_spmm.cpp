/**
 * @file
 * Graph-neural-network inference — the paper's Table 8 SpMM scenario
 * (N_runs = 10,000 message-passing SpMMs over a fixed adjacency).
 *
 * A two-layer GCN-style forward pass runs on the real executor
 * (normalized adjacency x features as a CSR-format SpMM nest, ReLU between
 * layers; the first layer is checked against the reference); the tuned
 * format's end-to-end benefit over the whole inference workload is then
 * computed on the machine model, showing WACO winning at GNN scale.
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
    Rng rng(41);
    // Scale-free citation-graph stand-in with self-loops.
    auto base = genKronecker(12, rng);
    std::vector<Triplet> t;
    for (u64 n = 0; n < base.nnz(); ++n)
        t.push_back({base.rowIndices()[n], base.colIndices()[n], 1.0f});
    for (u32 i = 0; i < base.rows(); ++i)
        t.push_back({i, i, 1.0f});
    SparseMatrix adj(base.rows(), base.cols(), std::move(t), "citations");
    std::printf("graph: %u nodes, %llu edges (with self-loops)\n",
                adj.rows(), static_cast<unsigned long long>(adj.nnz()));

    // Symmetric-normalize: D^-1/2 (A+I) D^-1/2.
    auto deg = adj.rowNnz();
    std::vector<float>& vals = adj.values();
    for (u64 n = 0; n < adj.nnz(); ++n) {
        u32 i = adj.rowIndices()[n], j = adj.colIndices()[n];
        vals[n] = 1.0f / std::sqrt(static_cast<float>(deg[i]) *
                                   static_cast<float>(deg[j]));
    }

    // Real 2-layer GCN forward pass with 32-wide features.
    const u32 feat = 32;
    DenseMatrix h(adj.cols(), feat);
    h.randomize(rng);
    auto csr = HierSparseTensor::build(
        FormatDescriptor::csr(adj.rows(), adj.cols()), adj);
    LoopNest nest =
        lowerStorageOrder(Algorithm::SpMM, csr.descriptor(), feat);
    auto aggregate = [&](const DenseMatrix& x) {
        LoopNestArgs args{.a = &csr, .matB = &x};
        return interpreterBackend().execute(nest, args).mat;
    };
    Timer timer;
    auto h1 = aggregate(h);
    double layer1_err = maxAbsDiff(spmmReference(adj, h), h1);
    for (auto& x : h1.data())
        x = std::max(0.0f, x); // ReLU
    auto h2 = aggregate(h1);
    std::printf("2-layer GCN forward (real execution): %.1f ms, output "
                "%llux%llu\n",
                timer.millis(), static_cast<unsigned long long>(h2.rows()),
                static_cast<unsigned long long>(h2.cols()));
    std::printf("layer 1 validated against reference: max|err| = %.2e\n",
                layer1_err);

    // The adjacency is reused for every layer, batch and epoch: tune it.
    std::printf("\ntraining a small SpMM co-optimizer...\n");
    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 6;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = 15;
    opt.train.epochs = 5;
    WacoTuner tuner(Algorithm::SpMM, MachineConfig::intel24(), opt);
    CorpusOptions copt;
    copt.count = 10;
    copt.minDim = 1024;
    copt.maxDim = 8192;
    copt.minNnz = 4000;
    copt.maxNnz = 40000;
    tuner.train(makeCorpus(copt, 42));

    auto outcome = tuner.tune(adj);
    auto shape =
        ProblemShape::forMatrix(Algorithm::SpMM, adj.rows(), adj.cols());
    auto fixed = tuner.oracle().measure(adj, shape, defaultSchedule(shape));
    std::printf("WACO chose format %s: %.3f ms/SpMM vs CSR %.3f ms "
                "(%.2fx)\n",
                formatOf(outcome.best, shape).name().c_str(),
                outcome.bestMeasured.seconds * 1e3, fixed.seconds * 1e3,
                fixed.seconds / outcome.bestMeasured.seconds);

    const double kRuns = 10000; // Table 8's GNN scenario
    double tuning = outcome.tuningSeconds() + outcome.convertSeconds;
    double e2e_waco = tuning + kRuns * outcome.bestMeasured.seconds;
    double e2e_fixed = kRuns * fixed.seconds;
    std::printf("end-to-end over %.0f SpMMs: WACO %.2fs (incl. %.2fs "
                "tuning) vs untuned %.2fs -> %s\n",
                kRuns, e2e_waco, tuning, e2e_fixed,
                e2e_waco < e2e_fixed ? "WACO wins" : "untuned wins");
    return 0;
}
