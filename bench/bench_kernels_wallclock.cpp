/**
 * @file
 * Google-benchmark microbenchmarks of the *real* execution engine (not the
 * machine model): wall-clock throughput of lowered loop nests run through
 * KernelBackend::execute across formats, the fused SDDMM→SpMM workspace
 * nest against the unfused two-kernel pipeline, and format construction.
 * These numbers are host-machine-dependent; they validate that the
 * executor is a real, runnable substrate rather than a paper construct.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "codegen/kernel_backend.hpp"
#include "common.hpp"
#include "data/generators.hpp"
#include "perfmodel/wallclock_backend.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

using namespace waco;

namespace {

SparseMatrix
benchMatrix()
{
    Rng rng(42);
    return genBanded(4096, 4096, 16, 0.5, rng);
}

/** Serial SpMV over one format, run in the tensor's own storage order. */
void
BM_SpmvHierFormat(benchmark::State& state)
{
    auto m = benchMatrix();
    FormatDescriptor desc = [&] {
        switch (state.range(0)) {
          case 0: return FormatDescriptor::csr(m.rows(), m.cols());
          case 1: return FormatDescriptor::csc(m.rows(), m.cols());
          case 2: return FormatDescriptor::bcsr(m.rows(), m.cols(), 4, 4);
          default: return FormatDescriptor::ucu(m.rows(), m.cols(), 16);
        }
    }();
    auto t = HierSparseTensor::build(desc, m);
    DenseVector b(m.cols());
    Rng rng(3);
    b.randomize(rng);
    LoopNest nest = lowerStorageOrder(Algorithm::SpMV, desc);
    LoopNestArgs args{.a = &t, .vecB = &b};
    for (auto _ : state) {
        auto r = interpreterBackend().execute(nest, args);
        benchmark::DoNotOptimize(r.vec.data().data());
    }
    state.SetLabel(desc.name());
    state.SetItemsProcessed(state.iterations() * t.storedValues());
}

/** Dense operands of the fused-vs-unfused pair (K = M = 16). */
struct FusedOperands
{
    SparseMatrix m = benchMatrix();
    HierSparseTensor t = HierSparseTensor::build(
        FormatDescriptor::csr(m.rows(), m.cols()), m);
    DenseMatrix b{m.rows(), 16};
    DenseMatrix c{16, m.cols(), Layout::ColMajor};
    DenseMatrix f{m.cols(), 16};

    FusedOperands()
    {
        Rng rng(13);
        b.randomize(rng);
        c.randomize(rng);
        f.randomize(rng);
    }
};

/**
 * Unfused SDDMM→SpMM: run SDDMM, materialize the intermediate sparse
 * product as a fresh CSR hierarchy, then run SpMM over it — the two-kernel
 * pipeline a user without the fused lowering would write.
 */
void
BM_FusedSddmmSpmm_Unfused(benchmark::State& state)
{
    FusedOperands op;
    const FormatDescriptor& desc = op.t.descriptor();
    LoopNest sddmm = lowerStorageOrder(Algorithm::SDDMM, desc, 16);
    LoopNest spmm = lowerStorageOrder(Algorithm::SpMM, desc, 16);
    LoopNestArgs sargs{.a = &op.t, .matB = &op.b, .matC = &op.c};
    for (auto _ : state) {
        SparseMatrix d = interpreterBackend().execute(sddmm, sargs).sparse;
        auto dt = HierSparseTensor::build(desc, d);
        LoopNestArgs margs{.a = &dt, .matB = &op.f};
        auto e = interpreterBackend().execute(spmm, margs).mat;
        benchmark::DoNotOptimize(e.data().data());
    }
    state.SetItemsProcessed(state.iterations() * op.t.storedValues() *
                            (16 + 16));
}

/** Fused workspace nest: same computation, one pass over A, no
 *  materialized intermediate. */
void
BM_FusedSddmmSpmm_Fused(benchmark::State& state)
{
    FusedOperands op;
    LoopNest fused =
        lowerStorageOrder(Algorithm::FusedSDDMMSpMM, op.t.descriptor(), 16);
    LoopNestArgs args{.a = &op.t, .matB = &op.b, .matC = &op.c, .matF = &op.f};
    for (auto _ : state) {
        auto e = interpreterBackend().execute(fused, args).mat;
        benchmark::DoNotOptimize(e.data().data());
    }
    state.SetItemsProcessed(state.iterations() * op.t.storedValues() *
                            (16 + 16));
}

void
BM_FormatBuild(benchmark::State& state)
{
    auto m = benchMatrix();
    for (auto _ : state) {
        auto t = HierSparseTensor::build(
            FormatDescriptor::bcsr(m.rows(), m.cols(), 8, 8), m);
        benchmark::DoNotOptimize(t.bytes());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}

// ---------------------------------------------------------------------------
// Compiled backend vs interpreter: the same lowered LoopNest executed by
// the generic interpreter and by the JIT'd C kernel, for all five
// algorithms, timed as an alternating A/B pair through timeRounds (the
// one timing loop, perfmodel/wallclock_backend.hpp). `--compare [--smoke]`
// runs it with hard bitwise-equality / zero-recompile / zero-fallback
// checks, plus the SpMM/fused speedup floor at full size only (the smoke
// sizes are too small to time).
// ---------------------------------------------------------------------------

/** Owns everything one lowered-nest execution needs (stable addresses:
 *  in.args points into the other members). */
struct NestHolder
{
    HierSparseTensor t;
    LoopNest nest;
    DenseInputs in;
    ParallelConfig par{1, 128};
};

/** Default (CSR/CSF concordant) schedule of @p alg on a banded input,
 *  lowered and packaged with randomized dense operands in the paper's
 *  fixed layouts. @p large picks the sizes the speedup contract is
 *  checked on; the small sizes keep the smoke run fast. */
std::shared_ptr<NestHolder>
makeNestHolder(Algorithm alg, bool large)
{
    Rng rng(21 + static_cast<u64>(alg));
    const AlgorithmInfo& info = algorithmInfo(alg);

    ProblemShape shape;
    SparseMatrix m;
    Sparse3Tensor t3;
    if (info.sparseOrder == 2) {
        u32 dim = large ? 8192 : 1024;
        m = genBanded(dim, dim, large ? 32 : 8, 0.5, rng);
        shape = ProblemShape::forMatrix(alg, m.rows(), m.cols());
        // GNN/attention-style fused shape: a small factor (contraction)
        // dimension against a wide output feature dimension. The k=32
        // dot product is a serial float chain neither engine may reorder
        // (bitwise contract), so a 256-wide contraction would just
        // measure FPU add latency for both.
        if (alg == Algorithm::FusedSDDMMSpMM)
            shape.indexExtent[2] = 32;
    } else {
        t3 = large ? genTensor3(2048, 1024, 512, 400000, rng)
                   : genTensor3(512, 256, 128, 20000, rng);
        shape = ProblemShape::forTensor3(alg, t3.dimI(), t3.dimK(),
                                         t3.dimL());
    }
    SuperSchedule s = defaultSchedule(shape);
    auto h = std::make_shared<NestHolder>(NestHolder{
        info.sparseOrder == 2
            ? HierSparseTensor::build(formatOf(s, shape), m)
            : HierSparseTensor::build(formatOf(s, shape), t3),
        lower(s, shape), DenseInputs{},
        ParallelConfig{std::min(std::max(1u, s.numThreads),
                                hardwareThreads()),
                       std::max(1u, s.ompChunk)}});
    h->in = makeDenseInputs(
        h->nest, inputRowMajorOf(s), h->t,
        [&](std::size_t, std::vector<float>& values) {
            for (auto& x : values)
                x = static_cast<float>(rng.uniformReal(-1.0, 1.0));
        });
    return h;
}

bool
bitwiseEqual(const LoopNestResult& a, const LoopNestResult& b)
{
    if (a.vec.size() != b.vec.size() ||
        a.mat.data().size() != b.mat.data().size() ||
        a.sparse.nnz() != b.sparse.nnz())
        return false;
    for (u64 i = 0; i < a.vec.size(); ++i)
        if (a.vec[i] != b.vec[i])
            return false;
    for (u64 i = 0; i < a.mat.data().size(); ++i)
        if (a.mat.data()[i] != b.mat.data()[i])
            return false;
    for (u64 n = 0; n < a.sparse.nnz(); ++n)
        if (a.sparse.values()[n] != b.sparse.values()[n])
            return false;
    return true;
}

/** Standalone compiled-vs-interpreter harness (hard exit-1 contracts). */
int
runCompare(bool smoke)
{
    using waco::bench::numCell;
    using waco::bench::printHeader;
    using waco::bench::printRow;
    using waco::bench::ratioIqrCell;
    using waco::bench::speedupCell;

    printHeader("kernels_compiled",
                "Compiled kernel backend vs LoopNest interpreter");
    if (!compiledBackend().compilerAvailable()) {
        std::printf("[  SKIPPED ] no working system C compiler; compiled "
                    "backend unavailable\n");
        return 0;
    }
    metrics::setEnabled(true);

    const u32 rounds = smoke ? 3 : 5;
    struct Row
    {
        std::string name;
        u64 nnz = 0;
        double interp_ms = 0, compiled_ms = 0;
        std::string iqr; ///< Of the per-round interp/compiled ratios.
        bool equal = false;
    };
    std::vector<Row> rows;
    std::vector<std::shared_ptr<NestHolder>> holders;
    u64 fallbacks_before = compiledBackend().stats().fallbacks;

    for (Algorithm alg : allAlgorithms()) {
        auto h = makeNestHolder(alg, !smoke);
        holders.push_back(h);
        // Interpreter against compiled, alternating which runs first; the
        // warm-up pays the JIT, and the last outputs are compared.
        LoopNestResult ri, rc;
        auto secs = timeRounds(
            rounds,
            {[&] { ri = interpreterBackend().execute(h->nest, h->in.args,
                                                     h->par); },
             [&] { rc = compiledBackend().execute(h->nest, h->in.args,
                                                  h->par); }});
        Row row;
        row.name = algorithmName(alg);
        row.nnz = h->t.storedValues();
        row.interp_ms = median(secs[0]) * 1e3;
        row.compiled_ms = median(secs[1]) * 1e3;
        row.iqr = ratioIqrCell(secs[0], secs[1]);
        row.equal = bitwiseEqual(ri, rc);
        rows.push_back(row);
    }

    // Re-running every nest must be pure cache hits: zero new compiles.
    u64 compiles_before_repeat = compiledBackend().stats().compiles;
    for (const auto& h : holders)
        compiledBackend().execute(h->nest, h->in.args, h->par);
    u64 recompiles = compiledBackend().stats().compiles -
                     compiles_before_repeat;
    u64 fallbacks = compiledBackend().stats().fallbacks - fallbacks_before;
    u64 metric_compiles = static_cast<u64>(
        metrics::MetricsRegistry::instance().counter("codegen.compiles")
            .total());

    const std::vector<int> widths = {16, 10, 12, 12, 10, 14, 8};
    printRow({"kernel", "nnz", "interp ms", "compiled ms", "speedup",
              "speedup IQR", "bitwise"},
             widths);
    for (const Row& r : rows)
        printRow({r.name, std::to_string(r.nnz), numCell(r.interp_ms, 3),
                  numCell(r.compiled_ms, 3),
                  speedupCell(r.interp_ms / r.compiled_ms), r.iqr,
                  r.equal ? "ok" : "DIFF"},
                 widths);
    std::printf("compiles %llu (codegen.compiles %llu), repeat recompiles "
                "%llu, fallbacks %llu\n",
                static_cast<unsigned long long>(compiles_before_repeat),
                static_cast<unsigned long long>(metric_compiles),
                static_cast<unsigned long long>(recompiles),
                static_cast<unsigned long long>(fallbacks));

    // Hard contracts: identical bits, no interpreter fallbacks, pure
    // cache hits on repeats, and (full size only) the headline speedups on
    // SpMM/fused.
    int rc_code = 0;
    for (const Row& r : rows) {
        if (!r.equal) {
            std::fprintf(stderr, "FAIL: %s compiled != interpreted\n",
                         r.name.c_str());
            rc_code = 1;
        }
    }
    if (recompiles != 0 || fallbacks != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu recompile(s) on repeat, %llu fallback(s)\n",
                     static_cast<unsigned long long>(recompiles),
                     static_cast<unsigned long long>(fallbacks));
        rc_code = 1;
    }
    for (const Row& r : rows) {
        if (smoke || (r.name != "SpMM" && r.name != "FusedSDDMMSpMM"))
            continue;
        if (r.interp_ms < 2.0 * r.compiled_ms) {
            std::fprintf(stderr,
                         "FAIL: %s compiled only %.2fx over interpreter "
                         "(need >= 2x)\n",
                         r.name.c_str(), r.interp_ms / r.compiled_ms);
            rc_code = 1;
        }
    }
    return rc_code;
}

BENCHMARK(BM_SpmvHierFormat)->DenseRange(0, 3);
BENCHMARK(BM_FusedSddmmSpmm_Unfused);
BENCHMARK(BM_FusedSddmmSpmm_Fused);
BENCHMARK(BM_FormatBuild);

} // namespace

int
main(int argc, char** argv)
{
    bool compare = false, smoke = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--compare"))
            compare = true;
        else if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
        else
            argv[out++] = argv[i];
    }
    argc = out;
    if (compare || smoke)
        return runCompare(smoke);
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}
