/**
 * @file
 * Tests for the compiled-kernel backend (codegen/kernel_backend.hpp):
 * LRU cache semantics, the compiler-discovery/compile-failure fallback
 * ladder, memoization (zero recompiles on repeat keys), bitwise
 * equivalence of JIT'd kernels with the interpreter, and concurrent
 * cache access (the CompiledKernelTsan suite re-runs under tsan).
 *
 * Every test that needs a real compiler GTEST_SKIPs when the host has
 * none — the `codegen` ctest label must degrade gracefully, never fail,
 * on compiler-less machines.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

#include "codegen/emit.hpp"
#include "codegen/kernel_backend.hpp"
#include "exec/reference.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace waco {
namespace {

SparseMatrix
intMatrix(u32 rows, u32 cols, u32 nnz, Rng& rng)
{
    std::vector<Triplet> t;
    for (u32 n = 0; n < nnz; ++n) {
        t.push_back({static_cast<u32>(rng.index(rows)),
                     static_cast<u32>(rng.index(cols)),
                     static_cast<float>(rng.uniformInt(1, 4))});
    }
    return SparseMatrix(rows, cols, t);
}

void
fillInt(DenseMatrix& m, Rng& rng)
{
    for (auto& x : m.data())
        x = static_cast<float>(rng.uniformInt(1, 3));
}

/** A fresh backend with an isolated temp dir is not needed — the default
 *  per-process dir is shared safely (LiveInstancesNeverShareAKernel pins
 *  that) — but tests that tweak options build their own instance so they
 *  never pollute the global backend's stats. */
CompiledBackendOptions
defaultOpts()
{
    return {};
}

// ---------------------------------------------------------------------------
// KernelCache unit tests (no compiler involved; entries via forTesting).
// ---------------------------------------------------------------------------

void
dummyKernel(const WacoKernelArgs*, std::int64_t, std::int64_t, float*)
{
}

TEST(KernelCache, LruEvictionOrder)
{
    KernelCache cache(2);
    cache.put("a", CompiledKernel::forTesting(&dummyKernel));
    cache.put("b", CompiledKernel::forTesting(&dummyKernel));
    EXPECT_EQ(cache.size(), 2u);

    // Touch "a" so "b" becomes LRU; inserting "c" must evict "b".
    EXPECT_NE(cache.get("a"), nullptr);
    cache.put("c", CompiledKernel::forTesting(&dummyKernel));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(cache.get("a"), nullptr);
    EXPECT_NE(cache.get("c"), nullptr);
    EXPECT_EQ(cache.get("b"), nullptr);

    auto st = cache.stats();
    EXPECT_EQ(st.insertions, 3u);
    EXPECT_EQ(st.evictions, 1u);
}

TEST(KernelCache, CapacityZeroNeverRetains)
{
    KernelCache cache(0);
    cache.put("a", CompiledKernel::forTesting(&dummyKernel));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.get("a"), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(KernelCache, ShrinkingCapacityEvicts)
{
    KernelCache cache(4);
    for (const char* k : {"a", "b", "c", "d"})
        cache.put(k, CompiledKernel::forTesting(&dummyKernel));
    cache.setCapacity(1);
    EXPECT_EQ(cache.size(), 1u);
    // The survivor is the most recently used entry.
    EXPECT_NE(cache.get("d"), nullptr);
    EXPECT_EQ(cache.capacity(), 1u);
}

TEST(KernelCache, ReplacingKeyKeepsSize)
{
    KernelCache cache(2);
    cache.put("a", CompiledKernel::forTesting(&dummyKernel));
    cache.put("a", CompiledKernel::forTesting(&dummyKernel));
    EXPECT_EQ(cache.size(), 1u);
    // An evicted handle must stay alive while someone holds the pointer.
    auto held = cache.get("a");
    cache.setCapacity(0);
    EXPECT_EQ(cache.size(), 0u);
    ASSERT_NE(held, nullptr);
    EXPECT_NE(held->fn(), nullptr);
}

// ---------------------------------------------------------------------------
// Cache-key structure: what must and must not affect compiled identity.
// ---------------------------------------------------------------------------

TEST(KernelCacheKey, ParallelAnnotationDoesNotChangeKey)
{
    // Parallelism is host-driven, so two schedules differing only in the
    // parallel/chunk annotation share one compiled kernel.
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 64, 48, 8);
    SuperScheduleSpace space(Algorithm::SpMM, shape);
    Rng rng(42);
    SuperSchedule s = space.sample(rng);
    SuperSchedule t = s;
    t.ompChunk = s.ompChunk == 32 ? 64 : 32;
    t.numThreads = s.numThreads == 48 ? 24 : 48;
    EXPECT_EQ(kernelCacheKey(lower(s, shape), {true}),
              kernelCacheKey(lower(t, shape), {true}));
}

TEST(KernelCacheKey, StructuralChangesChangeKey)
{
    auto nest = lowerStorageOrder(Algorithm::SpMV,
                                  FormatDescriptor::csr(64, 48));
    auto key = kernelCacheKey(nest, {});
    // Different format half.
    auto csc = lowerStorageOrder(Algorithm::SpMV,
                                 FormatDescriptor::csc(64, 48));
    EXPECT_NE(key, kernelCacheKey(csc, {}));
    // Different shape class.
    auto small = lowerStorageOrder(Algorithm::SpMV,
                                   FormatDescriptor::csr(32, 48));
    EXPECT_NE(key, kernelCacheKey(small, {}));
}

TEST(KernelCacheKey, DenseLayoutChangesKey)
{
    auto nest = lowerStorageOrder(Algorithm::SpMM,
                                  FormatDescriptor::csr(64, 48), 8);
    EXPECT_NE(kernelCacheKey(nest, {true}),
              kernelCacheKey(nest, {false}));
}

// ---------------------------------------------------------------------------
// Fallback ladder.
// ---------------------------------------------------------------------------

TEST(CompiledBackendFallback, MissingCompilerFallsBackToInterpreter)
{
    auto opt = defaultOpts();
    opt.compiler = "/nonexistent/waco-cc-that-is-not-here";
    CompiledBackend backend(opt);
    EXPECT_FALSE(backend.compilerAvailable());
    EXPECT_EQ(backend.compilerPath(), "");

    Rng rng(7);
    auto m = intMatrix(32, 24, 120, rng);
    auto t = HierSparseTensor::build(FormatDescriptor::csr(32, 24), m);
    DenseVector b(24);
    for (u64 i = 0; i < b.size(); ++i)
        b[i] = static_cast<float>(rng.uniformInt(1, 3));
    auto nest = lowerStorageOrder(Algorithm::SpMV,
                                  FormatDescriptor::csr(32, 24));

    LoopNestArgs args;
    args.a = &t;
    args.vecB = &b;
    auto got = backend.execute(nest, args);
    EXPECT_EQ(0.0, maxAbsDiff(spmvReference(m, b), got.vec));

    auto st = backend.stats();
    EXPECT_EQ(st.compiles, 0u);
    EXPECT_GE(st.fallbacks, 1u);
    EXPECT_EQ(st.launches, 0u);
}

TEST(CompiledBackendFallback, CompileFailureFallsBackAndQuarantines)
{
    if (!compiledBackend().compilerAvailable())
        GTEST_SKIP() << "no system C compiler on this host";

    auto opt = defaultOpts();
    // The probe compiles clean; every kernel compile then dies on an
    // unknown flag — exercising the failure rung past a good probe.
    opt.extraFlags = "--waco-definitely-not-a-flag";
    opt.maxConsecutiveFailures = 2;
    CompiledBackend backend(opt);
    EXPECT_TRUE(backend.compilerAvailable());

    Rng rng(8);
    auto m = intMatrix(32, 24, 120, rng);
    auto t = HierSparseTensor::build(FormatDescriptor::csr(32, 24), m);
    DenseMatrix b(24, 4);
    fillInt(b, rng);
    auto want = spmmReference(m, b);

    LoopNestArgs args;
    args.a = &t;
    args.matB = &b;
    auto nest = lowerStorageOrder(Algorithm::SpMM,
                                  FormatDescriptor::csr(32, 24), 4);
    for (int run = 0; run < 4; ++run) {
        auto got = backend.execute(nest, args);
        EXPECT_EQ(0.0, maxAbsDiff(want, got.mat));
    }
    auto st = backend.stats();
    EXPECT_EQ(st.compiles, 0u);
    // Quarantine kicks in after maxConsecutiveFailures: 4 executions but
    // only 2 compiler invocations.
    EXPECT_EQ(st.compileFailures, 2u);
    EXPECT_EQ(st.fallbacks, 4u);
    EXPECT_FALSE(backend.lastError().empty());
}

TEST(CompiledBackendFallback, BogusWacoCcEnvIsHandled)
{
    // $WACO_CC pointing at a non-compiler must downgrade gracefully.
    ::setenv("WACO_CC", "/bin/false", 1);
    CompiledBackend backend; // fresh instance probes the env override
    EXPECT_FALSE(backend.compilerAvailable());
    ::unsetenv("WACO_CC");
}

// ---------------------------------------------------------------------------
// Real compilation: correctness, memoization, artifact hygiene.
// ---------------------------------------------------------------------------

TEST(CompiledBackend, SpmvMatchesInterpreterBitwise)
{
    if (!compiledBackend().compilerAvailable())
        GTEST_SKIP() << "no system C compiler on this host";
    CompiledBackend backend;

    Rng rng(11);
    auto m = intMatrix(48, 40, 300, rng);
    DenseVector b(40);
    for (u64 i = 0; i < b.size(); ++i)
        b[i] = static_cast<float>(rng.uniformInt(1, 3));
    LoopNestArgs args;
    args.vecB = &b;
    for (const auto& desc :
         {FormatDescriptor::csr(48, 40), FormatDescriptor::csc(48, 40),
          FormatDescriptor::bcsr(48, 40, 4, 4)}) {
        auto t = HierSparseTensor::build(desc, m);
        args.a = &t;
        auto nest = lowerStorageOrder(Algorithm::SpMV, desc);
        auto want = executeLoopNest(nest, args);
        auto got = backend.execute(nest, args);
        ASSERT_EQ(want.vec.size(), got.vec.size()) << desc.name();
        for (u64 i = 0; i < want.vec.size(); ++i)
            EXPECT_EQ(want.vec[i], got.vec[i]) << desc.name();
    }
    EXPECT_EQ(backend.stats().fallbacks, 0u);
    EXPECT_EQ(backend.stats().launches, 3u);
}

TEST(CompiledBackend, SecondExecutionHitsCacheWithZeroRecompiles)
{
    if (!compiledBackend().compilerAvailable())
        GTEST_SKIP() << "no system C compiler on this host";
    CompiledBackend backend;

    Rng rng(12);
    auto m = intMatrix(40, 32, 200, rng);
    auto t = HierSparseTensor::build(FormatDescriptor::csr(40, 32), m);
    DenseMatrix b(32, 8);
    fillInt(b, rng);
    LoopNestArgs args;
    args.a = &t;
    args.matB = &b;
    auto nest = lowerStorageOrder(Algorithm::SpMM,
                                  FormatDescriptor::csr(40, 32), 8);

    // The acceptance-criterion counter: repeat fingerprints must perform
    // zero compiler invocations, observable via codegen.compiles.
    auto& compiles =
        metrics::MetricsRegistry::instance().counter("codegen.compiles");
    auto& hits =
        metrics::MetricsRegistry::instance().counter("codegen.cache_hits");
    compiles.reset();
    hits.reset();
    metrics::setEnabled(true);
    auto first = backend.execute(nest, args);
    EXPECT_EQ(backend.stats().compiles, 1u);
    auto again = backend.execute(nest, args, {2, 16});
    metrics::setEnabled(false);
    EXPECT_EQ(backend.stats().compiles, 1u);
    EXPECT_GE(backend.stats().cacheHits, 1u);
    for (u64 i = 0; i < first.mat.data().size(); ++i)
        EXPECT_EQ(first.mat.data()[i], again.mat.data()[i]);
    EXPECT_EQ(compiles.total(), 1u);
    EXPECT_GE(hits.total(), 1u);
}

/** A missing operand is rejected before the kernel is compiled: no
 *  compile is paid for a call that cannot run. */
TEST(CompiledBackend, MissingOperandThrowsBeforeCompiling)
{
    if (!compiledBackend().compilerAvailable())
        GTEST_SKIP() << "no system C compiler on this host";

    Rng rng(13);
    auto m = intMatrix(37, 29, 150, rng);
    auto t = HierSparseTensor::build(FormatDescriptor::csr(37, 29), m);
    LoopNestArgs args;
    args.a = &t; // matB left null
    auto nest = lowerStorageOrder(Algorithm::SpMM,
                                  FormatDescriptor::csr(37, 29), 7);

    const u64 compiles = compiledBackend().stats().compiles;
    try {
        compiledBackend().execute(nest, args);
        ADD_FAILURE() << "a missing operand B must throw";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("operand B"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(compiledBackend().stats().compiles, compiles);
}

/** Calls of WacoKernelArgs::stop that @p body makes over one piece: all
 *  of a BCSR SpMM's top loop, which has two middle loops to poll in. The
 *  callback says stop from its @p stopAt-th call on. */
u32
stopPollsOfOnePiece(
    const std::function<NestRangeFn(const LoopNest&, const LoopNestArgs&)>&
        engineBody,
    u32 stopAt)
{
    Rng rng(14);
    auto m = intMatrix(256, 192, 6000, rng);
    auto desc = FormatDescriptor::bcsr(256, 192, 4, 4);
    auto t = HierSparseTensor::build(desc, m);
    DenseMatrix b(192, 8);
    fillInt(b, rng);
    LoopNestArgs args;
    args.a = &t;
    args.matB = &b;
    auto nest = lowerStorageOrder(Algorithm::SpMM, desc, 8);
    const NestRangeFn inner = engineBody(nest, args);

    static u32 calls, limit;
    calls = 0;
    limit = stopAt;
    NestRangeFn body = [&](const WacoKernelArgs& buf, u64 lo, u64 hi,
                           float* ws) {
        WacoKernelArgs mine = buf;
        mine.stop = [](const CancelToken*) { return ++calls >= limit ? 1 : 0; };
        inner(mine, lo, hi, ws);
    };
    driveLoopNest(nest, args, {1, 1u << 20}, body);
    return calls;
}

/** Both engines poll the run's token inside one top-loop piece, and
 *  return at the first poll that says stop. */
TEST(EnginePolls, InterpreterStopsInsideAPiece)
{
    EXPECT_GT(stopPollsOfOnePiece(interpreterBody, ~0u), 1u);
    EXPECT_EQ(stopPollsOfOnePiece(interpreterBody, 1), 1u);
}

TEST(EnginePolls, CompiledStopsInsideAPiece)
{
    if (!compiledBackend().compilerAvailable())
        GTEST_SKIP() << "no system C compiler on this host";
    auto kernelBody = [](const LoopNest& nest, const LoopNestArgs& args) {
        auto kernel = compiledBackend().kernelFor(
            nest, inputLayoutsOf(args, nest.alg()));
        EXPECT_NE(kernel, nullptr);
        return NestRangeFn([kernel](const WacoKernelArgs& buf, u64 lo,
                                    u64 hi, float* ws) {
            kernel->fn()(&buf, static_cast<std::int64_t>(lo),
                         static_cast<std::int64_t>(hi), ws);
        });
    };
    EXPECT_GT(stopPollsOfOnePiece(kernelBody, ~0u), 1u);
    EXPECT_EQ(stopPollsOfOnePiece(kernelBody, 1), 1u);
}

/** Backends share the per-process temp dir; two live ones must still
 *  each run their own kernel, never the other's loaded library. */
TEST(CompiledBackend, LiveInstancesNeverShareAKernel)
{
    if (!compiledBackend().compilerAvailable())
        GTEST_SKIP() << "no system C compiler on this host";
    Rng rng(14);
    auto m = intMatrix(32, 24, 150, rng);
    auto desc = FormatDescriptor::csr(32, 24);
    auto t = HierSparseTensor::build(desc, m);
    DenseVector v(24);
    for (u64 i = 0; i < v.size(); ++i)
        v[i] = static_cast<float>(rng.uniformInt(1, 3));
    DenseMatrix b(24, 4);
    fillInt(b, rng);
    LoopNestArgs vargs{.a = &t, .vecB = &v};
    LoopNestArgs margs{.a = &t, .matB = &b};
    auto spmv = lowerStorageOrder(Algorithm::SpMV, desc);
    auto spmm = lowerStorageOrder(Algorithm::SpMM, desc, 4);

    CompiledBackend first, second;
    auto got_v = first.execute(spmv, vargs).vec;
    auto got_m = second.execute(spmm, margs).mat;
    EXPECT_EQ(0.0, maxAbsDiff(executeLoopNest(spmv, vargs).vec, got_v));
    EXPECT_EQ(0.0, maxAbsDiff(executeLoopNest(spmm, margs).mat, got_m));
    EXPECT_EQ(first.stats().fallbacks + second.stats().fallbacks, 0u);
}

TEST(CompiledBackend, EmittedSourceContainsAbiEntrypoint)
{
    auto nest = lowerStorageOrder(Algorithm::SpMM,
                                  FormatDescriptor::csr(16, 16), 4);
    KernelEmitOptions eo;
    eo.inputRowMajor = {true};
    std::string src = emitKernelC(nest, eo);
    EXPECT_NE(src.find("waco_kernel(const waco_args_t* args"),
              std::string::npos)
        << src;
    EXPECT_NE(src.find("int64_t waco_begin"), std::string::npos) << src;
}

// ---------------------------------------------------------------------------
// Concurrent cache access — re-registered under the tsan ctest label.
// ---------------------------------------------------------------------------

TEST(CompiledKernelTsan, ConcurrentExecutionsCompileOnceAndAgree)
{
    if (!compiledBackend().compilerAvailable())
        GTEST_SKIP() << "no system C compiler on this host";
    CompiledBackend backend;

    Rng rng(13);
    auto m = intMatrix(48, 40, 300, rng);
    auto csr = HierSparseTensor::build(FormatDescriptor::csr(48, 40), m);
    auto csc = HierSparseTensor::build(FormatDescriptor::csc(48, 40), m);
    DenseMatrix b(40, 8);
    fillInt(b, rng);
    auto nestR = lowerStorageOrder(Algorithm::SpMM,
                                   FormatDescriptor::csr(48, 40), 8);
    auto nestC = lowerStorageOrder(Algorithm::SpMM,
                                   FormatDescriptor::csc(48, 40), 8);
    LoopNestArgs argsR, argsC;
    argsR.a = &csr;
    argsR.matB = &b;
    argsC.a = &csc;
    argsC.matB = &b;
    auto want = executeLoopNest(nestR, argsR);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w) {
        threads.emplace_back([&, w] {
            // Half the threads race on the same key, half on another.
            const LoopNest& nest = (w % 2 != 0) ? nestC : nestR;
            const LoopNestArgs& args = (w % 2 != 0) ? argsC : argsR;
            for (int run = 0; run < 3; ++run) {
                auto got = backend.execute(nest, args, {2, 16});
                for (u64 i = 0; i < want.mat.data().size(); ++i) {
                    if (got.mat.data()[i] != want.mat.data()[i]) {
                        mismatches.fetch_add(1);
                        break;
                    }
                }
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
    // Two distinct keys -> exactly two compiles despite 12 executions.
    EXPECT_EQ(backend.stats().compiles, 2u);
    EXPECT_EQ(backend.stats().fallbacks, 0u);
}

// ---------------------------------------------------------------------------
// Backend name parsing (tune_cli --backend).
// ---------------------------------------------------------------------------

TEST(KernelBackendSelect, NamesParse)
{
    KernelBackendKind kind;
    EXPECT_TRUE(kernelBackendFromName("interp", kind));
    EXPECT_EQ(kind, KernelBackendKind::Interpreter);
    EXPECT_TRUE(kernelBackendFromName("compiled", kind));
    EXPECT_EQ(kind, KernelBackendKind::Compiled);
    EXPECT_FALSE(kernelBackendFromName("cuda", kind));
}

} // namespace
} // namespace waco
