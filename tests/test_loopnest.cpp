/**
 * @file
 * Differential fuzzing of the lowered loop-nest IR and its three consumers.
 *
 * ~240 seeded random (SuperSchedule, Algorithm, input) triples are sampled
 * from SuperScheduleSpace; for each one the schedule is lowered, the input
 * is built in the schedule's format, and the generic interpreter
 * (executeLoopNest) must *bit-match* the dense COO references in
 * exec/reference.cpp — operands are integer-valued so float accumulation is
 * exact in any order and the comparison can demand equality, not tolerance.
 * The same loop asserts the C kernel emitter (emitKernelC) binds every loop
 * of the lowered nest, and that the sample set exercises discordant
 * (binary-search locate) traversals and parallel execution over the
 * persistent pool.
 *
 * Also here: unit tests of the ThreadPool runtime (full coverage, the
 * chunk-count participation cap that fixes the old dynamicTopLevel
 * oversubscription, reuse across calls) and the guarantee that both
 * backends, serial and parallel, dispatch through the single generic
 * executor.
 */
#include <gtest/gtest.h>

#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "analysis/loopnest_verifier.hpp"
#include "codegen/emit.hpp"
#include "codegen/kernel_backend.hpp"
#include "exec/loopnest_exec.hpp"
#include "exec/reference.hpp"
#include "ir/loopnest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace waco {
namespace {

// ---------------------------------------------------------------------------
// Integer-valued inputs: every product/sum below stays far inside the range
// where IEEE float arithmetic is exact, so "matches the reference" means
// bitwise equality regardless of accumulation order or thread count.
// ---------------------------------------------------------------------------

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

Sparse3Tensor
intTensor(u32 di, u32 dk, u32 dl, u32 nnz, Rng& rng)
{
    std::vector<Quad> q;
    for (u32 n = 0; n < nnz; ++n) {
        q.push_back({static_cast<u32>(rng.index(di)),
                     static_cast<u32>(rng.index(dk)),
                     static_cast<u32>(rng.index(dl)),
                     static_cast<float>(rng.uniformInt(1, 4))});
    }
    return Sparse3Tensor(di, dk, dl, q);
}

void
fillInt(DenseVector& v, Rng& rng)
{
    for (u64 i = 0; i < v.size(); ++i)
        v[i] = static_cast<float>(rng.uniformInt(1, 3));
}

void
fillInt(DenseMatrix& m, Rng& rng)
{
    for (auto& x : m.data())
        x = static_cast<float>(rng.uniformInt(1, 3));
}

/** True when the nest resolves any discordant level by binary search. */
bool
hasBinarySearchLocate(const LoopNest& nest)
{
    for (const LoopNode& n : nest.loops())
        for (const LocateStep& ls : n.locates)
            if (ls.binarySearch)
                return true;
    return false;
}

/** The kernel C the compiled backend builds for @p s. */
std::string
kernelC(const SuperSchedule& s, const LoopNest& nest)
{
    KernelEmitOptions eo;
    eo.inputRowMajor = inputRowMajorOf(s);
    return emitKernelC(nest, eo);
}

/** Assert the emitted C binds every loop variable of @p loops. */
void
expectBindsEveryLoop(const std::string& code, const LoopNest& nest,
                     const std::vector<LoopNode>& loops,
                     const std::string& key)
{
    for (const LoopNode& n : loops) {
        std::string binding = "int64_t " + nest.slotVarName(n.slot) + " =";
        EXPECT_NE(code.find(binding), std::string::npos)
            << "emitKernelC output does not bind loop variable '"
            << nest.slotVarName(n.slot) << "'\nschedule: " << key << "\n"
            << code;
    }
}

/** Assert the emitter names every loop variable of the lowered nest. */
void
expectEmitNamesEveryLoop(const SuperSchedule& s, const LoopNest& nest)
{
    expectBindsEveryLoop(kernelC(s, nest), nest, nest.loops(), s.key());
}

/** Cycle through serial, lightly- and heavily-chunked parallel configs. */
ParallelConfig
parFor(u32 n)
{
    switch (n % 3) {
      case 0: return {1, 128};
      case 1: return {2, 16};
      default: return {4, 7};
    }
}

/**
 * Compiled-backend differential: re-run @p nest through the JIT backend
 * and demand the result be bitwise identical to the interpreter's.
 * Sampled (every 4th triple) to bound compiler invocations; silently a
 * no-op on hosts without a system C compiler (the codegen-label tests
 * cover the skip reporting).
 */
void
expectCompiledBitMatches(const LoopNest& nest, const LoopNestArgs& args,
                         const ParallelConfig& par,
                         const LoopNestResult& want, const std::string& key)
{
    static const bool available = compiledBackend().compilerAvailable();
    if (!available)
        return;
    auto before = compiledBackend().stats().fallbacks;
    auto got = compiledBackend().execute(nest, args, par);
    EXPECT_EQ(compiledBackend().stats().fallbacks, before)
        << "compiled backend fell back to the interpreter for " << key
        << "\n" << compiledBackend().lastError();

    ASSERT_EQ(want.vec.size(), got.vec.size()) << key;
    for (u64 i = 0; i < want.vec.size(); ++i)
        EXPECT_EQ(want.vec[i], got.vec[i]) << key;
    ASSERT_EQ(want.mat.data().size(), got.mat.data().size()) << key;
    for (u64 i = 0; i < want.mat.data().size(); ++i)
        EXPECT_EQ(want.mat.data()[i], got.mat.data()[i]) << key;
    ASSERT_EQ(want.sparse.nnz(), got.sparse.nnz()) << key;
    for (u64 n = 0; n < want.sparse.nnz(); ++n)
        EXPECT_EQ(want.sparse.values()[n], got.sparse.values()[n]) << key;
}

struct FuzzStats
{
    u32 executed = 0;
    u32 skipped = 0;    ///< Sampled formats over the storage budget.
    u32 discordant = 0; ///< Nests with a binary-search locate step.
};

/** Run @p target sampled schedules of a 2D algorithm against the dense
 *  reference; bitwise equality required. */
FuzzStats
fuzz2d(Algorithm alg, u32 target, u64 seed)
{
    Rng rng(seed);
    FuzzStats st;

    const u32 rows = 48, cols = 40;
    const u32 dense_extent = alg == Algorithm::SpMM ? 8
                             : alg == Algorithm::SDDMM ? 6
                                                       : 0;
    auto shape = ProblemShape::forMatrix(alg, rows, cols, dense_extent);
    SuperScheduleSpace space(alg, shape);

    auto m = intMatrix(rows, cols, 400, rng);
    DenseVector vb(cols);
    fillInt(vb, rng);
    DenseMatrix spmm_b(cols, dense_extent ? dense_extent : 1);
    fillInt(spmm_b, rng);
    DenseMatrix sd_b(rows, dense_extent ? dense_extent : 1);
    DenseMatrix sd_c(dense_extent ? dense_extent : 1, cols, Layout::ColMajor);
    fillInt(sd_b, rng);
    fillInt(sd_c, rng);

    DenseVector want_v;
    DenseMatrix want_m;
    SparseMatrix want_s;
    switch (alg) {
      case Algorithm::SpMV: want_v = spmvReference(m, vb); break;
      case Algorithm::SpMM: want_m = spmmReference(m, spmm_b); break;
      case Algorithm::SDDMM: want_s = sddmmReference(m, sd_b, sd_c); break;
      default: ADD_FAILURE() << "fuzz2d: not a 2D algorithm"; return st;
    }

    u32 attempts = 0;
    while (st.executed < target && attempts < 20 * target) {
        ++attempts;
        SuperSchedule s = space.sample(rng);
        std::optional<HierSparseTensor> t;
        try {
            t = HierSparseTensor::build(formatOf(s, shape), m);
        } catch (const FormatTooLarge&) {
            ++st.skipped;
            continue;
        }

        LoopNest nest = lower(s, shape);
        // Verifier as differential oracle: everything this harness executes
        // (and bit-matches below) must verify error-free — a false reject
        // here is exactly as much a bug as a false accept in test_analysis.
        auto diags = analysis::verifyLowered(s, shape);
        EXPECT_FALSE(diags.hasErrors()) << s.key() << "\n" << diags.format();
        if (hasBinarySearchLocate(nest))
            ++st.discordant;
        expectEmitNamesEveryLoop(s, nest);

        LoopNestArgs args;
        args.a = &*t;
        ParallelConfig par = parFor(st.executed);
        switch (alg) {
          case Algorithm::SpMV: {
            args.vecB = &vb;
            auto got = executeLoopNest(nest, args, par);
            EXPECT_EQ(0.0, maxAbsDiff(want_v, got.vec)) << s.key();
            if (st.executed % 4 == 0)
                expectCompiledBitMatches(nest, args, par, got, s.key());
            break;
          }
          case Algorithm::SpMM: {
            args.matB = &spmm_b;
            auto got = executeLoopNest(nest, args, par);
            EXPECT_EQ(0.0, maxAbsDiff(want_m, got.mat)) << s.key();
            if (st.executed % 4 == 0)
                expectCompiledBitMatches(nest, args, par, got, s.key());
            break;
          }
          default: {
            args.matB = &sd_b;
            args.matC = &sd_c;
            auto got = executeLoopNest(nest, args, par);
            EXPECT_EQ(want_s.nnz(), got.sparse.nnz()) << s.key();
            if (want_s.nnz() == got.sparse.nnz()) {
                for (u64 n = 0; n < want_s.nnz(); ++n) {
                    EXPECT_EQ(want_s.values()[n], got.sparse.values()[n])
                        << s.key();
                }
            }
            if (st.executed % 4 == 0)
                expectCompiledBitMatches(nest, args, par, got, s.key());
            break;
          }
        }
        ++st.executed;
    }
    EXPECT_EQ(st.executed, target) << "too many sampled formats skipped";
    return st;
}

FuzzStats
fuzzMttkrp(u32 target, u64 seed)
{
    Rng rng(seed);
    FuzzStats st;

    const u32 di = 16, dk = 12, dl = 10, J = 8;
    auto shape = ProblemShape::forTensor3(Algorithm::MTTKRP, di, dk, dl, J);
    SuperScheduleSpace space(Algorithm::MTTKRP, shape);

    auto t3 = intTensor(di, dk, dl, 250, rng);
    DenseMatrix b(dk, J), c(dl, J);
    fillInt(b, rng);
    fillInt(c, rng);
    DenseMatrix want = mttkrpReference(t3, b, c);

    u32 attempts = 0;
    while (st.executed < target && attempts < 20 * target) {
        ++attempts;
        SuperSchedule s = space.sample(rng);
        std::optional<HierSparseTensor> t;
        try {
            t = HierSparseTensor::build(formatOf(s, shape), t3);
        } catch (const FormatTooLarge&) {
            ++st.skipped;
            continue;
        }

        LoopNest nest = lower(s, shape);
        // Verifier as differential oracle: everything this harness executes
        // (and bit-matches below) must verify error-free — a false reject
        // here is exactly as much a bug as a false accept in test_analysis.
        auto diags = analysis::verifyLowered(s, shape);
        EXPECT_FALSE(diags.hasErrors()) << s.key() << "\n" << diags.format();
        if (hasBinarySearchLocate(nest))
            ++st.discordant;
        expectEmitNamesEveryLoop(s, nest);

        LoopNestArgs args;
        args.a = &*t;
        args.matB = &b;
        args.matC = &c;
        auto got = executeLoopNest(nest, args, parFor(st.executed));
        EXPECT_EQ(0.0, maxAbsDiff(want, got.mat)) << s.key();
        if (st.executed % 4 == 0)
            expectCompiledBitMatches(nest, args, parFor(st.executed), got,
                                     s.key());
        ++st.executed;
    }
    EXPECT_EQ(st.executed, target) << "too many sampled formats skipped";
    return st;
}

/** Fused SDDMM→SpMM: sampled schedules carry a workspace and a consumer
 *  phase; both walks must be emitted, verify clean, and bit-match the
 *  dense fused reference (serial and parallel — chunks own private
 *  workspaces, and integer inputs make float accumulation exact). */
FuzzStats
fuzzFused(u32 target, u64 seed)
{
    Rng rng(seed);
    FuzzStats st;

    const u32 rows = 48, cols = 40, dense_extent = 6;
    auto shape = ProblemShape::forMatrix(Algorithm::FusedSDDMMSpMM, rows,
                                         cols, dense_extent);
    SuperScheduleSpace space(Algorithm::FusedSDDMMSpMM, shape);

    auto m = intMatrix(rows, cols, 400, rng);
    DenseMatrix b(rows, dense_extent);
    DenseMatrix c(dense_extent, cols, Layout::ColMajor);
    DenseMatrix f(cols, dense_extent);
    fillInt(b, rng);
    fillInt(c, rng);
    fillInt(f, rng);
    DenseMatrix want = fusedSddmmSpmmReference(m, b, c, f);

    u32 attempts = 0;
    while (st.executed < target && attempts < 20 * target) {
        ++attempts;
        SuperSchedule s = space.sample(rng);
        std::optional<HierSparseTensor> t;
        try {
            t = HierSparseTensor::build(formatOf(s, shape), m);
        } catch (const FormatTooLarge&) {
            ++st.skipped;
            continue;
        }

        LoopNest nest = lower(s, shape);
        EXPECT_TRUE(nest.fused()) << s.key();
        if (!nest.fused())
            return st;
        EXPECT_EQ(nest.workspace().extent, cols) << s.key();
        // Verifier as differential oracle, exactly as in fuzz2d.
        auto diags = analysis::verifyLowered(s, shape);
        EXPECT_FALSE(diags.hasErrors()) << s.key() << "\n" << diags.format();
        if (hasBinarySearchLocate(nest))
            ++st.discordant;

        // The emitter must name every loop of BOTH walks and print the
        // workspace's init/producer/consumer statements.
        std::string code = kernelC(s, nest);
        expectBindsEveryLoop(code, nest, nest.loops(), s.key());
        expectBindsEveryLoop(code, nest, nest.consumerLoops(), s.key());
        EXPECT_NE(code.find("waco_ws[waco_wi] = 0.0f;"), std::string::npos)
            << code;
        EXPECT_NE(code.find("waco_ws[j] += "), std::string::npos) << code;
        EXPECT_NE(code.find("vals[pA] * waco_ws[j]"), std::string::npos)
            << code;

        LoopNestArgs args;
        args.a = &*t;
        args.matB = &b;
        args.matC = &c;
        args.matF = &f;
        auto got = executeLoopNest(nest, args, parFor(st.executed));
        EXPECT_EQ(0.0, maxAbsDiff(want, got.mat)) << s.key();
        if (st.executed % 4 == 0)
            expectCompiledBitMatches(nest, args, parFor(st.executed), got,
                                     s.key());
        ++st.executed;
    }
    EXPECT_EQ(st.executed, target) << "too many sampled formats skipped";
    return st;
}

// 240 triples total across the five algorithms. Each test also checks that
// the sample actually covered discordant (locate) traversals — a fuzz run
// that never hits binary search would not be testing the hard path.

TEST(LoopNestFuzz, SpmvBitMatchesReference)
{
    auto st = fuzz2d(Algorithm::SpMV, 60, 101);
    EXPECT_GT(st.discordant, 0u);
}

TEST(LoopNestFuzz, SpmmBitMatchesReference)
{
    auto st = fuzz2d(Algorithm::SpMM, 60, 202);
    EXPECT_GT(st.discordant, 0u);
}

TEST(LoopNestFuzz, SddmmBitMatchesReference)
{
    auto st = fuzz2d(Algorithm::SDDMM, 40, 303);
    EXPECT_GT(st.discordant, 0u);
}

TEST(LoopNestFuzz, MttkrpBitMatchesReference)
{
    auto st = fuzzMttkrp(40, 404);
    EXPECT_GT(st.discordant, 0u);
}

TEST(LoopNestFuzz, FusedSddmmSpmmBitMatchesReference)
{
    auto st = fuzzFused(40, 505);
    EXPECT_GT(st.discordant, 0u);
}

// ---------------------------------------------------------------------------
// Every execution dispatches through the one generic executor.
// ---------------------------------------------------------------------------

/** Run @p args.a in its own storage order through the interpreter. */
LoopNestResult
runStorageOrder(Algorithm alg, const LoopNestArgs& args,
                const ParallelConfig& par)
{
    u32 extent = args.matB ? static_cast<u32>(args.matB->cols()) : 0;
    return interpreterBackend().execute(
        lowerStorageOrder(alg, args.a->descriptor(), extent), args, par);
}

TEST(LoopNestDispatch, AllFiveAlgorithmsUseExecuteLoopNest)
{
    Rng rng(7);
    auto m = intMatrix(32, 24, 150, rng);
    auto csr = HierSparseTensor::build(FormatDescriptor::csr(32, 24), m);
    DenseVector vb(24);
    fillInt(vb, rng);
    DenseMatrix mb(24, 4), sb(32, 4), sc(4, 24, Layout::ColMajor), fb(24, 4);
    fillInt(mb, rng);
    fillInt(sb, rng);
    fillInt(sc, rng);
    fillInt(fb, rng);
    auto t3 = intTensor(12, 10, 8, 80, rng);
    auto csf = HierSparseTensor::build(FormatDescriptor::csf3d(12, 10, 8),
                                       t3);
    DenseMatrix kb(10, 4), kc(8, 4);
    fillInt(kb, rng);
    fillInt(kc, rng);

    LoopNestArgs spmv{.a = &csr, .vecB = &vb};
    LoopNestArgs spmm{.a = &csr, .matB = &mb};
    LoopNestArgs sddmm{.a = &csr, .matB = &sb, .matC = &sc};
    LoopNestArgs mttkrp{.a = &csf, .matB = &kb, .matC = &kc};
    LoopNestArgs fused{.a = &csr, .matB = &sb, .matC = &sc, .matF = &fb};

    u64 before = loopNestExecutionCount();
    for (ParallelConfig par : {ParallelConfig{1, 128}, ParallelConfig{2, 8}}) {
        runStorageOrder(Algorithm::SpMV, spmv, par);
        runStorageOrder(Algorithm::SpMM, spmm, par);
        runStorageOrder(Algorithm::SDDMM, sddmm, par);
        runStorageOrder(Algorithm::MTTKRP, mttkrp, par);
        runStorageOrder(Algorithm::FusedSDDMMSpMM, fused, par);
    }
    EXPECT_EQ(loopNestExecutionCount() - before, 10u);
}

/** SDDMM now has a parallel path (it used to be serial-only). */
TEST(LoopNestDispatch, SddmmScheduledMatchesReferenceInParallel)
{
    Rng rng(13);
    auto m = intMatrix(64, 48, 500, rng);
    DenseMatrix b(64, 6), c(6, 48, Layout::ColMajor);
    fillInt(b, rng);
    fillInt(c, rng);
    auto want = sddmmReference(m, b, c);
    for (const auto& desc :
         {FormatDescriptor::csr(64, 48), FormatDescriptor::csc(64, 48)}) {
        auto t = HierSparseTensor::build(desc, m);
        LoopNestArgs args{.a = &t, .matB = &b, .matC = &c};
        auto got = runStorageOrder(Algorithm::SDDMM, args, {4, 8}).sparse;
        ASSERT_EQ(want.nnz(), got.nnz()) << desc.name();
        for (u64 n = 0; n < want.nnz(); ++n)
            EXPECT_EQ(want.values()[n], got.values()[n]) << desc.name();
    }
}

// ---------------------------------------------------------------------------
// Fused workspace nests under parallel execution. Registered under the
// `tsan` ctest label too (tests/CMakeLists.txt): ThreadSanitizer proves the
// per-chunk workspace privatization makes the producer/consumer phases
// race-free, and bitwise equality with the serial run proves the chunks
// never share accumulation state.
// ---------------------------------------------------------------------------

TEST(FusedWorkspaceTsan, ParallelChunksUsePrivateWorkspaces)
{
    Rng rng(29);
    auto m = intMatrix(96, 80, 1200, rng);
    DenseMatrix b(96, 6), c(6, 80, Layout::ColMajor), f(80, 6);
    fillInt(b, rng);
    fillInt(c, rng);
    fillInt(f, rng);
    auto want = fusedSddmmSpmmReference(m, b, c, f);
    for (const auto& desc :
         {FormatDescriptor::csr(96, 80), FormatDescriptor::csc(96, 80)}) {
        auto t = HierSparseTensor::build(desc, m);
        LoopNestArgs args{.a = &t, .matB = &b, .matC = &c, .matF = &f};
        auto serial =
            runStorageOrder(Algorithm::FusedSDDMMSpMM, args, {1, 16}).mat;
        EXPECT_EQ(0.0, maxAbsDiff(want, serial)) << desc.name();
        // Repeated heavily-chunked parallel runs: any cross-chunk workspace
        // sharing would race (tsan) and break bitwise equality.
        for (u32 run = 0; run < 4; ++run) {
            auto par =
                runStorageOrder(Algorithm::FusedSDDMMSpMM, args, {4, 3}).mat;
            EXPECT_EQ(0.0, maxAbsDiff(want, par))
                << desc.name() << " run " << run;
        }
    }
}

// ---------------------------------------------------------------------------
// ThreadPool runtime.
// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversEveryIterationExactlyOnce)
{
    ThreadPool pool(3);
    std::vector<u32> marks(1000, 0);
    pool.parallelFor(1000, 7, 4, [&](u64 b, u64 e) {
        for (u64 i = b; i < e; ++i)
            ++marks[i];
    });
    for (u64 i = 0; i < marks.size(); ++i)
        ASSERT_EQ(marks[i], 1u) << "iteration " << i;
}

TEST(ThreadPool, ParticipantsCappedByChunkCount)
{
    // The old dynamicTopLevel woke par.threads workers regardless of how
    // many chunks existed. The pool must never use more threads than
    // chunks: a single-chunk job runs on the caller alone.
    ThreadPool pool(8);
    std::mutex mu;
    std::set<std::thread::id> ids;
    auto record = [&](u64, u64) {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
    };
    pool.parallelFor(10, 10, 8, record);
    EXPECT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());

    ids.clear();
    pool.parallelFor(25, 10, 8, record); // 3 chunks -> at most 3 threads.
    EXPECT_LE(ids.size(), 3u);
    EXPECT_GE(ids.size(), 1u);
}

TEST(ThreadPool, SerialWhenOneThreadRequested)
{
    ThreadPool pool(4);
    std::set<std::thread::id> ids;
    pool.parallelFor(100, 8, 1, [&](u64, u64) {
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ThreadPool, PersistsAcrossManyCalls)
{
    ThreadPool pool(0);
    pool.ensureWorkers(3);
    EXPECT_EQ(pool.workers(), 3u);
    u64 sum = 0;
    std::mutex mu;
    for (int call = 0; call < 64; ++call) {
        pool.parallelFor(97, 5, 4, [&](u64 b, u64 e) {
            std::lock_guard<std::mutex> lock(mu);
            sum += e - b;
        });
    }
    EXPECT_EQ(sum, 64u * 97u);
    EXPECT_EQ(pool.workers(), 3u); // grown once, reused ever after
    pool.ensureWorkers(2);
    EXPECT_EQ(pool.workers(), 3u); // never shrinks
}

TEST(ThreadPool, GlobalPoolIsShared)
{
    ThreadPool& a = globalPool();
    ThreadPool& b = globalPool();
    EXPECT_EQ(&a, &b);
}

} // namespace
} // namespace waco
