/**
 * @file
 * Correctness of the execution engine: a tensor stored in any format a
 * sampled SuperSchedule can describe, run in its own storage order through
 * KernelBackend::execute, must agree with the dense references, and with
 * its own serial run bit for bit under any parallel configuration;
 * reduction-major storage must be detected (and then run serially); a
 * missing or mis-shaped dense input must be rejected by name; and
 * WallclockMeasurer must report a sane median over either engine.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "codegen/kernel_backend.hpp"
#include "exec/reference.hpp"
#include "ir/schedule.hpp"
#include "perfmodel/wallclock_backend.hpp"
#include "util/rng.hpp"

namespace waco {
namespace {

/** Run @p args.a in its own storage order through the interpreter; the
 *  dense extent comes from B's columns. */
LoopNestResult
runStorageOrder(Algorithm alg, const LoopNestArgs& args,
                const ParallelConfig& par = {})
{
    u32 extent = args.matB ? static_cast<u32>(args.matB->cols()) : 0;
    return interpreterBackend().execute(
        lowerStorageOrder(alg, args.a->descriptor(), extent), args, par);
}

SparseMatrix
randomMatrix(u32 rows, u32 cols, u32 nnz, Rng& rng)
{
    std::vector<Triplet> t;
    for (u32 n = 0; n < nnz; ++n) {
        t.push_back({static_cast<u32>(rng.index(rows)),
                     static_cast<u32>(rng.index(cols)),
                     static_cast<float>(rng.uniformInt(1, 5))});
    }
    return SparseMatrix(rows, cols, t);
}

TEST(ExecReference, TinySpmvByHand)
{
    SparseMatrix a(2, 3, {{0, 0, 1.f}, {0, 2, 2.f}, {1, 1, 3.f}});
    DenseVector b(3);
    b[0] = 1.f; b[1] = 2.f; b[2] = 3.f;
    auto c = spmvReference(a, b);
    EXPECT_FLOAT_EQ(c[0], 7.f);
    EXPECT_FLOAT_EQ(c[1], 6.f);
}

TEST(ExecHier, SpmvMatchesReferenceOnStandardFormats)
{
    Rng rng(11);
    auto m = randomMatrix(50, 40, 150, rng);
    DenseVector b(40);
    b.randomize(rng);
    auto want = spmvReference(m, b);
    for (const auto& desc :
         {FormatDescriptor::csr(50, 40), FormatDescriptor::csc(50, 40),
          FormatDescriptor::bcsr(50, 40, 4, 4),
          FormatDescriptor::ucu(50, 40, 8), FormatDescriptor::uuc(50, 40, 8),
          FormatDescriptor::dense2d(50, 40),
          FormatDescriptor::coo2d(50, 40)}) {
        auto t = HierSparseTensor::build(desc, m);
        LoopNestArgs args{.a = &t, .vecB = &b};
        auto got = runStorageOrder(Algorithm::SpMV, args).vec;
        EXPECT_LT(maxAbsDiff(want, got), 1e-4) << desc.name();
    }
}

/**
 * Property: for any sampled SuperSchedule, building its format and running
 * it in storage order reproduces the reference result. This is the
 * end-to-end guarantee that the whole search space is executable.
 */
class ScheduleExecution : public ::testing::TestWithParam<u64> {};

TEST_P(ScheduleExecution, SpmmCorrectUnderSampledFormats)
{
    Rng rng(GetParam() * 7919 + 3);
    auto m = randomMatrix(48, 36, 140, rng);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 48, 36, 8);
    SuperScheduleSpace space(Algorithm::SpMM, shape);
    DenseMatrix b(36, 8);
    b.randomize(rng);
    auto want = spmmReference(m, b);
    for (int n = 0; n < 6; ++n) {
        auto s = space.sample(rng);
        HierSparseTensor t = [&] {
            try {
                return HierSparseTensor::build(formatOf(s, shape), m);
            } catch (const FormatTooLarge&) {
                return HierSparseTensor::build(
                    FormatDescriptor::csr(48, 36), m);
            }
        }();
        LoopNestArgs args{.a = &t, .matB = &b};
        auto got = runStorageOrder(Algorithm::SpMM, args).mat;
        EXPECT_LT(maxAbsDiff(want, got), 1e-3) << s.key();
    }
}

TEST_P(ScheduleExecution, SddmmCorrectUnderSampledFormats)
{
    Rng rng(GetParam() * 104729 + 11);
    auto m = randomMatrix(32, 40, 100, rng);
    auto shape = ProblemShape::forMatrix(Algorithm::SDDMM, 32, 40, 8);
    SuperScheduleSpace space(Algorithm::SDDMM, shape);
    DenseMatrix b(32, 8);
    DenseMatrix c(8, 40, Layout::ColMajor);
    b.randomize(rng);
    c.randomize(rng);
    auto want = sddmmReference(m, b, c);
    for (int n = 0; n < 4; ++n) {
        auto s = space.sample(rng);
        HierSparseTensor t = [&] {
            try {
                return HierSparseTensor::build(formatOf(s, shape), m);
            } catch (const FormatTooLarge&) {
                return HierSparseTensor::build(
                    FormatDescriptor::csr(32, 40), m);
            }
        }();
        LoopNestArgs args{.a = &t, .matB = &b, .matC = &c};
        auto got = runStorageOrder(Algorithm::SDDMM, args).sparse;
        ASSERT_EQ(got.nnz(), want.nnz()) << s.key();
        for (u64 e = 0; e < want.nnz(); ++e)
            EXPECT_NEAR(want.values()[e], got.values()[e], 1e-3) << s.key();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleExecution,
                         ::testing::Range<u64>(0, 10));

TEST(ScheduledExec, DetectsParallelizableStorage)
{
    auto csr = FormatDescriptor::csr(32, 32);
    auto csc = FormatDescriptor::csc(32, 32);
    auto parallel = [](Algorithm alg, const FormatDescriptor& desc) {
        return topLoopParallelizable(lowerStorageOrder(alg, desc));
    };
    // CSR is row (=output index i) major: parallel-safe for SpMV/SpMM.
    EXPECT_TRUE(parallel(Algorithm::SpMV, csr));
    // CSC is k-major; k reduces in SpMV: unsafe.
    EXPECT_FALSE(parallel(Algorithm::SpMV, csc));
    // For SDDMM both dimensions are safe.
    EXPECT_TRUE(parallel(Algorithm::SDDMM, csc));
}

class ScheduledExecConfig
    : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(ScheduledExecConfig, SpmvMatchesSerialAcrossFormats)
{
    auto [threads, chunk] = GetParam();
    Rng rng(7);
    auto m = randomMatrix(96, 64, 500, rng);
    DenseVector b(64);
    b.randomize(rng);
    auto want = spmvReference(m, b);
    for (const auto& desc :
         {FormatDescriptor::csr(96, 64), FormatDescriptor::bcsr(96, 64, 4, 4),
          FormatDescriptor::ucu(96, 64, 8),
          FormatDescriptor::csc(96, 64)}) {
        auto t = HierSparseTensor::build(desc, m);
        LoopNestArgs args{.a = &t, .vecB = &b};
        auto got =
            runStorageOrder(Algorithm::SpMV, args, {threads, chunk}).vec;
        EXPECT_LT(maxAbsDiff(want, got), 1e-4) << desc.name();
        // Chunks own disjoint output rows: threading must not change a bit.
        auto serial = runStorageOrder(Algorithm::SpMV, args, {1, 128}).vec;
        EXPECT_EQ(0.0, maxAbsDiff(serial, got)) << desc.name();
    }
}

TEST_P(ScheduledExecConfig, SpmmMatchesSerial)
{
    auto [threads, chunk] = GetParam();
    Rng rng(8);
    auto m = randomMatrix(64, 48, 400, rng);
    DenseMatrix b(48, 8);
    b.randomize(rng);
    auto want = spmmReference(m, b);
    auto t = HierSparseTensor::build(FormatDescriptor::csr(64, 48), m);
    LoopNestArgs args{.a = &t, .matB = &b};
    auto got = runStorageOrder(Algorithm::SpMM, args, {threads, chunk}).mat;
    EXPECT_LT(maxAbsDiff(want, got), 1e-3);
    auto serial = runStorageOrder(Algorithm::SpMM, args, {1, 128}).mat;
    EXPECT_EQ(0.0, maxAbsDiff(serial, got));
}

INSTANTIATE_TEST_SUITE_P(
    ThreadChunk, ScheduledExecConfig,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 7u, 64u)));

TEST(ScheduledExec, MttkrpMatchesReference)
{
    Rng rng(9);
    std::vector<Quad> q;
    for (int n = 0; n < 300; ++n) {
        q.push_back({static_cast<u32>(rng.index(24)),
                     static_cast<u32>(rng.index(18)),
                     static_cast<u32>(rng.index(12)),
                     static_cast<float>(rng.uniformInt(1, 4))});
    }
    Sparse3Tensor t3(24, 18, 12, q);
    DenseMatrix b(18, 8), c(12, 8);
    b.randomize(rng);
    c.randomize(rng);
    auto want = mttkrpReference(t3, b, c);
    auto csf = HierSparseTensor::build(FormatDescriptor::csf3d(24, 18, 12),
                                       t3);
    LoopNestArgs args{.a = &csf, .matB = &b, .matC = &c};
    auto got = runStorageOrder(Algorithm::MTTKRP, args, {3, 4}).mat;
    EXPECT_LT(maxAbsDiff(want, got), 1e-3);
}

/**
 * The operand door: for every algorithm, dropping any one dense input, or
 * giving it transposed extents (a vector: a wrong length), makes
 * executeLoopNest throw a FatalError naming the algorithm and the operand.
 */
TEST(ExecOperands, MissingOrTransposedInputIsNamed)
{
    const DenseMatrix* LoopNestArgs::*matrixSlot[] = {
        &LoopNestArgs::matB, &LoopNestArgs::matC, &LoopNestArgs::matF};
    Rng rng(29);
    auto m = randomMatrix(12, 10, 40, rng);
    std::vector<Quad> q;
    for (int n = 0; n < 40; ++n) {
        q.push_back({static_cast<u32>(rng.index(9)),
                     static_cast<u32>(rng.index(8)),
                     static_cast<u32>(rng.index(7)), 1.0f});
    }
    Sparse3Tensor t3(9, 8, 7, q);

    for (Algorithm alg : allAlgorithms()) {
        const AlgorithmInfo& info = algorithmInfo(alg);
        const bool tensor3 = info.sparseOrder == 3;
        auto shape = tensor3 ? ProblemShape::forTensor3(alg, 9, 8, 7, 5)
                             : ProblemShape::forMatrix(alg, 12, 10, 6);
        SuperSchedule s = defaultSchedule(shape);
        auto t = tensor3 ? HierSparseTensor::build(formatOf(s, shape), t3)
                         : HierSparseTensor::build(formatOf(s, shape), m);
        LoopNest nest = lower(s, shape);
        const DenseInputs in = makeDenseInputs(
            nest, inputRowMajorOf(s), t,
            [](std::size_t, std::vector<float>& v) {
                std::fill(v.begin(), v.end(), 1.0f);
            });
        EXPECT_NO_THROW(executeLoopNest(nest, in.args))
            << algorithmName(alg);

        auto expectNamed = [&](const LoopNestArgs& bad, const DenseOperand& op,
                               const char* what) {
            try {
                executeLoopNest(nest, bad);
                ADD_FAILURE() << algorithmName(alg) << " " << op.name << ": "
                              << what << " was accepted";
            } catch (const FatalError& e) {
                const std::string msg = e.what();
                EXPECT_NE(msg.find(algorithmName(alg) + " operand " + op.name),
                          std::string::npos)
                    << what << ": " << msg;
            }
        };
        std::size_t inputs = 0;
        forEachDenseInput(alg, [&](std::size_t k, const DenseOperand& op) {
            ++inputs;
            LoopNestArgs dropped = in.args;
            LoopNestArgs transposed = in.args;
            DenseVector longer;
            DenseMatrix flipped;
            if (op.indices.size() == 1) {
                dropped.vecB = nullptr;
                longer = DenseVector(in.args.vecB->size() + 1);
                transposed.vecB = &longer;
            } else {
                const DenseMatrix& good = *in.args.matrix(k);
                ASSERT_NE(good.rows(), good.cols()) << op.name;
                dropped.*matrixSlot[k] = nullptr;
                flipped = DenseMatrix(good.cols(), good.rows(), good.layout());
                transposed.*matrixSlot[k] = &flipped;
            }
            expectNamed(dropped, op, "a missing input");
            expectNamed(transposed, op, "transposed extents");
        });
        EXPECT_EQ(inputs + 1, info.denseOperands.size()) << algorithmName(alg);
    }
}

/** Median is finite and positive, and every measure() call counts once. */
void
expectSaneWallclock(KernelBackend& engine)
{
    Rng rng(23);
    auto m = randomMatrix(64, 64, 300, rng);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 64, 64);
    WallclockMeasurer measurer(engine);
    EXPECT_EQ(&measurer.engine(), &engine);
    for (u64 call = 1; call <= 2; ++call) {
        Measurement r = measurer.measure(m, shape, defaultSchedule(shape));
        EXPECT_TRUE(r.valid) << r.invalidReason;
        EXPECT_TRUE(std::isfinite(r.seconds));
        EXPECT_GT(r.seconds, 0.0);
        EXPECT_EQ(measurer.measurementCount(), call);
    }
}

TEST(ExecMeasure, MedianWallClockIsPositive)
{
    expectSaneWallclock(interpreterBackend());
}

TEST(ExecMeasure, CompiledMedianWallClockIsPositive)
{
    if (!compiledBackend().compilerAvailable())
        GTEST_SKIP() << "no working system C compiler";
    expectSaneWallclock(compiledBackend());
}

} // namespace
} // namespace waco
