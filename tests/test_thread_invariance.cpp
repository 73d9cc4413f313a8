/**
 * @file
 * Thread-count invariance of the one nest driver (driveLoopNest).
 *
 * For every algorithm, fuzzed schedules (sampled as in LoopNestFuzz) run
 * with non-integer float operands at par.threads ∈ {1, 2, 4, 8} and a
 * small chunk, through both engines. Every output must be bitwise equal
 * to the serial interpreter's. The integer operands of LoopNestFuzz make
 * float accumulation exact in any order, so they cannot see a chunking
 * change that reorders a reduction; these operands can. The compiled
 * half is skipped on hosts without a C compiler.
 *
 * The suite is registered under the `tsan` and `codegen` ctest labels
 * too (tests/CMakeLists.txt), so ThreadSanitizer covers the driver's
 * parallel path for both engines.
 */
#include <gtest/gtest.h>

#include <bit>
#include <optional>

#include "codegen/kernel_backend.hpp"
#include "util/rng.hpp"

namespace waco {
namespace {

constexpr u32 kThreadCounts[] = {1, 2, 4, 8};
constexpr u32 kChunk = 3;

float
nonInteger(Rng& rng)
{
    return static_cast<float>(rng.uniformReal(-1.0, 1.0));
}

/** Bit patterns of every output value, in storage order. */
std::vector<u32>
bitsOf(const LoopNestResult& r)
{
    std::vector<u32> bits;
    for (float v : r.vec.data())
        bits.push_back(std::bit_cast<u32>(v));
    for (float v : r.mat.data())
        bits.push_back(std::bit_cast<u32>(v));
    for (float v : r.sparse.values())
        bits.push_back(std::bit_cast<u32>(v));
    return bits;
}

/** Non-integer dense operands for one schedule, laid out as it chose and
 *  drawn from @p rng in table order, each in storage order. */
DenseInputs
makeOperands(const SuperSchedule& s, const LoopNest& nest,
             const HierSparseTensor& t, Rng& rng)
{
    return makeDenseInputs(nest, inputRowMajorOf(s), t,
                           [&](std::size_t, std::vector<float>& values) {
                               for (auto& x : values)
                                   x = nonInteger(rng);
                           });
}

/**
 * Run @p target sampled schedules of @p alg through both engines at every
 * thread count and demand bitwise equality with the serial interpreter.
 * Returns how many of them had a parallel top loop — a sample without one
 * would never leave the serial path.
 */
u32
checkInvariance(Algorithm alg, u32 target, u64 seed)
{
    Rng rng(seed);
    const bool tensor3 = algorithmInfo(alg).sparseOrder == 3;
    auto shape = tensor3 ? ProblemShape::forTensor3(alg, 16, 12, 10, 8)
                         : ProblemShape::forMatrix(alg, 48, 40, 6);
    SuperScheduleSpace space(alg, shape);

    // The sparse dimensions are indices 0.. of every algorithm.
    const auto& ext = shape.indexExtent;
    std::optional<SparseMatrix> m;
    std::optional<Sparse3Tensor> t3;
    if (tensor3) {
        std::vector<Quad> q;
        for (u32 n = 0; n < 250; ++n) {
            q.push_back({static_cast<u32>(rng.index(ext[0])),
                         static_cast<u32>(rng.index(ext[1])),
                         static_cast<u32>(rng.index(ext[2])),
                         nonInteger(rng)});
        }
        t3.emplace(ext[0], ext[1], ext[2], q);
    } else {
        std::vector<Triplet> t;
        for (u32 n = 0; n < 400; ++n) {
            t.push_back({static_cast<u32>(rng.index(ext[0])),
                         static_cast<u32>(rng.index(ext[1])),
                         nonInteger(rng)});
        }
        m.emplace(ext[0], ext[1], t);
    }
    const SparseInput in = tensor3 ? SparseInput(*t3) : SparseInput(*m);
    const bool compiled = compiledBackend().compilerAvailable();

    u32 executed = 0, parallel = 0, attempts = 0;
    while (executed < target && attempts < 20 * target) {
        ++attempts;
        SuperSchedule s = space.sample(rng);
        std::optional<HierSparseTensor> t;
        try {
            t = HierSparseTensor::build(formatOf(s, shape), in);
        } catch (const FormatTooLarge&) {
            continue;
        }
        LoopNest nest = lower(s, shape);
        const DenseInputs o = makeOperands(s, nest, *t, rng);
        parallel += topLoopParallelizable(nest) ? 1 : 0;

        const auto want = bitsOf(executeLoopNest(nest, o.args, {1, kChunk}));
        for (u32 threads : kThreadCounts) {
            const ParallelConfig par{threads, kChunk};
            EXPECT_EQ(want, bitsOf(interpreterBackend().execute(nest, o.args,
                                                                par)))
                << "interpreter, " << threads << " threads: " << s.key();
            if (!compiled)
                continue;
            auto before = compiledBackend().stats().fallbacks;
            EXPECT_EQ(want,
                      bitsOf(compiledBackend().execute(nest, o.args, par)))
                << "compiled, " << threads << " threads: " << s.key();
            EXPECT_EQ(compiledBackend().stats().fallbacks, before)
                << compiledBackend().lastError();
        }
        ++executed;
    }
    EXPECT_EQ(executed, target) << "too many sampled formats skipped";
    return parallel;
}

/** The interpreter half always runs; the test reports SKIPPED when the
 *  compiled half could not. */
void
expectInvariant(Algorithm alg, u64 seed)
{
    EXPECT_GT(checkInvariance(alg, 12, seed), 0u)
        << "no sampled schedule had a parallel top loop";
    if (!compiledBackend().compilerAvailable())
        GTEST_SKIP() << "compiled half needs a system C compiler";
}

TEST(ThreadCountInvariance, Spmv)
{
    expectInvariant(Algorithm::SpMV, 111);
}

TEST(ThreadCountInvariance, Spmm)
{
    expectInvariant(Algorithm::SpMM, 222);
}

TEST(ThreadCountInvariance, Sddmm)
{
    expectInvariant(Algorithm::SDDMM, 333);
}

TEST(ThreadCountInvariance, Mttkrp)
{
    expectInvariant(Algorithm::MTTKRP, 444);
}

TEST(ThreadCountInvariance, FusedSddmmSpmm)
{
    expectInvariant(Algorithm::FusedSDDMMSpMM, 555);
}

} // namespace
} // namespace waco
