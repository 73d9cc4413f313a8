/**
 * @file
 * Tests for the SuperSchedule template: sampling validity, degeneration of
 * split-1 slots, format derivation, concordance, and the default schedules.
 */
#include <gtest/gtest.h>

#include "analysis/schedule_verifier.hpp"
#include "ir/schedule.hpp"

namespace waco {
namespace {

TEST(Algorithm, StaticDescriptions)
{
    const auto& spmm = algorithmInfo(Algorithm::SpMM);
    EXPECT_EQ(spmm.numIndices, 3u);
    EXPECT_EQ(spmm.sparseOrder, 2u);
    EXPECT_TRUE(spmm.isReduction[1]); // k
    EXPECT_EQ(spmm.denseExtent[2], 256u);

    const auto& sddmm = algorithmInfo(Algorithm::SDDMM);
    EXPECT_FALSE(sddmm.isReduction[0]);
    EXPECT_FALSE(sddmm.isReduction[1]); // j parallelizable (Section 5.2.1)
    EXPECT_TRUE(sddmm.isReduction[2]);

    const auto& mttkrp = algorithmInfo(Algorithm::MTTKRP);
    EXPECT_EQ(mttkrp.sparseOrder, 3u);
    EXPECT_EQ(mttkrp.denseExtent[3], 16u);

    const auto& fused = algorithmInfo(Algorithm::FusedSDDMMSpMM);
    EXPECT_EQ(fused.numIndices, 4u);
    EXPECT_EQ(fused.sparseOrder, 2u);
    EXPECT_TRUE(fused.isReduction[1]);  // j: reduced into E
    EXPECT_TRUE(fused.isReduction[2]);  // k: reduced into the workspace
    EXPECT_FALSE(fused.isReduction[3]); // m
    EXPECT_TRUE(fused.usesWorkspace);
    EXPECT_EQ(fused.workspaceIndex, 1u); // w is indexed by j
    EXPECT_TRUE(fused.scopeIndex[0]);    // workspace private per row i
    EXPECT_FALSE(fused.scopeIndex[1]);
    EXPECT_TRUE(fused.producerIndex[2]); // producer reduces over k
    EXPECT_FALSE(fused.producerIndex[3]);
    EXPECT_TRUE(fused.consumerIndex[3]); // consumer expands along m
    EXPECT_FALSE(fused.consumerIndex[2]);

    // Single-expression kernels never declare a workspace.
    for (Algorithm alg :
         {Algorithm::SpMV, Algorithm::SpMM, Algorithm::SDDMM,
          Algorithm::MTTKRP}) {
        EXPECT_FALSE(algorithmInfo(alg).usesWorkspace)
            << algorithmName(alg);
    }

    // Name round trip (the tune_cli --alg surface).
    for (Algorithm alg : allAlgorithms()) {
        Algorithm back;
        EXPECT_TRUE(algorithmFromName(algorithmName(alg), back));
        EXPECT_EQ(back, alg);
    }
    Algorithm fused_alg;
    EXPECT_TRUE(algorithmFromName("fused_sddmm_spmm", fused_alg));
    EXPECT_EQ(fused_alg, Algorithm::FusedSDDMMSpMM);
    EXPECT_FALSE(algorithmFromName("no_such_kernel", fused_alg));
}

TEST(SuperSchedule, DefaultIsCsrConcordant)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 100, 80);
    auto s = defaultSchedule(shape);
    EXPECT_EQ(s.ompChunk, 32u);
    EXPECT_DOUBLE_EQ(concordance(s), 1.0);
    auto fmt = formatOf(s, shape);
    EXPECT_EQ(fmt, FormatDescriptor::csr(100, 80));
}

TEST(SuperSchedule, DefaultSpmvChunkIs128)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 100, 80);
    EXPECT_EQ(defaultSchedule(shape).ompChunk, 128u);
}

TEST(SuperSchedule, DefaultMttkrpIsCsf)
{
    auto shape = ProblemShape::forTensor3(Algorithm::MTTKRP, 10, 20, 30);
    auto s = defaultSchedule(shape);
    EXPECT_EQ(formatOf(s, shape), FormatDescriptor::csf3d(10, 20, 30));
}

TEST(SuperSchedule, SplitOneDegenerates)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 64, 64);
    auto s = defaultSchedule(shape);
    EXPECT_EQ(s.loopOrder.size(), 4u);       // i1 i0 k1 k0 in the template
    EXPECT_EQ(activeLoopOrder(s).size(), 2u); // i, k after degeneration
}

TEST(SuperSchedule, SplitRestoresBcsrFormat)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 64, 64);
    auto s = defaultSchedule(shape);
    s.splits[0] = 4;
    s.splits[1] = 8;
    s.sparseLevelOrder = {outerSlot(0), outerSlot(1), innerSlot(0),
                          innerSlot(1)};
    s.sparseLevelFormats = {LevelFormat::Uncompressed, LevelFormat::Compressed,
                            LevelFormat::Uncompressed,
                            LevelFormat::Uncompressed};
    EXPECT_EQ(formatOf(s, shape), FormatDescriptor::bcsr(64, 64, 4, 8));
}

TEST(SuperSchedule, ConcordanceDetectsInvertedLoops)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 64, 64);
    auto s = defaultSchedule(shape);
    // Reverse the loop order: k before i while A is stored i-major.
    std::reverse(s.loopOrder.begin(), s.loopOrder.end());
    EXPECT_LT(concordance(s), 1.0);
}

TEST(SuperSchedule, KeyDistinguishesParameters)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 64, 64);
    auto a = defaultSchedule(shape);
    auto b = a;
    EXPECT_EQ(a.key(), b.key());
    b.ompChunk = 64;
    EXPECT_NE(a.key(), b.key());
    b = a;
    b.sparseLevelFormats[3] = LevelFormat::Uncompressed;
    EXPECT_NE(a.key(), b.key());
}

TEST(SuperSchedule, ValidateRejectsParallelReduction)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 64, 64);
    auto s = defaultSchedule(shape);
    s.parallelSlot = outerSlot(1); // k is the reduction index of SpMM
    // The diagnostics API names the exact violation.
    auto diags = analysis::verifySchedule(s, shape);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(analysis::DiagCode::S009_ParallelReduction));
}

TEST(SuperScheduleSpace, TableThreeParameterRanges)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 100000, 100000);
    SuperScheduleSpace space(Algorithm::SpMV, shape);
    // split in [1, 32768] powers of two
    EXPECT_EQ(space.splitOptions(0).front(), 1u);
    EXPECT_EQ(space.splitOptions(0).back(), 32768u);
    // threads in {24, 48}; chunk in [1, 256] powers of two
    EXPECT_EQ(space.threadOptions(), (std::vector<u32>{24, 48}));
    EXPECT_EQ(space.chunkOptions().back(), 256u);
    // parallelizable: i1 and i0 only (k is a reduction)
    EXPECT_EQ(space.parallelOptions(),
              (std::vector<u32>{outerSlot(0), innerSlot(0)}));
    EXPECT_GT(space.log10Size(), 6.0); // an enormous space
}

class SampledSchedules
    : public ::testing::TestWithParam<std::tuple<int, u64>> {};

TEST_P(SampledSchedules, AlwaysValid)
{
    Algorithm alg = static_cast<Algorithm>(std::get<0>(GetParam()));
    Rng rng(std::get<1>(GetParam()));
    ProblemShape shape = algorithmInfo(alg).sparseOrder == 3
        ? ProblemShape::forTensor3(alg, 50, 40, 30)
        : ProblemShape::forMatrix(alg, 120, 90);
    SuperScheduleSpace space(alg, shape);
    for (int n = 0; n < 25; ++n) {
        auto s = space.sample(rng);
        EXPECT_FALSE(analysis::verifySchedule(s, shape).hasErrors())
            << s.key();
        auto mutated = space.mutate(s, rng);
        EXPECT_FALSE(analysis::verifySchedule(mutated, shape).hasErrors())
            << mutated.key();
        // The format half must always be constructible as a descriptor.
        EXPECT_NO_THROW(formatOf(s, shape)) << s.key();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SampledSchedules,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(1u, 2u, 3u)));

} // namespace
} // namespace waco
