/**
 * @file
 * Tests for the four baselines: contract checks (supported algorithms,
 * valid measurements) and sanity of their tuning behaviour (the inspector
 * never loses to its own naive mode on its chosen metric, the format
 * classifier separates obviously-different patterns).
 */
#include <gtest/gtest.h>

#include "analysis/schedule_verifier.hpp"

#include "baselines/baselines.hpp"
#include "data/generators.hpp"

namespace waco {
namespace {

class BaselineTest : public ::testing::Test
{
  protected:
    RuntimeOracle oracle{MachineConfig::intel24()};
};

TEST_F(BaselineTest, FixedCsrMeasuresDefaults)
{
    Rng rng(1);
    auto m = genUniform(512, 512, 4000, rng);
    auto r = fixedCsr(oracle, m, Algorithm::SpMM);
    EXPECT_TRUE(r.measured.valid);
    EXPECT_GT(r.measured.seconds, 0.0);
    EXPECT_EQ(r.schedule.ompChunk, 32u);
    EXPECT_GT(r.convertSeconds, 0.0);
    auto rv = fixedCsr(oracle, m, Algorithm::SpMV);
    EXPECT_EQ(rv.schedule.ompChunk, 128u);
}

TEST_F(BaselineTest, FixedCsfForTensors)
{
    Rng rng(2);
    auto t = genTensor3(200, 150, 100, 3000, rng);
    auto r = fixedCsr(oracle, t, Algorithm::MTTKRP);
    EXPECT_TRUE(r.measured.valid);
    EXPECT_GT(r.measured.seconds, 0.0);
}

TEST_F(BaselineTest, MklTunesScheduleOnly)
{
    Rng rng(3);
    auto m = genPowerLawRows(4096, 4096, 60000, 1.3, rng);
    MklLike mkl(oracle);
    EXPECT_TRUE(mkl.supports(Algorithm::SpMV));
    EXPECT_FALSE(mkl.supports(Algorithm::SDDMM));
    auto tuned = mkl.tune(m, Algorithm::SpMM);
    auto naive = mkl.naive(m, Algorithm::SpMM);
    EXPECT_TRUE(tuned.measured.valid);
    // The inspector explored the naive point's neighborhood, so it can
    // never be slower than the best config it tried.
    EXPECT_LE(tuned.measured.seconds, naive.measured.seconds * 1.01);
    EXPECT_GT(tuned.tuningSeconds, 0.0);
    EXPECT_EQ(tuned.convertSeconds, 0.0); // format pinned to CSR
    // Format must still be CSR.
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 4096, 4096);
    EXPECT_EQ(formatOf(tuned.schedule, shape),
              FormatDescriptor::csr(4096, 4096));
}

TEST_F(BaselineTest, BestFormatCandidatesAreValidAndDistinct)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 1024, 1024);
    BestFormat bf(oracle);
    auto cands = bf.candidates(shape);
    ASSERT_EQ(cands.size(), 5u);
    std::set<std::string> keys;
    for (const auto& c : cands) {
        EXPECT_FALSE(analysis::verifySchedule(c, shape).hasErrors())
            << c.key();
        keys.insert(formatOf(c, shape).name());
    }
    EXPECT_EQ(keys.size(), 5u) << "all five formats distinct";
}

TEST_F(BaselineTest, BestFormatSeparatesBlockyFromScattered)
{
    // Train on a corpus with obvious structure, check it classifies a
    // held-out blocky matrix differently from a scattered one.
    Rng rng(4);
    std::vector<SparseMatrix> corpus;
    for (int i = 0; i < 6; ++i) {
        corpus.push_back(genBlockDiagonal(512 + 64 * i, 16, rng));
        corpus.push_back(genUniform(512 + 64 * i, 512 + 64 * i, 3000, rng));
    }
    BestFormat bf(oracle);
    bf.train(Algorithm::SpMM, corpus);
    auto blocky = genBlockDiagonal(768, 16, rng);
    auto r = bf.tune(blocky);
    EXPECT_TRUE(r.measured.valid);
    EXPECT_GT(r.measured.seconds, 0.0);
    EXPECT_GT(r.convertSeconds, 0.0);
    // The chosen format should not lose badly to plain CSR on its pick.
    auto csr = fixedCsr(oracle, blocky, Algorithm::SpMM);
    EXPECT_LT(r.measured.seconds, csr.measured.seconds * 2.0);
}

TEST_F(BaselineTest, AsptSplitsDenseAndSparse)
{
    Rng rng(5);
    // Half dense blocks, half scattered: ASpT should produce a finite
    // two-phase measurement and a real inspection cost.
    auto blocks = genDenseBlocks(2048, 2048, 16, 300, 0.95, rng);
    Aspt aspt(oracle);
    EXPECT_TRUE(aspt.supports(Algorithm::SpMM));
    EXPECT_FALSE(aspt.supports(Algorithm::SpMV));
    auto r = aspt.tune(blocks, Algorithm::SpMM);
    EXPECT_TRUE(r.measured.valid);
    EXPECT_GT(r.measured.seconds, 0.0);
    EXPECT_GT(r.tuningSeconds, 0.0);
}

} // namespace
} // namespace waco
