/**
 * @file
 * End-to-end integration tests of the WacoTuner pipeline: dataset ->
 * training -> KNN graph -> ANNS search -> top-k re-measurement, for both
 * 2D kernels and MTTKRP, on deliberately tiny configurations.
 */
#include <gtest/gtest.h>

#include "core/waco_tuner.hpp"
#include "data/generators.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace waco {
namespace {

WacoOptions
tinyOptions()
{
    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 4;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = 12;
    opt.train.epochs = 4;
    opt.train.batchSchedules = 10;
    opt.topK = 5;
    opt.efSearch = 16;
    return opt;
}

class WacoTunerTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogLevel(LogLevel::Off); }
    void TearDown() override { setLogLevel(LogLevel::Info); }
};

TEST_F(WacoTunerTest, EndToEndSpmm)
{
    CorpusOptions copt;
    copt.count = 8;
    copt.minDim = 256;
    copt.maxDim = 1024;
    copt.minNnz = 800;
    copt.maxNnz = 4000;
    auto corpus = makeCorpus(copt, 51);

    WacoTuner tuner(Algorithm::SpMM, MachineConfig::intel24(), tinyOptions());
    auto history = tuner.train(corpus);
    EXPECT_EQ(history.size(), 4u);
    EXPECT_GT(tuner.graphSchedules().size(), 20u);

    Rng rng(52);
    auto test_matrix = genDenseBlocks(512, 512, 8, 60, 0.9, rng);
    auto outcome = tuner.tune(test_matrix);
    EXPECT_TRUE(outcome.bestMeasured.valid);
    EXPECT_GT(outcome.bestMeasured.seconds, 0.0);
    EXPECT_LE(outcome.topK.size(), 5u);
    EXPECT_GE(outcome.topK.size(), 1u);
    EXPECT_GT(outcome.costEvaluations, 0u);
    EXPECT_GT(outcome.featureSeconds, 0.0);
    EXPECT_GT(outcome.tuningSeconds(), 0.0);
    EXPECT_GT(outcome.convertSeconds, 0.0);

    // The winner must beat (or at worst match) the slowest top-k candidate
    // it was re-measured against — otherwise "fastest of top-k" is broken.
    for (const auto& m : outcome.topKMeasured) {
        if (m.valid) {
            EXPECT_LE(outcome.bestMeasured.seconds, m.seconds + 1e-12);
        }
    }
}

/** The fused workspace kernel rides the identical pipeline: dataset
 *  sampling gates on the schedule verifier (S015 keeps scope loops
 *  outermost), the oracle walks fused nests, and tune() re-measures the
 *  top-k — a full tune→measure→train cycle over FusedSDDMMSpMM. */
TEST_F(WacoTunerTest, EndToEndFusedSddmmSpmm)
{
    CorpusOptions copt;
    copt.count = 8;
    copt.minDim = 256;
    copt.maxDim = 1024;
    copt.minNnz = 800;
    copt.maxNnz = 4000;
    auto corpus = makeCorpus(copt, 53);

    WacoTuner tuner(Algorithm::FusedSDDMMSpMM, MachineConfig::intel24(),
                    tinyOptions());
    auto history = tuner.train(corpus);
    EXPECT_EQ(history.size(), 4u);
    EXPECT_GT(tuner.graphSchedules().size(), 20u);

    Rng rng(54);
    auto test_matrix = genDenseBlocks(512, 512, 8, 60, 0.9, rng);
    auto outcome = tuner.tune(test_matrix);
    EXPECT_TRUE(outcome.bestMeasured.valid);
    EXPECT_GT(outcome.bestMeasured.seconds, 0.0);
    EXPECT_LE(outcome.topK.size(), 5u);
    EXPECT_GE(outcome.topK.size(), 1u);
    EXPECT_GT(outcome.costEvaluations, 0u);
    for (const auto& m : outcome.topKMeasured) {
        if (m.valid) {
            EXPECT_LE(outcome.bestMeasured.seconds, m.seconds + 1e-12);
        }
    }
}

TEST_F(WacoTunerTest, EndToEndMttkrp)
{
    CorpusOptions copt;
    copt.count = 4;
    copt.minDim = 128;
    copt.maxDim = 256;
    copt.minNnz = 500;
    copt.maxNnz = 1500;
    auto corpus = makeCorpus3d(copt, 61);

    WacoTuner tuner(Algorithm::MTTKRP, MachineConfig::intel24(),
                    tinyOptions());
    tuner.train(corpus);

    Rng rng(62);
    auto t = genTensor3(100, 90, 80, 900, rng);
    auto outcome = tuner.tune(t);
    EXPECT_TRUE(outcome.bestMeasured.valid);
    EXPECT_GT(outcome.bestMeasured.seconds, 0.0);
}

TEST_F(WacoTunerTest, TuneBeforeTrainThrows)
{
    WacoTuner tuner(Algorithm::SpMV, MachineConfig::intel24(), tinyOptions());
    Rng rng(63);
    auto m = genUniform(128, 128, 500, rng);
    EXPECT_THROW(tuner.tune(m), FatalError);
}

/** A small labeled dataset: enough for attachDataset() to build a graph
 *  (no training needed). */
CostDataset
smallDataset(Algorithm alg, u64 seed)
{
    CorpusOptions copt;
    copt.count = 3;
    copt.minDim = 64;
    copt.maxDim = 128;
    copt.minNnz = 200;
    copt.maxNnz = 600;
    RuntimeOracle oracle(MachineConfig::intel24());
    return buildDataset(alg, makeCorpus(copt, seed), oracle, 6, seed);
}

TEST_F(WacoTunerTest, DatasetOfAnotherAlgorithmFailsToAttach)
{
    // Legality is decided once, when the graph is built: a node labeled
    // for another algorithm can never run, so none of them enters it.
    CostDataset spmv = smallDataset(Algorithm::SpMV, 81);
    ASSERT_FALSE(spmv.allSchedules().empty());
    WacoTuner tuner(Algorithm::SpMM, MachineConfig::intel24(), tinyOptions());
    EXPECT_THROW(tuner.attachDataset(spmv), FatalError);

    WacoTuner same(Algorithm::SpMV, MachineConfig::intel24(), tinyOptions());
    same.attachDataset(spmv);
    EXPECT_EQ(same.graphSchedules().size(), spmv.allSchedules().size());
}

TEST_F(WacoTunerTest, ZeroExtentInputFailsBeforeExtraction)
{
    WacoTuner tuner(Algorithm::SpMM, MachineConfig::intel24(), tinyOptions());
    tuner.attachDataset(smallDataset(Algorithm::SpMM, 82));

    trace::clear();
    trace::setEnabled(true);
    std::string what;
    try {
        tuner.tune(SparseMatrix(0, 16, {}));
    } catch (const FatalError& e) {
        what = e.what();
    }
    trace::setEnabled(false);
    EXPECT_NE(what.find("index 'i'"), std::string::npos) << what;
    EXPECT_NE(what.find("extent 0"), std::string::npos) << what;
    for (const trace::SpanRecord& span : trace::snapshot())
        EXPECT_NE(span.name, "tune.extract");
    trace::clear();
}

TEST_F(WacoTunerTest, TunedScheduleIsCompetitiveWithDefault)
{
    // On a pattern family present in training, WACO's pick should not be
    // drastically worse than the fixed default — and usually better.
    CorpusOptions copt;
    copt.count = 8;
    copt.minDim = 512;
    copt.maxDim = 1024;
    copt.minNnz = 2000;
    copt.maxNnz = 8000;
    auto corpus = makeCorpus(copt, 71);
    auto opt = tinyOptions();
    opt.train.epochs = 6;
    WacoTuner tuner(Algorithm::SpMV, MachineConfig::intel24(), opt);
    tuner.train(corpus);

    Rng rng(72);
    auto m = genPowerLawRows(1024, 1024, 8000, 1.3, rng);
    auto outcome = tuner.tune(m);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 1024, 1024);
    auto def = tuner.oracle().measure(m, shape, defaultSchedule(shape));
    EXPECT_LT(outcome.bestMeasured.seconds, def.seconds * 1.5);
}

} // namespace
} // namespace waco
