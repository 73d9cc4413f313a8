/**
 * @file
 * Tests of the learned cost model: embedding determinism, prediction
 * plumbing, and that a small model actually learns to rank schedules for a
 * toy dataset (loss decreases, ranking accuracy beats chance).
 */
#include <gtest/gtest.h>

#include "core/dataset.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "model/waco_model.hpp"

namespace waco {
namespace {

ExtractorConfig
tinyConfig()
{
    ExtractorConfig cfg;
    cfg.channels = 8;
    cfg.numLayers = 4;
    cfg.featureDim = 32;
    return cfg;
}

TEST(WacoModel, EmbeddingsDeterministicAndDistinct)
{
    WacoCostModel model(Algorithm::SpMM, "waconet", tinyConfig(), 1);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 64, 64);
    Rng rng(2);
    SuperScheduleSpace space(Algorithm::SpMM, shape);
    auto a = space.sample(rng);
    auto b = space.sample(rng);
    ASSERT_NE(a.key(), b.key());
    auto e1 = model.programEmbeddings({a, b});
    auto e2 = model.programEmbeddings({a, b});
    EXPECT_EQ(e1.v, e2.v);
    double diff = 0.0;
    for (u32 c = 0; c < e1.cols; ++c)
        diff += std::abs(e1.at(0, c) - e1.at(1, c));
    EXPECT_GT(diff, 1e-6); // different schedules embed differently
}

TEST(WacoModel, PredictMatchesEmbeddingFastPath)
{
    WacoCostModel model(Algorithm::SpMV, "human", tinyConfig(), 3);
    Rng rng(4);
    auto m = genUniform(64, 64, 400, rng);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 64, 64);
    SuperScheduleSpace space(Algorithm::SpMV, shape);
    std::vector<SuperSchedule> batch = {space.sample(rng), space.sample(rng)};
    auto feature = model.extractFeature(m);
    auto direct = model.predict(feature, batch);
    auto emb = model.programEmbeddings(batch);
    auto fast = model.predictFromEmbeddings(feature, emb);
    ASSERT_EQ(direct.rows, fast.rows);
    for (u32 n = 0; n < direct.rows; ++n)
        EXPECT_FLOAT_EQ(direct.at(n, 0), fast.at(n, 0));
}

TEST(WacoModel, LearnsToRankToyDataset)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    CorpusOptions copt;
    copt.count = 6;
    copt.minDim = 256;
    copt.maxDim = 512;
    copt.minNnz = 500;
    copt.maxNnz = 2000;
    auto corpus = makeCorpus(copt, 11);
    auto ds = buildDataset(Algorithm::SpMV, corpus, oracle, 16, 12);

    WacoCostModel model(Algorithm::SpMV, "waconet", tinyConfig(), 13);
    TrainOptions topt;
    topt.epochs = 20;
    topt.batchSchedules = 12;
    auto history = trainCostModel(model, ds, topt);
    ASSERT_EQ(history.size(), 20u);
    EXPECT_LT(history.back().trainLoss, history.front().trainLoss);
    EXPECT_GT(history.back().valOrderAccuracy, 0.55);
}

TEST(WacoModel, SaveLoadPreservesPredictions)
{
    WacoCostModel a(Algorithm::SpMM, "human", tinyConfig(), 21);
    WacoCostModel b(Algorithm::SpMM, "human", tinyConfig(), 22);
    Rng rng(23);
    auto m = genUniform(64, 64, 300, rng);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 64, 64);
    SuperScheduleSpace space(Algorithm::SpMM, shape);
    std::vector<SuperSchedule> batch = {space.sample(rng), space.sample(rng)};
    std::string path = ::testing::TempDir() + "/waco_model.bin";
    a.save(path);
    b.load(path);
    auto fa = a.extractFeature(m);
    auto fb = b.extractFeature(m);
    auto pa = a.predict(fa, batch);
    auto pb = b.predict(fb, batch);
    for (u32 n = 0; n < pa.rows; ++n)
        EXPECT_FLOAT_EQ(pa.at(n, 0), pb.at(n, 0));
    std::remove(path.c_str());
}

TEST(Dataset, BuildsSplitsAndDedups)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    CorpusOptions copt;
    copt.count = 5;
    copt.minDim = 128;
    copt.maxDim = 256;
    copt.minNnz = 200;
    copt.maxNnz = 800;
    auto corpus = makeCorpus(copt, 31);
    auto ds = buildDataset(Algorithm::SpMM, corpus, oracle, 8, 32);
    EXPECT_EQ(ds.entries.size(), 5u);
    EXPECT_GE(ds.trainIds.size(), 1u);
    EXPECT_GE(ds.valIds.size(), 1u);
    EXPECT_EQ(ds.trainIds.size() + ds.valIds.size(), ds.entries.size());
    for (const auto& e : ds.entries) {
        EXPECT_GE(e.samples.size(), 2u);
        for (const auto& s : e.samples) {
            EXPECT_TRUE(std::isfinite(s.runtime));
            EXPECT_GT(s.runtime, 0.0);
        }
    }
    auto all = ds.allSchedules();
    std::set<std::string> keys;
    for (const auto& s : all)
        keys.insert(s.key());
    EXPECT_EQ(keys.size(), all.size()); // dedup by key
}

TEST(Dataset, ThreeDimensionalPath)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    CorpusOptions copt;
    copt.count = 3;
    copt.minDim = 64;
    copt.maxDim = 128;
    copt.minNnz = 300;
    copt.maxNnz = 900;
    auto corpus = makeCorpus3d(copt, 41);
    auto ds = buildDataset(Algorithm::MTTKRP, corpus, oracle, 6, 42);
    EXPECT_EQ(ds.entries.size(), 3u);
    EXPECT_TRUE(ds.entries[0].is3d);
    EXPECT_EQ(ds.entries[0].input().order(), 3u);
}

} // namespace
} // namespace waco
