/**
 * @file
 * Fault-tolerance tests: seeded fault injection determinism, bounded retry
 * + median-of-k denoising, NaN-safe training with best-checkpoint rollback,
 * resumable corpus labeling (kill + resume == uninterrupted), checksummed
 * dataset files, and tuner fallback when every top-k candidate faults.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/dataset_io.hpp"
#include "core/waco_tuner.hpp"
#include "data/generators.hpp"
#include "perfmodel/faulty_oracle.hpp"
#include "perfmodel/robust_measure.hpp"

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

std::vector<SparseMatrix>
smallCorpus(u64 seed, u32 count = 6)
{
    CorpusOptions copt;
    copt.count = count;
    copt.minDim = 128;
    copt.maxDim = 256;
    copt.minNnz = 200;
    copt.maxNnz = 800;
    return makeCorpus(copt, seed);
}

std::string
fileBytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeBytes(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** One observed FaultyOracle outcome, comparable across replays. */
struct Observed
{
    bool threw = false;
    bool valid = false;
    double seconds = 0.0;
    std::string reason;

    bool
    operator==(const Observed& o) const
    {
        return threw == o.threw && valid == o.valid &&
               seconds == o.seconds && reason == o.reason;
    }
};

Observed
observe(const MeasurementBackend& b, const SparseMatrix& m,
        const ProblemShape& shape, const SuperSchedule& s)
{
    Observed o;
    try {
        Measurement r = b.measure(m, shape, s);
        o.valid = r.valid;
        o.seconds = r.seconds;
        o.reason = r.invalidReason;
    } catch (const MeasurementError&) {
        o.threw = true;
    }
    return o;
}

TEST(FaultyOracle, SeededFaultSequenceIsDeterministic)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    Rng rng(5);
    auto m = genUniform(128, 128, 600, rng);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 128, 128);
    auto s = defaultSchedule(shape);

    FaultConfig cfg;
    cfg.failProb = 0.3;
    cfg.noiseSigma = 0.2;
    cfg.seed = 99;
    FaultyOracle a(oracle, cfg);
    FaultyOracle b(oracle, cfg);
    cfg.seed = 100;
    FaultyOracle c(oracle, cfg);

    u32 diffs_same_seed = 0, diffs_other_seed = 0, faults = 0;
    for (int i = 0; i < 60; ++i) {
        Observed oa = observe(a, m, shape, s);
        Observed ob = observe(b, m, shape, s);
        Observed oc = observe(c, m, shape, s);
        diffs_same_seed += !(oa == ob);
        diffs_other_seed += !(oa == oc);
        faults += oa.threw || !oa.valid;
    }
    EXPECT_EQ(diffs_same_seed, 0u);  // same seed => identical fault stream
    EXPECT_GT(diffs_other_seed, 0u); // different seed => different stream
    EXPECT_GT(faults, 0u);           // 30% failure rate actually fires
    EXPECT_LT(faults, 60u);          // ... but not always
    EXPECT_EQ(a.stats().calls, 60u);
    EXPECT_EQ(a.stats().faults(), a.stats().thrown + a.stats().invalid);
}

TEST(RobustMeasurer, TimeoutBudgetKillsSlowSchedules)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    Rng rng(6);
    auto m = genUniform(128, 128, 600, rng);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 128, 128);
    auto s = defaultSchedule(shape);

    double truth = oracle.measure(m, shape, s).seconds;
    RetryPolicy policy;
    policy.timeoutSeconds = truth / 2.0; // budget below the true runtime
    RobustMeasurer slow(oracle, policy);
    auto r = slow.measure(m, shape, s);
    EXPECT_FALSE(r.valid);
    EXPECT_EQ(r.invalidReason, "timeout");
    // The reported time is clamped to the budget (the wall clock actually
    // burned before the kill), not +inf: aggregate stats stay finite.
    EXPECT_TRUE(std::isfinite(r.seconds));
    EXPECT_DOUBLE_EQ(r.seconds, policy.timeoutSeconds);
    EXPECT_EQ(slow.stats().timeouts, 1u);

    policy.timeoutSeconds = truth * 2.0; // generous budget: passes through
    RobustMeasurer fast(oracle, policy);
    auto ok = fast.measure(m, shape, s);
    EXPECT_TRUE(ok.valid);
    EXPECT_DOUBLE_EQ(ok.seconds, truth);
}

TEST(RobustMeasurer, RetryStatsAndRecovery)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    Rng rng(7);
    auto m = genUniform(128, 128, 600, rng);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 128, 128);
    auto s = defaultSchedule(shape);

    FaultConfig cfg;
    cfg.failProb = 0.5;
    cfg.seed = 17;
    FaultyOracle flaky(oracle, cfg);
    RetryPolicy policy;
    policy.maxAttempts = 6;
    policy.medianOf = 3;
    RobustMeasurer robust(flaky, policy);

    double truth = oracle.measure(m, shape, s).seconds;
    for (int i = 0; i < 10; ++i) {
        auto r = robust.measure(m, shape, s);
        ASSERT_TRUE(r.valid) << "call " << i;
        EXPECT_DOUBLE_EQ(r.seconds, truth); // no noise => exact median
    }
    const auto& st = robust.stats();
    EXPECT_EQ(st.calls, 10u);
    EXPECT_EQ(st.discarded, 0u);
    EXPECT_GE(st.attempts, 30u); // 3 samples per call minimum
    EXPECT_GT(st.retries, 0u);   // 50% failure rate forced retries
    EXPECT_GT(st.faults + st.invalid, 0u);
    EXPECT_EQ(st.attempts, 30u + st.retries); // every extra attempt retried
}

TEST(RobustMeasurer, MedianOfKDenoisesNoisyBackend)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    Rng rng(8);
    auto m = genUniform(128, 128, 600, rng);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 128, 128);
    auto s = defaultSchedule(shape);
    double truth = oracle.measure(m, shape, s).seconds;

    FaultConfig cfg;
    cfg.noiseSigma = 0.5;
    cfg.seed = 23;
    FaultyOracle noisy_raw(oracle, cfg);
    FaultyOracle noisy_for_median(oracle, cfg); // same noise distribution
    RetryPolicy policy;
    policy.medianOf = 5;
    RobustMeasurer denoised(noisy_for_median, policy);

    double raw_err = 0.0, med_err = 0.0;
    constexpr int kTrials = 30;
    for (int i = 0; i < kTrials; ++i) {
        raw_err += std::abs(
            std::log(noisy_raw.measure(m, shape, s).seconds / truth));
        med_err += std::abs(
            std::log(denoised.measure(m, shape, s).seconds / truth));
    }
    // Median-of-5 must shrink the average log error of a sigma=0.5
    // log-normal noise substantially (test is deterministic by seed).
    EXPECT_LT(med_err, raw_err * 0.75);
}

TEST(RobustMeasurer, DiscardsAfterExhaustingRetries)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    Rng rng(9);
    auto m = genUniform(128, 128, 600, rng);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 128, 128);
    auto s = defaultSchedule(shape);

    FaultConfig cfg;
    cfg.failProb = 1.0; // permanently failing backend
    FaultyOracle dead(oracle, cfg);
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.medianOf = 2;
    RobustMeasurer robust(dead, policy);

    auto r = robust.measure(m, shape, s);
    EXPECT_FALSE(r.valid);
    EXPECT_FALSE(r.invalidReason.empty());
    const auto& st = robust.stats();
    EXPECT_EQ(st.discarded, 1u);
    // The first sample exhausts its 3 attempts and the call gives up
    // without burning attempts on the second sample.
    EXPECT_EQ(st.attempts, 3u);
    EXPECT_EQ(st.retries, 2u);
}

/** Validation loss computed exactly the way trainCostModel computes it. */
double
valLossOf(WacoCostModel& model, const CostDataset& ds, const TrainOptions& opt)
{
    Rng val_rng(opt.seed + 1);
    std::vector<SuperSchedule> schedules;
    std::vector<double> runtimes;
    double loss = 0.0;
    for (u32 id : ds.valIds) {
        const auto& e = ds.entries[id];
        schedules.clear();
        runtimes.clear();
        u32 n = std::min<u32>(opt.batchSchedules,
                              static_cast<u32>(e.samples.size()));
        auto perm = val_rng.permutation(static_cast<u32>(e.samples.size()));
        for (u32 i = 0; i < n; ++i) {
            schedules.push_back(e.samples[perm[i]].schedule);
            runtimes.push_back(e.samples[perm[i]].runtime);
        }
        loss += model.evalLoss(e.input(), schedules, runtimes, opt.useL2);
    }
    return ds.valIds.empty() ? 0.0 : loss / ds.valIds.size();
}

TEST(Trainer, SkipsNonFiniteStepsAndStaysFinite)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    auto corpus = smallCorpus(41);
    auto ds = buildDataset(Algorithm::SpMV, corpus, oracle, 8, 42);

    // Poison every sample of one *training* entry with +inf runtimes: the
    // L2 log-loss target becomes log(inf), so that entry's loss is
    // non-finite from epoch 0 onward. (NaN would be swallowed by the
    // log-clamp's std::max, whose NaN comparison keeps the clamp value.)
    u32 poisoned = ds.trainIds.front();
    for (auto& s : ds.entries[poisoned].samples)
        s.runtime = std::numeric_limits<double>::infinity();

    WacoCostModel model(Algorithm::SpMV, "waconet", tinyConfig(), 43);
    TrainOptions opt;
    opt.epochs = 4;
    opt.batchSchedules = 8;
    opt.useL2 = true;
    opt.clipNorm = 10.0;
    auto history = trainCostModel(model, ds, opt);

    ASSERT_EQ(history.size(), 4u);
    for (const auto& e : history) {
        EXPECT_EQ(e.skippedSteps, 1u) << "epoch " << e.epoch;
        EXPECT_TRUE(std::isfinite(e.trainLoss));
    }
    EXPECT_TRUE(model.paramsFinite());
    EXPECT_TRUE(std::isfinite(valLossOf(model, ds, opt)));
}

TEST(Trainer, DivergenceRollsBackToBestCheckpoint)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    auto corpus = smallCorpus(51);
    auto ds = buildDataset(Algorithm::SpMV, corpus, oracle, 8, 52);

    // An absurd learning rate makes L2 training blow up after the first
    // epochs; divergence detection must restore the best epoch's weights.
    WacoCostModel model(Algorithm::SpMV, "waconet", tinyConfig(), 53,
                        /*lr=*/0.5);
    TrainOptions opt;
    opt.epochs = 12;
    opt.batchSchedules = 8;
    opt.useL2 = true;
    opt.divergeFactor = 3.0;
    auto history = trainCostModel(model, ds, opt);

    ASSERT_FALSE(history.empty());
    ASSERT_TRUE(history.back().rolledBack)
        << "expected lr=0.5 L2 training to diverge";
    EXPECT_LT(history.size(), 12u); // stopped early
    EXPECT_TRUE(model.paramsFinite());

    double best = std::numeric_limits<double>::infinity();
    for (const auto& e : history) {
        if (!e.rolledBack && std::isfinite(e.valLoss))
            best = std::min(best, e.valLoss);
    }
    // The restored parameters reproduce the best epoch's validation loss.
    EXPECT_NEAR(valLossOf(model, ds, opt), best, 1e-9 + best * 1e-6);
}

TEST(Trainer, RestoreBestRecoversBestEpochParams)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    auto corpus = smallCorpus(61);
    auto ds = buildDataset(Algorithm::SpMV, corpus, oracle, 8, 62);

    WacoCostModel model(Algorithm::SpMV, "waconet", tinyConfig(), 63);
    TrainOptions opt;
    opt.epochs = 6;
    opt.batchSchedules = 8;
    opt.restoreBest = true;
    opt.checkpointPath = ::testing::TempDir() + "/waco_best_ckpt.bin";
    auto history = trainCostModel(model, ds, opt);

    double best = std::numeric_limits<double>::infinity();
    for (const auto& e : history)
        best = std::min(best, e.valLoss);
    EXPECT_NEAR(valLossOf(model, ds, opt), best, 1e-9 + best * 1e-6);
    std::remove(opt.checkpointPath.c_str());
}

/** Backend that dies with a *non-transient* error after a call budget —
 *  simulates the labeling process being killed. */
class KillSwitch : public MeasurementBackend
{
  public:
    KillSwitch(const MeasurementBackend& inner, u64 budget)
        : inner_(inner), budget_(budget)
    {}

    struct Killed
    {};

    Measurement
    measure(const SparseInput& in, const ProblemShape& shape,
            const SuperSchedule& s,
            double budgetSeconds = kUnbounded) const override
    {
        if (++calls_ > budget_)
            throw Killed{};
        return inner_.measure(in, shape, s, budgetSeconds);
    }
    u64 measurementCount() const override { return calls_; }

  private:
    const MeasurementBackend& inner_;
    u64 budget_;
    mutable u64 calls_ = 0;
};

TEST(Dataset, KilledLabelingResumesBitIdentical)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    auto corpus = smallCorpus(71);

    LabelingOptions lopt;
    lopt.schedulesPerMatrix = 8;
    lopt.seed = 72;

    // Ground truth: uninterrupted labeling, no checkpoint file at all.
    auto uninterrupted = buildDatasetResumable(Algorithm::SpMM, corpus,
                                               oracle, lopt);
    std::string ref_path = ::testing::TempDir() + "/waco_ds_ref.bin";
    saveDataset(uninterrupted, ref_path);

    // Interrupted run: the backend dies partway through the corpus; the
    // checkpoint keeps the flushed prefix.
    std::string ckpt = ::testing::TempDir() + "/waco_label_ckpt.bin";
    std::remove(ckpt.c_str());
    lopt.checkpointPath = ckpt;
    lopt.flushEvery = 1;
    KillSwitch dying(oracle, 60); // enough for ~2 matrices, then death
    EXPECT_THROW(
        buildDatasetResumable(Algorithm::SpMM, corpus, dying, lopt),
        KillSwitch::Killed);

    // Resume against the healthy oracle and compare byte-for-byte.
    auto resumed = buildDatasetResumable(Algorithm::SpMM, corpus, oracle,
                                         lopt);
    std::string res_path = ::testing::TempDir() + "/waco_ds_res.bin";
    saveDataset(resumed, res_path);
    EXPECT_EQ(fileBytes(ref_path), fileBytes(res_path));

    // Resuming with a different corpus/options fingerprint fails loudly.
    lopt.seed = 73;
    EXPECT_THROW(
        buildDatasetResumable(Algorithm::SpMM, corpus, oracle, lopt),
        FatalError);

    std::remove(ref_path.c_str());
    std::remove(res_path.c_str());
    std::remove(ckpt.c_str());
}

TEST(DatasetIo, ChecksumFooterDetectsCorruption)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    auto corpus = smallCorpus(81, 3);
    auto ds = buildDataset(Algorithm::SpMV, corpus, oracle, 6, 82);
    std::string path = ::testing::TempDir() + "/waco_ds_corrupt.bin";
    saveDataset(ds, path);
    std::string bytes = fileBytes(path);

    EXPECT_NO_THROW(loadDataset(path)); // intact file loads

    // Truncation.
    writeBytes(path, bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(loadDataset(path), FatalError);

    // Single flipped payload byte.
    std::string flipped = bytes;
    flipped[flipped.size() / 3] ^= 0x40;
    writeBytes(path, flipped);
    EXPECT_THROW(loadDataset(path), FatalError);

    // Trailing garbage after the footer.
    writeBytes(path, bytes + "junk");
    EXPECT_THROW(loadDataset(path), FatalError);

    writeBytes(path, bytes);
    EXPECT_NO_THROW(loadDataset(path));
    std::remove(path.c_str());
}

WacoOptions
smallTunerOptions()
{
    WacoOptions opt;
    opt.extractorConfig = tinyConfig();
    opt.schedulesPerMatrix = 8;
    opt.train.epochs = 3;
    opt.topK = 5;
    opt.efSearch = 20;
    return opt;
}

TEST(WacoTuner, FallsBackToDefaultWhenAllTopKFault)
{
    auto opt = smallTunerOptions();
    WacoTuner tuner(Algorithm::SpMV, MachineConfig::intel24(), opt);
    tuner.train(smallCorpus(91));

    Rng rng(92);
    auto m = genUniform(200, 200, 1200, rng);
    FaultConfig cfg;
    cfg.failProb = 1.0; // remeasurement can never succeed
    FaultyOracle dead(tuner.oracle(), cfg);
    tuner.setMeasurementBackend(dead);

    auto out = tuner.tune(m);
    EXPECT_TRUE(out.fellBack);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 200, 200);
    EXPECT_EQ(out.best.key(), defaultSchedule(shape).key());
    for (const auto& mm : out.topKMeasured)
        EXPECT_FALSE(mm.valid);
    EXPECT_GT(out.remeasureStats.discarded, 0u);
    // The degraded winner is still a *good* schedule on the real oracle.
    auto truth = tuner.oracle().measure(m, shape, out.best);
    EXPECT_TRUE(truth.valid);
}

TEST(WacoTuner, EndToEndTuneSurvivesFaultsWithin2x)
{
    auto opt = smallTunerOptions();
    opt.retry.maxAttempts = 4;
    opt.retry.medianOf = 3;
    WacoTuner tuner(Algorithm::SpMM, MachineConfig::intel24(), opt);
    tuner.train(smallCorpus(101));

    Rng rng(102);
    auto m = genPowerLawRows(256, 256, 2500, 0.8, rng, false);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 256, 256);

    // Fault-free reference tune.
    auto clean = tuner.tune(m);
    ASSERT_TRUE(clean.bestMeasured.valid);
    EXPECT_FALSE(clean.fellBack);
    double clean_truth = tuner.oracle().measure(m, shape, clean.best).seconds;

    // Same tuner, 20% transient failures + 10% noise on every measurement.
    // Three fault seeds: every winner must stay within 2x of the fault-free
    // winner, and across the seeds retries/faults must actually fire (any
    // single 15-call remeasurement pass has a few-percent chance of drawing
    // zero faults; three passes make that astronomically unlikely).
    std::vector<std::unique_ptr<FaultyOracle>> backends;
    u64 total_faults = 0, total_retries = 0, total_calls = 0;
    for (u64 seed : {103, 104, 105}) {
        FaultConfig cfg;
        cfg.failProb = 0.2;
        cfg.noiseSigma = 0.1;
        cfg.seed = seed;
        backends.push_back(
            std::make_unique<FaultyOracle>(tuner.oracle(), cfg));
        tuner.setMeasurementBackend(*backends.back());
        auto noisy = tuner.tune(m);

        auto truth = tuner.oracle().measure(m, shape, noisy.best);
        ASSERT_TRUE(truth.valid) << "seed " << seed;
        EXPECT_LE(truth.seconds, 2.0 * clean_truth) << "seed " << seed;
        total_faults += noisy.remeasureStats.faults +
                        noisy.remeasureStats.invalid +
                        noisy.remeasureStats.timeouts;
        total_retries += noisy.remeasureStats.retries;
        total_calls += backends.back()->stats().calls;
    }
    EXPECT_GT(total_calls, 0u)
        << "tune() did not route through the injected backend";
    EXPECT_GT(total_faults, 0u);
    EXPECT_GT(total_retries, 0u);
}

} // namespace
} // namespace waco
