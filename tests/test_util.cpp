/**
 * @file
 * Tests for the utility layer: statistics, RNG determinism, timer, logging
 * levels, and error helpers.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "util/common.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace waco {
namespace {

TEST(UtilStats, MeanVarianceGeomean)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_DOUBLE_EQ(variance(xs), 1.25);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_THROW(geomean({1.0, -1.0}), FatalError);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(UtilStats, PercentileAndMedian)
{
    std::vector<double> xs = {5, 1, 3, 2, 4};
    EXPECT_DOUBLE_EQ(median(xs), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
    EXPECT_THROW(percentile({}, 50), FatalError);
}

TEST(UtilStats, GiniMeasuresSkew)
{
    EXPECT_NEAR(gini({1, 1, 1, 1}), 0.0, 1e-12);
    double skewed = gini({0, 0, 0, 100});
    EXPECT_GT(skewed, 0.7);
    EXPECT_GT(skewed, gini({10, 20, 30, 40}));
}

TEST(UtilStats, RunningStatMatchesBatch)
{
    RunningStat rs;
    std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (double x : xs)
        rs.add(x);
    EXPECT_EQ(rs.count(), xs.size());
    EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
    EXPECT_NEAR(rs.variance(), variance(xs), 1e-9);
    EXPECT_DOUBLE_EQ(rs.min(), 2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(UtilRng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000000), b.uniformInt(0, 1000000));
}

TEST(UtilRng, PermutationIsValid)
{
    Rng rng(5);
    auto p = rng.permutation(50);
    std::vector<bool> seen(50, false);
    for (u32 v : p) {
        ASSERT_LT(v, 50u);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(UtilRng, WeightedIndexFollowsWeights)
{
    Rng rng(6);
    std::vector<double> w = {0.0, 9.0, 1.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 2000; ++i)
        ++counts[rng.weightedIndex(w)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_GT(counts[1], counts[2] * 4);
}

TEST(UtilCommon, HelpersAndErrors)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(48));
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(1024), 10u);
    EXPECT_EQ(log2Floor(1023), 9u);
    EXPECT_THROW(fatal("x"), FatalError);
    EXPECT_THROW(panic("y"), PanicError);
    EXPECT_NO_THROW(fatalIf(false, "no"));
}

TEST(UtilTimer, MeasuresElapsed)
{
    Timer t;
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + std::sqrt(static_cast<double>(i));
    EXPECT_GT(t.seconds(), 0.0);
    double a = t.millis();
    double b = t.millis();
    EXPECT_LE(a, b); // monotone
    t.reset();
    EXPECT_LT(t.millis(), b);
}

TEST(UtilLogging, LevelsSuppress)
{
    auto saved = logLevel();
    setLogLevel(LogLevel::Off);
    logInfo("should not appear");
    logWarn("should not appear");
    LogLine(LogLevel::Warn) << "also suppressed " << 42;
    setLogLevel(saved);
    SUCCEED();
}

} // namespace
} // namespace waco
