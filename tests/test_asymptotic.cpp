/**
 * @file
 * Tests of the asymptotic-cost pass and the tuner's stage-0 dominance
 * filter (src/analysis/asymptotic_cost.*) — the soundness harness is a
 * first-class deliverable here, because an unsound pruner silently
 * degrades every downstream result:
 *
 *  - unit checks of the polynomial partial order and of the bound
 *    profiles of known schedules (CSR SpMV must come out O(nnz) with
 *    zero search cost, the fused default must price its workspace);
 *  - PROPERTY tests: dominance is a strict partial order — irreflexive,
 *    antisymmetric, transitive — over >= 500 sampled schedule pairs per
 *    algorithm, and the Pareto filter keeps every non-dominated profile
 *    (no dominated survivor, no incomparable casualty);
 *  - a SOUNDNESS DIFFERENTIAL extending PR 5's A/B pattern to the
 *    analytic stage: seeded tuner runs on all five algorithms must pick
 *    the identical measured winner with strictly fewer measurements when
 *    the filter is on;
 *  - an ORACLE-AGREEMENT test: whenever dominates(a, b) holds, the
 *    perfmodel never ranks b more than epsilon better than a on matched
 *    shapes (the filter's soundness assumption, checked empirically).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/asymptotic_cost.hpp"
#include "analysis/schedule_verifier.hpp"
#include "core/waco_tuner.hpp"
#include "data/generators.hpp"
#include "ir/loopnest.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace waco {
namespace {

using analysis::AsymPoly;
using analysis::AsymptoticBounds;
using analysis::AsymSym;
using analysis::PolyOrder;

// ---------------------------------------------------------------------------
// Polynomial partial order
// ---------------------------------------------------------------------------

TEST(AsymPolyOrder, BasicRelations2d)
{
    AsymPoly n = AsymPoly::sym(AsymSym::N);
    AsymPoly m = AsymPoly::sym(AsymSym::M);
    AsymPoly nnz = AsymPoly::nnz();
    AsymPoly nm = n * m;

    // Every symbol is >= 1: N <= N * nnz_row.
    EXPECT_EQ(comparePoly(n, nnz, false), PolyOrder::Less);
    // nnz <= N * M (every row has at most M stored columns).
    EXPECT_EQ(comparePoly(nnz, nm, false), PolyOrder::Less);
    // nnz_row <= M.
    EXPECT_EQ(comparePoly(AsymPoly::sym(AsymSym::NnzRow), m, false),
              PolyOrder::Less);
    // Distinct dimensions are incomparable.
    EXPECT_EQ(comparePoly(n, m, false), PolyOrder::Incomparable);
    // So are nnz and a single foreign dimension.
    EXPECT_EQ(comparePoly(nnz, m, false), PolyOrder::Incomparable);
    // The log factor compares against nothing but itself.
    EXPECT_EQ(comparePoly(AsymPoly::sym(AsymSym::Log), n, false),
              PolyOrder::Incomparable);
    EXPECT_EQ(comparePoly(n, n * AsymPoly::sym(AsymSym::Log), false),
              PolyOrder::Less);
    // Zero is the bottom element; every class equals itself.
    EXPECT_EQ(comparePoly(AsymPoly(), nnz, false), PolyOrder::Less);
    EXPECT_EQ(comparePoly(nnz, nnz, false), PolyOrder::Equal);
    // Sums: nnz + N collapses onto nnz (absorption).
    EXPECT_EQ(comparePoly(nnz + n, nnz, false), PolyOrder::Equal);
    // Greater is Less mirrored.
    EXPECT_EQ(comparePoly(nm, nnz, false), PolyOrder::Greater);
}

TEST(AsymPolyOrder, NnzRowSideConditionIs3dAware)
{
    AsymPoly nnz = AsymPoly::nnz();
    AsymPoly nm = AsymPoly::sym(AsymSym::N) * AsymPoly::sym(AsymSym::M);
    AsymPoly nml = nm * AsymPoly::sym(AsymSym::L);

    // 2D: nnz <= N * M. 3D: a fiber can hold M * L coordinates, so only
    // nnz <= N * M * L is sound and nnz vs N * M must stay incomparable.
    EXPECT_EQ(comparePoly(nnz, nm, false), PolyOrder::Less);
    EXPECT_EQ(comparePoly(nnz, nm, true), PolyOrder::Incomparable);
    EXPECT_EQ(comparePoly(nnz, nml, true), PolyOrder::Less);
}

// ---------------------------------------------------------------------------
// Bound profiles of known schedules
// ---------------------------------------------------------------------------

TEST(AsymBounds, CsrSpmvIsLinearWithNoSearch)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 1000, 800);
    AsymptoticBounds b = analysis::asymptoticBounds(defaultSchedule(shape),
                                                    shape);
    EXPECT_EQ(b.iterations().str(), "nnz");
    EXPECT_TRUE(b.searchCost().isZero());
    EXPECT_EQ(b.names[2], "traffic:A");
    EXPECT_EQ(b.bounds[2].str(), "nnz");
}

TEST(AsymBounds, DiscordantStorageOrderIsDominatedByCsr)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 1000, 800);
    SuperSchedule csr = defaultSchedule(shape);
    // Same row-major loop order over column-major (CSC-like) storage:
    // every level resolves by search, every bound is at least CSR's.
    SuperSchedule csc = csr;
    csc.sparseLevelOrder = {outerSlot(1), innerSlot(1), outerSlot(0),
                            innerSlot(0)};
    ASSERT_FALSE(analysis::verifySchedule(csc, shape).hasErrors());

    AsymptoticBounds a = analysis::asymptoticBounds(csr, shape);
    AsymptoticBounds b = analysis::asymptoticBounds(csc, shape);
    EXPECT_TRUE(analysis::dominates(a, b));
    EXPECT_FALSE(analysis::dominates(b, a));
    EXPECT_NE(analysis::explainDomination(a, b), "");
}

TEST(AsymBounds, FusedNestPricesWorkspaceInitAndTraffic)
{
    auto shape =
        ProblemShape::forMatrix(Algorithm::FusedSDDMMSpMM, 300, 200);
    AsymptoticBounds b =
        analysis::asymptoticBounds(defaultSchedule(shape), shape);
    ASSERT_EQ(b.names.back(), "traffic:w");
    // The init phase alone zeroes N * M workspace slots.
    EXPECT_EQ(comparePoly(b.bounds.back(),
                          AsymPoly::sym(AsymSym::N) *
                              AsymPoly::sym(AsymSym::M),
                          false),
              PolyOrder::Equal);
    // ... and the init loop entries are part of the iteration bound.
    EXPECT_TRUE(polyLeq(AsymPoly::sym(AsymSym::N) *
                            AsymPoly::sym(AsymSym::M),
                        b.iterations(), false));
}

TEST(AsymBounds, LooseBoundsNeverJustifyPruning)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 1000, 800);
    SuperSchedule csr = defaultSchedule(shape);
    AsymptoticBounds a = analysis::asymptoticBounds(csr, shape);
    EXPECT_TRUE(a.tight); // Concordant CSR: every clamp is comparable.

    // All-compressed column-major storage: the leading column level clamps
    // M against nnz, which are incomparable — the position estimate keeps
    // the coordinate product and may overshoot the true stored count, so
    // the profile loses its tightness claim.
    SuperSchedule csc = csr;
    csc.sparseLevelOrder = {outerSlot(1), innerSlot(1), outerSlot(0),
                            innerSlot(0)};
    csc.sparseLevelFormats = {LevelFormat::Compressed,
                              LevelFormat::Compressed,
                              LevelFormat::Compressed,
                              LevelFormat::Compressed};
    ASSERT_FALSE(analysis::verifySchedule(csc, shape).hasErrors());
    AsymptoticBounds b = analysis::asymptoticBounds(csc, shape);
    EXPECT_FALSE(b.tight);

    // Dominance (the pure order) may hold, but the filter relation must
    // refuse: a loose-bounded schedule could run far below its bounds.
    EXPECT_TRUE(analysis::dominates(a, b));
    EXPECT_FALSE(analysis::prunes(a, b));
    EXPECT_EQ(analysis::prunes(a, b),
              analysis::dominates(a, b) && b.tight);
}

TEST(AsymBounds, PerfNotesExplainDomination)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 1000, 800);
    SuperSchedule csr = defaultSchedule(shape);

    analysis::DiagnosticBag clean;
    analysis::asymptoticPerfNotes(csr, shape, clean);
    EXPECT_FALSE(clean.has(analysis::DiagCode::S301_AsymptoticallyDominated));

    SuperSchedule csc = csr;
    csc.sparseLevelOrder = {outerSlot(1), innerSlot(1), outerSlot(0),
                            innerSlot(0)};
    analysis::DiagnosticBag bag;
    analysis::asymptoticPerfNotes(csc, shape, bag);
    EXPECT_TRUE(bag.has(analysis::DiagCode::S301_AsymptoticallyDominated));
    EXPECT_TRUE(bag.has(analysis::DiagCode::S304_AsymSearchBound));
    EXPECT_FALSE(bag.hasErrors()); // S3xx are notes, never errors.
    EXPECT_GT(bag.noteCount(), 0u);

    // Stable code table: S3xx encode above the R range but print as S.
    EXPECT_EQ(analysis::diagCodeName(
                  analysis::DiagCode::S301_AsymptoticallyDominated),
              "WACO-S301");
    EXPECT_EQ(analysis::diagSeverity(
                  analysis::DiagCode::S302_AsymIterationBound),
              analysis::Severity::PerfNote);

    // An illegal schedule gets no asymptotic notes (bounds undefined).
    SuperSchedule broken = csr;
    broken.loopOrder.pop_back();
    analysis::DiagnosticBag none;
    analysis::asymptoticPerfNotes(broken, shape, none);
    EXPECT_TRUE(none.empty());
}

// ---------------------------------------------------------------------------
// Property: dominance is a strict partial order
// ---------------------------------------------------------------------------

ProblemShape
shapeFor(Algorithm alg)
{
    return algorithmInfo(alg).sparseOrder == 3
               ? ProblemShape::forTensor3(alg, 300, 240, 180)
               : ProblemShape::forMatrix(alg, 1000, 800);
}

std::vector<AsymptoticBounds>
sampledBounds(Algorithm alg, u32 count, u64 seed)
{
    ProblemShape shape = shapeFor(alg);
    SuperScheduleSpace space(alg, shape);
    Rng rng(seed);
    std::vector<AsymptoticBounds> out;
    while (out.size() < count) {
        SuperSchedule s = space.sample(rng);
        if (analysis::verifySchedule(s, shape).hasErrors())
            continue; // Sampler invariant; guard anyway.
        out.push_back(analysis::asymptoticBounds(s, shape));
    }
    return out;
}

TEST(AsymDominanceProperty, StrictPartialOrderPerAlgorithm)
{
    for (Algorithm alg : allAlgorithms()) {
        SCOPED_TRACE(algorithmName(alg));
        // 32 profiles -> 32*31 = 992 ordered pairs per algorithm, well
        // past the ~500-pair floor the property needs to be meaningful.
        auto bounds = sampledBounds(alg, 32, 0xA57 + static_cast<u64>(alg));
        const std::size_t n = bounds.size();

        std::vector<std::vector<bool>> dom(n, std::vector<bool>(n, false));
        std::size_t edges = 0;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                dom[i][j] = analysis::dominates(bounds[i], bounds[j]);
                edges += dom[i][j];
            }
        }
        // Irreflexive.
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_FALSE(dom[i][i]) << "profile " << i << " dominates itself";
        // Antisymmetric.
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                EXPECT_FALSE(dom[i][j] && dom[j][i])
                    << "mutual domination between " << i << " and " << j;
            }
        }
        // Transitive.
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (!dom[i][j])
                    continue;
                for (std::size_t k = 0; k < n; ++k) {
                    if (dom[j][k]) {
                        EXPECT_TRUE(dom[i][k])
                            << i << " dom " << j << " dom " << k
                            << " but not " << i << " dom " << k;
                    }
                }
            }
        }
        // The relation must not be vacuous on a random sample: the space
        // is full of discordant orders a concordant sibling beats.
        EXPECT_GT(edges, 0u) << "no dominated pair in the whole sample";
    }
}

TEST(AsymDominanceProperty, ParetoFilterKeepsExactlyTheNonDominated)
{
    for (Algorithm alg : allAlgorithms()) {
        SCOPED_TRACE(algorithmName(alg));
        auto bounds = sampledBounds(alg, 32, 0xBEE + static_cast<u64>(alg));
        auto kept = analysis::paretoFilter(bounds);

        std::vector<bool> isKept(bounds.size(), false);
        for (std::size_t i : kept) {
            ASSERT_LT(i, bounds.size());
            isKept[i] = true;
        }
        for (std::size_t i = 0; i < bounds.size(); ++i) {
            bool dominated = false;
            std::size_t by = 0;
            for (std::size_t j = 0; j < bounds.size(); ++j) {
                if (j != i && analysis::dominates(bounds[j], bounds[i])) {
                    dominated = true;
                    by = j;
                    break;
                }
            }
            if (isKept[i]) {
                // No dominated element survives the filter.
                EXPECT_FALSE(dominated)
                    << "kept profile " << i << " is dominated by " << by;
            } else {
                // No incomparable element is dropped: every casualty has a
                // dominator, and (dominance being transitive and acyclic)
                // one of its dominators is itself kept.
                EXPECT_TRUE(dominated)
                    << "non-dominated profile " << i << " was dropped";
                bool keptDominator = false;
                for (std::size_t j : kept)
                    keptDominator = keptDominator ||
                                    analysis::dominates(bounds[j], bounds[i]);
                EXPECT_TRUE(keptDominator)
                    << "dropped profile " << i << " has no kept dominator";
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Soundness differential: same winner, strictly fewer measurements
// ---------------------------------------------------------------------------

class AsymFilterAB : public ::testing::Test
{
  protected:
    void SetUp() override { setLogLevel(LogLevel::Off); }
    void TearDown() override { setLogLevel(LogLevel::Info); }

    static WacoOptions
    smallOptions(bool filter)
    {
        WacoOptions opt;
        opt.extractorConfig.channels = 8;
        opt.extractorConfig.numLayers = 4;
        opt.extractorConfig.featureDim = 32;
        opt.schedulesPerMatrix = 10;
        // topK past the node count: every graph schedule reaches the
        // remeasurement pass, so the filter sees the full candidate set.
        opt.topK = 128;
        opt.efSearch = 160;
        opt.pruneCandidates = true;
        opt.asymFilter = filter;
        return opt;
    }

    /** Seeded A/B on @p alg: identical tuners except for asymFilter. */
    static void
    runAB(Algorithm alg)
    {
        bool threeD = algorithmInfo(alg).sparseOrder == 3;
        WacoTuner with(alg, MachineConfig::intel24(), smallOptions(true));
        WacoTuner without(alg, MachineConfig::intel24(),
                          smallOptions(false));

        CorpusOptions copt;
        copt.count = 3;
        copt.minDim = 192;
        copt.maxDim = 320;
        copt.minNnz = 800;
        copt.maxNnz = 2500;
        u64 seed = 0xAB0 + static_cast<u64>(alg);
        CostDataset ds =
            threeD ? buildDataset(alg, makeCorpus3d(copt, seed),
                                  with.oracle(), 10, seed + 1)
                   : buildDataset(alg, makeCorpus(copt, seed), with.oracle(),
                                  10, seed + 1);
        // Same dataset + same seed: both tuners hold identical graphs.
        with.attachDataset(ds);
        without.attachDataset(ds);
        ASSERT_EQ(with.graphSchedules().size(),
                  without.graphSchedules().size());
        ASSERT_LE(with.graphSchedules().size(),
                  static_cast<std::size_t>(smallOptions(true).topK));

        // Only the owned input differs by order; tuning is one call.
        Rng rng(seed + 2);
        SparseMatrix m;
        Sparse3Tensor t;
        if (threeD)
            t = genTensor3(200, 160, 120, 3000, rng);
        else
            m = genUniform(256, 256, 2000, rng);
        SparseInput in = threeD ? SparseInput(t) : SparseInput(m);
        TuneOutcome a = with.tune(in);
        TuneOutcome b = without.tune(in);

        // Identical measured winner...
        EXPECT_EQ(a.best.key(), b.best.key());
        EXPECT_EQ(a.bestMeasured.seconds, b.bestMeasured.seconds);
        EXPECT_FALSE(a.fellBack);
        // ...with strictly fewer backend measurements: the filter found
        // dominated candidates and none of them reached the backend.
        EXPECT_GT(a.asymRejected, 0u) << "no dominated candidate in top-k";
        EXPECT_GT(a.asymKept, 0u);
        EXPECT_EQ(b.asymRejected, 0u);
        EXPECT_EQ(b.asymKept, 0u);
        EXPECT_LT(a.remeasureStats.attempts, b.remeasureStats.attempts);
        // The filtered run measured exactly the kept candidates (minus
        // canonical-duplicate reuse, identical in both runs).
        EXPECT_EQ(a.topK.size() + a.asymRejected, b.topK.size());
    }
};

TEST_F(AsymFilterAB, SpMV) { runAB(Algorithm::SpMV); }
TEST_F(AsymFilterAB, SpMM) { runAB(Algorithm::SpMM); }
TEST_F(AsymFilterAB, SDDMM) { runAB(Algorithm::SDDMM); }
TEST_F(AsymFilterAB, MTTKRP) { runAB(Algorithm::MTTKRP); }
TEST_F(AsymFilterAB, FusedSDDMMSpMM)
{
    runAB(Algorithm::FusedSDDMMSpMM);
}

// ---------------------------------------------------------------------------
// Oracle agreement: pruning decisions respect the measured order up to eps
// ---------------------------------------------------------------------------

TEST_F(AsymFilterAB, PrunedCandidateNeverBeatsWinnerByMoreThanEpsilon)
{
    // The filter's soundness assumption, checked WHERE THE FILTER ACTS:
    // over the measured (unfiltered) top-k population of a real tuner
    // run, every candidate the stage-0 relation would drop measures no
    // better than (1 - eps) x the unfiltered winner — so dropping it
    // unmeasured can never displace the winner by more than eps. A
    // pairwise epsilon bound at one fixed small shape would instead be
    // dominated by the constants the asymptotic model deliberately
    // ignores (split sizes alone span 1..256, thread/chunk choices more),
    // which is why the claim is stated over pruning decisions, not over
    // arbitrary dominance pairs.
    constexpr double kEpsilon = 0.25;

    for (Algorithm alg : allAlgorithms()) {
        SCOPED_TRACE(algorithmName(alg));
        bool threeD = algorithmInfo(alg).sparseOrder == 3;
        WacoTuner without(alg, MachineConfig::intel24(),
                          smallOptions(false));

        CorpusOptions copt;
        copt.count = 3;
        copt.minDim = 192;
        copt.maxDim = 320;
        copt.minNnz = 800;
        copt.maxNnz = 2500;
        u64 seed = 0xAB0 + static_cast<u64>(alg);
        CostDataset ds =
            threeD ? buildDataset(alg, makeCorpus3d(copt, seed),
                                  without.oracle(), 10, seed + 1)
                   : buildDataset(alg, makeCorpus(copt, seed),
                                  without.oracle(), 10, seed + 1);
        without.attachDataset(ds);

        Rng rng(seed + 2);
        SparseMatrix m;
        Sparse3Tensor t;
        if (threeD)
            t = genTensor3(200, 160, 120, 3000, rng);
        else
            m = genUniform(256, 256, 2000, rng);
        SparseInput in = threeD ? SparseInput(t) : SparseInput(m);
        ProblemShape shape = ProblemShape::forInput(alg, in);
        TuneOutcome b = without.tune(in);
        ASSERT_FALSE(b.fellBack);
        ASSERT_GT(b.topK.size(), 0u);

        // Replay the stage-0 filter over the measured candidate list, in
        // order, exactly as the tuner would have run it.
        std::vector<AsymptoticBounds> kept;
        std::size_t dropped = 0;
        for (std::size_t i = 0; i < b.topK.size(); ++i) {
            AsymptoticBounds bd =
                analysis::asymptoticBounds(b.topK[i], shape);
            bool pruned = false;
            for (const auto& k : kept) {
                if (analysis::prunes(k, bd)) {
                    pruned = true;
                    break;
                }
            }
            if (!pruned) {
                kept.push_back(std::move(bd));
                continue;
            }
            ++dropped;
            if (i < b.topKMeasured.size() && b.topKMeasured[i].valid) {
                EXPECT_GE(b.topKMeasured[i].seconds,
                          b.bestMeasured.seconds * (1.0 - kEpsilon))
                    << "pruning " << b.topK[i].key() << " ("
                    << b.topKMeasured[i].seconds
                    << "s) would displace the winner " << b.best.key()
                    << " (" << b.bestMeasured.seconds << "s)";
            }
        }
        // The agreement claim must not pass vacuously.
        EXPECT_GT(dropped, 0u) << "filter replay dropped no candidate";
    }
}

} // namespace
} // namespace waco
