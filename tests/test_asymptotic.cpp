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
 *    algorithm, and the in-order Pareto filter drops a profile exactly
 *    when an earlier kept one prunes it (no pruned survivor, no
 *    incomparable or loose casualty);
 *  - a SOUNDNESS DIFFERENTIAL: seeded tuner runs on all five algorithms
 *    must pick the same measured winner as a brute-force reference that
 *    measures every hit of the same walk, with strictly fewer
 *    measurements;
 *  - an ORACLE-AGREEMENT test: every candidate the filter drops from a
 *    real walk measures no more than epsilon better than the best hit
 *    (the filter's soundness assumption, checked empirically).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
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
    std::size_t droppedTotal = 0;
    for (Algorithm alg : allAlgorithms()) {
        SCOPED_TRACE(algorithmName(alg));
        auto bounds = sampledBounds(alg, 32, 0xBEE + static_cast<u64>(alg));
        auto pruner = analysis::paretoFilter(bounds);
        ASSERT_EQ(pruner.size(), bounds.size());

        for (std::size_t i = 0; i < bounds.size(); ++i) {
            if (!pruner[i]) {
                // No kept profile is pruned by an earlier kept one.
                for (std::size_t j = 0; j < i; ++j) {
                    EXPECT_FALSE(!pruner[j] &&
                                 analysis::prunes(bounds[j], bounds[i]))
                        << "kept profile " << i << " is pruned by kept " << j;
                }
                continue;
            }
            // Every dropped profile names an earlier kept pruner.
            ++droppedTotal;
            const std::size_t k = *pruner[i];
            ASSERT_LT(k, i);
            EXPECT_FALSE(pruner[k]) << "pruner " << k << " was dropped";
            EXPECT_TRUE(analysis::prunes(bounds[k], bounds[i]));
            // An incomparable or loose profile is never dropped: the
            // casualty is tight and dominated.
            EXPECT_TRUE(bounds[i].tight);
            EXPECT_TRUE(analysis::dominates(bounds[k], bounds[i]));
        }

        // The same sample with every bound loose: nothing may be dropped.
        for (auto& b : bounds)
            b.tight = false;
        for (const auto& p : analysis::paretoFilter(bounds))
            EXPECT_FALSE(p) << "a loose-bounded profile was dropped";
    }
    // The filter must not pass vacuously.
    EXPECT_GT(droppedTotal, 0u) << "no profile dropped in any sample";
}

// ---------------------------------------------------------------------------
// Soundness differential: the same winner as measuring every hit, with
// strictly fewer measurements
// ---------------------------------------------------------------------------

class AsymFilterAB : public ::testing::Test
{
  protected:
    void SetUp() override { setLogLevel(LogLevel::Off); }
    void TearDown() override { setLogLevel(LogLevel::Info); }

    static WacoOptions
    smallOptions()
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
        return opt;
    }

    /** A seeded tuner for one algorithm (oracle-labeled dataset, untrained
     *  model) and the input it tunes. */
    struct Case
    {
        std::unique_ptr<WacoTuner> tuner;
        SparseMatrix m;
        Sparse3Tensor t;
        bool threeD = false;

        SparseInput input() const
        {
            return threeD ? SparseInput(t) : SparseInput(m);
        }
    };

    static Case
    makeCase(Algorithm alg)
    {
        Case c;
        c.threeD = algorithmInfo(alg).sparseOrder == 3;
        c.tuner = std::make_unique<WacoTuner>(alg, MachineConfig::intel24(),
                                              smallOptions());
        CorpusOptions copt;
        copt.count = 3;
        copt.minDim = 192;
        copt.maxDim = 320;
        copt.minNnz = 800;
        copt.maxNnz = 2500;
        u64 seed = 0xAB0 + static_cast<u64>(alg);
        const RuntimeOracle& oracle = c.tuner->oracle();
        c.tuner->attachDataset(
            c.threeD ? buildDataset(alg, makeCorpus3d(copt, seed), oracle, 10,
                                    seed + 1)
                     : buildDataset(alg, makeCorpus(copt, seed), oracle, 10,
                                    seed + 1));
        EXPECT_LE(c.tuner->graphSchedules().size(),
                  static_cast<std::size_t>(smallOptions().topK));
        Rng rng(seed + 2);
        if (c.threeD)
            c.t = genTensor3(200, 160, 120, 3000, rng);
        else
            c.m = genUniform(256, 256, 2000, rng);
        return c;
    }

    /** The tuner's walk rebuilt outside tune() through the public model,
     *  node embeddings and graph: same scorer, k and ef, so the hits come
     *  back in the tuner's rank order. */
    static std::vector<HnswHit>
    walk(WacoTuner& tuner, const SparseInput& in)
    {
        const WacoOptions opt = smallOptions();
        WacoCostModel& model = tuner.model();
        auto query = model.beginQuery(model.extractFeature(in));
        Hnsw::BatchScoreFn score = [&](const u32* ids, u32 count,
                                       double* dst) {
            nn::Mat pred = model.scoreEmbeddings(query, tuner.nodeEmbeddings(),
                                                 ids, count);
            for (u32 i = 0; i < count; ++i)
                dst[i] = static_cast<double>(pred.at(i, 0));
        };
        return tuner.graph().searchGenericBatched(
            score, opt.topK, std::max(opt.efSearch, opt.topK));
    }

    /** Tune @p alg and compare against a brute-force reference that
     *  measures every hit of the same walk on the oracle. */
    static void
    runAB(Algorithm alg)
    {
        Case c = makeCase(alg);
        const SparseInput in = c.input();
        const ProblemShape shape = ProblemShape::forInput(alg, in);
        const auto hits = walk(*c.tuner, in);

        double best = std::numeric_limits<double>::infinity();
        std::string bestKey;
        u32 ties = 0;
        u64 legal = 0;
        for (const HnswHit& hit : hits) {
            const SuperSchedule& s = c.tuner->graphSchedules()[hit.id];
            if (analysis::verifySchedule(s, shape).hasErrors())
                continue;
            ++legal;
            Measurement m = c.tuner->oracle().measure(in, shape, s);
            if (!m.valid || m.seconds > best)
                continue;
            ties = m.seconds == best ? ties + 1 : 1;
            if (m.seconds < best)
                bestKey = s.key();
            best = m.seconds;
        }
        ASSERT_GT(legal, 0u);

        TuneOutcome a = c.tuner->tune(in);
        // The measured winner of measuring everything...
        EXPECT_EQ(a.bestMeasured.seconds, best);
        if (ties == 1) {
            EXPECT_EQ(a.best.key(), bestKey);
        }
        EXPECT_FALSE(a.fellBack);
        // ...with strictly fewer backend measurements: the filter found
        // dominated candidates and none of them reached the backend.
        EXPECT_GT(a.asymRejected, 0u) << "no dominated candidate in top-k";
        EXPECT_GT(a.asymKept, 0u);
        EXPECT_LT(a.remeasureStats.attempts, legal);
        // Every hit is accounted for exactly once.
        EXPECT_EQ(a.remeasureStats.attempts + a.measurementsReused +
                      a.asymRejected,
                  hits.size());
        EXPECT_EQ(a.topK.size() + a.asymRejected, hits.size());
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
    // over every hit of a real tuner walk, measured on the oracle, each
    // candidate the stage-0 filter drops measures no better than
    // (1 - eps) x the best hit — so dropping it unmeasured can never
    // displace the winner by more than eps. A pairwise epsilon bound at
    // one fixed small shape would instead be dominated by the constants
    // the asymptotic model deliberately ignores (split sizes alone span
    // 1..256, thread/chunk choices more), which is why the claim is stated
    // over pruning decisions, not over arbitrary dominance pairs.
    constexpr double kEpsilon = 0.25;

    for (Algorithm alg : allAlgorithms()) {
        SCOPED_TRACE(algorithmName(alg));
        Case c = makeCase(alg);
        const SparseInput in = c.input();
        const ProblemShape shape = ProblemShape::forInput(alg, in);
        const auto hits = walk(*c.tuner, in);

        std::vector<const SuperSchedule*> ranked;
        std::vector<AsymptoticBounds> profiles;
        std::vector<Measurement> measured;
        double best = std::numeric_limits<double>::infinity();
        for (const HnswHit& hit : hits) {
            const SuperSchedule& s = c.tuner->graphSchedules()[hit.id];
            ASSERT_FALSE(analysis::verifySchedule(s, shape).hasErrors());
            ranked.push_back(&s);
            profiles.push_back(analysis::asymptoticBounds(s, shape));
            measured.push_back(c.tuner->oracle().measure(in, shape, s));
            if (measured.back().valid)
                best = std::min(best, measured.back().seconds);
        }
        ASSERT_TRUE(std::isfinite(best));

        // The filter the tuner runs, over the same rank-ordered hits.
        const auto pruner = analysis::paretoFilter(profiles);
        std::size_t dropped = 0;
        for (std::size_t i = 0; i < hits.size(); ++i) {
            if (!pruner[i])
                continue;
            ++dropped;
            if (measured[i].valid) {
                EXPECT_GE(measured[i].seconds, best * (1.0 - kEpsilon))
                    << "pruning " << ranked[i]->key() << " ("
                    << measured[i].seconds
                    << "s) would displace the best hit (" << best << "s)";
            }
        }
        // The agreement claim must not pass vacuously, and it is about the
        // candidates the tuner itself drops.
        EXPECT_GT(dropped, 0u) << "filter dropped no candidate";
        EXPECT_EQ(c.tuner->tune(in).asymRejected, dropped);
    }
}

} // namespace
} // namespace waco
