/**
 * @file
 * Tests of the static-analysis subsystem (src/analysis): the diagnostics
 * engine, the SuperSchedule verifier, the LoopNest verifier + race-hazard
 * pass, canonicalization, and the tuner's verifier-driven pruning.
 *
 * The core harness is a mutation-fuzz differential: schedules sampled from
 * SuperScheduleSpace are corrupted one field-class at a time, and
 *
 *  - every error-class corruption must be REJECTED with its expected
 *    stable diagnostic code (>= 95% rejection asserted; it is 100%);
 *  - every schedule the verifier ACCEPTS (clean samples and warning-class
 *    mutants) must lower and execute bit-identically to the dense COO
 *    reference — zero false accepts, with the same integer-valued-input
 *    trick as test_loopnest.cpp.
 *
 * LoopNest invariants are fuzzed from the other side: valid nests from
 * lower() are disassembled, corrupted via LoopNest::fromRaw, and each
 * corruption class must surface its WACO-L/R code.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>

#include "analysis/diagnostics.hpp"
#include "analysis/loopnest_verifier.hpp"
#include "analysis/schedule_verifier.hpp"
#include "core/waco_tuner.hpp"
#include "data/generators.hpp"
#include "exec/loopnest_exec.hpp"
#include "exec/reference.hpp"
#include "ir/loopnest.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace waco {
namespace {

using analysis::DiagCode;
using analysis::DiagnosticBag;
using analysis::Severity;

// ---------------------------------------------------------------------------
// Diagnostics engine
// ---------------------------------------------------------------------------

TEST(Diagnostics, StableCodeNames)
{
    EXPECT_EQ(analysis::diagCodeName(DiagCode::S001_LoopOrderSize),
              "WACO-S001");
    EXPECT_EQ(analysis::diagCodeName(DiagCode::S009_ParallelReduction),
              "WACO-S009");
    EXPECT_EQ(analysis::diagCodeName(DiagCode::S103_ParallelDegenerate),
              "WACO-S103");
    EXPECT_EQ(analysis::diagCodeName(DiagCode::S203_StridedVectorAccess),
              "WACO-S203");
    EXPECT_EQ(analysis::diagCodeName(DiagCode::L001_SlotBoundTwice),
              "WACO-L001");
    EXPECT_EQ(analysis::diagCodeName(DiagCode::L010_LevelSlotMismatch),
              "WACO-L010");
    EXPECT_EQ(analysis::diagCodeName(DiagCode::R001_ParallelReductionRace),
              "WACO-R001");
    EXPECT_EQ(analysis::diagCodeName(DiagCode::R003_ParallelChunkZero),
              "WACO-R003");
}

TEST(Diagnostics, SeverityByNamespace)
{
    EXPECT_EQ(analysis::diagSeverity(DiagCode::S009_ParallelReduction),
              Severity::Error);
    EXPECT_EQ(analysis::diagSeverity(DiagCode::S101_SplitNotPow2),
              Severity::Warning);
    EXPECT_EQ(analysis::diagSeverity(DiagCode::S201_DiscordantBinarySearch),
              Severity::PerfNote);
    EXPECT_EQ(analysis::diagSeverity(DiagCode::L005_LocateSlotUnbound),
              Severity::Error);
    EXPECT_EQ(analysis::diagSeverity(DiagCode::R001_ParallelReductionRace),
              Severity::Error);
    EXPECT_EQ(analysis::diagSeverity(DiagCode::R002_NestedParallelIgnored),
              Severity::Warning);
    EXPECT_EQ(analysis::severityName(Severity::PerfNote), "perf-note");
}

TEST(Diagnostics, BagCountsFormatAndMerge)
{
    DiagnosticBag bag;
    EXPECT_TRUE(bag.empty());
    EXPECT_FALSE(bag.hasErrors());
    EXPECT_EQ(bag.firstError(), nullptr);

    bag.add(DiagCode::S009_ParallelReduction, "reduction parallelized", 1);
    bag.add(DiagCode::S101_SplitNotPow2, "odd split", 0);
    bag.add(DiagCode::S201_DiscordantBinarySearch, "slow locate", 1, 1);

    EXPECT_EQ(bag.size(), 3u);
    EXPECT_EQ(bag.errorCount(), 1u);
    EXPECT_EQ(bag.warningCount(), 1u);
    EXPECT_EQ(bag.noteCount(), 1u);
    EXPECT_TRUE(bag.hasErrors());
    EXPECT_TRUE(bag.has(DiagCode::S101_SplitNotPow2));
    EXPECT_FALSE(bag.has(DiagCode::S010_SplitZero));
    ASSERT_NE(bag.firstError(), nullptr);
    EXPECT_EQ(bag.firstError()->code, DiagCode::S009_ParallelReduction);

    std::string text = bag.format();
    EXPECT_NE(text.find("WACO-S009"), std::string::npos);
    EXPECT_NE(text.find("error"), std::string::npos);
    EXPECT_NE(text.find("reduction parallelized"), std::string::npos);

    DiagnosticBag other;
    other.add(DiagCode::L003_LevelUnresolved, "level dropped", -1, 0);
    bag.merge(other);
    EXPECT_EQ(bag.size(), 4u);
    EXPECT_EQ(bag.errorCount(), 2u);
}

TEST(Diagnostics, ThrowIfErrors)
{
    DiagnosticBag clean;
    clean.add(DiagCode::S101_SplitNotPow2, "warning only");
    EXPECT_NO_THROW(clean.throwIfErrors("ctx"));

    DiagnosticBag bad;
    bad.add(DiagCode::S010_SplitZero, "split is 0", 2);
    try {
        bad.throwIfErrors("myContext");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("myContext"), std::string::npos);
        EXPECT_NE(msg.find("WACO-S010"), std::string::npos);
    }
}

TEST(Diagnostics, JsonExportAndFile)
{
    DiagnosticBag bag;
    bag.add(DiagCode::S014_AlgorithmMismatch, "quote \" slash \\ nl \n end");
    bag.add(DiagCode::S102_SplitExceedsExtent, "big split", 0);

    std::string json = bag.exportJson();
    EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
    EXPECT_NE(json.find("\"warnings\":1"), std::string::npos);
    EXPECT_NE(json.find("\"code\":\"WACO-S014\""), std::string::npos);
    EXPECT_NE(json.find("\\\""), std::string::npos);
    EXPECT_NE(json.find("\\\\"), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    // Raw control characters must not survive into the JSON text.
    EXPECT_EQ(json.find('\n'), std::string::npos);

    const std::string path = "test_analysis_diag_out.json";
    analysis::writeDiagnosticsJson(bag, path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), json);
    in.close();
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Schedule mutation fuzz
// ---------------------------------------------------------------------------

/** One corruption class: mutates a sampled schedule and names the stable
 *  diagnostic code the verifier must answer with. */
struct Mutation
{
    const char* name;
    DiagCode expect;
    bool isError; ///< Error-class (must reject) vs warning-class (accept).
    /** Returns false when the mutation does not apply to this algorithm. */
    std::function<bool(SuperSchedule&, Rng&)> apply;
};

std::vector<Mutation>
errorMutations(Algorithm alg)
{
    const AlgorithmInfo& info = algorithmInfo(alg);
    const u32 ni = info.numIndices;
    std::vector<Mutation> out = {
        {"truncate-loop-order", DiagCode::S001_LoopOrderSize, true,
         [](SuperSchedule& s, Rng&) {
             s.loopOrder.pop_back();
             return true;
         }},
        {"slot-out-of-range", DiagCode::S002_SlotOutOfRange, true,
         [ni](SuperSchedule& s, Rng& rng) {
             s.loopOrder[rng.index(s.loopOrder.size())] = 2 * ni + 5;
             return true;
         }},
        {"duplicate-slot", DiagCode::S003_DuplicateSlot, true,
         [](SuperSchedule& s, Rng&) {
             s.loopOrder[0] = s.loopOrder[1];
             return true;
         }},
        {"truncate-level-order", DiagCode::S004_LevelOrderSize, true,
         [](SuperSchedule& s, Rng&) {
             s.sparseLevelOrder.pop_back();
             s.sparseLevelFormats.pop_back();
             return true;
         }},
        {"dense-index-in-level-order", DiagCode::S005_LevelOrderDenseIndex,
         true,
         [&info, ni](SuperSchedule& s, Rng&) {
             for (u32 idx = 0; idx < ni; ++idx) {
                 if (info.sparseDim[idx] < 0) {
                     s.sparseLevelOrder[0] = outerSlot(idx);
                     return true;
                 }
             }
             return false; // SpMV: every index is sparse
         }},
        {"duplicate-level-slot", DiagCode::S006_LevelOrderDuplicate, true,
         [](SuperSchedule& s, Rng&) {
             s.sparseLevelOrder[0] = s.sparseLevelOrder[1];
             return true;
         }},
        {"format-count-mismatch", DiagCode::S007_LevelFormatMisaligned, true,
         [](SuperSchedule& s, Rng&) {
             s.sparseLevelFormats.pop_back();
             return true;
         }},
        {"parallel-slot-out-of-range", DiagCode::S008_ParallelSlotRange, true,
         [ni](SuperSchedule& s, Rng&) {
             s.parallelSlot = 2 * ni + 3;
             return true;
         }},
        {"parallel-reduction", DiagCode::S009_ParallelReduction, true,
         [&info, ni](SuperSchedule& s, Rng&) {
             for (u32 idx = 0; idx < ni; ++idx) {
                 if (info.isReduction[idx]) {
                     s.parallelSlot = outerSlot(idx);
                     return true;
                 }
             }
             return false;
         }},
        {"split-zero", DiagCode::S010_SplitZero, true,
         [ni](SuperSchedule& s, Rng& rng) {
             s.splits[rng.index(ni)] = 0;
             return true;
         }},
        {"layout-count-mismatch", DiagCode::S012_DenseLayoutMisaligned, true,
         [](SuperSchedule& s, Rng&) {
             s.denseRowMajor.push_back(true);
             return true;
         }},
    };
    return out;
}

std::vector<Mutation>
warningMutations(Algorithm alg)
{
    const AlgorithmInfo& info = algorithmInfo(alg);
    const u32 ni = info.numIndices;
    std::vector<Mutation> out = {
        {"split-non-pow2", DiagCode::S101_SplitNotPow2, false,
         [](SuperSchedule& s, Rng&) {
             s.splits[0] = 3;
             return true;
         }},
        {"split-exceeds-extent", DiagCode::S102_SplitExceedsExtent, false,
         [](SuperSchedule& s, Rng&) {
             s.splits[0] = 1u << 20; // both formatOf and lower clamp it
             return true;
         }},
        {"parallel-degenerate", DiagCode::S103_ParallelDegenerate, false,
         [&info, ni](SuperSchedule& s, Rng&) {
             for (u32 idx = 0; idx < ni; ++idx) {
                 if (!info.isReduction[idx]) {
                     s.splits[idx] = 1;
                     s.parallelSlot = innerSlot(idx);
                     return true;
                 }
             }
             return false;
         }},
    };
    return out;
}

SparseMatrix
intMatrix(u32 rows, u32 cols, u32 nnz, Rng& rng)
{
    std::vector<Triplet> t;
    for (u32 n = 0; n < nnz; ++n) {
        t.push_back({static_cast<u32>(rng.index(rows)),
                     static_cast<u32>(rng.index(cols)),
                     static_cast<float>(rng.uniformInt(1, 4))});
    }
    return SparseMatrix(rows, cols, t);
}

void
fillInt(DenseMatrix& m, Rng& rng)
{
    for (auto& x : m.data())
        x = static_cast<float>(rng.uniformInt(1, 3));
}

/**
 * The differential core: corrupted SpMM schedules either get rejected with
 * the expected stable code, or — when accepted — must execute bit-identical
 * to the dense reference. Integer-valued operands make float accumulation
 * exact in any order, so the comparison demands equality.
 */
TEST(AnalysisMutationFuzz, SpmmDifferential)
{
    Rng rng(515);
    const u32 rows = 48, cols = 40, J = 8;
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, rows, cols, J);
    SuperScheduleSpace space(Algorithm::SpMM, shape);
    auto m = intMatrix(rows, cols, 400, rng);
    DenseMatrix b(cols, J);
    fillInt(b, rng);
    DenseMatrix want = spmmReference(m, b);

    auto errs = errorMutations(Algorithm::SpMM);
    auto warns = warningMutations(Algorithm::SpMM);

    u32 illegal_total = 0, illegal_rejected = 0, accepted_executed = 0;
    const u32 rounds_per_mutation = 4;
    auto run_one = [&](const Mutation& mu) {
        SuperSchedule v = space.sample(rng);
        if (!mu.apply(v, rng))
            return;
        if (mu.isError)
            ++illegal_total;
        auto diags = analysis::verifySchedule(v, shape);
        if (diags.hasErrors()) {
            EXPECT_TRUE(mu.isError)
                << mu.name << " is warning-class but was rejected:\n"
                << diags.format();
            EXPECT_TRUE(diags.has(mu.expect))
                << mu.name << " rejected without its stable code:\n"
                << diags.format();
            if (mu.isError)
                ++illegal_rejected;
            return;
        }
        // Accepted: the verifier claims this schedule is legal. Prove it by
        // execution — any mis-execution here is a false accept.
        EXPECT_FALSE(mu.isError)
            << "FALSE ACCEPT of " << mu.name << ": " << v.key();
        if (mu.isError)
            return;
        EXPECT_TRUE(diags.has(mu.expect))
            << mu.name << " accepted without its warning code:\n"
            << diags.format();
        std::optional<HierSparseTensor> t;
        try {
            t = HierSparseTensor::build(formatOf(v, shape), m);
        } catch (const FormatTooLarge&) {
            return;
        }
        LoopNest nest = lower(v, shape);
        auto nest_diags = analysis::verifyLoopNest(nest);
        EXPECT_FALSE(nest_diags.hasErrors()) << nest_diags.format();
        LoopNestArgs args;
        args.a = &*t;
        args.matB = &b;
        ParallelConfig par = (accepted_executed % 2) ? ParallelConfig{4, 7}
                                                     : ParallelConfig{1, 128};
        auto got = executeLoopNest(nest, args, par);
        EXPECT_EQ(0.0, maxAbsDiff(want, got.mat)) << v.key();
        ++accepted_executed;
    };
    for (u32 round = 0; round < rounds_per_mutation; ++round) {
        for (const Mutation& mu : errs)
            run_one(mu);
        for (const Mutation& mu : warns)
            run_one(mu);
    }
    // Also feed unmutated samples through the accept path.
    for (u32 n = 0; n < 8; ++n) {
        Mutation identity{"identity", DiagCode::S001_LoopOrderSize, false,
                          [](SuperSchedule&, Rng&) { return true; }};
        SuperSchedule v = space.sample(rng);
        auto diags = analysis::verifySchedule(v, shape);
        EXPECT_FALSE(diags.hasErrors())
            << "sampled schedule rejected: " << v.key() << "\n"
            << diags.format();
    }

    ASSERT_GT(illegal_total, 0u);
    // The acceptance bar is >= 95%; the verifier actually rejects 100%.
    EXPECT_GE(illegal_rejected * 100, illegal_total * 95)
        << illegal_rejected << "/" << illegal_total
        << " illegal mutants rejected";
    EXPECT_GT(accepted_executed, 0u)
        << "no accepted mutant reached the execution differential";
}

/** Error-class mutants must carry their stable code on every algorithm. */
TEST(AnalysisMutationFuzz, AllAlgorithmsRejectWithStableCodes)
{
    struct Case
    {
        Algorithm alg;
        ProblemShape shape;
    };
    std::vector<Case> cases = {
        {Algorithm::SpMV, ProblemShape::forMatrix(Algorithm::SpMV, 48, 40)},
        {Algorithm::SpMM,
         ProblemShape::forMatrix(Algorithm::SpMM, 48, 40, 8)},
        {Algorithm::SDDMM,
         ProblemShape::forMatrix(Algorithm::SDDMM, 48, 40, 6)},
        {Algorithm::MTTKRP,
         ProblemShape::forTensor3(Algorithm::MTTKRP, 16, 12, 10, 8)},
    };
    for (const auto& c : cases) {
        Rng rng(700 + static_cast<u64>(c.alg));
        SuperScheduleSpace space(c.alg, c.shape);
        u32 total = 0, rejected = 0;
        for (const Mutation& mu : errorMutations(c.alg)) {
            for (u32 round = 0; round < 3; ++round) {
                SuperSchedule v = space.sample(rng);
                if (!mu.apply(v, rng))
                    continue;
                ++total;
                auto diags = analysis::verifySchedule(v, c.shape);
                if (diags.hasErrors())
                    ++rejected;
                EXPECT_TRUE(diags.has(mu.expect))
                    << algorithmName(c.alg) << " " << mu.name << ":\n"
                    << diags.format();
            }
        }
        ASSERT_GT(total, 0u);
        EXPECT_GE(rejected * 100, total * 95) << algorithmName(c.alg);
    }
}

// ---------------------------------------------------------------------------
// Targeted schedule checks not reachable by field mutation
// ---------------------------------------------------------------------------

TEST(ScheduleVerifier, DefaultSchedulesHaveNoErrors)
{
    std::vector<ProblemShape> shapes = {
        ProblemShape::forMatrix(Algorithm::SpMV, 100, 80),
        ProblemShape::forMatrix(Algorithm::SpMM, 100, 80, 16),
        ProblemShape::forMatrix(Algorithm::SDDMM, 100, 80, 16),
        ProblemShape::forTensor3(Algorithm::MTTKRP, 30, 20, 10, 8),
    };
    for (const auto& shape : shapes) {
        auto diags = analysis::verifySchedule(defaultSchedule(shape), shape);
        EXPECT_FALSE(diags.hasErrors()) << diags.format();
    }
}

TEST(ScheduleVerifier, ZeroExtentShapeIsS011)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 48, 40, 8);
    auto s = defaultSchedule(shape);
    shape.indexExtent[0] = 0;
    auto diags = analysis::verifySchedule(s, shape);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::S011_ShapeExtentZero));
}

TEST(ScheduleVerifier, AlgorithmShapeMismatchIsS014)
{
    auto spmv = ProblemShape::forMatrix(Algorithm::SpMV, 48, 40);
    auto spmm = ProblemShape::forMatrix(Algorithm::SpMM, 48, 40, 8);
    auto diags = analysis::verifySchedule(defaultSchedule(spmv), spmm);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::S014_AlgorithmMismatch));
}

TEST(ScheduleVerifier, StructureOnlyOverloadSkipsShapeChecks)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 48, 40);
    auto s = defaultSchedule(shape);
    s.splits[0] = 1u << 20; // would be S102 against this shape
    auto diags = analysis::verifySchedule(s);
    EXPECT_FALSE(diags.hasErrors());
    EXPECT_FALSE(diags.has(DiagCode::S102_SplitExceedsExtent));
    EXPECT_TRUE(
        analysis::verifySchedule(s, shape).has(
            DiagCode::S102_SplitExceedsExtent));
}

TEST(ScheduleVerifier, RandomInsertCapabilityIsS013)
{
    // No shipped kernel random-inserts (requiredAccess is empty for all
    // five), so the capability check is exercised with a synthetic
    // requirement, the way a future scatter-style kernel would state it.
    for (Algorithm alg : allAlgorithms()) {
        auto req = analysis::requiredAccess(alg);
        EXPECT_FALSE(req.randomInsert);
        EXPECT_FALSE(req.locate);
    }

    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 48, 40);
    auto csr = defaultSchedule(shape); // U row level, C column level
    analysis::AccessRequirements need_insert;
    need_insert.randomInsert = true;

    DiagnosticBag bag;
    analysis::checkAccessCapabilities(csr, need_insert, bag);
    EXPECT_TRUE(bag.hasErrors());
    EXPECT_TRUE(bag.has(DiagCode::S013_CompressedRandomInsert));

    auto dense = csr;
    for (auto& f : dense.sparseLevelFormats)
        f = LevelFormat::Uncompressed;
    DiagnosticBag ok;
    analysis::checkAccessCapabilities(dense, need_insert, ok);
    EXPECT_TRUE(ok.empty());
}

TEST(ScheduleVerifier, WorkspaceScopeNotOutermostIsS015)
{
    auto shape =
        ProblemShape::forMatrix(Algorithm::FusedSDDMMSpMM, 48, 40, 6);
    auto s = defaultSchedule(shape);
    EXPECT_FALSE(analysis::verifySchedule(s, shape).hasErrors());

    // Swap the leading scope (i) slot with the first non-scope slot: the
    // workspace's fission point no longer dominates both phases.
    const auto& info = algorithmInfo(Algorithm::FusedSDDMMSpMM);
    std::size_t first_scope = s.loopOrder.size(), first_other = s.loopOrder.size();
    for (std::size_t n = 0; n < s.loopOrder.size(); ++n) {
        bool scope = info.scopeIndex[slotIndex(s.loopOrder[n])];
        if (scope && first_scope == s.loopOrder.size())
            first_scope = n;
        if (!scope && first_other == s.loopOrder.size())
            first_other = n;
    }
    ASSERT_LT(first_scope, s.loopOrder.size());
    ASSERT_LT(first_other, s.loopOrder.size());
    std::swap(s.loopOrder[first_scope], s.loopOrder[first_other]);
    auto diags = analysis::verifySchedule(s, shape);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::S015_WorkspaceScopeOrder))
        << diags.format();

    // Non-workspace algorithms can order loops freely: never S015.
    auto spmm_shape = ProblemShape::forMatrix(Algorithm::SpMM, 48, 40, 8);
    auto sp = defaultSchedule(spmm_shape);
    std::swap(sp.loopOrder[0], sp.loopOrder[1]);
    EXPECT_FALSE(
        analysis::verifySchedule(sp, spmm_shape).has(
            DiagCode::S015_WorkspaceScopeOrder));
}

TEST(ScheduleVerifier, PerfNotesSurfaceSectionThreeOneCosts)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 48, 40);
    auto csr = defaultSchedule(shape);
    // CSR SpMV iterates the compressed column level innermost: S202.
    auto diags = analysis::verifySchedule(csr, shape);
    EXPECT_FALSE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::S202_InnerLoopNotVectorizable));
    EXPECT_FALSE(diags.has(DiagCode::S201_DiscordantBinarySearch));

    // Swapping i and k outer loops makes the traversal discordant: the
    // compressed k level is then resolved by binary search per row — S201.
    auto disc = csr;
    for (auto& slot : disc.loopOrder) {
        if (slot == outerSlot(0))
            slot = outerSlot(1);
        else if (slot == outerSlot(1))
            slot = outerSlot(0);
    }
    auto ddiags = analysis::verifySchedule(disc, shape);
    EXPECT_FALSE(ddiags.hasErrors());
    EXPECT_TRUE(ddiags.has(DiagCode::S201_DiscordantBinarySearch))
        << ddiags.format();
}

// ---------------------------------------------------------------------------
// Canonicalization
// ---------------------------------------------------------------------------

/** A degenerate-bookkeeping permutation of @p s: same measurement class,
 *  different raw key. Empty when @p s has no degenerate slot to move. */
std::optional<SuperSchedule>
degenerateTwin(const SuperSchedule& s)
{
    SuperSchedule v = s;
    int pos = -1;
    for (std::size_t p = 0; p < v.loopOrder.size(); ++p) {
        if (slotDegenerate(v, v.loopOrder[p])) {
            pos = static_cast<int>(p);
            break;
        }
    }
    if (pos < 0)
        return std::nullopt;
    u32 slot = v.loopOrder[pos];
    v.loopOrder.erase(v.loopOrder.begin() + pos);
    v.loopOrder.insert(v.loopOrder.begin(), slot);
    for (std::size_t l = 0; l < v.sparseLevelOrder.size(); ++l) {
        if (slotDegenerate(v, v.sparseLevelOrder[l])) {
            v.sparseLevelFormats[l] =
                v.sparseLevelFormats[l] == LevelFormat::Uncompressed
                    ? LevelFormat::Compressed
                    : LevelFormat::Uncompressed;
            break;
        }
    }
    if (v.key() == s.key())
        return std::nullopt;
    return v;
}

TEST(Canonicalization, DegenerateTwinsShareTheCanonicalKey)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 48, 40, 8);
    auto s = defaultSchedule(shape); // unsplit: every inner slot degenerate
    auto twin = degenerateTwin(s);
    ASSERT_TRUE(twin.has_value());

    EXPECT_NE(twin->key(), s.key());
    EXPECT_FALSE(analysis::verifySchedule(*twin, shape).hasErrors());
    EXPECT_EQ(analysis::canonicalKey(*twin), analysis::canonicalKey(s));

    // Same measurement class means the same lowered nest and format.
    EXPECT_EQ(lower(*twin, shape).describe(), lower(s, shape).describe());
    EXPECT_TRUE(formatOf(*twin, shape) == formatOf(s, shape));
}

TEST(Canonicalization, IsIdempotentAndPreservesActiveOrders)
{
    Rng rng(901);
    auto shape = ProblemShape::forMatrix(Algorithm::SDDMM, 48, 40, 6);
    SuperScheduleSpace space(Algorithm::SDDMM, shape);
    for (u32 n = 0; n < 20; ++n) {
        SuperSchedule s = space.sample(rng);
        SuperSchedule c = analysis::canonicalizeSchedule(s);
        EXPECT_EQ(analysis::canonicalizeSchedule(c).key(), c.key());
        EXPECT_FALSE(analysis::verifySchedule(c, shape).hasErrors());
        EXPECT_EQ(activeLoopOrder(c), activeLoopOrder(s));
        EXPECT_EQ(activeSparseLevelOrder(c), activeSparseLevelOrder(s));
        EXPECT_EQ(activeSparseLevelFormats(c), activeSparseLevelFormats(s));
        EXPECT_EQ(c.splits, s.splits);
        EXPECT_EQ(c.parallelSlot, s.parallelSlot);
        EXPECT_EQ(c.numThreads, s.numThreads);
        EXPECT_EQ(c.ompChunk, s.ompChunk);
    }
}

TEST(Canonicalization, NormalizesFixedLayoutFlags)
{
    // SpMM fixes both dense layouts; a flipped flag is dead state that
    // every consumer overrides, so canonicalization folds it back.
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 48, 40, 8);
    auto s = defaultSchedule(shape);
    auto flipped = s;
    ASSERT_FALSE(flipped.denseRowMajor.empty());
    flipped.denseRowMajor[0] = !flipped.denseRowMajor[0];
    EXPECT_NE(flipped.key(), s.key());
    EXPECT_EQ(analysis::canonicalKey(flipped), analysis::canonicalKey(s));
    // And the flip never produces a strided-tail note: fixed layouts are
    // analyzed under the paper's choice, exactly like the cost model.
    EXPECT_FALSE(analysis::verifySchedule(flipped, shape)
                     .has(DiagCode::S203_StridedVectorAccess));
}

TEST(Canonicalization, MalformedSchedulesPassThroughUnchanged)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 48, 40);
    auto s = defaultSchedule(shape);
    s.loopOrder.pop_back(); // S001
    EXPECT_EQ(analysis::canonicalizeSchedule(s).key(), s.key());
}

TEST(Canonicalization, DistinctClassesKeepDistinctKeys)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 48, 40);
    auto a = defaultSchedule(shape);
    auto b = a;
    b.ompChunk = a.ompChunk * 2;
    EXPECT_NE(analysis::canonicalKey(a), analysis::canonicalKey(b));
    auto c = a;
    c.numThreads = 24;
    EXPECT_NE(analysis::canonicalKey(a), analysis::canonicalKey(c));
}

// ---------------------------------------------------------------------------
// key() round trip
// ---------------------------------------------------------------------------

TEST(ParseKey, RoundTripsSampledSchedules)
{
    // Every registered algorithm — a sixth kernel added without a key
    // round trip fails here, not in production logs.
    for (Algorithm alg : allAlgorithms()) {
        const auto& info = algorithmInfo(alg);
        ProblemShape shape =
            info.sparseOrder == 3
                ? ProblemShape::forTensor3(alg, 16, 12, 10, 8)
                : ProblemShape::forMatrix(alg, 48, 40, 6);
        Rng rng(42 + static_cast<u64>(alg));
        SuperScheduleSpace space(alg, shape);
        for (u32 n = 0; n < 10; ++n) {
            SuperSchedule s = space.sample(rng);
            EXPECT_EQ(SuperSchedule::parseKey(s.key()).key(), s.key())
                << algorithmName(alg);
        }
        auto d = defaultSchedule(shape);
        EXPECT_EQ(SuperSchedule::parseKey(d.key()).key(), d.key())
            << algorithmName(alg);
    }
}

TEST(ParseKey, RejectsMalformedKeys)
{
    EXPECT_THROW(SuperSchedule::parseKey(""), FatalError);
    EXPECT_THROW(SuperSchedule::parseKey("SpMM"), FatalError);
    EXPECT_THROW(SuperSchedule::parseKey("NoSuchAlg|s=1|lo=0|p=0:1:1|slo=0|"
                                         "lf=U|dl=r"),
                 FatalError);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 48, 40, 8);
    std::string k = defaultSchedule(shape).key();
    std::string bad = k;
    auto at = bad.find("|lo=");
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, 4, "|xx=");
    EXPECT_THROW(SuperSchedule::parseKey(bad), FatalError);
}

// ---------------------------------------------------------------------------
// LoopNest corruption via fromRaw
// ---------------------------------------------------------------------------

/** Disassembled nest, mutable, reassembled through LoopNest::fromRaw. */
struct NestParts
{
    Algorithm alg;
    ProblemShape shape;
    std::array<u32, 4> splits;
    std::vector<LoopNode> loops;
    ComputeLeaf leaf;
    std::vector<u32> levelSlots;
    std::vector<LevelFormat> levelFormats;
    std::vector<bool> levelConcordant;

    LoopNest build() const
    {
        return LoopNest::fromRaw(alg, shape, splits, loops, leaf, levelSlots,
                                 levelFormats, levelConcordant);
    }
};

NestParts
partsOf(const LoopNest& n)
{
    NestParts p;
    p.alg = n.alg();
    p.shape = n.shape();
    p.splits = {n.splitOf(0), n.splitOf(1), n.splitOf(2), n.splitOf(3)};
    p.loops = n.loops();
    p.leaf = n.leaf();
    for (u32 l = 0; l < n.numLevels(); ++l) {
        p.levelSlots.push_back(n.levelSlot(l));
        p.levelFormats.push_back(n.levelFormat(l));
        p.levelConcordant.push_back(n.levelConcordant(l));
    }
    return p;
}

class LoopNestCorruption : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        shape_ = ProblemShape::forMatrix(Algorithm::SpMM, 48, 40, 8);
        base_ = partsOf(lower(defaultSchedule(shape_), shape_));
        // Discordant SpMV (k outer, i inner): its nest carries a
        // binary-search locate step for the compressed k level.
        spmv_shape_ = ProblemShape::forMatrix(Algorithm::SpMV, 48, 40);
        auto disc = defaultSchedule(spmv_shape_);
        for (auto& slot : disc.loopOrder) {
            if (slot == outerSlot(0))
                slot = outerSlot(1);
            else if (slot == outerSlot(1))
                slot = outerSlot(0);
        }
        disc_ = partsOf(lower(disc, spmv_shape_));
        bool found = false;
        for (const auto& n : disc_.loops)
            for (const auto& loc : n.locates)
                found |= loc.binarySearch;
        ASSERT_TRUE(found) << "discordant base nest has no locate step";
    }

    ProblemShape shape_, spmv_shape_;
    NestParts base_, disc_;
};

TEST_F(LoopNestCorruption, RoundTripOfValidNestsVerifiesClean)
{
    EXPECT_FALSE(analysis::verifyLoopNest(base_.build()).hasErrors());
    EXPECT_FALSE(analysis::verifyLoopNest(disc_.build()).hasErrors());
}

TEST_F(LoopNestCorruption, DuplicateLoopIsL001)
{
    auto p = base_;
    p.loops.push_back(p.loops.back());
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L001_SlotBoundTwice)) << diags.format();
}

TEST_F(LoopNestCorruption, MissingLoopIsL002)
{
    auto p = base_;
    p.loops.pop_back();
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L002_ActiveSlotUnbound))
        << diags.format();
}

TEST_F(LoopNestCorruption, UnresolvedLevelIsL003)
{
    auto p = base_;
    ASSERT_EQ(p.loops[1].kind, LoopKind::Sparse);
    p.loops[1].kind = LoopKind::Dense;
    p.loops[1].level = -1;
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L003_LevelUnresolved)) << diags.format();
}

TEST_F(LoopNestCorruption, LocateOnDenseCarrierIsL004)
{
    auto p = base_;
    ASSERT_EQ(p.loops[2].kind, LoopKind::Dense);
    p.loops[2].locates.push_back({1, p.levelSlots[1], true});
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L004_SparseParentNotDominated))
        << diags.format();
}

TEST_F(LoopNestCorruption, LocateBeforeItsCoordinateBindsIsL005)
{
    auto p = disc_;
    // Swap the discordant dense k loop under the sparse i loop: the locate
    // now consumes k's coordinate before the k loop binds it.
    ASSERT_GE(p.loops.size(), 2u);
    std::swap(p.loops[0], p.loops[1]);
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L005_LocateSlotUnbound))
        << diags.format();
}

TEST_F(LoopNestCorruption, WrongExtentIsL006)
{
    auto p = base_;
    p.loops[0].extent += 3;
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L006_SplitReconstruction))
        << diags.format();
}

TEST_F(LoopNestCorruption, DoubleResolutionIsL007)
{
    auto p = base_;
    ASSERT_EQ(p.loops[1].kind, LoopKind::Sparse);
    p.loops[1].locates.push_back({0, p.levelSlots[0], false});
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L007_LevelResolvedTwice))
        << diags.format();
}

TEST_F(LoopNestCorruption, LocateKindContradictsFormatIsL008)
{
    auto p = disc_;
    for (auto& n : p.loops)
        for (auto& loc : n.locates)
            loc.binarySearch = !loc.binarySearch;
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L008_LocateKindMismatch))
        << diags.format();
}

TEST_F(LoopNestCorruption, LeafMetadataMismatchIsL009)
{
    auto p = base_;
    p.leaf.vectorIndex = 0; // the tail is over j, not i
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L009_VectorLeafMismatch))
        << diags.format();

    auto q = base_;
    q.leaf.alg = Algorithm::SpMV;
    auto adiags = analysis::verifyLoopNest(q.build());
    EXPECT_TRUE(adiags.has(DiagCode::L009_VectorLeafMismatch));
}

TEST_F(LoopNestCorruption, LevelSlotBookkeepingIsL010)
{
    auto p = base_;
    ASSERT_GE(p.levelSlots.size(), 2u);
    p.levelSlots[1] = p.levelSlots[0];
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L010_LevelSlotMismatch))
        << diags.format();
}

TEST_F(LoopNestCorruption, ParallelReductionIsR001Error)
{
    auto p = base_;
    ASSERT_EQ(slotIndex(p.loops[1].slot), 1u); // k, the reduction index
    p.loops[1].parallel = true;
    p.loops[1].chunk = 32;
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::R001_ParallelReductionRace))
        << diags.format();
}

TEST_F(LoopNestCorruption, NestedParallelIsR002Warning)
{
    auto p = base_;
    p.loops[2].parallel = true; // j: safe index, but not outermost
    p.loops[2].chunk = 16;
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_FALSE(diags.hasErrors()) << diags.format();
    EXPECT_TRUE(diags.has(DiagCode::R002_NestedParallelIgnored));
}

TEST_F(LoopNestCorruption, ChunkZeroIsR003Warning)
{
    auto p = base_;
    ASSERT_TRUE(p.loops[0].parallel);
    p.loops[0].chunk = 0;
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_FALSE(diags.hasErrors()) << diags.format();
    EXPECT_TRUE(diags.has(DiagCode::R003_ParallelChunkZero));
}

// ---------------------------------------------------------------------------
// Fused (workspace) nest corruption via fromRawFused
// ---------------------------------------------------------------------------

/** FusedNestParts: NestParts plus the consumer phase and the workspace. */
struct FusedNestParts
{
    Algorithm alg;
    ProblemShape shape;
    std::array<u32, 4> splits;
    std::vector<LoopNode> loops;
    ComputeLeaf leaf;
    std::vector<u32> levelSlots;
    std::vector<LevelFormat> levelFormats;
    std::vector<bool> levelConcordant;
    std::vector<LoopNode> consumerLoops;
    ComputeLeaf consumerLeaf;
    WorkspaceDecl workspace;

    LoopNest build() const
    {
        return LoopNest::fromRawFused(alg, shape, splits, loops, leaf,
                                      levelSlots, levelFormats,
                                      levelConcordant, consumerLoops,
                                      consumerLeaf, workspace);
    }
};

FusedNestParts
fusedPartsOf(const LoopNest& n)
{
    FusedNestParts p;
    p.alg = n.alg();
    p.shape = n.shape();
    p.splits = {n.splitOf(0), n.splitOf(1), n.splitOf(2), n.splitOf(3)};
    p.loops = n.loops();
    p.leaf = n.leaf();
    for (u32 l = 0; l < n.numLevels(); ++l) {
        p.levelSlots.push_back(n.levelSlot(l));
        p.levelFormats.push_back(n.levelFormat(l));
        p.levelConcordant.push_back(n.levelConcordant(l));
    }
    p.consumerLoops = n.consumerLoops();
    p.consumerLeaf = n.consumerLeaf();
    p.workspace = n.workspace();
    return p;
}

class FusedNestCorruption : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        shape_ =
            ProblemShape::forMatrix(Algorithm::FusedSDDMMSpMM, 48, 40, 6);
        auto nest = lower(defaultSchedule(shape_), shape_);
        ASSERT_TRUE(nest.fused());
        base_ = fusedPartsOf(nest);
        ASSERT_GE(base_.workspace.scopeDepth, 1u);
        ASSERT_GT(base_.loops.size(), base_.workspace.scopeDepth);
        ASSERT_FALSE(base_.consumerLoops.empty());
    }

    ProblemShape shape_;
    FusedNestParts base_;
};

TEST_F(FusedNestCorruption, RoundTripOfValidFusedNestVerifiesClean)
{
    auto diags = analysis::verifyLoopNest(base_.build());
    EXPECT_FALSE(diags.hasErrors()) << diags.format();
    EXPECT_FALSE(diags.has(DiagCode::R004_ParallelWorkspaceWrite));
    EXPECT_FALSE(diags.has(DiagCode::R005_ParallelWorkspaceConsume));
}

TEST_F(FusedNestCorruption, WorkspaceExtentMismatchIsL011)
{
    auto p = base_;
    p.workspace.extent += 3; // no longer covers index j
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L011_WorkspaceScopeInvalid))
        << diags.format();
}

TEST_F(FusedNestCorruption, ScopeDepthPastNestIsL011)
{
    auto p = base_;
    p.workspace.scopeDepth = static_cast<u32>(p.loops.size()) + 1;
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L011_WorkspaceScopeInvalid))
        << diags.format();
}

TEST_F(FusedNestCorruption, NonScopeLoopInsidePrefixIsL011)
{
    auto p = base_;
    // Pull a producer loop up into the scope prefix: the workspace is now
    // declared under a loop that only the producer phase iterates.
    std::swap(p.loops[p.workspace.scopeDepth - 1],
              p.loops[p.workspace.scopeDepth]);
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L011_WorkspaceScopeInvalid))
        << diags.format();
}

TEST_F(FusedNestCorruption, MissingWorkspaceDeclIsL012)
{
    auto p = base_;
    p.workspace = WorkspaceDecl{}; // kernel fuses, nest says it doesn't
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L012_WorkspaceInitBeforeUse))
        << diags.format();
}

TEST_F(FusedNestCorruption, MissingConsumerPhaseIsL012)
{
    auto p = base_;
    p.consumerLoops.clear(); // accumulated but never consumed
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L012_WorkspaceInitBeforeUse))
        << diags.format();
}

TEST_F(FusedNestCorruption, WorkspaceOnSingleExpressionNestIsL012)
{
    // The dual corruption: a non-workspace kernel whose nest smuggles in
    // a consumer phase.
    auto spmm_shape = ProblemShape::forMatrix(Algorithm::SpMM, 48, 40, 8);
    auto spmm = fusedPartsOf(lower(defaultSchedule(spmm_shape), spmm_shape));
    spmm.workspace = base_.workspace;
    spmm.consumerLoops = base_.consumerLoops;
    spmm.consumerLeaf = base_.consumerLeaf;
    auto diags = analysis::verifyLoopNest(spmm.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::L012_WorkspaceInitBeforeUse))
        << diags.format();
}

TEST_F(FusedNestCorruption, ParallelProducerLoopIsR004)
{
    auto p = base_;
    // Parallelize a producer-phase loop: every thread of that loop
    // accumulates into the scratch vector of the same scope iteration.
    auto& n = p.loops[p.workspace.scopeDepth];
    n.parallel = true;
    n.chunk = 8;
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::R004_ParallelWorkspaceWrite))
        << diags.format();
}

TEST_F(FusedNestCorruption, ParallelScopeLoopBelowScopeIsR005)
{
    auto p = base_;
    // Declare the workspace *above* every loop (scope depth 0): the
    // parallel scope loop now runs both phases against one shared scratch
    // vector — producer writes race consumer reads.
    p.workspace.scopeDepth = 0;
    p.loops[0].parallel = true;
    if (p.loops[0].chunk == 0)
        p.loops[0].chunk = 8;
    auto diags = analysis::verifyLoopNest(p.build());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.has(DiagCode::R005_ParallelWorkspaceConsume))
        << diags.format();
}

TEST(VerifyLowered, MergesBothPassesAndShortCircuitsOnErrors)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 48, 40);
    auto s = defaultSchedule(shape);
    auto clean = analysis::verifyLowered(s, shape);
    EXPECT_FALSE(clean.hasErrors());

    s.loopOrder.pop_back();
    auto bad = analysis::verifyLowered(s, shape);
    EXPECT_TRUE(bad.hasErrors());
    EXPECT_TRUE(bad.has(DiagCode::S001_LoopOrderSize));
}

// ---------------------------------------------------------------------------
// Tuner pruning: same winner, strictly fewer measurements
// ---------------------------------------------------------------------------

class TunerPruning : public ::testing::Test
{
  protected:
    void SetUp() override { setLogLevel(LogLevel::Off); }
    void TearDown() override { setLogLevel(LogLevel::Info); }
};

TEST_F(TunerPruning, SameBestScheduleWithStrictlyFewerMeasurements)
{
    CorpusOptions copt;
    copt.count = 3;
    copt.minDim = 256;
    copt.maxDim = 512;
    copt.minNnz = 800;
    copt.maxNnz = 3000;
    auto corpus = makeCorpus(copt, 81);

    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 4;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = 6;
    // topK larger than the whole node set: every graph schedule lands in
    // the remeasurement pass, so the injected canonical duplicates are
    // guaranteed to be among the candidates.
    opt.topK = 128;
    opt.efSearch = 160;
    WacoTuner tuner(Algorithm::SpMM, MachineConfig::intel24(), opt);

    auto ds = buildDataset(Algorithm::SpMM, corpus, tuner.oracle(),
                           opt.schedulesPerMatrix, 82);
    // Inject measurement-equivalent twins: degenerate-slot permutations
    // with the oracle's runtime for the original (they lower identically).
    u32 injected = 0;
    for (auto& e : ds.entries) {
        std::vector<ScheduleSample> twins;
        for (const auto& smp : e.samples) {
            if (auto twin = degenerateTwin(smp.schedule)) {
                twins.push_back({*twin, smp.runtime});
                ++injected;
            }
        }
        e.samples.insert(e.samples.end(), twins.begin(), twins.end());
    }
    ASSERT_GT(injected, 0u) << "corpus produced no degenerate schedules";

    tuner.attachDataset(ds);
    const auto& nodes = tuner.graphSchedules();
    ASSERT_LE(nodes.size(), static_cast<std::size_t>(opt.topK));

    Rng rng(83);
    auto m = genUniform(256, 256, 2000, rng);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 256, 256);

    // Brute-force reference: every graph schedule measured on the oracle.
    double best = std::numeric_limits<double>::infinity();
    std::string bestKey;
    u32 ties = 0;
    for (const auto& s : nodes) {
        Measurement r = tuner.oracle().measure(m, shape, s);
        if (!r.valid || r.seconds > best)
            continue;
        ties = r.seconds == best ? ties + 1 : 1;
        if (r.seconds < best)
            bestKey = s.key();
        best = r.seconds;
    }
    auto with = tuner.tune(m);

    // Identical winner — dedup and filtering never change the search.
    EXPECT_EQ(with.bestMeasured.seconds, best);
    if (ties == 1) {
        EXPECT_EQ(with.best.key(), bestKey);
    }

    // Strictly fewer oracle calls than candidates: every canonical
    // duplicate is served from the measurement cache, and every graph
    // schedule is accounted for exactly once.
    EXPECT_GT(with.measurementsReused, 0u);
    EXPECT_GT(with.candidatesCanonicalized, 0u);
    EXPECT_LT(with.remeasureStats.attempts, nodes.size());
    EXPECT_EQ(with.remeasureStats.attempts + with.measurementsReused +
                  with.asymRejected,
              nodes.size());
    EXPECT_EQ(with.topK.size(),
              with.remeasureStats.attempts + with.measurementsReused);
}

TEST_F(TunerPruning, GraphBuildDropsMalformedSchedules)
{
    CorpusOptions copt;
    copt.count = 2;
    copt.minDim = 256;
    copt.maxDim = 384;
    copt.minNnz = 600;
    copt.maxNnz = 1500;
    auto corpus = makeCorpus(copt, 91);

    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 4;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = 4;
    WacoTuner tuner(Algorithm::SpMV, MachineConfig::intel24(), opt);

    auto ds = buildDataset(Algorithm::SpMV, corpus, tuner.oracle(),
                           opt.schedulesPerMatrix, 92);
    std::size_t before = ds.allSchedules().size();
    // A dataset loaded from a corrupt checkpoint or built by an external
    // tool can contain garbage; the graph build must reject it.
    auto broken = defaultSchedule(ds.entries[0].shape);
    broken.loopOrder.pop_back();
    broken.ompChunk = 7777; // distinct key
    ds.entries[0].samples.push_back({broken, 1.0});
    ASSERT_EQ(ds.allSchedules().size(), before + 1);

    tuner.attachDataset(ds);
    EXPECT_EQ(tuner.graphSchedules().size(), before);
    for (const auto& s : tuner.graphSchedules())
        EXPECT_FALSE(analysis::verifySchedule(s).hasErrors()) << s.key();
}

} // namespace
} // namespace waco
