/**
 * @file
 * Unit + property tests for the TACO-style format abstraction: level
 * construction, dense-block padding, round trips, and budget guards.
 */
#include <gtest/gtest.h>

#include <map>

#include "tensor/format.hpp"
#include "util/rng.hpp"

namespace waco {
namespace {

SparseMatrix
smallMatrix()
{
    // 4x6 with a 2x2 dense block at (0,0) and scattered entries.
    return SparseMatrix(4, 6,
                        {{0, 0, 1.f},
                         {0, 1, 2.f},
                         {1, 0, 3.f},
                         {1, 1, 4.f},
                         {2, 4, 5.f},
                         {3, 2, 6.f},
                         {3, 5, 7.f}});
}

TEST(Format, CsrLevelArrays)
{
    auto m = smallMatrix();
    auto t = HierSparseTensor::build(FormatDescriptor::csr(4, 6), m);
    ASSERT_EQ(t.levels().size(), 2u);
    const auto& top = t.levels()[0];
    EXPECT_EQ(top.fmt, LevelFormat::Uncompressed);
    EXPECT_EQ(top.numPositions, 4u);
    const auto& bot = t.levels()[1];
    EXPECT_EQ(bot.fmt, LevelFormat::Compressed);
    EXPECT_EQ(bot.pos, (std::vector<u64>{0, 2, 4, 5, 7}));
    EXPECT_EQ(bot.crd, (std::vector<u32>{0, 1, 0, 1, 4, 2, 5}));
    EXPECT_EQ(t.storedValues(), m.nnz());
}

TEST(Format, CscMatchesTransposedCsr)
{
    auto m = smallMatrix();
    auto csc = HierSparseTensor::build(FormatDescriptor::csc(4, 6), m);
    // Values in CSC order are the values of the transposed matrix in CSR order.
    auto mt = m.transposed();
    auto csr_t = HierSparseTensor::build(FormatDescriptor::csr(6, 4), mt);
    EXPECT_EQ(csc.values(), csr_t.values());
    EXPECT_EQ(csc.toSparseMatrix(), m);
}

TEST(Format, BcsrPadsDenseBlocks)
{
    auto m = smallMatrix();
    auto t = HierSparseTensor::build(FormatDescriptor::bcsr(4, 6, 2, 2), m);
    // Occupied 2x2 blocks: (0,0), (1,2), (1,1), (1,2)... -> (0,0),(1,1),(1,2)
    // block (0,0) holds 4 nnz, blocks (1,1),(1,2) hold the rest with padding.
    EXPECT_EQ(t.storedValues() % 4, 0u);
    EXPECT_GT(t.storedValues(), m.nnz());
    EXPECT_EQ(t.toSparseMatrix(), m);
}

TEST(Format, DenseStoresEveryEntry)
{
    auto m = smallMatrix();
    auto t = HierSparseTensor::build(FormatDescriptor::dense2d(4, 6), m);
    EXPECT_EQ(t.storedValues(), 24u);
    EXPECT_EQ(t.toSparseMatrix(), m);
}

TEST(Format, UcuAndUucRoundTrip)
{
    auto m = smallMatrix();
    auto ucu = HierSparseTensor::build(FormatDescriptor::ucu(4, 6, 2), m);
    EXPECT_EQ(ucu.toSparseMatrix(), m);
    auto uuc = HierSparseTensor::build(FormatDescriptor::uuc(4, 6, 2), m);
    EXPECT_EQ(uuc.toSparseMatrix(), m);
}

TEST(Format, Csf3dRoundTripCounts)
{
    Sparse3Tensor t3(3, 4, 5,
                     {{0, 0, 0, 1.f}, {0, 0, 3, 2.f}, {2, 1, 1, 3.f},
                      {2, 3, 4, 4.f}});
    auto t = HierSparseTensor::build(FormatDescriptor::csf3d(3, 4, 5), t3);
    ASSERT_EQ(t.levels().size(), 3u);
    EXPECT_EQ(t.levels()[0].crd, (std::vector<u32>{0, 2})); // i fibers
    EXPECT_EQ(t.storedValues(), 4u);
    u64 count = 0;
    t.forEachNonzero([&](const std::array<u32, 3>& c, float v) {
        ++count;
        EXPECT_LT(c[0], 3u);
        EXPECT_LT(c[1], 4u);
        EXPECT_LT(c[2], 5u);
        EXPECT_NE(v, 0.0f);
    });
    EXPECT_EQ(count, 4u);
}

TEST(Format, BudgetGuardThrows)
{
    // A huge dense level must trip the storage budget, like the paper
    // dropping pathological schedules.
    SparseMatrix m(100000, 100000, {{0, 0, 1.f}, {99999, 99999, 2.f}});
    EXPECT_THROW(
        HierSparseTensor::build(FormatDescriptor::dense2d(100000, 100000), m,
                                1024 * 1024),
        FormatTooLarge);
}

TEST(Format, ValidationRejectsBadDescriptors)
{
    // Dimension appearing twice as Full.
    EXPECT_THROW(FormatDescriptor(2, {4, 4, 0}, {1, 1, 1},
                                  {{0, LevelPart::Full,
                                    LevelFormat::Uncompressed},
                                   {0, LevelPart::Full,
                                    LevelFormat::Compressed}}),
                 FatalError);
    // Split dimension missing its inner level.
    EXPECT_THROW(FormatDescriptor(2, {4, 4, 0}, {2, 1, 1},
                                  {{0, LevelPart::Outer,
                                    LevelFormat::Uncompressed},
                                   {1, LevelPart::Full,
                                    LevelFormat::Compressed}}),
                 FatalError);
}

/** Property: any mix of level formats/orders/splits round-trips. */
class FormatRoundTrip : public ::testing::TestWithParam<u64> {};

TEST_P(FormatRoundTrip, RandomDescriptorsPreserveContents)
{
    Rng rng(GetParam());
    // Random 40x28 matrix with ~120 nonzeros.
    std::vector<Triplet> trip;
    for (int n = 0; n < 120; ++n) {
        trip.push_back({static_cast<u32>(rng.index(40)),
                        static_cast<u32>(rng.index(28)),
                        static_cast<float>(rng.uniformInt(1, 9))});
    }
    SparseMatrix m(40, 28, trip);

    // Random splits, level order and formats.
    std::array<u32, 3> splits = {
        static_cast<u32>(1u << rng.uniformInt(0, 3)),
        static_cast<u32>(1u << rng.uniformInt(0, 3)), 1};
    std::vector<LevelSpec> levels;
    for (u32 d = 0; d < 2; ++d) {
        if (splits[d] == 1) {
            levels.push_back({d, LevelPart::Full, LevelFormat::Compressed});
        } else {
            levels.push_back({d, LevelPart::Outer, LevelFormat::Compressed});
            levels.push_back({d, LevelPart::Inner, LevelFormat::Compressed});
        }
    }
    rng.shuffle(levels);
    for (auto& ls : levels) {
        if (rng.bernoulli(0.5))
            ls.fmt = LevelFormat::Uncompressed;
    }
    FormatDescriptor desc(2, {40, 28, 0}, splits, levels);
    auto t = HierSparseTensor::build(desc, m);
    EXPECT_EQ(t.toSparseMatrix(), m) << desc.name();
    EXPECT_GE(t.storedValues(), m.nnz()) << desc.name();
    EXPECT_GT(t.bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatRoundTrip, ::testing::Range<u64>(0, 40));

/** A random descriptor over @p dims: per-dimension splits of 1..8, the
 *  levels shuffled, each level U or C. */
FormatDescriptor
fuzzedDescriptor(Rng& rng, u32 order, const std::array<u32, 3>& dims)
{
    std::array<u32, 3> splits = {1, 1, 1};
    std::vector<LevelSpec> levels;
    for (u32 d = 0; d < order; ++d) {
        splits[d] = static_cast<u32>(1u << rng.uniformInt(0, 3));
        if (splits[d] == 1) {
            levels.push_back({d, LevelPart::Full, LevelFormat::Compressed});
        } else {
            levels.push_back({d, LevelPart::Outer, LevelFormat::Compressed});
            levels.push_back({d, LevelPart::Inner, LevelFormat::Compressed});
        }
    }
    rng.shuffle(levels);
    for (auto& ls : levels) {
        if (rng.bernoulli(0.5))
            ls.fmt = LevelFormat::Uncompressed;
    }
    return FormatDescriptor(order, dims, splits, levels);
}

/** The FormatTooLarge message @p fn throws, or "" when it does not. */
template <typename Fn>
std::string
budgetError(Fn&& fn)
{
    try {
        fn();
    } catch (const FormatTooLarge& e) {
        return e.what();
    }
    return "";
}

/**
 * Property: over fuzzed descriptors (U/C mixes, splits, level orders) on
 * matrices, 3-tensors and empty inputs, formatFootprint reports exactly
 * the level sizes, bytes and stored values build allocates; under a random
 * byte budget both either succeed alike or throw the same FormatTooLarge.
 */
TEST(FormatFootprint, MatchesBuildOnFuzzedDescriptors)
{
    std::map<std::string, u32> refusals;
    for (u64 seed = 0; seed < 300; ++seed) {
        Rng rng(seed);
        u32 order = rng.bernoulli(0.5) ? 2 : 3;
        std::array<u32, 3> dims = {0, 0, 0};
        for (u32 d = 0; d < order; ++d)
            dims[d] = static_cast<u32>(rng.uniformInt(1, 40));
        u32 nnz = seed % 10 == 0 ? 0 : static_cast<u32>(rng.uniformInt(1, 200));
        std::vector<Triplet> trip;
        std::vector<Quad> quad;
        for (u32 n = 0; n < nnz; ++n) {
            u32 i = static_cast<u32>(rng.index(dims[0]));
            u32 k = static_cast<u32>(rng.index(dims[1]));
            if (order == 2)
                trip.push_back({i, k, 1.0f});
            else
                quad.push_back({i, k, static_cast<u32>(rng.index(dims[2])),
                                1.0f});
        }
        SparseMatrix m(dims[0], dims[1], trip);
        Sparse3Tensor t(std::max(dims[0], 1u), std::max(dims[1], 1u),
                        std::max(dims[2], 1u), quad);
        SparseInput in = order == 2 ? SparseInput(m) : SparseInput(t);
        FormatDescriptor desc = fuzzedDescriptor(rng, order, dims);
        SCOPED_TRACE(desc.name() + " seed " + std::to_string(seed));

        // Sizes are read off the built arrays themselves: the crd array of
        // a C level, the padding a U level adds, every stored value.
        auto built = HierSparseTensor::build(desc, in);
        FormatFootprint fp = formatFootprint(desc, in);
        ASSERT_EQ(fp.levels.size(), built.levels().size());
        u64 parent_count = 1;
        u64 array_bytes = 4 * built.values().size();
        for (std::size_t l = 0; l < fp.levels.size(); ++l) {
            const BuiltLevel& bl = built.levels()[l];
            EXPECT_EQ(fp.levels[l].fmt, bl.fmt);
            u64 positions = bl.fmt == LevelFormat::Compressed
                ? bl.crd.size()
                : parent_count * bl.extent;
            EXPECT_EQ(fp.levels[l].numPositions, positions);
            if (bl.fmt == LevelFormat::Compressed) {
                EXPECT_EQ(bl.pos.size(), parent_count + 1);
                EXPECT_EQ(bl.pos.back(), bl.crd.size());
            }
            array_bytes += 4 * (bl.fmt == LevelFormat::Compressed
                                    ? bl.pos.size() + bl.crd.size()
                                    : 1);
            parent_count = positions;
        }
        u64 stored = 0;
        built.forEachStored([&](const auto&, float, bool) { ++stored; });
        EXPECT_EQ(fp.storedValues(), stored);
        EXPECT_EQ(fp.bytes(), array_bytes);
        EXPECT_EQ(fp.bytes(), built.bytes());
        EXPECT_EQ(fp.storedValues(), built.storedValues());
        if (order == 2) {
            EXPECT_EQ(built.toSparseMatrix(), m);
        }

        // A budget anywhere up to the real footprint.
        u64 max_bytes = static_cast<u64>(
            rng.uniformInt(0, static_cast<i64>(built.bytes())));
        std::string from_build = budgetError(
            [&] { HierSparseTensor::build(desc, in, max_bytes); });
        std::string from_footprint =
            budgetError([&] { formatFootprint(desc, in, max_bytes); });
        EXPECT_EQ(from_footprint, from_build);
        if (!from_build.empty())
            ++refusals[from_build.substr(0, from_build.find(" in "))];
    }
    // Every budget check fired somewhere in the sweep.
    EXPECT_GT(refusals["uncompressed level exceeds budget"], 0u);
    EXPECT_GT(refusals["compressed pos array exceeds budget"], 0u);
    EXPECT_GT(refusals["value array exceeds budget"], 0u);
}

/** Each budget check fires exactly at its limit. CSR of smallMatrix():
 *  a 4-position U level, a 5-entry pos array, 7 values. */
TEST(FormatFootprint, BudgetBoundariesAreExact)
{
    auto m = smallMatrix();
    auto csr = FormatDescriptor::csr(4, 6);
    const std::pair<u64, std::string> cases[] = {
        {4 * 3, "uncompressed level exceeds budget in UC(d0,d1)"},
        {4 * 4, "compressed pos array exceeds budget in UC(d0,d1)"},
        {4 * 5, "value array exceeds budget in UC(d0,d1)"},
        {4 * 6, "value array exceeds budget in UC(d0,d1)"},
        {4 * 7, ""},
    };
    for (const auto& [max_bytes, want] : cases) {
        SCOPED_TRACE(max_bytes);
        EXPECT_EQ(budgetError([&] { formatFootprint(csr, m, max_bytes); }),
                  want);
        EXPECT_EQ(budgetError(
                      [&] { HierSparseTensor::build(csr, m, max_bytes); }),
                  want);
    }
}

TEST(FormatFootprint, EmptyInputHasOnlyPadding)
{
    SparseMatrix empty(6, 4, {});
    FormatFootprint csr = formatFootprint(FormatDescriptor::csr(6, 4), empty);
    EXPECT_EQ(csr.levels[0].numPositions, 6u);
    EXPECT_EQ(csr.levels[1].numPositions, 0u);
    EXPECT_EQ(csr.storedValues(), 0u);
    // The U level's dimension plus a 7-entry pos array.
    EXPECT_EQ(csr.bytes(), 4u * (1 + 7));
    FormatFootprint dense =
        formatFootprint(FormatDescriptor::dense2d(6, 4), empty);
    EXPECT_EQ(dense.storedValues(), 24u);
}

} // namespace
} // namespace waco
