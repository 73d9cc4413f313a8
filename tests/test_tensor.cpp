/**
 * @file
 * Unit tests for the canonical COO types and the pattern key.
 */
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "tensor/coo.hpp"
#include "util/rng.hpp"

namespace waco {
namespace {

TEST(SparseMatrix, SortsAndDeduplicates)
{
    SparseMatrix m(3, 3,
                   {{2, 1, 1.0f}, {0, 0, 2.0f}, {2, 1, 3.0f}, {1, 2, 4.0f}});
    EXPECT_EQ(m.nnz(), 3u);
    EXPECT_EQ(m.rowIndices(), (std::vector<u32>{0, 1, 2}));
    EXPECT_EQ(m.colIndices(), (std::vector<u32>{0, 2, 1}));
    EXPECT_FLOAT_EQ(m.values()[2], 4.0f); // 1 + 3 summed
}

TEST(SparseMatrix, RejectsOutOfBounds)
{
    EXPECT_THROW(SparseMatrix(2, 2, {{2, 0, 1.0f}}), FatalError);
}

TEST(SparseMatrix, DensityAndCounts)
{
    SparseMatrix m(2, 4, {{0, 0, 1.f}, {0, 1, 1.f}, {1, 3, 1.f}});
    EXPECT_DOUBLE_EQ(m.density(), 3.0 / 8.0);
    EXPECT_EQ(m.rowNnz(), (std::vector<u32>{2, 1}));
    EXPECT_EQ(m.colNnz(), (std::vector<u32>{1, 1, 0, 1}));
}

TEST(SparseMatrix, TransposeRoundTrip)
{
    SparseMatrix m(3, 5, {{0, 4, 1.f}, {2, 1, 2.f}, {1, 1, 3.f}});
    SparseMatrix t = m.transposed();
    EXPECT_EQ(t.rows(), 5u);
    EXPECT_EQ(t.cols(), 3u);
    SparseMatrix tt = t.transposed();
    EXPECT_EQ(tt.rowIndices(), m.rowIndices());
    EXPECT_EQ(tt.colIndices(), m.colIndices());
    EXPECT_EQ(tt.values(), m.values());
}

TEST(SparseMatrix, ResizePreservesNnzUpperBound)
{
    Rng rng(7);
    std::vector<Triplet> t;
    for (int n = 0; n < 200; ++n) {
        t.push_back({static_cast<u32>(rng.index(100)),
                     static_cast<u32>(rng.index(100)), 1.0f});
    }
    SparseMatrix m(100, 100, t);
    SparseMatrix r = m.resized(37, 211);
    EXPECT_EQ(r.rows(), 37u);
    EXPECT_EQ(r.cols(), 211u);
    EXPECT_LE(r.nnz(), m.nnz());
    EXPECT_GT(r.nnz(), 0u);
}

/** Block-diagonal n x n matrix: copies of the 4x4 @p block down the
 *  diagonal, every value 1. */
SparseMatrix
blockDiagonal(u32 n, const std::vector<std::pair<u32, u32>>& block)
{
    std::vector<Triplet> t;
    for (u32 b = 0; b < n; b += 4)
        for (auto [r, c] : block)
            t.push_back({b + r, b + c, 1.f});
    return SparseMatrix(n, n, std::move(t));
}

TEST(PatternKey, IgnoresValuesAndName)
{
    SparseMatrix a(4, 6, {{0, 1, 1.f}, {2, 5, 2.f}, {3, 0, 3.f}}, "a");
    SparseMatrix b(4, 6, {{3, 0, -7.f}, {0, 1, 0.5f}, {2, 5, 9.f}}, "b");
    EXPECT_EQ(patternKey(a), patternKey(b));
    EXPECT_EQ(patternKey(a), patternKey(a.transposed().transposed()));
}

TEST(PatternKey, SeparatesTransposedPermutationBlocks)
{
    // A permutation block and its transpose: the two patterns have the
    // same row/column counts, bandwidth, block fills and symmetry, so a key
    // built from summary statistics cannot tell them apart.
    const std::vector<std::pair<u32, u32>> p = {{0, 0}, {1, 2}, {2, 3},
                                                {3, 1}};
    const std::vector<std::pair<u32, u32>> pt = {{0, 0}, {1, 3}, {2, 1},
                                                 {3, 2}};
    for (u32 n : {4u, 64u, 256u}) {
        SparseMatrix a = blockDiagonal(n, p);
        SparseMatrix b = blockDiagonal(n, pt);
        ASSERT_EQ(b, a.transposed()) << n;
        EXPECT_NE(patternKey(a), patternKey(b)) << n;
    }
}

TEST(PatternKey, SeparatesMovedNonzeroAndDimensions)
{
    SparseMatrix a(8, 8, {{0, 0, 1.f}, {3, 4, 1.f}, {7, 2, 1.f}});
    SparseMatrix moved(8, 8, {{0, 0, 1.f}, {3, 5, 1.f}, {7, 2, 1.f}});
    SparseMatrix wider(8, 9, {{0, 0, 1.f}, {3, 4, 1.f}, {7, 2, 1.f}});
    SparseMatrix taller(9, 8, {{0, 0, 1.f}, {3, 4, 1.f}, {7, 2, 1.f}});
    EXPECT_NE(patternKey(a), patternKey(moved));
    EXPECT_NE(patternKey(a), patternKey(wider));
    EXPECT_NE(patternKey(a), patternKey(taller));
    EXPECT_NE(patternKey(wider), patternKey(taller));
    EXPECT_NE(patternKey(SparseMatrix(8, 8, {})),
              patternKey(SparseMatrix(8, 9, {})));
}

TEST(PatternKey, GoldenValue)
{
    // Persisted result-cache journals store this key: it must not change
    // between processes, builds or hosts.
    SparseMatrix m(3, 5, {{0, 4, 1.f}, {2, 1, 2.f}, {1, 1, 3.f}});
    EXPECT_EQ(patternKey(m), 0x0cbf1f8d3ced09e6ull);
}

TEST(Sparse3Tensor, SortsAndDeduplicates)
{
    Sparse3Tensor t(2, 2, 2,
                    {{1, 1, 1, 1.f}, {0, 0, 0, 2.f}, {1, 1, 1, 1.f}});
    EXPECT_EQ(t.nnz(), 2u);
    EXPECT_FLOAT_EQ(t.values()[1], 2.0f);
    EXPECT_EQ(t.iIndices()[0], 0u);
}

} // namespace
} // namespace waco
