/**
 * @file
 * Statistical summary of a sparsity pattern.
 *
 * Its only user is the baselines: the BestFormat classifier learns from
 * these features (baselines/baselines.hpp). It is not a cache key: the
 * statistics do not identify a pattern (a matrix and its transpose often
 * share them), and several hash-set passes cost milliseconds on large
 * inputs. The service keys its result cache on patternKey (tensor/coo.hpp).
 */
#pragma once

#include <array>
#include <string>
#include <vector>

#include "tensor/coo.hpp"
#include "util/common.hpp"

namespace waco {

/** Dense-block occupancy for one block edge length. */
struct BlockFill
{
    u32 blockSize = 0;      ///< Block edge length b.
    u64 occupiedBlocks = 0; ///< Number of b x b blocks containing a nonzero.
    double fill = 0.0;      ///< nnz / (occupiedBlocks * b * b).
};

/** Summary statistics of a sparse matrix pattern. */
struct PatternStats
{
    u32 rows = 0;
    u32 cols = 0;
    u64 nnz = 0;
    double density = 0.0;

    double nnzPerRowMean = 0.0;
    double nnzPerRowStd = 0.0;
    u32 nnzPerRowMax = 0;
    /** Gini coefficient of per-row nonzero counts; high = skewed rows. */
    double rowSkew = 0.0;
    /** Fraction of rows with no nonzeros. */
    double emptyRowFrac = 0.0;

    double nnzPerColMean = 0.0;
    double nnzPerColStd = 0.0;

    /** Mean |i - j| normalized by max(rows, cols). */
    double normalizedBandwidth = 0.0;
    /** Fraction of nonzeros with a horizontally adjacent nonzero (j+1). */
    double rowNeighborFrac = 0.0;
    /** Fraction of nonzeros with a vertically adjacent nonzero (i+1). */
    double colNeighborFrac = 0.0;
    /** Fraction of nonzeros whose mirrored coordinate is also a nonzero. */
    double symmetryFrac = 0.0;

    /** Occupancy of b x b blocks for b in {2, 4, 8, 16, 32}. */
    std::array<BlockFill, 5> blockFills = {};

    /** Fill ratio for the closest measured block size (interpolating). */
    double fillForBlock(u32 b) const;

    /** Occupied-block count for the closest measured block size. */
    u64 occupiedBlocksFor(u32 b) const;

    /** Flatten into a feature vector (for HumanFeature / BestFormat). */
    std::vector<float> toFeatureVector() const;

    /** Names matching toFeatureVector entries, for reports. */
    static std::vector<std::string> featureNames();
};

/** Compute all statistics in one pass over the matrix (O(nnz) time). */
PatternStats computePatternStats(const SparseMatrix& m);

} // namespace waco
