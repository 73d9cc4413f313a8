#include "tensor/pattern_stats.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>

#include "util/stats.hpp"

namespace waco {

namespace {

constexpr std::array<u32, 5> kBlockSizes = {2, 4, 8, 16, 32};

/** 64-bit key for a (block-row, block-col) pair. */
u64
blockKey(u32 br, u32 bc)
{
    return (static_cast<u64>(br) << 32) | bc;
}

} // namespace

double
PatternStats::fillForBlock(u32 b) const
{
    const BlockFill* best = &blockFills[0];
    for (const auto& bf : blockFills) {
        if (bf.blockSize <= b)
            best = &bf;
    }
    return best->fill;
}

u64
PatternStats::occupiedBlocksFor(u32 b) const
{
    const BlockFill* best = &blockFills[0];
    for (const auto& bf : blockFills) {
        if (bf.blockSize <= b)
            best = &bf;
    }
    return best->occupiedBlocks;
}

std::vector<float>
PatternStats::toFeatureVector() const
{
    std::vector<float> f;
    f.push_back(std::log1p(static_cast<float>(rows)));
    f.push_back(std::log1p(static_cast<float>(cols)));
    f.push_back(std::log1p(static_cast<float>(nnz)));
    f.push_back(static_cast<float>(density));
    f.push_back(static_cast<float>(std::log1p(nnzPerRowMean)));
    f.push_back(static_cast<float>(std::log1p(nnzPerRowStd)));
    f.push_back(std::log1p(static_cast<float>(nnzPerRowMax)));
    f.push_back(static_cast<float>(rowSkew));
    f.push_back(static_cast<float>(emptyRowFrac));
    f.push_back(static_cast<float>(std::log1p(nnzPerColMean)));
    f.push_back(static_cast<float>(std::log1p(nnzPerColStd)));
    f.push_back(static_cast<float>(normalizedBandwidth));
    f.push_back(static_cast<float>(rowNeighborFrac));
    f.push_back(static_cast<float>(colNeighborFrac));
    f.push_back(static_cast<float>(symmetryFrac));
    for (const auto& bf : blockFills)
        f.push_back(static_cast<float>(bf.fill));
    return f;
}

std::vector<std::string>
PatternStats::featureNames()
{
    std::vector<std::string> names = {
        "log_rows", "log_cols", "log_nnz", "density",
        "log_nnz_per_row_mean", "log_nnz_per_row_std", "log_nnz_per_row_max",
        "row_skew", "empty_row_frac", "log_nnz_per_col_mean",
        "log_nnz_per_col_std", "normalized_bandwidth", "row_neighbor_frac",
        "col_neighbor_frac", "symmetry_frac"};
    for (u32 b : kBlockSizes)
        names.push_back("block_fill_" + std::to_string(b));
    return names;
}

PatternStats
computePatternStats(const SparseMatrix& m)
{
    PatternStats s;
    s.rows = m.rows();
    s.cols = m.cols();
    s.nnz = m.nnz();
    s.density = m.density();

    auto row_counts = m.rowNnz();
    auto col_counts = m.colNnz();
    std::vector<double> rc(row_counts.begin(), row_counts.end());
    std::vector<double> cc(col_counts.begin(), col_counts.end());
    s.nnzPerRowMean = mean(rc);
    s.nnzPerRowStd = std::sqrt(variance(rc));
    s.nnzPerRowMax = row_counts.empty()
        ? 0 : *std::max_element(row_counts.begin(), row_counts.end());
    s.rowSkew = gini(rc);
    u64 empty = 0;
    for (u32 c : row_counts)
        empty += (c == 0);
    s.emptyRowFrac = s.rows ? static_cast<double>(empty) / s.rows : 0.0;
    s.nnzPerColMean = mean(cc);
    s.nnzPerColStd = std::sqrt(variance(cc));

    const auto& ri = m.rowIndices();
    const auto& ci = m.colIndices();

    // Nonzero-coordinate hash set for adjacency / symmetry probes.
    std::unordered_set<u64> nz_set;
    nz_set.reserve(m.nnz() * 2);
    for (u64 n = 0; n < m.nnz(); ++n)
        nz_set.insert(blockKey(ri[n], ci[n]));

    double band = 0.0;
    u64 row_neighbors = 0, col_neighbors = 0, sym = 0;
    for (u64 n = 0; n < m.nnz(); ++n) {
        band += std::abs(static_cast<double>(ri[n]) - ci[n]);
        if (nz_set.count(blockKey(ri[n], ci[n] + 1)))
            ++row_neighbors;
        if (nz_set.count(blockKey(ri[n] + 1, ci[n])))
            ++col_neighbors;
        if (ri[n] < m.cols() && ci[n] < m.rows() &&
            nz_set.count(blockKey(ci[n], ri[n])))
            ++sym;
    }
    double denom = std::max<double>(1.0, static_cast<double>(m.nnz()));
    s.normalizedBandwidth =
        band / denom / std::max<double>(1.0, std::max(m.rows(), m.cols()));
    s.rowNeighborFrac = static_cast<double>(row_neighbors) / denom;
    s.colNeighborFrac = static_cast<double>(col_neighbors) / denom;
    s.symmetryFrac = static_cast<double>(sym) / denom;

    for (std::size_t bi = 0; bi < kBlockSizes.size(); ++bi) {
        u32 b = kBlockSizes[bi];
        std::unordered_set<u64> blocks;
        blocks.reserve(m.nnz());
        for (u64 n = 0; n < m.nnz(); ++n)
            blocks.insert(blockKey(ri[n] / b, ci[n] / b));
        BlockFill bf;
        bf.blockSize = b;
        bf.occupiedBlocks = blocks.size();
        bf.fill = blocks.empty()
            ? 0.0
            : static_cast<double>(m.nnz()) /
                  (static_cast<double>(blocks.size()) * b * b);
        s.blockFills[bi] = bf;
    }
    return s;
}

} // namespace waco
