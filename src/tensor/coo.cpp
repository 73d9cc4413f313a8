#include "tensor/coo.hpp"

#include <algorithm>
#include <cmath>

namespace waco {

SparseMatrix::SparseMatrix(u32 rows, u32 cols, std::vector<Triplet> triplets,
                           std::string name)
    : rows_(rows), cols_(cols), name_(std::move(name))
{
    for (const auto& t : triplets) {
        fatalIf(t.row >= rows || t.col >= cols,
                "triplet out of bounds in SparseMatrix construction");
    }
    std::sort(triplets.begin(), triplets.end(),
              [](const Triplet& a, const Triplet& b) {
                  return a.row != b.row ? a.row < b.row : a.col < b.col;
              });
    row_.reserve(triplets.size());
    col_.reserve(triplets.size());
    val_.reserve(triplets.size());
    for (const auto& t : triplets) {
        if (!row_.empty() && row_.back() == t.row && col_.back() == t.col) {
            val_.back() += t.val;
        } else {
            row_.push_back(t.row);
            col_.push_back(t.col);
            val_.push_back(t.val);
        }
    }
}

double
SparseMatrix::density() const
{
    if (rows_ == 0 || cols_ == 0)
        return 0.0;
    return static_cast<double>(nnz()) /
           (static_cast<double>(rows_) * static_cast<double>(cols_));
}

std::vector<u32>
SparseMatrix::rowNnz() const
{
    std::vector<u32> counts(rows_, 0);
    for (u32 r : row_)
        ++counts[r];
    return counts;
}

std::vector<u32>
SparseMatrix::colNnz() const
{
    std::vector<u32> counts(cols_, 0);
    for (u32 c : col_)
        ++counts[c];
    return counts;
}

SparseMatrix
SparseMatrix::transposed() const
{
    std::vector<Triplet> t;
    t.reserve(nnz());
    for (u64 n = 0; n < nnz(); ++n)
        t.push_back({col_[n], row_[n], val_[n]});
    SparseMatrix out(cols_, rows_, std::move(t), name_.empty() ? "" : name_ + "_T");
    return out;
}

SparseMatrix
SparseMatrix::resized(u32 new_rows, u32 new_cols) const
{
    fatalIf(new_rows == 0 || new_cols == 0, "resized to empty shape");
    std::vector<Triplet> t;
    t.reserve(nnz());
    double rs = static_cast<double>(new_rows) / static_cast<double>(rows_);
    double cs = static_cast<double>(new_cols) / static_cast<double>(cols_);
    for (u64 n = 0; n < nnz(); ++n) {
        u32 r = std::min<u32>(new_rows - 1,
                              static_cast<u32>(std::floor(row_[n] * rs)));
        u32 c = std::min<u32>(new_cols - 1,
                              static_cast<u32>(std::floor(col_[n] * cs)));
        t.push_back({r, c, val_[n]});
    }
    SparseMatrix out(new_rows, new_cols, std::move(t),
                     name_.empty() ? "" : name_ + "_resized");
    return out;
}

bool
SparseMatrix::operator==(const SparseMatrix& o) const
{
    return rows_ == o.rows_ && cols_ == o.cols_ && row_ == o.row_ &&
           col_ == o.col_ && val_ == o.val_;
}

namespace {

/** One step of the pattern-key mix: xor the word in, multiply by an odd
 *  constant, fold the high half down so row bits reach every state bit.
 *  All three steps are bijections of @p h for a fixed @p w. */
u64
mixPatternWord(u64 h, u64 w)
{
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 32);
}

u64
packPair(u32 hi, u32 lo)
{
    return (static_cast<u64>(hi) << 32) | lo;
}

} // namespace

u64
patternKey(const SparseMatrix& m)
{
    u64 h = mixPatternWord(0x243f6a8885a308d3ull, packPair(m.rows(), m.cols()));
    h = mixPatternWord(h, m.nnz());
    const u32* ri = m.rowIndices().data();
    const u32* ci = m.colIndices().data();
    for (u64 n = 0; n < m.nnz(); ++n)
        h = mixPatternWord(h, packPair(ri[n], ci[n]));
    // MurmurHash3 finalizer: avalanche the last words over all 64 bits.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 33);
}

Sparse3Tensor::Sparse3Tensor(u32 di, u32 dk, u32 dl, std::vector<Quad> entries,
                             std::string name)
    : dims_({di, dk, dl}), name_(std::move(name))
{
    for (const auto& e : entries) {
        fatalIf(e.i >= di || e.k >= dk || e.l >= dl,
                "entry out of bounds in Sparse3Tensor construction");
    }
    std::sort(entries.begin(), entries.end(), [](const Quad& a, const Quad& b) {
        if (a.i != b.i)
            return a.i < b.i;
        if (a.k != b.k)
            return a.k < b.k;
        return a.l < b.l;
    });
    for (const auto& e : entries) {
        if (!i_.empty() && i_.back() == e.i && k_.back() == e.k &&
            l_.back() == e.l) {
            val_.back() += e.val;
        } else {
            i_.push_back(e.i);
            k_.push_back(e.k);
            l_.push_back(e.l);
            val_.push_back(e.val);
        }
    }
}

} // namespace waco
