/**
 * @file
 * Canonical coordinate (COO) sparse matrix / 3-tensor types, and the
 * order-generic SparseInput view over either.
 *
 * Every other representation in WACO (CSR, the TACO-style coordinate
 * hierarchy, ASpT tiles, ...) is built from these canonical forms. The COO
 * arrays are always kept sorted lexicographically and duplicate-free, which
 * the format builders rely on.
 */
#pragma once

#include <array>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace waco {

/** One nonzero of a sparse matrix. */
struct Triplet
{
    u32 row;
    u32 col;
    float val;
};

/**
 * Sorted, duplicate-free COO sparse matrix (single precision, as in the
 * paper's evaluation).
 */
class SparseMatrix
{
  public:
    SparseMatrix() = default;

    /** Build from (possibly unsorted / duplicated) triplets; duplicates are summed. */
    SparseMatrix(u32 rows, u32 cols, std::vector<Triplet> triplets,
                 std::string name = "");

    u32 rows() const { return rows_; }
    u32 cols() const { return cols_; }
    u64 nnz() const { return row_.size(); }
    const std::string& name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    /** Fraction of entries that are nonzero. */
    double density() const;

    const std::vector<u32>& rowIndices() const { return row_; }
    const std::vector<u32>& colIndices() const { return col_; }
    const std::vector<float>& values() const { return val_; }
    std::vector<float>& values() { return val_; }

    /** Number of nonzeros in each row. */
    std::vector<u32> rowNnz() const;

    /** Number of nonzeros in each column. */
    std::vector<u32> colNnz() const;

    /** Transposed copy (sorted canonical form). */
    SparseMatrix transposed() const;

    /**
     * Pattern-preserving resize used for dataset augmentation (Section 4.1.3
     * of the paper resizes SuiteSparse matrices): coordinates are rescaled
     * into the new shape and re-deduplicated.
     */
    SparseMatrix resized(u32 new_rows, u32 new_cols) const;

    /** Exact structural + value equality. */
    bool operator==(const SparseMatrix& o) const;

  private:
    u32 rows_ = 0;
    u32 cols_ = 0;
    std::vector<u32> row_;
    std::vector<u32> col_;
    std::vector<float> val_;
    std::string name_;
};

/**
 * Exact 64-bit key of a matrix's sparsity pattern: the dimensions, the
 * nonzero count and every stored (row, col) pair, in one O(nnz) pass.
 * Values and the name do not enter the key. The stored pairs are sorted
 * and duplicate-free, so equal patterns always get equal keys. Two
 * patterns whose pair sequences differ in exactly one position never
 * collide (each mixing step is a bijection of the state); any other pair of
 * distinct patterns collides with probability about 2^-64. The key is
 * computed from integer values, not bytes, so it is the same on every host
 * and may be persisted.
 */
u64 patternKey(const SparseMatrix& m);

/** One nonzero of a 3D sparse tensor. */
struct Quad
{
    u32 i;
    u32 k;
    u32 l;
    float val;
};

/** Sorted, duplicate-free COO 3D sparse tensor (for MTTKRP). */
class Sparse3Tensor
{
  public:
    Sparse3Tensor() = default;

    /** Build from (possibly unsorted / duplicated) entries; duplicates are summed. */
    Sparse3Tensor(u32 di, u32 dk, u32 dl, std::vector<Quad> entries,
                  std::string name = "");

    u32 dimI() const { return dims_[0]; }
    u32 dimK() const { return dims_[1]; }
    u32 dimL() const { return dims_[2]; }
    const std::array<u32, 3>& dims() const { return dims_; }
    u64 nnz() const { return i_.size(); }
    const std::string& name() const { return name_; }

    const std::vector<u32>& iIndices() const { return i_; }
    const std::vector<u32>& kIndices() const { return k_; }
    const std::vector<u32>& lIndices() const { return l_; }
    const std::vector<float>& values() const { return val_; }

  private:
    std::array<u32, 3> dims_ = {0, 0, 0};
    std::vector<u32> i_;
    std::vector<u32> k_;
    std::vector<u32> l_;
    std::vector<float> val_;
    std::string name_;
};

/**
 * Non-owning, order-generic view of a canonical COO input: a SparseMatrix
 * (order 2) or a Sparse3Tensor (order 3). It is the one input type of every
 * layer above the owners (format build, measurement, feature extraction,
 * labeling, tuning); both owners convert to it implicitly. The viewed
 * object must outlive the view.
 */
class SparseInput
{
  public:
    SparseInput(const SparseMatrix& m)
        : order_(2), dims_{m.rows(), m.cols(), 0},
          idx_{m.rowIndices().data(), m.colIndices().data(), nullptr},
          vals_(&m.values()), name_(&m.name())
    {}

    SparseInput(const Sparse3Tensor& t)
        : order_(3), dims_(t.dims()),
          idx_{t.iIndices().data(), t.kIndices().data(), t.lIndices().data()},
          vals_(&t.values()), name_(&t.name())
    {}

    u32 order() const { return order_; }
    /** Dimension sizes; the third is 0 for a matrix. */
    const std::array<u32, 3>& dims() const { return dims_; }
    u64 nnz() const { return vals_->size(); }

    /** Coordinates of the @p n-th stored nonzero (sorted order); the third
     *  is 0 for a matrix. */
    std::array<u32, 3>
    coord(u64 n) const
    {
        return {idx_[0][n], idx_[1][n], order_ == 3 ? idx_[2][n] : 0};
    }

    const std::vector<float>& values() const { return *vals_; }
    const std::string& name() const { return *name_; }

  private:
    u32 order_;
    std::array<u32, 3> dims_;
    std::array<const u32*, 3> idx_;
    const std::vector<float>* vals_;
    const std::string* name_;
};

} // namespace waco
