/**
 * @file
 * TACO-style format abstraction (Chou et al. [12], as used by WACO).
 *
 * A sparse tensor is viewed as a coordinate hierarchy: each tensor dimension
 * may be split once into an outer and an inner level (the paper limits
 * SuperSchedule to one split per dimension), the resulting levels are ordered
 * by a permutation, and each level is stored in either the Uncompressed (U)
 * or Compressed (C) level format. CSR is UC over (i,k); BCSR is UCUU over
 * (i1,k1,i0,k0); CSF is CCC over (i,k,l); and so on.
 */
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "tensor/coo.hpp"
#include "util/common.hpp"

namespace waco {

/** Physical storage of one coordinate-hierarchy level. */
enum class LevelFormat : unsigned char { Uncompressed, Compressed };

/**
 * Level capabilities in the sense of the Chou et al. abstraction: what a
 * kernel may do to a level depends only on its format. The static
 * verifier (src/analysis) checks schedules against these.
 */

/** Coordinate lookup at a known parent position is legal on every level
 *  (binary search over crd for C, O(log nnz) per probe); only U levels
 *  resolve a coordinate by direct offset, without a search. */
constexpr bool
levelSupportsDirectLocate(LevelFormat f)
{
    return f == LevelFormat::Uncompressed;
}

/** Writing at an arbitrary coordinate not already present. C levels are
 *  append-only (pos/crd arrays), so only U levels qualify. */
constexpr bool
levelSupportsRandomInsert(LevelFormat f)
{
    return f == LevelFormat::Uncompressed;
}

/** Which part of a (possibly split) dimension a level represents. */
enum class LevelPart : unsigned char { Full, Outer, Inner };

/** One level of the coordinate hierarchy. */
struct LevelSpec
{
    u32 dim;           ///< Tensor dimension this level indexes (0-based).
    LevelPart part;    ///< Full (unsplit), Outer (coord / split) or Inner (coord % split).
    LevelFormat fmt;   ///< U or C.
};

/**
 * Complete description of a format: per-dimension split sizes plus the
 * ordered, formatted levels.
 */
class FormatDescriptor
{
  public:
    FormatDescriptor() = default;

    /**
     * @param order tensor order (2 or 3)
     * @param dims dimension sizes
     * @param splits per-dimension split size; 1 means unsplit
     * @param levels ordered level specs (validated)
     */
    FormatDescriptor(u32 order, std::array<u32, 3> dims,
                     std::array<u32, 3> splits, std::vector<LevelSpec> levels);

    u32 order() const { return order_; }
    const std::array<u32, 3>& dims() const { return dims_; }
    const std::array<u32, 3>& splits() const { return splits_; }
    const std::vector<LevelSpec>& levels() const { return levels_; }
    u32 numLevels() const { return static_cast<u32>(levels_.size()); }

    /** Iteration extent of level @p l (outer: ceil(dim/split); inner: split). */
    u32 levelExtent(u32 l) const;

    /** Level coordinate of a full per-dimension coordinate at level @p l. */
    u32 levelCoord(u32 l, const std::array<u32, 3>& coords) const;

    /** Human-readable name like "UC(d0,d1)" or "UCUU(d0o,d1o,d0i,d1i)". */
    std::string name() const;

    /** Standard formats over a rows x cols matrix whose dims are (d0, d1). */
    static FormatDescriptor csr(u32 rows, u32 cols);
    static FormatDescriptor csc(u32 rows, u32 cols);
    static FormatDescriptor coo2d(u32 rows, u32 cols);
    static FormatDescriptor dense2d(u32 rows, u32 cols);
    /** BCSR: UCUU over (d0 outer, d1 outer, d0 inner, d1 inner). */
    static FormatDescriptor bcsr(u32 rows, u32 cols, u32 br, u32 bc);
    /** One-dimensionally blocked UCU (split only the column dimension). */
    static FormatDescriptor ucu(u32 rows, u32 cols, u32 bc);
    /** Sparse-block UUC: split columns, keep the inner level compressed. */
    static FormatDescriptor uuc(u32 rows, u32 cols, u32 kc);
    /** CSF (CCC) over a 3-tensor. */
    static FormatDescriptor csf3d(u32 di, u32 dk, u32 dl);

    bool operator==(const FormatDescriptor& o) const;

  private:
    void validate() const;

    u32 order_ = 0;
    std::array<u32, 3> dims_ = {0, 0, 0};
    std::array<u32, 3> splits_ = {1, 1, 1};
    std::vector<LevelSpec> levels_;
};

/** Thrown when building a format would exceed the storage budget
 *  (the analogue of the paper excluding schedules that run > 1 minute). */
class FormatTooLarge : public FatalError
{
  public:
    explicit FormatTooLarge(const std::string& msg) : FatalError(msg) {}
};

/** Storage arrays of one built level. */
struct BuiltLevel
{
    LevelFormat fmt = LevelFormat::Uncompressed;
    u32 extent = 0;
    /** C only: pos[p+1]-pos[p] children for parent position p. */
    std::vector<u64> pos;
    /** C only: child coordinates, one per position. */
    std::vector<u32> crd;
    /** Number of positions after this level. */
    u64 numPositions = 0;
};

/**
 * A sparse tensor materialized in a particular format. U levels below C
 * levels pad with explicit zeros (dense blocks), exactly as TACO does.
 */
class HierSparseTensor
{
  public:
    /** Build a matrix or 3-tensor in the given format (the descriptor's
     *  order and dims must match the input's). Sizes every level with
     *  formatFootprint's count before allocating any array.
     *  @throws FormatTooLarge if storage would exceed @p max_bytes. */
    static HierSparseTensor build(const FormatDescriptor& desc,
                                  const SparseInput& in,
                                  u64 max_bytes = kDefaultMaxBytes);

    const FormatDescriptor& descriptor() const { return desc_; }
    const std::vector<BuiltLevel>& levels() const { return levels_; }
    const std::vector<float>& values() const { return vals_; }

    /** Total storage footprint in bytes (4-byte pos/crd/val entries,
     *  matching TACO's int32/float arrays). */
    u64 bytes() const { return bytes_; }

    /** Number of stored value positions (nnz plus dense-block padding). */
    u64 storedValues() const { return vals_.size(); }

    /**
     * Visit every stored position in storage order.
     *
     * @param fn callback(coords, value, in_bounds). Padding positions whose
     *        reconstructed coordinate falls outside the tensor bounds are
     *        reported with in_bounds = false (their value is always 0).
     */
    template <typename Fn>
    void
    forEachStored(Fn&& fn) const
    {
        std::vector<u32> level_coords(desc_.numLevels(), 0);
        walk(0, 0, level_coords, fn);
    }

    /** Visit only true nonzeros, with reconstructed full coordinates. */
    void forEachNonzero(
        const std::function<void(const std::array<u32, 3>&, float)>& fn) const;

    /** Round-trip back to canonical COO (2D tensors only). */
    SparseMatrix toSparseMatrix() const;

    static constexpr u64 kDefaultMaxBytes = 512ull * 1024 * 1024;

  private:
    HierSparseTensor() = default;

    /** Reconstruct full coordinates from per-level coordinates.
     *  @return false if a padding coordinate is out of bounds. */
    bool reconstruct(const std::vector<u32>& level_coords,
                     std::array<u32, 3>& coords) const;

    template <typename Fn>
    void
    walk(u32 level, u64 position, std::vector<u32>& level_coords, Fn&& fn) const
    {
        if (level == desc_.numLevels()) {
            std::array<u32, 3> coords = {0, 0, 0};
            bool ok = reconstruct(level_coords, coords);
            fn(coords, vals_[position], ok);
            return;
        }
        const BuiltLevel& bl = levels_[level];
        if (bl.fmt == LevelFormat::Uncompressed) {
            for (u32 c = 0; c < bl.extent; ++c) {
                level_coords[level] = c;
                walk(level + 1, position * bl.extent + c, level_coords, fn);
            }
        } else {
            for (u64 p = bl.pos[position]; p < bl.pos[position + 1]; ++p) {
                level_coords[level] = bl.crd[p];
                walk(level + 1, p, level_coords, fn);
            }
        }
    }

    FormatDescriptor desc_;
    std::vector<BuiltLevel> levels_;
    std::vector<float> vals_;
    u64 bytes_ = 0;
};

/**
 * The storage sizes of a format over an input: what HierSparseTensor::build
 * would allocate, without building its pos, crd and val arrays. A U level
 * has parent positions × extent positions; a C level has one position per
 * distinct prefix of level coordinates (Chou et al.), counted from one sort
 * of the nonzeros' packed level keys.
 */
struct FormatFootprint
{
    struct Level
    {
        LevelFormat fmt = LevelFormat::Uncompressed;
        /** Number of positions after this level (BuiltLevel::numPositions). */
        u64 numPositions = 0;
    };
    std::vector<Level> levels;

    /** Equals HierSparseTensor::bytes() of the built tensor. */
    u64 bytes() const;
    /** Equals HierSparseTensor::storedValues() of the built tensor. */
    u64 storedValues() const;
};

/** The footprint of @p desc over @p in, with build's checks and messages.
 *  @throws FormatTooLarge if storage would exceed @p max_bytes. */
FormatFootprint formatFootprint(
    const FormatDescriptor& desc, const SparseInput& in,
    u64 max_bytes = HierSparseTensor::kDefaultMaxBytes);

} // namespace waco
