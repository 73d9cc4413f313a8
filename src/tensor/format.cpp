#include "tensor/format.hpp"

#include <algorithm>
#include <numeric>

namespace waco {

FormatDescriptor::FormatDescriptor(u32 order, std::array<u32, 3> dims,
                                   std::array<u32, 3> splits,
                                   std::vector<LevelSpec> levels)
    : order_(order), dims_(dims), splits_(splits), levels_(std::move(levels))
{
    validate();
}

void
FormatDescriptor::validate() const
{
    fatalIf(order_ < 1 || order_ > 3, "format order must be 1..3");
    std::array<int, 3> full_count = {0, 0, 0};
    std::array<int, 3> outer_count = {0, 0, 0};
    std::array<int, 3> inner_count = {0, 0, 0};
    for (const auto& ls : levels_) {
        fatalIf(ls.dim >= order_, "level references dimension out of range");
        switch (ls.part) {
          case LevelPart::Full: ++full_count[ls.dim]; break;
          case LevelPart::Outer: ++outer_count[ls.dim]; break;
          case LevelPart::Inner: ++inner_count[ls.dim]; break;
        }
    }
    for (u32 d = 0; d < order_; ++d) {
        fatalIf(dims_[d] == 0, "zero dimension size");
        fatalIf(splits_[d] == 0, "zero split size");
        if (splits_[d] == 1) {
            fatalIf(full_count[d] != 1 || outer_count[d] != 0 ||
                        inner_count[d] != 0,
                    "unsplit dimension must appear exactly once as Full");
        } else {
            fatalIf(full_count[d] != 0 || outer_count[d] != 1 ||
                        inner_count[d] != 1,
                    "split dimension must appear exactly once as Outer and Inner");
        }
    }
}

u32
FormatDescriptor::levelExtent(u32 l) const
{
    const LevelSpec& ls = levels_[l];
    switch (ls.part) {
      case LevelPart::Full:
        return dims_[ls.dim];
      case LevelPart::Outer:
        return ceilDiv(dims_[ls.dim], splits_[ls.dim]);
      case LevelPart::Inner:
        return splits_[ls.dim];
    }
    panic("unreachable level part");
}

u32
FormatDescriptor::levelCoord(u32 l, const std::array<u32, 3>& coords) const
{
    const LevelSpec& ls = levels_[l];
    u32 c = coords[ls.dim];
    switch (ls.part) {
      case LevelPart::Full:
        return c;
      case LevelPart::Outer:
        return c / splits_[ls.dim];
      case LevelPart::Inner:
        return c % splits_[ls.dim];
    }
    panic("unreachable level part");
}

std::string
FormatDescriptor::name() const
{
    std::string fmts, order;
    for (u32 l = 0; l < numLevels(); ++l) {
        const LevelSpec& ls = levels_[l];
        fmts += (ls.fmt == LevelFormat::Uncompressed) ? 'U' : 'C';
        if (l)
            order += ',';
        order += 'd' + std::to_string(ls.dim);
        if (ls.part == LevelPart::Outer)
            order += 'o';
        else if (ls.part == LevelPart::Inner)
            order += 'i';
    }
    return fmts + "(" + order + ")";
}

bool
FormatDescriptor::operator==(const FormatDescriptor& o) const
{
    if (order_ != o.order_ || dims_ != o.dims_ || splits_ != o.splits_ ||
        levels_.size() != o.levels_.size())
        return false;
    for (std::size_t l = 0; l < levels_.size(); ++l) {
        if (levels_[l].dim != o.levels_[l].dim ||
            levels_[l].part != o.levels_[l].part ||
            levels_[l].fmt != o.levels_[l].fmt)
            return false;
    }
    return true;
}

FormatDescriptor
FormatDescriptor::csr(u32 rows, u32 cols)
{
    return FormatDescriptor(
        2, {rows, cols, 0}, {1, 1, 1},
        {{0, LevelPart::Full, LevelFormat::Uncompressed},
         {1, LevelPart::Full, LevelFormat::Compressed}});
}

FormatDescriptor
FormatDescriptor::csc(u32 rows, u32 cols)
{
    return FormatDescriptor(
        2, {rows, cols, 0}, {1, 1, 1},
        {{1, LevelPart::Full, LevelFormat::Uncompressed},
         {0, LevelPart::Full, LevelFormat::Compressed}});
}

FormatDescriptor
FormatDescriptor::coo2d(u32 rows, u32 cols)
{
    return FormatDescriptor(
        2, {rows, cols, 0}, {1, 1, 1},
        {{0, LevelPart::Full, LevelFormat::Compressed},
         {1, LevelPart::Full, LevelFormat::Compressed}});
}

FormatDescriptor
FormatDescriptor::dense2d(u32 rows, u32 cols)
{
    return FormatDescriptor(
        2, {rows, cols, 0}, {1, 1, 1},
        {{0, LevelPart::Full, LevelFormat::Uncompressed},
         {1, LevelPart::Full, LevelFormat::Uncompressed}});
}

FormatDescriptor
FormatDescriptor::bcsr(u32 rows, u32 cols, u32 br, u32 bc)
{
    return FormatDescriptor(
        2, {rows, cols, 0}, {br, bc, 1},
        {{0, LevelPart::Outer, LevelFormat::Uncompressed},
         {1, LevelPart::Outer, LevelFormat::Compressed},
         {0, LevelPart::Inner, LevelFormat::Uncompressed},
         {1, LevelPart::Inner, LevelFormat::Uncompressed}});
}

FormatDescriptor
FormatDescriptor::ucu(u32 rows, u32 cols, u32 bc)
{
    return FormatDescriptor(
        2, {rows, cols, 0}, {1, bc, 1},
        {{0, LevelPart::Full, LevelFormat::Uncompressed},
         {1, LevelPart::Outer, LevelFormat::Compressed},
         {1, LevelPart::Inner, LevelFormat::Uncompressed}});
}

FormatDescriptor
FormatDescriptor::uuc(u32 rows, u32 cols, u32 kc)
{
    return FormatDescriptor(
        2, {rows, cols, 0}, {1, kc, 1},
        {{1, LevelPart::Outer, LevelFormat::Uncompressed},
         {0, LevelPart::Full, LevelFormat::Uncompressed},
         {1, LevelPart::Inner, LevelFormat::Compressed}});
}

FormatDescriptor
FormatDescriptor::csf3d(u32 di, u32 dk, u32 dl)
{
    return FormatDescriptor(
        3, {di, dk, dl}, {1, 1, 1},
        {{0, LevelPart::Full, LevelFormat::Compressed},
         {1, LevelPart::Full, LevelFormat::Compressed},
         {2, LevelPart::Full, LevelFormat::Compressed}});
}

namespace {

/** Per-entry byte cost of TACO's int32 pos/crd and float val arrays. */
constexpr u64 kEntryBytes = 4;

/**
 * A nonzero's level coordinates packed into one integer, level 0 in the
 * highest bits, so integer order is lexicographic level order and
 * `key >> shift(l)` is the coordinate prefix of levels 0..l.
 */
using LevelKey = unsigned __int128;

/** Width of one level's field: 32 bits up to four levels, 21 at six. */
u32
levelKeyBits(const FormatDescriptor& desc)
{
    return std::min(32u, 128u / desc.numLevels());
}

void
checkInputMatches(const FormatDescriptor& desc, const SparseInput& in)
{
    fatalIf(desc.order() != in.order(),
            "descriptor order does not match input order");
    for (u32 d = 0; d < in.order(); ++d)
        fatalIf(desc.dims()[d] != in.dims()[d],
                "descriptor dims do not match input shape");
    const u64 field_max = (u64{1} << levelKeyBits(desc)) - 1;
    for (u32 l = 0; l < desc.numLevels(); ++l)
        fatalIf(desc.levelExtent(l) - 1 > field_max,
                "level extent too large for the sort key in " + desc.name());
}

LevelKey
packLevelKey(const FormatDescriptor& desc, const std::array<u32, 3>& coords)
{
    const u32 bits = levelKeyBits(desc);
    LevelKey k = 0;
    for (u32 l = 0; l < desc.numLevels(); ++l)
        k = (k << bits) | desc.levelCoord(l, coords);
    return k;
}

/** Index of the highest set bit of a nonzero key. */
u32
highestBit(LevelKey k)
{
    u64 hi = static_cast<u64>(k >> 64);
    return hi ? 127 - static_cast<u32>(__builtin_clzll(hi))
              : 63 - static_cast<u32>(__builtin_clzll(static_cast<u64>(k)));
}

/**
 * Level sizes of @p desc over @p nnz nonzeros whose packed keys, sorted,
 * are key_at(0), ..., key_at(nnz - 1). This is the one place the storage
 * budget is checked, level by level in storage order: a U level whose
 * positions overflow or exceed it, a C level whose pos array would, and
 * finally the value array.
 */
template <typename KeyAt>
FormatFootprint
footprintOfSorted(const FormatDescriptor& desc, u64 nnz, KeyAt key_at,
                  u64 max_bytes)
{
    const u32 num_levels = desc.numLevels();
    const u32 bits = levelKeyBits(desc);
    const u64 max_positions = max_bytes / kEntryBytes;

    // first_diff[l]: sorted neighbours whose keys first differ at level l.
    // Each starts a new prefix at levels l..L-1, so levels 0..l hold
    // 1 + first_diff[0] + ... + first_diff[l] distinct prefixes.
    std::vector<u64> first_diff(num_levels, 0);
    for (u64 i = 1; i < nnz; ++i) {
        LevelKey d = key_at(i) ^ key_at(i - 1);
        if (d != 0)
            ++first_diff[num_levels - 1 - highestBit(d) / bits];
    }

    FormatFootprint fp;
    fp.levels.resize(num_levels);
    u64 distinct = nnz > 0 ? 1 : 0;
    u64 parent_count = 1;
    for (u32 l = 0; l < num_levels; ++l) {
        FormatFootprint::Level& fl = fp.levels[l];
        fl.fmt = desc.levels()[l].fmt;
        distinct += first_diff[l];
        if (fl.fmt == LevelFormat::Uncompressed) {
            const u64 extent = desc.levelExtent(l);
            fl.numPositions = parent_count * extent;
            if (fl.numPositions > max_positions ||
                fl.numPositions / extent != parent_count) {
                throw FormatTooLarge("uncompressed level exceeds budget in " +
                                     desc.name());
            }
        } else {
            if (parent_count + 1 > max_positions) {
                throw FormatTooLarge("compressed pos array exceeds budget in " +
                                     desc.name());
            }
            fl.numPositions = distinct;
        }
        parent_count = fl.numPositions;
    }
    if (parent_count > max_positions)
        throw FormatTooLarge("value array exceeds budget in " + desc.name());
    return fp;
}

} // namespace

u64
FormatFootprint::bytes() const
{
    u64 entries = 0;
    u64 parent_count = 1;
    for (const Level& fl : levels) {
        // A U level stores only its dimension; a C level its pos and crd.
        entries += fl.fmt == LevelFormat::Uncompressed
            ? 1
            : parent_count + 1 + fl.numPositions;
        parent_count = fl.numPositions;
    }
    return kEntryBytes * (entries + storedValues());
}

u64
FormatFootprint::storedValues() const
{
    return levels.empty() ? 1 : levels.back().numPositions;
}

FormatFootprint
formatFootprint(const FormatDescriptor& desc, const SparseInput& in,
                u64 max_bytes)
{
    checkInputMatches(desc, in);
    std::vector<LevelKey> keys(in.nnz());
    for (u64 n = 0; n < in.nnz(); ++n)
        keys[n] = packLevelKey(desc, in.coord(n));
    // Concordant formats (CSR, CSF, ...) list the input in key order already.
    if (!std::is_sorted(keys.begin(), keys.end()))
        std::sort(keys.begin(), keys.end());
    return footprintOfSorted(
        desc, keys.size(), [&](u64 i) { return keys[i]; }, max_bytes);
}

HierSparseTensor
HierSparseTensor::build(const FormatDescriptor& desc, const SparseInput& in,
                        u64 max_bytes)
{
    checkInputMatches(desc, in);
    const u32 num_levels = desc.numLevels();
    const u32 bits = levelKeyBits(desc);
    const u64 nnz = in.nnz();

    // Sort nonzeros lexicographically in level order, remembering each
    // one's input index for its value.
    std::vector<std::pair<LevelKey, u32>> keyed(nnz);
    for (u64 n = 0; n < nnz; ++n)
        keyed[n] = {packLevelKey(desc, in.coord(n)), static_cast<u32>(n)};
    std::sort(keyed.begin(), keyed.end());
    FormatFootprint fp = footprintOfSorted(
        desc, nnz, [&](u64 i) { return keyed[i].first; }, max_bytes);

    HierSparseTensor out;
    out.desc_ = desc;
    out.levels_.resize(num_levels);
    out.bytes_ = fp.bytes();

    // Position of each sorted nonzero; refined level by level.
    std::vector<u64> position(nnz, 0);
    u64 parent_count = 1;
    for (u32 l = 0; l < num_levels; ++l) {
        BuiltLevel& bl = out.levels_[l];
        bl.fmt = fp.levels[l].fmt;
        bl.extent = desc.levelExtent(l);
        bl.numPositions = fp.levels[l].numPositions;
        const u32 shift = bits * (num_levels - 1 - l);
        const LevelKey mask = (LevelKey{1} << bits) - 1;
        auto coord_of = [&](u64 idx) {
            return static_cast<u32>((keyed[idx].first >> shift) & mask);
        };
        if (bl.fmt == LevelFormat::Uncompressed) {
            for (u64 idx = 0; idx < nnz; ++idx)
                position[idx] = position[idx] * bl.extent + coord_of(idx);
        } else {
            // A new position wherever the prefix of levels 0..l changes.
            bl.pos.assign(parent_count + 1, 0);
            bl.crd.reserve(bl.numPositions);
            for (u64 idx = 0; idx < nnz; ++idx) {
                if (idx == 0 || (keyed[idx].first >> shift) !=
                                    (keyed[idx - 1].first >> shift)) {
                    bl.crd.push_back(coord_of(idx));
                    ++bl.pos[position[idx] + 1];
                }
                position[idx] = bl.crd.size() - 1;
            }
            for (u64 p = 0; p < parent_count; ++p)
                bl.pos[p + 1] += bl.pos[p];
        }
        parent_count = bl.numPositions;
    }

    out.vals_.assign(parent_count, 0.0f);
    const std::vector<float>& vals = in.values();
    for (u64 idx = 0; idx < nnz; ++idx)
        out.vals_[position[idx]] += vals[keyed[idx].second];
    return out;
}

bool
HierSparseTensor::reconstruct(const std::vector<u32>& level_coords,
                              std::array<u32, 3>& coords) const
{
    coords = {0, 0, 0};
    for (u32 l = 0; l < desc_.numLevels(); ++l) {
        const LevelSpec& ls = desc_.levels()[l];
        switch (ls.part) {
          case LevelPart::Full:
            coords[ls.dim] = level_coords[l];
            break;
          case LevelPart::Outer:
            coords[ls.dim] += level_coords[l] * desc_.splits()[ls.dim];
            break;
          case LevelPart::Inner:
            coords[ls.dim] += level_coords[l];
            break;
        }
    }
    for (u32 d = 0; d < desc_.order(); ++d) {
        if (coords[d] >= desc_.dims()[d])
            return false;
    }
    return true;
}

void
HierSparseTensor::forEachNonzero(
    const std::function<void(const std::array<u32, 3>&, float)>& fn) const
{
    forEachStored([&](const std::array<u32, 3>& coords, float v, bool ok) {
        if (ok && v != 0.0f)
            fn(coords, v);
    });
}

SparseMatrix
HierSparseTensor::toSparseMatrix() const
{
    panicIf(desc_.order() != 2, "toSparseMatrix on non-2D tensor");
    std::vector<Triplet> t;
    forEachNonzero([&](const std::array<u32, 3>& coords, float v) {
        t.push_back({coords[0], coords[1], v});
    });
    return SparseMatrix(desc_.dims()[0], desc_.dims()[1], std::move(t));
}

} // namespace waco
