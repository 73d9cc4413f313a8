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

} // namespace

HierSparseTensor
HierSparseTensor::build(const FormatDescriptor& desc, const SparseInput& in,
                        u64 max_bytes)
{
    fatalIf(desc.order() != in.order(),
            "descriptor order does not match input order");
    for (u32 d = 0; d < in.order(); ++d)
        fatalIf(desc.dims()[d] != in.dims()[d],
                "descriptor dims do not match input shape");
    std::vector<std::array<u32, 3>> coords(in.nnz());
    for (u64 n = 0; n < in.nnz(); ++n)
        coords[n] = in.coord(n);
    return buildImpl(desc, coords, in.values(), max_bytes);
}

HierSparseTensor
HierSparseTensor::buildImpl(const FormatDescriptor& desc,
                            const std::vector<std::array<u32, 3>>& coords,
                            const std::vector<float>& vals, u64 max_bytes)
{
    const u32 num_levels = desc.numLevels();
    const u64 nnz = coords.size();
    const u64 max_positions = max_bytes / kEntryBytes;

    // Per-nonzero level coordinates.
    std::vector<std::vector<u32>> lc(num_levels, std::vector<u32>(nnz));
    for (u32 l = 0; l < num_levels; ++l)
        for (u64 n = 0; n < nnz; ++n)
            lc[l][n] = desc.levelCoord(l, coords[n]);

    // Sort nonzeros lexicographically in level order. Level coordinates
    // fit in 18 bits each (dims <= 131072), so up to 7 levels pack into a
    // single 126-bit key — far faster than a per-level comparator.
    panicIf(num_levels > 7, "too many levels to pack a sort key");
    using Key = unsigned __int128;
    std::vector<std::pair<Key, u32>> keyed(nnz);
    for (u64 n = 0; n < nnz; ++n) {
        Key k = 0;
        for (u32 l = 0; l < num_levels; ++l)
            k = (k << 18) | lc[l][n];
        keyed[n] = {k, static_cast<u32>(n)};
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<u64> order(nnz);
    for (u64 n = 0; n < nnz; ++n)
        order[n] = keyed[n].second;

    HierSparseTensor out;
    out.desc_ = desc;
    out.levels_.resize(num_levels);
    out.bytes_ = 0;

    // Current position of each nonzero; refined level by level.
    std::vector<u64> position(nnz, 0);
    u64 parent_count = 1;

    for (u32 l = 0; l < num_levels; ++l) {
        BuiltLevel& bl = out.levels_[l];
        bl.fmt = desc.levels()[l].fmt;
        bl.extent = desc.levelExtent(l);
        if (bl.fmt == LevelFormat::Uncompressed) {
            bl.numPositions = parent_count * bl.extent;
            if (bl.numPositions > max_positions ||
                bl.numPositions / bl.extent != parent_count) {
                throw FormatTooLarge("uncompressed level exceeds budget in " +
                                     desc.name());
            }
            for (u64 idx = 0; idx < nnz; ++idx) {
                u64 n = order[idx];
                position[n] = position[n] * bl.extent + lc[l][n];
            }
            out.bytes_ += kEntryBytes; // stores only the dimension
        } else {
            if (parent_count + 1 > max_positions) {
                throw FormatTooLarge("compressed pos array exceeds budget in " +
                                     desc.name());
            }
            bl.pos.assign(parent_count + 1, 0);
            bl.crd.clear();
            bl.crd.reserve(nnz);
            u64 prev_parent = ~0ull;
            u32 prev_coord = 0;
            std::vector<u64> new_position(nnz);
            for (u64 idx = 0; idx < nnz; ++idx) {
                u64 n = order[idx];
                u64 parent = position[n];
                u32 coord = lc[l][n];
                if (parent != prev_parent || coord != prev_coord ||
                    bl.crd.empty()) {
                    bl.crd.push_back(coord);
                    ++bl.pos[parent + 1];
                    prev_parent = parent;
                    prev_coord = coord;
                }
                new_position[n] = bl.crd.size() - 1;
            }
            for (u64 p = 0; p < parent_count; ++p)
                bl.pos[p + 1] += bl.pos[p];
            position = std::move(new_position);
            bl.numPositions = bl.crd.size();
            out.bytes_ += kEntryBytes * (bl.pos.size() + bl.crd.size());
        }
        parent_count = bl.numPositions;
    }

    if (parent_count > max_positions)
        throw FormatTooLarge("value array exceeds budget in " + desc.name());
    out.vals_.assign(parent_count, 0.0f);
    for (u64 n = 0; n < nnz; ++n)
        out.vals_[position[n]] += vals[n];
    out.bytes_ += kEntryBytes * parent_count;
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
