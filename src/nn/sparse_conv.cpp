#include "nn/sparse_conv.hpp"

#include <bit>
#include <limits>
#include <memory>

#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace waco::nn {

namespace detail {

/**
 * One site keyed in coordinate order. Each coordinate is mapped onto a u32
 * by flipping its sign bit, which keeps its order and turns the i32 range
 * into the u32 range. `line` holds the leading coordinates (x of a 2-D
 * site; x in the high and y in the low half of a 3-D one) and `last` the
 * last one, so (line, last) compares lexicographically in both cases.
 */
struct SortedSite
{
    u64 line = 0;
    u32 last = 0;
    u32 id = 0; ///< The site's row in its map.
};

} // namespace detail

namespace {

using detail::SortedSite;

/** Marks "no site" in the rulebook build's index arrays. */
constexpr u32 kNone = ~u32(0);

/** Order-preserving map of an i32 onto a u32 (flips the sign bit). */
constexpr u32
orderKey(i32 x)
{
    return static_cast<u32>(x) ^ 0x80000000u;
}

constexpr i32
fromKey(u64 key)
{
    return static_cast<i32>(static_cast<u32>(key) ^ 0x80000000u);
}

/** (line, last) as one number: compares lexicographically without a
 *  branch. Distinct sites never tie. */
__extension__ typedef unsigned __int128 SiteKey;

SiteKey
keyOf(u64 line, u64 last)
{
    return (static_cast<SiteKey>(line) << 32) | last;
}

SiteKey
keyOf(const SortedSite& s)
{
    return keyOf(s.line, s.last);
}

/**
 * Key of floor(p / 2) from the key of p, per 32-bit lane: the key of p is
 * p + 2^31, so halving it gives floor(p / 2) + 2^30.
 */
constexpr u64
halveLanes(u64 key, u64 lanes)
{
    return ((key >> 1) & (lanes * 0x7fffffffull)) + lanes * 0x40000000ull;
}

/** One 32-bit lane in a 2-D line, two in a 3-D line (see SortedSite). */
u64
lanesOf(u32 dim)
{
    return dim == 3 ? 0x100000001ull : 1;
}

/** Parity of each leading coordinate of @p line, one bit per lane. */
u32
parityClass(u64 line)
{
    return static_cast<u32>((line & 1) | ((line >> 31) & 2));
}

/**
 * Shift @p line by (@p dx) in 2-D or (@p dx, @p dy) in 3-D; false when a
 * shifted coordinate leaves the i32 range (no site lies there).
 */
bool
shiftLine(u64 line, u32 dim, i64 dx, i64 dy, u64& out)
{
    constexpr i64 kMaxKey = 0xffffffffll;
    if (dim == 2) {
        i64 x = static_cast<i64>(line) + dx;
        out = static_cast<u64>(x);
        return x >= 0 && x <= kMaxKey;
    }
    i64 x = static_cast<i64>(line >> 32) + dx;
    i64 y = static_cast<i64>(line & 0xffffffffull) + dy;
    out = (static_cast<u64>(x) << 32) | static_cast<u64>(y);
    return x >= 0 && x <= kMaxKey && y >= 0 && y <= kMaxKey;
}

/**
 * The sites of @p coords in coordinate order. Input that is already in
 * order (COO order is) is checked in one pass and not sorted. Panics on a
 * duplicate site or on a 2-D site whose third coordinate is nonzero.
 */
std::vector<SortedSite>
sortedSites(const std::vector<std::array<i32, 3>>& coords, u32 dim)
{
    const u32 n = static_cast<u32>(coords.size());
    std::vector<SortedSite> sites(n);
    bool ascending = true;
    for (u32 i = 0; i < n; ++i) {
        const auto& c = coords[i];
        if (dim == 2) {
            if (c[2] != 0)
                panic("sparse conv: a 2-D site has a nonzero third coordinate");
            sites[i] = {orderKey(c[0]), orderKey(c[1]), i};
        } else {
            sites[i] = {(u64(orderKey(c[0])) << 32) | orderKey(c[1]),
                        orderKey(c[2]), i};
        }
        ascending = ascending && (i == 0 || keyOf(sites[i - 1]) < keyOf(sites[i]));
    }
    if (!ascending) {
        std::sort(sites.begin(), sites.end(),
                  [](const SortedSite& a, const SortedSite& b) {
                      return keyOf(a) < keyOf(b);
                  });
        for (u32 k = 1; k < n; ++k) {
            if (keyOf(sites[k - 1]) == keyOf(sites[k]))
                panic("sparse conv: duplicate input site");
        }
    }
    return sites;
}

/**
 * Dense (offset, output site) workspace of one rulebook build (Kjolstad
 * et al., sparse workspaces): a slot holds the input site that reaches
 * that output through that offset, and a bitmap marks the filled slots,
 * so neither the build nor the emit pays for the empty ones. Each slot is
 * written at most once, since input sites are distinct.
 */
class PairSlots
{
  public:
    PairSlots(std::size_t offsets, u32 outputs)
        : offsets_(offsets), outputs_(outputs),
          words_((u64(outputs) + 63) / 64),
          slot_(std::make_unique_for_overwrite<u32[]>(offsets * outputs_)),
          filled_(offsets * words_, 0)
    {}

    void
    set(u64 offset, u32 out, u32 in)
    {
        slot_[offset * outputs_ + out] = in;
        filled_[offset * words_ + out / 64] |= u64(1) << (out % 64);
    }

    /** Each offset's (input, output) pairs in ascending output site,
     *  filled at their exact size. */
    void
    emit(std::vector<std::vector<std::pair<u32, u32>>>& pairs) const
    {
        pairs.resize(offsets_);
        for (u64 o = 0; o < offsets_; ++o) {
            const u32* slots = slot_.get() + o * outputs_;
            const u64* filled = filled_.data() + o * words_;
            u64 count = 0;
            for (u64 w = 0; w < words_; ++w)
                count += static_cast<u64>(std::popcount(filled[w]));
            auto& list = pairs[o];
            list.resize(count);
            u64 k = 0;
            for (u64 w = 0; w < words_; ++w) {
                for (u64 bits = filled[w]; bits != 0; bits &= bits - 1) {
                    const auto q = static_cast<u32>(
                        w * 64 + static_cast<u64>(std::countr_zero(bits)));
                    list[k++] = {slots[q], q};
                }
            }
        }
    }

  private:
    u64 offsets_;
    u64 outputs_;
    u64 words_;
    std::unique_ptr<u32[]> slot_;
    std::vector<u64> filled_;
};

/** Work threshold before the execute step engages the ThreadPool. */
constexpr u64 kParallelPairFlops = u64(1) << 20;

/** Gather pairs per ThreadPool chunk (before output-site alignment). */
constexpr u64 kPairChunk = 4096;

} // namespace

SparseConv::SparseConv(u32 dim, u32 kernel, u32 stride, u32 in_ch, u32 out_ch,
                       Rng& rng)
    : dim_(dim), kernel_(kernel), stride_(stride), inCh_(in_ch), outCh_(out_ch)
{
    fatalIf(kernel % 2 == 0, "sparse conv kernel must be odd");
    fatalIf(stride != 1 && stride != 2, "sparse conv stride must be 1 or 2");
    i32 half = static_cast<i32>(kernel) / 2;
    std::array<i32, 3> off = {0, 0, 0};
    // Enumerate the D-dimensional offset cube.
    std::vector<std::array<i32, 3>> offsets;
    auto enumerate = [&](auto&& self, u32 d) -> void {
        if (d == dim) {
            offsets.push_back(off);
            return;
        }
        for (i32 x = -half; x <= half; ++x) {
            off[d] = x;
            self(self, d + 1);
        }
    };
    enumerate(enumerate, 0);
    offsets_ = std::move(offsets);
    u32 fan_in = in_ch * static_cast<u32>(offsets_.size());
    for (std::size_t o = 0; o < offsets_.size(); ++o) {
        w_.emplace_back(in_ch, out_ch);
        w_.back().init(rng, fan_in);
    }
    b_ = Param(1, out_ch);
    b_.init(rng, fan_in);
}

Rulebook
SparseConv::buildRulebook(const std::vector<std::array<i32, 3>>& coords) const
{
    std::vector<SortedSite> sites = sortedSites(coords, dim_);
    return build(coords, sites);
}

Rulebook
SparseConv::build(const std::vector<std::array<i32, 3>>& coords,
                  std::vector<SortedSite>& sites) const
{
    Rulebook rb;
    rb.inSites = static_cast<u32>(coords.size());
    const u32 n = rb.inSites;
    const u32 lead = dim_ - 1; // leading coordinates, see SortedSite
    const u64 lanes = lanesOf(dim_);
    const i64 half = kernel_ / 2;
    const i64 stride = stride_;

    // An input p reaches output q through offset p - stride * q when that
    // offset lies in the filter. Per coordinate, with c = floor(p / stride)
    // and r = p - stride * c, q is c + e for e in [lo[r], hi[r]].
    const std::array<i64, 2> lo = {-(half / stride), -((half - 1) / stride)};
    const std::array<i64, 2> hi = {half / stride, (half + 1) / stride};
    auto cellOf = [&](const SortedSite& s) -> SortedSite {
        if (stride == 1)
            return s;
        return {halveLanes(s.line, lanes),
                static_cast<u32>(halveLanes(s.last, 1)), s.id};
    };

    // Inputs grouped by the parity of their leading coordinates (one group
    // at stride 1), each group in coordinate order. Within a group the
    // cells of consecutive inputs never go back, so every cursor below
    // only moves forward.
    const u32 groups = stride == 1 ? 1 : 1u << lead;
    auto groupOf = [&](const SortedSite& s) {
        return stride == 1 ? 0 : parityClass(s.line);
    };
    std::array<u32, 5> start{};
    for (const SortedSite& s : sites)
        ++start[groupOf(s) + 1];
    for (u32 g = 0; g < groups; ++g)
        start[g + 1] += start[g];
    std::vector<SortedSite> grouped;
    if (groups > 1) {
        grouped.resize(n);
        std::array<u32, 4> next = {start[0], start[1], start[2], start[3]};
        for (const SortedSite& s : sites)
            grouped[next[groupOf(s)]++] = s;
    }
    const std::vector<SortedSite>& ins = groups > 1 ? grouped : sites;

    // Output sites in coordinate order, each keyed with its output row, and
    // the position there of each grouped input's own cell (its own
    // position at stride 1).
    std::vector<SortedSite> cells;
    std::vector<u32> cell_of;
    if (stride == 1) {
        // Submanifold: output sites == input sites.
        rb.outCoords = coords;
    } else {
        // Strided (MinkowskiEngine semantics): output sites live on the
        // coarse grid at floor(p / stride), so each layer strictly
        // coarsens the coordinate space. The cells are a merge of the
        // groups' sorted cell streams; a cell is led by its smallest input
        // site, and output rows follow the leaders (first-occurrence
        // order: pooling sums run in row order, so the order is part of
        // the features).
        cells.resize(n);
        cell_of.resize(n);
        u32 m = 0;
        std::array<u32, 4> head = {start[0], start[1], start[2], start[3]};
        std::array<SiteKey, 4> next{};
        std::array<u32, 4> next_id{};
        auto load = [&](u32 g) {
            // An exhausted group sorts after every cell.
            if (head[g] < start[g + 1]) {
                const SortedSite c = cellOf(ins[head[g]]);
                next[g] = keyOf(c);
                next_id[g] = c.id;
            } else {
                next[g] = ~SiteKey(0);
            }
        };
        for (u32 g = 0; g < groups; ++g)
            load(g);
        SiteKey prev = ~SiteKey(0);
        for (u32 k = 0; k < n; ++k) {
            u32 best = 0;
            for (u32 g = 1; g < groups; ++g)
                best = next[g] < next[best] ? g : best;
            const SiteKey key = next[best];
            const u32 id = next_id[best];
            const u32 input = head[best]++;
            load(best);
            const bool fresh = key != prev;
            m += fresh;
            cell_of[input] = m - 1;
            SortedSite& cell = cells[m - 1];
            cell.line = static_cast<u64>(key >> 32);
            cell.last = static_cast<u32>(key);
            cell.id = fresh ? id : std::min(cell.id, id);
            prev = key;
        }
        cells.resize(m);
        std::vector<u32> cell_of_leader(n, kNone);
        for (u32 u = 0; u < m; ++u)
            cell_of_leader[cells[u].id] = u;
        rb.outCoords.resize(m);
        for (u32 i = 0, q = 0; i < n; ++i) {
            const u32 u = cell_of_leader[i];
            if (u == kNone)
                continue;
            const SortedSite& c = cells[u];
            rb.outCoords[q] = {fromKey(dim_ == 3 ? c.line >> 32 : c.line),
                               fromKey(dim_ == 3 ? c.line : c.last),
                               dim_ == 3 ? fromKey(c.last) : 0};
            cells[u].id = q++;
        }
    }
    const std::vector<SortedSite>& outs = stride == 1 ? sites : cells;
    const auto m = static_cast<u32>(outs.size());

    // Every input writes its own slots. Its own line of output sites (its
    // cell's, in the leading coordinates) is read around its own cell; per
    // group, every other line it reaches (a cell displacement) keeps a
    // cursor at the current input's window. A window runs over the last
    // coordinate. A line or a window that leaves the i32 range holds no
    // site beyond it. Submanifold pairs come in mirrored couples (q reaches
    // p through -o when p reaches q through o), so a stride-1 input looks
    // only ahead of itself in coordinate order and writes both.
    const bool mirror = stride == 1;
    const i64 width = kernel_;
    const u64 last_offset = offsets_.size() - 1;
    PairSlots slots(offsets_.size(), m);
    for (u32 g = 0; g < groups; ++g) {
        struct Line
        {
            i64 dx = 0, dy = 0; ///< Cell displacement of the line.
            i64 base = 0;       ///< Offset index at last-coordinate offset 0.
            u32 cursor = 0;
        };
        std::vector<Line> lines;
        const i64 rx = stride == 1 ? 0 : (g >> (lead - 1)) & 1;
        const i64 ry = stride == 1 || lead == 1 ? 0 : g & 1;
        const i64 dy_lo = lead == 2 ? lo[ry] : 0;
        const i64 dy_hi = lead == 2 ? hi[ry] : 0;
        i64 own_base = 0;
        for (i64 dx = lo[rx]; dx <= hi[rx]; ++dx) {
            for (i64 dy = dy_lo; dy <= dy_hi; ++dy) {
                if (mirror && (dx < 0 || (dx == 0 && dy < 0)))
                    continue;
                i64 base = (rx - stride * dx + half) * width;
                if (lead == 2)
                    base = (base + ry - stride * dy + half) * width;
                if (dx == 0 && dy == 0)
                    own_base = base + half;
                else
                    lines.push_back({dx, dy, base + half, 0});
            }
        }
        for (u32 k = start[g]; k < start[g + 1]; ++k) {
            const SortedSite& in = ins[k];
            const SortedSite cell = cellOf(in);
            const i64 r = stride == 1 ? 0 : in.last & 1;
            // p - stride * q in the last coordinate; the keys carry a 2^31
            // bias each.
            const i64 bias = i64(in.last) + (stride - 1) * 0x80000000ll;
            auto link = [&](i64 base, const SortedSite& out) {
                const auto o =
                    static_cast<u64>(base + bias - stride * i64(out.last));
                slots.set(o, out.id, in.id);
                if (mirror)
                    slots.set(last_offset - o, in.id, out.id);
            };
            const i64 first = std::max<i64>(0, i64(cell.last) + lo[r]);
            const i64 last = std::min<i64>(0xffffffffll, i64(cell.last) + hi[r]);

            u32 t = mirror ? k + 1 : cell_of[k];
            if (mirror)
                slots.set(last_offset / 2, in.id, in.id);
            // A kernel wider than 3 reaches cells behind the own one.
            while (!mirror && t > 0 && outs[t - 1].line == cell.line &&
                   i64(outs[t - 1].last) >= first)
                --t;
            for (; t < m && outs[t].line == cell.line &&
                   i64(outs[t].last) <= last;
                 ++t)
                link(own_base, outs[t]);

            for (Line& line : lines) {
                u64 target = 0;
                if (!shiftLine(cell.line, dim_, line.dx, line.dy, target))
                    continue;
                const SiteKey from = keyOf(target, static_cast<u64>(first));
                t = line.cursor;
                while (t < m && keyOf(outs[t]) < from)
                    ++t;
                line.cursor = t;
                for (; t < m && outs[t].line == target &&
                       i64(outs[t].last) <= last;
                     ++t)
                    link(line.base, outs[t]);
            }
        }
    }
    slots.emit(rb.pairs);
    if (stride == 2)
        sites = std::move(cells);
    return rb;
}

Mat
SparseConv::forward(Mat in, const Rulebook& rb)
{
    WACO_SPAN("nn.conv");
    panicIf(in.cols != inCh_, "sparse conv channel mismatch");
    panicIf(rb.inSites != in.rows || rb.pairs.size() != offsets_.size(),
            "rulebook does not match this layer/input");
    in_feats_ = std::move(in);
    active_ = &rb;

    Mat out(static_cast<u32>(rb.outCoords.size()), outCh_);
    for (u32 q = 0; q < out.rows; ++q) {
        float* orow = out.row(q);
        for (u32 c = 0; c < outCh_; ++c)
            orow[c] = b_.w.at(0, c);
    }

    // Gather -> GEMM -> scatter per offset. Chunks of the pair list are
    // extended to output-site boundaries (lists are sorted by output site),
    // so each chunk's scatter rows are disjoint: workers accumulate into
    // private gather/result buffers and write back conflict-free.
    for (std::size_t o = 0; o < offsets_.size(); ++o) {
        const auto& pairs = rb.pairs[o];
        if (pairs.empty())
            continue;
        const Mat& w = w_[o].w;
        auto execute = [&](u64 begin, u64 end) {
            // Shift both ends forward past any run of the previous chunk's
            // trailing output site; the same rule on both sides yields an
            // exact partition of the list.
            while (begin > 0 && begin < pairs.size() &&
                   pairs[begin].second == pairs[begin - 1].second)
                ++begin;
            while (end < pairs.size() &&
                   pairs[end].second == pairs[end - 1].second)
                ++end;
            if (begin >= end)
                return;
            u32 n = static_cast<u32>(end - begin);
            Mat gather(n, inCh_);
            for (u32 r = 0; r < n; ++r) {
                const float* src = in_feats_.row(pairs[begin + r].first);
                std::copy(src, src + inCh_, gather.row(r));
            }
            Mat partial(n, outCh_);
            matmulAccSerial(gather, w, partial);
            for (u32 r = 0; r < n; ++r) {
                float* orow = out.row(pairs[begin + r].second);
                const float* prow = partial.row(r);
                for (u32 co = 0; co < outCh_; ++co)
                    orow[co] += prow[co];
            }
        };
        u64 flops = u64(pairs.size()) * inCh_ * outCh_;
        if (flops >= kParallelPairFlops && globalPool().workers() > 0 &&
            pairs.size() > kPairChunk) {
            globalPool().parallelFor(pairs.size(), kPairChunk,
                                     globalPool().workers() + 1, execute);
        } else {
            execute(0, pairs.size());
        }
    }
    return out;
}

SparseMap
SparseConv::forward(const SparseMap& in)
{
    own_ = buildRulebook(in.coords);
    SparseMap out;
    out.dim = in.dim;
    out.coords = own_.outCoords;
    out.feats = forward(in.feats, own_);
    return out;
}

Mat
SparseConv::backward(const Mat& d_out)
{
    panicIf(!active_, "SparseConv::backward without a forward");
    const Rulebook& rb = *active_;
    Mat d_in(rb.inSites, inCh_);
    for (u32 q = 0; q < d_out.rows; ++q) {
        const float* drow = d_out.row(q);
        for (u32 c = 0; c < outCh_; ++c)
            b_.g.at(0, c) += drow[c];
    }
    for (std::size_t o = 0; o < offsets_.size(); ++o) {
        const Mat& w = w_[o].w;
        Mat& gw = w_[o].g;
        for (const auto& [pi, qi] : rb.pairs[o]) {
            const float* irow = in_feats_.row(pi);
            const float* drow = d_out.row(qi);
            float* dirow = d_in.row(pi);
            for (u32 ci = 0; ci < inCh_; ++ci) {
                const float* wrow = w.row(ci);
                float* gwrow = gw.row(ci);
                float x = irow[ci];
                float acc = 0.0f;
                for (u32 co = 0; co < outCh_; ++co) {
                    acc += drow[co] * wrow[co];
                    gwrow[co] += x * drow[co];
                }
                dirow[ci] += acc;
            }
        }
    }
    return d_in;
}

void
SparseConv::collectParams(std::vector<Param*>& out)
{
    for (auto& w : w_)
        out.push_back(&w);
    out.push_back(&b_);
}

u64
RulebookCache::fingerprint(const std::vector<std::array<i32, 3>>& coords)
{
    u64 h = 0xcbf29ce484222325ull ^ coords.size();
    for (const auto& c : coords) {
        for (i32 x : c) {
            h ^= static_cast<u64>(static_cast<u32>(x));
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

const std::vector<Rulebook>&
RulebookCache::chain(const std::vector<std::array<i32, 3>>& coords,
                     std::vector<SparseConv>& convs)
{
    u64 key = fingerprint(coords);
    if (auto it = index_.find(key); it != index_.end()) {
        if (it->second->coords == coords) {
            ++hits_;
            WACO_COUNT("rulebook.hits", 1);
            lru_.splice(lru_.begin(), lru_, it->second);
            return lru_.front().chain;
        }
        // A fingerprint collision: the new pattern replaces the old one.
        erase(it->second);
    }

    ++misses_;
    WACO_COUNT("rulebook.misses", 1);
    Entry e;
    {
        WACO_SPAN("nn.rulebook");
        e.key = key;
        e.coords = coords;
        e.chain.reserve(convs.size());
        // Each layer hands its output sites, in coordinate order, to the
        // next, so only the input is ever checked for order.
        std::vector<SortedSite> sites;
        if (!convs.empty())
            sites = sortedSites(coords, convs.front().dim_);
        const std::vector<std::array<i32, 3>>* cur = &coords;
        for (auto& conv : convs) {
            panicIf(conv.dim_ != convs.front().dim_,
                    "rulebook chain mixes dimensions");
            e.chain.push_back(conv.build(*cur, sites));
            cur = &e.chain.back().outCoords;
        }
    }
    e.entries = coords.size();
    for (const auto& rb : e.chain)
        e.entries += rb.pairCount();
    totalEntries_ += e.entries;
    lru_.push_front(std::move(e));
    index_[key] = lru_.begin();
    while (totalEntries_ > budget_ && lru_.size() > 1)
        erase(std::prev(lru_.end()));
    return lru_.front().chain;
}

void
RulebookCache::erase(std::list<Entry>::iterator it)
{
    totalEntries_ -= it->entries;
    index_.erase(it->key);
    lru_.erase(it);
    ++evictions_;
    WACO_COUNT("rulebook.evictions", 1);
}

void
RulebookCache::clear()
{
    lru_.clear();
    index_.clear();
    totalEntries_ = 0;
}

Mat
GlobalAvgPool::forward(const Mat& feats)
{
    sites_ = feats.rows;
    channels_ = feats.cols;
    Mat out(1, channels_);
    if (sites_ == 0)
        return out;
    for (u32 r = 0; r < sites_; ++r) {
        const float* row = feats.row(r);
        for (u32 c = 0; c < channels_; ++c)
            out.at(0, c) += row[c];
    }
    for (u32 c = 0; c < channels_; ++c)
        out.at(0, c) /= static_cast<float>(sites_);
    return out;
}

Mat
GlobalAvgPool::backward(const Mat& d_out)
{
    Mat d_in(sites_, channels_);
    if (sites_ == 0)
        return d_in;
    for (u32 r = 0; r < sites_; ++r) {
        float* row = d_in.row(r);
        for (u32 c = 0; c < channels_; ++c)
            row[c] = d_out.at(0, c) / static_cast<float>(sites_);
    }
    return d_in;
}

} // namespace waco::nn
