#include "nn/sparse_conv.hpp"

#include <limits>

#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace waco::nn {

namespace {

/** Marks "no site" in the rulebook build's index arrays. */
constexpr u32 kNone = ~u32(0);

/** Order-preserving map of an i32 onto a u32 (flips the sign bit). */
constexpr u64
orderKey(i64 x)
{
    return static_cast<u32>(static_cast<i32>(x)) ^ 0x80000000u;
}

/**
 * Sort key of one site: its coordinates compared lexicographically, exact
 * over the full i32 range, ties broken by site number. `xy` holds the first
 * two coordinates, `zs` the third above the site number.
 */
struct SiteKey
{
    u64 xy = 0;
    u64 zs = 0;

    bool
    operator<(const SiteKey& o) const
    {
        return xy != o.xy ? xy < o.xy : zs < o.zs;
    }

    bool
    sameCoords(const SiteKey& o) const
    {
        return xy == o.xy && (zs >> 32) == (o.zs >> 32);
    }

    u32 site() const { return static_cast<u32>(zs); }

    /** Coordinate @p d (0, 1 or 2) of the site. */
    i64
    coord(u32 d) const
    {
        u64 bits = d == 0 ? xy >> 32 : d == 1 ? xy : zs >> 32;
        return static_cast<i32>(static_cast<u32>(bits) ^ 0x80000000u);
    }

    /** The same coordinates under another site number. */
    SiteKey
    withSite(u32 s) const
    {
        return {xy, (zs & ~u64(0xffffffffu)) | s};
    }
};

/** Key of site number @p site at coordinates @p c (each within i32). */
template <typename Int>
SiteKey
siteKey(const std::array<Int, 3>& c, u32 site)
{
    return {(orderKey(c[0]) << 32) | orderKey(c[1]),
            (orderKey(c[2]) << 32) | site};
}

/** True when @p x is representable as an i32. */
bool
fitsI32(i64 x)
{
    return x >= std::numeric_limits<i32>::min() &&
           x <= std::numeric_limits<i32>::max();
}

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
    Rulebook rb;
    rb.inSites = static_cast<u32>(coords.size());
    const u32 n = rb.inSites;

    // Input sites in coordinate order.
    std::vector<SiteKey> in(n);
    for (u32 i = 0; i < n; ++i) {
        if (dim_ == 2 && coords[i][2] != 0)
            panic("sparse conv: a 2-D site has a nonzero third coordinate");
        in[i] = siteKey(coords[i], i);
    }
    std::sort(in.begin(), in.end());
    for (u32 k = 1; k < n; ++k) {
        if (in[k].sameCoords(in[k - 1]))
            panic("sparse conv: duplicate input site");
    }

    // Output sites: ids in first-occurrence order (pooling sums run in
    // site order, so the order is part of the features), plus the output
    // sites in coordinate order, each keyed with its output id, for the
    // merge below.
    std::vector<SiteKey> out_sorted;
    if (stride_ == 1) {
        // Submanifold: output sites == input sites.
        rb.outCoords = coords;
        out_sorted = in;
    } else {
        // Strided (MinkowskiEngine semantics): output sites live on the
        // coarse grid at floor(p / stride), so each layer strictly
        // coarsens the coordinate space. Sites sharing a coarse cell form
        // one run after sorting, led by the run's smallest site.
        std::vector<std::array<i32, 3>> coarse(n, {0, 0, 0});
        std::vector<SiteKey> cells(n);
        for (u32 i = 0; i < n; ++i) {
            // Stride 2: the arithmetic shift is floor division.
            for (u32 d = 0; d < dim_; ++d)
                coarse[i][d] = coords[i][d] >> 1;
            cells[i] = siteKey(coarse[i], i);
        }
        std::sort(cells.begin(), cells.end());
        std::vector<u32> run_of_leader(n, kNone);
        for (u32 k = 0; k < n; ++k) {
            if (k == 0 || !cells[k].sameCoords(cells[k - 1])) {
                run_of_leader[cells[k].site()] =
                    static_cast<u32>(out_sorted.size());
                out_sorted.push_back(cells[k]);
            }
        }
        rb.outCoords.reserve(out_sorted.size());
        for (u32 i = 0; i < n; ++i) {
            if (run_of_leader[i] == kNone)
                continue;
            SiteKey& run = out_sorted[run_of_leader[i]];
            run = run.withSite(static_cast<u32>(rb.outCoords.size()));
            rb.outCoords.push_back(coarse[i]);
        }
    }

    // Gather pair lists per offset: input p contributes to output q when
    // p == q*stride + off. Offsets that differ only in the last dimension
    // form a group. Within a group the targets of the outputs, taken in
    // coordinate order, ascend, so one forward cursor over the sorted
    // inputs serves every output; each output then scans its window of
    // +-half in the last dimension. Matches land in match[window][q] and
    // are emitted in ascending q, keeping each per-offset list sorted by
    // output site, which the execute step relies on for conflict-free
    // parallel scatter. A window that leaves the i32 range matches nothing
    // beyond it.
    const u32 n_out = static_cast<u32>(rb.outCoords.size());
    const u32 last = dim_ - 1;
    const i64 width = kernel_;
    rb.pairs.assign(offsets_.size(), {});
    std::vector<u32> match(static_cast<std::size_t>(kernel_) * n_out);
    std::vector<u32> found(kernel_);
    for (std::size_t g = 0; g < offsets_.size(); g += kernel_) {
        std::fill(match.begin(), match.end(), kNone);
        std::fill(found.begin(), found.end(), 0);
        u32 cursor = 0;
        for (const SiteKey& out : out_sorted) {
            std::array<i64, 3> lo = {0, 0, 0};
            bool in_range = true;
            for (u32 d = 0; d < dim_; ++d) {
                lo[d] = out.coord(d) * stride_ + offsets_[g][d];
                in_range = in_range && (d == last || fitsI32(lo[d]));
            }
            const i64 base = lo[last];
            std::array<i64, 3> hi = lo;
            hi[last] = std::min<i64>(base + width - 1,
                                     std::numeric_limits<i32>::max());
            lo[last] = std::max<i64>(base, std::numeric_limits<i32>::min());
            if (!in_range)
                continue;
            const SiteKey from = siteKey(lo, 0);
            const SiteKey to = siteKey(hi, kNone);
            while (cursor < n && in[cursor] < from)
                ++cursor;
            for (u32 k = cursor; k < n && !(to < in[k]); ++k) {
                auto w = static_cast<u32>(in[k].coord(last) - base);
                match[u64(w) * n_out + out.site()] = in[k].site();
                ++found[w];
            }
        }
        for (u32 w = 0; w < kernel_; ++w) {
            auto& pairs = rb.pairs[g + w];
            pairs.resize(found[w]);
            const u32* window = match.data() + u64(w) * n_out;
            // Branch-free compaction: the slot is overwritten until a
            // match claims it.
            for (u32 q = 0, k = 0; k < found[w]; ++q) {
                pairs[k] = {window[q], q};
                k += window[q] != kNone;
            }
        }
    }
    return rb;
}

SparseMap
SparseConv::forward(const SparseMap& in, const Rulebook& rb)
{
    panicIf(in.feats.cols != inCh_, "sparse conv channel mismatch");
    panicIf(rb.inSites != in.numSites() || rb.pairs.size() != offsets_.size(),
            "rulebook does not match this layer/input");
    in_feats_ = in.feats;
    active_ = &rb;

    SparseMap out;
    out.dim = in.dim;
    out.coords = rb.outCoords;
    out.feats = Mat(static_cast<u32>(rb.outCoords.size()), outCh_);
    for (u32 q = 0; q < out.feats.rows; ++q) {
        float* orow = out.feats.row(q);
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
                float* orow = out.feats.row(pairs[begin + r].second);
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
    return forward(in, own_);
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
        const std::vector<std::array<i32, 3>>* cur = &coords;
        for (auto& conv : convs) {
            e.chain.push_back(conv.buildRulebook(*cur));
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
GlobalAvgPool::forward(const SparseMap& in)
{
    sites_ = in.numSites();
    channels_ = in.feats.cols;
    Mat out(1, channels_);
    if (sites_ == 0)
        return out;
    for (u32 r = 0; r < sites_; ++r) {
        const float* row = in.feats.row(r);
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
