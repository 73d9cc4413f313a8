#include "nn/sparse_conv.hpp"

#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace waco::nn {

namespace {

/** Hash a D-dimensional integer coordinate. */
struct CoordHash
{
    std::size_t
    operator()(const std::array<i32, 3>& c) const
    {
        u64 h = 0xcbf29ce484222325ull;
        for (i32 x : c) {
            h ^= static_cast<u64>(static_cast<u32>(x));
            h *= 0x100000001b3ull;
            h ^= h >> 31;
        }
        return static_cast<std::size_t>(h);
    }
};

using CoordMap = std::unordered_map<std::array<i32, 3>, u32, CoordHash>;

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

    CoordMap out_index;
    out_index.reserve(coords.size() * 2);

    if (stride_ == 1) {
        // Submanifold: output sites == input sites.
        rb.outCoords = coords;
        for (u32 i = 0; i < rb.inSites; ++i)
            out_index.emplace(coords[i], i);
    } else {
        // Strided (MinkowskiEngine semantics): output sites live on the
        // coarse grid at floor(p / stride), so each layer strictly
        // coarsens the coordinate space.
        auto floor_div = [](i32 x, i32 s) {
            return x >= 0 ? x / s : -((-x + s - 1) / s);
        };
        for (u32 i = 0; i < rb.inSites; ++i) {
            std::array<i32, 3> t = {0, 0, 0};
            for (u32 d = 0; d < dim_; ++d)
                t[d] = floor_div(coords[i][d], static_cast<i32>(stride_));
            if (out_index.emplace(t, static_cast<u32>(rb.outCoords.size()))
                    .second) {
                rb.outCoords.push_back(t);
            }
        }
    }

    // Gather pair lists per offset: input p contributes to output q when
    // p == q*stride + off. Iterating q outer keeps each per-offset list
    // sorted by output site, which the execute step relies on for
    // conflict-free parallel scatter.
    rb.pairs.assign(offsets_.size(), {});
    CoordMap in_index;
    in_index.reserve(coords.size() * 2);
    for (u32 i = 0; i < rb.inSites; ++i)
        in_index.emplace(coords[i], i);

    for (u32 q = 0; q < rb.outCoords.size(); ++q) {
        for (std::size_t o = 0; o < offsets_.size(); ++o) {
            std::array<i32, 3> p = {0, 0, 0};
            for (u32 d = 0; d < dim_; ++d) {
                p[d] = rb.outCoords[q][d] * static_cast<i32>(stride_) +
                       offsets_[o][d];
            }
            auto it = in_index.find(p);
            if (it != in_index.end())
                rb.pairs[o].push_back({it->second, q});
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
        ++hits_;
        WACO_COUNT("rulebook.hits", 1);
        lru_.splice(lru_.begin(), lru_, it->second);
        return lru_.front().chain;
    }

    ++misses_;
    WACO_COUNT("rulebook.misses", 1);
    Entry e;
    e.key = key;
    e.chain.reserve(convs.size());
    const std::vector<std::array<i32, 3>>* cur = &coords;
    for (auto& conv : convs) {
        e.chain.push_back(conv.buildRulebook(*cur));
        cur = &e.chain.back().outCoords;
    }
    for (const auto& rb : e.chain)
        e.pairEntries += rb.pairCount();
    totalPairs_ += e.pairEntries;
    lru_.push_front(std::move(e));
    index_[key] = lru_.begin();
    while (totalPairs_ > pairBudget_ && lru_.size() > 1) {
        totalPairs_ -= lru_.back().pairEntries;
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++evictions_;
        WACO_COUNT("rulebook.evictions", 1);
    }
    return lru_.front().chain;
}

void
RulebookCache::clear()
{
    lru_.clear();
    index_.clear();
    totalPairs_ = 0;
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
