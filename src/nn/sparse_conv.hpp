/**
 * @file
 * Sparse (submanifold) convolution layers, the core of WACONet.
 *
 * A SparseMap is a set of active coordinate sites with a feature row per
 * site — exactly the representation MinkowskiEngine uses. Two layer modes:
 *
 *  - stride 1 (submanifold, Graham & van der Maaten [17]): output sites are
 *    the input sites; the filter only fires where its *center* lands on an
 *    active site, so activations never densify (Figure 7).
 *  - stride 2: output sites live on the coarsened grid; stacked strided
 *    layers force the receptive field to grow so distant nonzeros can
 *    communicate (Figure 8), the key architectural idea of WACONet.
 *
 * Coordinates are D-dimensional (D = 2 for matrices, 3 for MTTKRP tensors);
 * the same layer code serves both, as the paper notes WACONet extends to
 * higher-order tensors by changing the filter dimension.
 *
 * The forward pass is split into two phases:
 *
 *  1. buildRulebook(): per filter offset, the (input site, output site)
 *     pairs, built in linear passes over the sites in coordinate order.
 *     Every input writes its own slots of a dense (offset, output site)
 *     workspace: for each line of output sites it can reach (all
 *     coordinates but the last), a forward cursor finds the line's window
 *     in the sorted output sites. Strided output sites are the coarse
 *     cells, merged from the 2 (2-D) or 4 (3-D) sorted streams of inputs
 *     that share the parity of their leading coordinates, and numbered in
 *     first-occurrence order. Each offset's pairs are then compacted from
 *     the workspace in ascending output site. Input sites must be
 *     duplicate-free (and a 2-D site's third coordinate zero), which
 *     SparseMap guarantees by construction. This depends only on the
 *     input coordinates, never on features or weights, so a RulebookCache
 *     reuses it across every forward over the same pattern — all epochs
 *     of training and every tuner query re-walking the same conv stack.
 *     A cached chain hands each layer's output sites to the next layer
 *     already in coordinate order, so only the first layer's input is
 *     checked for order (and sorted only when it is not).
 *  2. forward(feats, rulebook): gather -> GEMM -> scatter per offset. Pair
 *     lists are sorted by output site, so the execute step can split them
 *     at output-site boundaries and scatter from per-thread accumulators
 *     without write conflicts.
 */
#pragma once

#include <algorithm>
#include <array>
#include <list>
#include <unordered_map>
#include <vector>

#include "nn/layers.hpp"
#include "nn/mat.hpp"

namespace waco::nn {

namespace detail {
/** A site keyed for coordinate order (defined in sparse_conv.cpp). */
struct SortedSite;
} // namespace detail

/** Active sites + features of a sparse feature map. */
struct SparseMap
{
    u32 dim = 2;                              ///< Spatial dimensionality.
    std::vector<std::array<i32, 3>> coords;   ///< One entry per active site.
    Mat feats;                                ///< [numSites x channels].

    u32 numSites() const { return static_cast<u32>(coords.size()); }
};

/**
 * The geometry of one conv layer applied to one coordinate set: output
 * sites plus, per filter offset, the (input site, output site) gather
 * pairs, each list sorted by output site. Built once per input pattern and
 * reused by every forward/backward over that pattern.
 */
struct Rulebook
{
    std::vector<std::array<i32, 3>> outCoords;
    u32 inSites = 0;
    /** [offset] -> (input row, output row), ascending in output row. */
    std::vector<std::vector<std::pair<u32, u32>>> pairs;

    /** Total gather pairs across all offsets (cache accounting). */
    u64
    pairCount() const
    {
        u64 n = 0;
        for (const auto& p : pairs)
            n += p.size();
        return n;
    }
};

/** Sparse convolution with square/cubic kernels and stride 1 or 2. */
class SparseConv
{
  public:
    SparseConv() = default;

    /**
     * @param dim spatial dimensionality (2 or 3)
     * @param kernel filter edge length (odd; 3 or 5)
     * @param stride 1 (submanifold) or 2 (downsampling)
     */
    SparseConv(u32 dim, u32 kernel, u32 stride, u32 in_ch, u32 out_ch,
               Rng& rng);

    u32 inChannels() const { return inCh_; }
    u32 outChannels() const { return outCh_; }

    /**
     * Build the gather/scatter geometry for an input coordinate set.
     * Output rows are numbered in first-occurrence order of the input
     * sites. Panics on a duplicate site or a 2-D site whose third
     * coordinate is nonzero.
     */
    Rulebook buildRulebook(const std::vector<std::array<i32, 3>>& coords) const;

    /**
     * Forward the input features @p in (one row per input site of @p rb)
     * through a prebuilt rulebook (built by this layer); returns one row
     * per output site. @p rb must stay alive until the matching backward()
     * returns. Keeps @p in for backward, so pass it by move.
     */
    Mat forward(Mat in, const Rulebook& rb);

    /** Forward building a fresh rulebook (owned by the layer). */
    SparseMap forward(const SparseMap& in);

    /** Backward from d(out feats); accumulates dW/db, returns d(in feats). */
    Mat backward(const Mat& d_out);

    void collectParams(std::vector<Param*>& out);

  private:
    friend class RulebookCache;

    /**
     * The rulebook for input sites @p coords, given @p sites, the same
     * sites in coordinate order. On return @p sites holds the output
     * sites in coordinate order, keyed with their output rows.
     */
    Rulebook build(const std::vector<std::array<i32, 3>>& coords,
                   std::vector<detail::SortedSite>& sites) const;

    u32 dim_ = 2;
    u32 kernel_ = 3;
    u32 stride_ = 1;
    u32 inCh_ = 0;
    u32 outCh_ = 0;
    std::vector<std::array<i32, 3>> offsets_;
    std::vector<Param> w_; ///< One [inCh x outCh] filter per offset.
    Param b_;              ///< [1 x outCh].

    // Cached from forward, consumed by backward.
    Rulebook own_;               ///< Used by the fresh-rulebook forward.
    const Rulebook* active_ = nullptr;
    Mat in_feats_;
};

/**
 * Cache of rulebook *chains*: the per-layer rulebooks a conv stack builds
 * for one input coordinate set. Indexed by a coordinate fingerprint; a hit
 * also requires the stored input coordinates to equal the query, so a
 * fingerprint collision is a miss (the new pattern replaces the old one).
 * Evicted LRU under a budget of gather pairs plus stored input sites, so
 * one huge pattern cannot pin unbounded memory.
 */
class RulebookCache
{
  public:
    /** 64-bit FNV fingerprint of a coordinate set. */
    static u64 fingerprint(const std::vector<std::array<i32, 3>>& coords);

    /**
     * The rulebook chain for @p convs applied to @p coords: chain[l] is
     * convs[l]'s rulebook, each layer consuming the previous layer's
     * output sites. Built (and cached) on miss, inside an "nn.rulebook"
     * trace span. The returned reference is valid until the next chain()
     * call on this cache.
     */
    const std::vector<Rulebook>& chain(
        const std::vector<std::array<i32, 3>>& coords,
        std::vector<SparseConv>& convs);

    void clear();

    /** Cache hits/misses/evictions since construction (an entry replaced
     *  after a fingerprint collision counts as evicted). The same events
     *  also feed the process-wide MetricsRegistry counters
     *  "rulebook.hits" / "rulebook.misses" / "rulebook.evictions". */
    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }
    u64 evictions() const { return evictions_; }

    /** Default budget across all cached chains, in gather pairs plus
     *  stored input sites. */
    static constexpr u64 kMaxPairEntries = u64(8) << 20;

    /** Override the budget (tests shrink it to force eviction). Takes
     *  effect on the next chain() insertion. */
    void setPairBudget(u64 budget) { budget_ = std::max<u64>(1, budget); }
    u64 pairBudget() const { return budget_; }

  private:
    struct Entry
    {
        u64 key = 0;
        u64 entries = 0; ///< Gather pairs + input sites.
        std::vector<std::array<i32, 3>> coords;
        std::vector<Rulebook> chain;
    };

    /** Drop one entry (eviction or collision replacement). */
    void erase(std::list<Entry>::iterator it);

    std::list<Entry> lru_; ///< Front = most recent.
    std::unordered_map<u64, std::list<Entry>::iterator> index_;
    u64 totalEntries_ = 0;
    u64 budget_ = kMaxPairEntries;
    u64 hits_ = 0;
    u64 misses_ = 0;
    u64 evictions_ = 0;
};

/** Mean over all sites -> a [1 x C] row (per-layer pooling in Figure 9). */
class GlobalAvgPool
{
  public:
    /** @p feats holds one row per site; sums them in site order. */
    Mat forward(const Mat& feats);
    /** Returns d(in feats) given d(pooled). */
    Mat backward(const Mat& d_out);

  private:
    u32 sites_ = 0;
    u32 channels_ = 0;
};

} // namespace waco::nn
