/**
 * @file
 * Differential tests for the batched cost-model inference engine:
 *
 *  - blocked vs naive GEMM kernels (exact on integer-valued floats, where
 *    every product and partial sum is representable regardless of
 *    summation order),
 *  - cached-rulebook sparse-conv forward vs a fresh rulebook driven
 *    through the per-pair saxpy reference,
 *  - the rulebook build (linear passes over sites in coordinate order)
 *    vs the hash-map reference build, on single layers and on 6-layer
 *    chains over inputs in and out of coordinate order, and vs a
 *    brute-force build at the i32 extremes; exact rulebook-cache hits
 *    under a fingerprint collision,
 *  - batched vs scalar generic HNSW search (identical hit sets),
 *  - the float-lane l2 kernel vs the double-precision reference, with a
 *    recall pin,
 *  - the hoisted-feature batched predictor vs the training-path
 *    predictFromEmbeddings.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "annsearch/hnsw.hpp"
#include "data/generators.hpp"
#include "ir/schedule.hpp"
#include "model/waco_model.hpp"
#include "nn/sparse_conv.hpp"
#include "util/rng.hpp"

namespace waco {
namespace {

using nn::Mat;

/** Fill with integer-valued floats in [-4, 4]: exact under any order. */
void
fillInts(Mat& m, Rng& rng)
{
    for (auto& v : m.v)
        v = static_cast<float>(static_cast<int>(rng.index(9)) - 4);
}

TEST(GemmDifferential, BlockedMatchesNaiveExactlyOnIntegerFloats)
{
    Rng rng(11);
    // Shapes straddling every blocking boundary: the 4-row panels, the
    // 8-lane dot product, remainders, and degenerate sizes.
    struct Shape { u32 m, k, n; };
    for (Shape s : {Shape{1, 1, 1}, Shape{3, 5, 7}, Shape{4, 8, 4},
                    Shape{17, 33, 9}, Shape{64, 64, 64}, Shape{130, 70, 50},
                    Shape{2, 200, 3}}) {
        Mat a(s.m, s.k), b(s.k, s.n), bt(s.n, s.k), at(s.k, s.m);
        fillInts(a, rng);
        fillInts(b, rng);
        fillInts(bt, rng);
        fillInts(at, rng);

        Mat c_blocked, c_naive;
        nn::matmul(a, b, c_blocked);
        nn::naive::matmul(a, b, c_naive);
        ASSERT_EQ(c_blocked.v, c_naive.v) << "matmul " << s.m;

        nn::matmulNT(a, bt, c_blocked);
        nn::naive::matmulNT(a, bt, c_naive);
        ASSERT_EQ(c_blocked.v, c_naive.v) << "matmulNT " << s.m;

        nn::matmulTN(at, b, c_blocked);
        nn::naive::matmulTN(at, b, c_naive);
        ASSERT_EQ(c_blocked.v, c_naive.v) << "matmulTN " << s.m;

        Mat acc1(s.m, s.n), acc2(s.m, s.n);
        fillInts(acc1, rng);
        acc2 = acc1;
        nn::matmulAcc(a, b, acc1);
        nn::naive::matmulAcc(a, b, acc2);
        ASSERT_EQ(acc1.v, acc2.v) << "matmulAcc " << s.m;

        Mat acc3(s.m, s.n);
        acc3.zero();
        nn::matmulAccSerial(a, b, acc3);
        Mat ref(s.m, s.n);
        nn::naive::matmulAcc(a, b, ref);
        ASSERT_EQ(acc3.v, ref.v) << "matmulAccSerial " << s.m;
    }
}

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

/** Duplicate-free coordinates drawn uniformly from [lo, lo + extent)^dim,
 *  in draw order (not sorted). */
std::vector<std::array<i32, 3>>
randomCoords(u32 dim, u32 n, i32 lo, i32 extent, Rng& rng)
{
    std::vector<std::array<i32, 3>> coords;
    CoordMap seen;
    while (coords.size() < n) {
        std::array<i32, 3> c = {0, 0, 0};
        for (u32 d = 0; d < dim; ++d)
            c[d] = lo + static_cast<i32>(rng.index(static_cast<u64>(extent)));
        if (seen.emplace(c, 0).second)
            coords.push_back(c);
    }
    return coords;
}

/** Overwrite a layer's params with integer-valued floats. */
void
quantizeParams(std::vector<nn::Param*>& ps, Rng& rng)
{
    for (nn::Param* p : ps)
        for (auto& v : p->w.v)
            v = static_cast<float>(static_cast<int>(rng.index(5)) - 2);
}

/**
 * Reference sparse-conv forward: bias, then one saxpy per (pair, input
 * channel) with a zero-skip branch. @p ps is the layer's collectParams()
 * order: one [in x out] filter per offset, then the [1 x out] bias.
 */
Mat
saxpyForwardReference(const nn::SparseMap& in, const nn::Rulebook& rb,
                      const std::vector<nn::Param*>& ps)
{
    const Mat& bias = ps.back()->w;
    Mat out(static_cast<u32>(rb.outCoords.size()), bias.cols);
    for (u32 q = 0; q < out.rows; ++q)
        for (u32 c = 0; c < out.cols; ++c)
            out.at(q, c) = bias.at(0, c);
    for (std::size_t o = 0; o < rb.pairs.size(); ++o) {
        const Mat& w = ps[o]->w;
        for (const auto& [pi, qi] : rb.pairs[o]) {
            const float* irow = in.feats.row(pi);
            float* orow = out.row(qi);
            for (u32 ci = 0; ci < w.rows; ++ci) {
                float x = irow[ci];
                if (x == 0.0f)
                    continue;
                const float* wrow = w.row(ci);
                for (u32 co = 0; co < w.cols; ++co)
                    orow[co] += x * wrow[co];
            }
        }
    }
    return out;
}

TEST(Rulebook, CachedForwardMatchesLegacyFreshForwardExactly)
{
    Rng rng(21);
    for (u32 stride : {1u, 2u}) {
        nn::SparseConv conv(2, 3, stride, 2, 3, rng);
        std::vector<nn::Param*> ps;
        conv.collectParams(ps);
        quantizeParams(ps, rng);

        nn::SparseMap in;
        in.dim = 2;
        in.coords = randomCoords(2, 120, 0, 40, rng);
        in.feats = Mat(in.numSites(), 2);
        fillInts(in.feats, rng);

        auto rb = conv.buildRulebook(in.coords);
        Mat want = saxpyForwardReference(in, rb, ps);

        // Engine: gather->GEMM->scatter through the prebuilt rulebook and
        // through the layer-owned fresh one.
        ASSERT_EQ(conv.forward(in.feats, rb).v, want.v) << "stride " << stride;
        auto fresh = conv.forward(in);
        ASSERT_EQ(fresh.coords, rb.outCoords) << "stride " << stride;
        ASSERT_EQ(fresh.feats.v, want.v) << "stride " << stride;
    }
}

TEST(Rulebook, CacheReturnsIdenticalChainsAndCountsHits)
{
    Rng rng(22);
    std::vector<nn::SparseConv> stack;
    stack.emplace_back(2, 5, 1, 1, 4, rng);
    stack.emplace_back(2, 3, 2, 4, 4, rng);
    stack.emplace_back(2, 3, 2, 4, 4, rng);

    auto coords_a = randomCoords(2, 90, 0, 32, rng);
    auto coords_b = randomCoords(2, 70, 0, 32, rng);

    nn::RulebookCache cache;
    auto snapshot = [](const std::vector<nn::Rulebook>& chain) {
        std::vector<std::vector<std::pair<u32, u32>>> flat;
        for (const auto& rb : chain)
            for (const auto& p : rb.pairs)
                flat.push_back(p);
        return flat;
    };
    auto first_a = snapshot(cache.chain(coords_a, stack));
    auto first_b = snapshot(cache.chain(coords_b, stack));
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 0u);

    // Re-querying either pattern is a hit and returns the same geometry.
    EXPECT_EQ(snapshot(cache.chain(coords_a, stack)), first_a);
    EXPECT_EQ(snapshot(cache.chain(coords_b, stack)), first_b);
    EXPECT_EQ(cache.hits(), 2u);

    // A cold cache rebuilds fresh chains with identical geometry.
    nn::RulebookCache cold;
    EXPECT_EQ(snapshot(cold.chain(coords_a, stack)), first_a);
    EXPECT_EQ(cold.hits(), 0u);
    EXPECT_EQ(cold.misses(), 1u);
}

/**
 * Reference rulebook build: one hash probe per (output site, filter
 * offset). Offsets enumerate the D-dimensional cube with the last
 * dimension fastest, as SparseConv does.
 */
std::vector<std::array<i32, 3>>
filterOffsets(u32 dim, u32 kernel)
{
    i32 half = static_cast<i32>(kernel) / 2;
    std::vector<std::array<i32, 3>> offsets;
    std::array<i32, 3> off = {0, 0, 0};
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
    return offsets;
}

nn::Rulebook
referenceRulebook(u32 dim, u32 kernel, u32 stride,
                  const std::vector<std::array<i32, 3>>& coords)
{
    auto offsets = filterOffsets(dim, kernel);

    nn::Rulebook rb;
    rb.inSites = static_cast<u32>(coords.size());

    CoordMap out_index;
    out_index.reserve(coords.size() * 2);

    if (stride == 1) {
        rb.outCoords = coords;
        for (u32 i = 0; i < rb.inSites; ++i)
            out_index.emplace(coords[i], i);
    } else {
        auto floor_div = [](i32 x, i32 s) {
            return x >= 0 ? x / s : -((-x + s - 1) / s);
        };
        for (u32 i = 0; i < rb.inSites; ++i) {
            std::array<i32, 3> t = {0, 0, 0};
            for (u32 d = 0; d < dim; ++d)
                t[d] = floor_div(coords[i][d], static_cast<i32>(stride));
            if (out_index.emplace(t, static_cast<u32>(rb.outCoords.size()))
                    .second) {
                rb.outCoords.push_back(t);
            }
        }
    }

    rb.pairs.assign(offsets.size(), {});
    CoordMap in_index;
    in_index.reserve(coords.size() * 2);
    for (u32 i = 0; i < rb.inSites; ++i)
        in_index.emplace(coords[i], i);

    for (u32 q = 0; q < rb.outCoords.size(); ++q) {
        for (std::size_t o = 0; o < offsets.size(); ++o) {
            std::array<i32, 3> p = {0, 0, 0};
            for (u32 d = 0; d < dim; ++d) {
                p[d] = rb.outCoords[q][d] * static_cast<i32>(stride) +
                       offsets[o][d];
            }
            auto it = in_index.find(p);
            if (it != in_index.end())
                rb.pairs[o].push_back({it->second, q});
        }
    }
    return rb;
}

/**
 * Brute-force rulebook build in 64-bit arithmetic: every (output, offset,
 * input) triple is compared. Exact where the hash reference's i32 offset
 * arithmetic would overflow.
 */
nn::Rulebook
bruteForceRulebook(u32 dim, u32 kernel, u32 stride,
                   const std::vector<std::array<i32, 3>>& coords)
{
    auto offsets = filterOffsets(dim, kernel);
    nn::Rulebook rb;
    rb.inSites = static_cast<u32>(coords.size());
    for (const auto& c : coords) {
        std::array<i32, 3> t = {0, 0, 0};
        for (u32 d = 0; d < dim; ++d)
            t[d] = static_cast<i32>(std::floor(double(c[d]) / stride));
        if (std::find(rb.outCoords.begin(), rb.outCoords.end(), t) ==
            rb.outCoords.end())
            rb.outCoords.push_back(t);
    }
    rb.pairs.assign(offsets.size(), {});
    for (u32 q = 0; q < rb.outCoords.size(); ++q) {
        for (std::size_t o = 0; o < offsets.size(); ++o) {
            for (u32 p = 0; p < rb.inSites; ++p) {
                bool hit = true;
                for (u32 d = 0; d < 3; ++d) {
                    i64 want = d < dim ? i64(rb.outCoords[q][d]) * stride +
                                             offsets[o][d]
                                       : 0;
                    hit = hit && coords[p][d] == want;
                }
                if (hit)
                    rb.pairs[o].push_back({p, q});
            }
        }
    }
    return rb;
}

/** Field-for-field rulebook equality with a readable failure. */
void
expectSameRulebook(const nn::Rulebook& got, const nn::Rulebook& want,
                   const std::string& what)
{
    EXPECT_EQ(got.inSites, want.inSites) << what;
    EXPECT_EQ(got.outCoords, want.outCoords) << what;
    ASSERT_EQ(got.pairs.size(), want.pairs.size()) << what;
    for (std::size_t o = 0; o < want.pairs.size(); ++o)
        EXPECT_EQ(got.pairs[o], want.pairs[o]) << what << " offset " << o;
}

/** Every site of the cube [lo, lo + edge)^dim, shuffled. */
std::vector<std::array<i32, 3>>
denseBlock(u32 dim, i32 lo, i32 edge, Rng& rng)
{
    std::vector<std::array<i32, 3>> coords;
    for (i32 x = 0; x < edge; ++x)
        for (i32 y = 0; y < edge; ++y)
            for (i32 z = 0; z < (dim == 3 ? edge : 1); ++z)
                coords.push_back(
                    {lo + x, lo + y, dim == 3 ? lo + z : 0});
    rng.shuffle(coords);
    return coords;
}

/** Conv-site coordinates of every stored nonzero of @p in. */
std::vector<std::array<i32, 3>>
inputSites(const SparseInput& in)
{
    std::vector<std::array<i32, 3>> coords;
    for (u64 n = 0; n < in.nnz(); ++n) {
        auto c = in.coord(n);
        coords.push_back({static_cast<i32>(c[0]), static_cast<i32>(c[1]),
                          static_cast<i32>(c[2])});
    }
    return coords;
}

TEST(Rulebook, SortMergeBuildMatchesHashReference)
{
    Rng rng(23);
    for (u32 dim : {2u, 3u}) {
        std::vector<std::pair<std::string, std::vector<std::array<i32, 3>>>>
            patterns;
        patterns.push_back({"empty", {}});
        patterns.push_back({"single", {{3, 5, dim == 3 ? 7 : 0}}});
        patterns.push_back({"origin", randomCoords(dim, 40, 0, 8, rng)});
        patterns.push_back({"negative", randomCoords(dim, 150, -20, 30, rng)});
        patterns.push_back(
            {"beyond 2^21", randomCoords(dim, 150, (1 << 21) - 9, 24, rng)});
        patterns.push_back(
            {"near 2^30", randomCoords(dim, 60, (1 << 30) - 7, 1 << 12, rng)});
        patterns.push_back({"dense block", denseBlock(dim, -3, 8, rng)});
        for (u32 kernel : {3u, 5u}) {
            for (u32 stride : {1u, 2u}) {
                nn::SparseConv conv(dim, kernel, stride, 1, 1, rng);
                for (const auto& [name, coords] : patterns) {
                    std::string what = name + " dim " + std::to_string(dim) +
                                       " kernel " + std::to_string(kernel) +
                                       " stride " + std::to_string(stride);
                    expectSameRulebook(
                        conv.buildRulebook(coords),
                        referenceRulebook(dim, kernel, stride, coords), what);
                }
            }
        }
    }
    // A dense block really exercises many pairs per output: along each
    // axis of an 8-wide block, 8 + 2 * 7 site pairs lie within distance 1.
    nn::SparseConv conv(2, 3, 1, 1, 1, rng);
    EXPECT_EQ(conv.buildRulebook(denseBlock(2, 0, 8, rng)).pairCount(),
              u64(22 * 22));
}

TEST(Rulebook, SortMergeIsExactAtTheI32Extremes)
{
    // Windows that cross the i32 range: the hash reference's offset
    // arithmetic overflows there, so compare against the brute force.
    const i32 lo = std::numeric_limits<i32>::min();
    const i32 hi = std::numeric_limits<i32>::max();
    const std::vector<i32> values = {lo, lo + 1, lo + 3, -1, 0,
                                     hi - 2, hi - 1, hi};
    Rng rng(27);
    for (u32 dim : {2u, 3u}) {
        std::vector<std::array<i32, 3>> coords;
        for (i32 x : values)
            for (i32 y : values)
                for (i32 z : dim == 3 ? values : std::vector<i32>{0})
                    coords.push_back({x, y, z});
        rng.shuffle(coords);
        for (u32 kernel : {3u, 5u}) {
            for (u32 stride : {1u, 2u}) {
                nn::SparseConv conv(dim, kernel, stride, 1, 1, rng);
                expectSameRulebook(
                    conv.buildRulebook(coords),
                    bruteForceRulebook(dim, kernel, stride, coords),
                    "dim " + std::to_string(dim) + " kernel " +
                        std::to_string(kernel) + " stride " +
                        std::to_string(stride));
            }
        }
    }
}

TEST(Rulebook, SortMergeChainsMatchHashReference)
{
    Rng rng(24);
    std::vector<std::pair<std::string, SparseMatrix>> matrices;
    matrices.push_back({"banded", genBanded(600, 600, 9, 0.6, rng)});
    matrices.push_back({"dense blocks", genDenseBlocks(700, 500, 8, 30, 0.8,
                                                       rng)});
    // One matrix per generator family of the tune_fresh stream, at its
    // sizes (1k-16k rows, 8k-24k nonzeros).
    matrices.push_back({"fresh uniform", genUniform(6000, 5000, 18000, rng)});
    matrices.push_back(
        {"fresh power law", genPowerLawRows(11000, 11000, 15000, 1.2, rng)});
    matrices.push_back({"fresh banded", genBanded(9000, 9000, 2, 0.4, rng)});
    matrices.push_back(
        {"fresh dense blocks", genDenseBlocks(3000, 3000, 4, 1000, 0.9, rng)});
    matrices.push_back({"fresh hot columns",
                        genHotColumns(14000, 16000, 22000, 250, rng)});
    matrices.push_back({"fresh diagonalish", genDiagonalish(4000, 3, rng)});
    auto tensor = genTensor3(40, 50, 60, 3000, rng);

    auto check = [&](u32 dim, const std::vector<std::array<i32, 3>>& coords,
                     const std::string& name) {
        // The WACONet stack: a 5x5 submanifold layer, then strided 3x3.
        std::vector<nn::SparseConv> convs;
        convs.emplace_back(dim, 5, 1, 1, 4, rng);
        for (int l = 1; l < 6; ++l)
            convs.emplace_back(dim, 3, 2, 4, 4, rng);
        nn::RulebookCache cache;
        const auto& chain = cache.chain(coords, convs);
        ASSERT_EQ(chain.size(), convs.size()) << name;
        const std::vector<std::array<i32, 3>>* cur = &coords;
        for (std::size_t l = 0; l < chain.size(); ++l) {
            auto want = referenceRulebook(dim, l == 0 ? 5 : 3,
                                          l == 0 ? 1 : 2, *cur);
            expectSameRulebook(chain[l], want,
                               name + " layer " + std::to_string(l));
            cur = &chain[l].outCoords;
        }
    };
    for (const auto& [name, m] : matrices) {
        if (name.rfind("fresh", 0) == 0) {
            EXPECT_GE(m.nnz(), 8000u) << name;
            EXPECT_LE(m.nnz(), 24000u) << name;
        }
        check(2, inputSites(m), name);
    }
    check(3, inputSites(tensor), "tensor3");

    // Input that is not in coordinate order enters the chain through the
    // sort; every later layer takes its input sites in order as before.
    auto shuffled = inputSites(matrices[2].second);
    rng.shuffle(shuffled);
    check(2, shuffled, "shuffled uniform");
    auto shuffled3 = inputSites(tensor);
    rng.shuffle(shuffled3);
    check(3, shuffled3, "shuffled tensor3");
}

TEST(Rulebook, DuplicateSitePanics)
{
    Rng rng(25);
    nn::SparseConv conv(2, 3, 1, 1, 1, rng);
    EXPECT_THROW(conv.buildRulebook({{1, 2, 0}, {3, 4, 0}, {1, 2, 0}}),
                 PanicError);
    nn::SparseConv conv3(3, 3, 2, 1, 1, rng);
    EXPECT_THROW(conv3.buildRulebook({{-5, 0, 9}, {-5, 0, 9}}), PanicError);
    // Distinct 3-D sites that differ only in the third coordinate are fine.
    EXPECT_NO_THROW(conv3.buildRulebook({{-5, 0, 9}, {-5, 0, 10}}));
}

TEST(Rulebook, CacheHitRequiresEqualCoordinates)
{
    // Two equal-size coordinate sets with the same 64-bit fingerprint.
    // The fingerprint is FNV-1a over the coordinate words; draw the last
    // site's first word a at random until the state after it,
    // (h0 ^ a) * P, repeats in its high 32 bits (a birthday search, ~2^16
    // draws), then pick the second word so the full states meet.
    const u64 kPrime = 0x100000001b3ull;
    std::vector<std::array<i32, 3>> base = {{1, 2, 0}, {4, 8, 0}, {9, 3, 0}};
    const u64 size = base.size() + 1;
    u64 h0 = 0xcbf29ce484222325ull ^ size;
    for (const auto& c : base) {
        for (i32 x : c) {
            h0 ^= static_cast<u64>(static_cast<u32>(x));
            h0 *= kPrime;
        }
    }
    Rng rng(26);
    std::unordered_map<u32, u32> seen;
    u32 a = 0, a2 = 0;
    for (int draw = 0; draw < (1 << 22) && a == a2; ++draw) {
        auto x = static_cast<u32>(rng.uniformInt(1 << 10, 0xffffffffll));
        auto [it, fresh] =
            seen.emplace(static_cast<u32>(((h0 ^ x) * kPrime) >> 32), x);
        if (!fresh && it->second != x) {
            a = it->second;
            a2 = x;
        }
    }
    ASSERT_NE(a, a2) << "birthday search found no collision";
    u32 b2 = static_cast<u32>((h0 ^ a) * kPrime) ^
             static_cast<u32>((h0 ^ a2) * kPrime);
    auto set_a = base, set_b = base;
    set_a.push_back({static_cast<i32>(a), 0, 0});
    set_b.push_back({static_cast<i32>(a2), static_cast<i32>(b2), 0});
    ASSERT_NE(set_a, set_b);
    ASSERT_EQ(nn::RulebookCache::fingerprint(set_a),
              nn::RulebookCache::fingerprint(set_b));

    std::vector<nn::SparseConv> convs;
    convs.emplace_back(2, 3, 1, 1, 2, rng);
    convs.emplace_back(2, 3, 2, 2, 2, rng);
    nn::RulebookCache cache;
    EXPECT_EQ(cache.chain(set_a, convs)[0].outCoords, set_a);
    // Same fingerprint, different pattern: a miss that returns set_b's own
    // geometry, not set_a's.
    const auto& chain_b = cache.chain(set_b, convs);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(chain_b[0].outCoords, set_b);
    nn::RulebookCache cold;
    const auto& fresh_b = cold.chain(set_b, convs);
    ASSERT_EQ(chain_b.size(), fresh_b.size());
    for (std::size_t l = 0; l < fresh_b.size(); ++l) {
        expectSameRulebook(chain_b[l], fresh_b[l],
                           "layer " + std::to_string(l));
    }
    // set_b replaced set_a; re-querying set_b is an exact hit.
    EXPECT_EQ(cache.chain(set_b, convs)[0].outCoords, set_b);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(HnswBatched, ReturnsIdenticalHitsAndEvalsToScalarSearch)
{
    Rng rng(31);
    const u32 dim = 12, n = 600;
    Hnsw index(dim, 12, 70);
    std::vector<float> buf(dim);
    for (u32 i = 0; i < n; ++i) {
        for (auto& x : buf)
            x = static_cast<float>(rng.normal());
        index.add(buf.data());
    }
    // Deterministic pseudo-random score, same values for both walks.
    auto value = [](u32 id) {
        double x = std::sin(0.37 * id) + std::cos(1.13 * id + 0.5);
        return x * x;
    };
    for (u32 ef : {8u, 32u, 64u}) {
        u64 scalar_evals = 0, batched_evals = 0;
        auto scalar = index.searchGeneric(
            [&](u32 id) { return value(id); }, 10, ef, &scalar_evals);
        auto batched = index.searchGenericBatched(
            [&](const u32* ids, u32 count, double* out) {
                for (u32 i = 0; i < count; ++i)
                    out[i] = value(ids[i]);
            },
            10, ef, &batched_evals);
        ASSERT_EQ(scalar.size(), batched.size()) << "ef " << ef;
        for (std::size_t i = 0; i < scalar.size(); ++i) {
            EXPECT_EQ(scalar[i].id, batched[i].id) << "ef " << ef;
            EXPECT_EQ(scalar[i].dist, batched[i].dist) << "ef " << ef;
        }
        EXPECT_EQ(scalar_evals, batched_evals) << "ef " << ef;
        EXPECT_GT(scalar_evals, 0u);
        EXPECT_LT(scalar_evals, n);
    }
}

TEST(HnswL2, FloatLanesTrackDoubleReferenceAndPinRecall)
{
    Rng rng(32);
    const u32 dim = 37; // odd width exercises the remainder loop
    std::vector<float> a(dim), b(dim);
    for (int trial = 0; trial < 200; ++trial) {
        for (u32 i = 0; i < dim; ++i) {
            a[i] = static_cast<float>(rng.normal());
            b[i] = static_cast<float>(rng.normal());
        }
        double ref = Hnsw::l2Reference(a.data(), b.data(), dim);
        double fast = Hnsw::l2Distance(a.data(), b.data(), dim);
        EXPECT_NEAR(fast, ref, 1e-4 * std::max(1.0, ref));
    }

    // Recall pin: the float-lane index must still recover the
    // double-precision brute-force top-5 at high recall.
    const u32 n = 400, qdim = 16;
    std::vector<std::vector<float>> points(n, std::vector<float>(qdim));
    Hnsw index(qdim, 12, 80);
    for (auto& p : points) {
        for (auto& x : p)
            x = static_cast<float>(rng.normal());
        index.add(p.data());
    }
    u32 hits = 0, total = 0;
    for (int q = 0; q < 25; ++q) {
        std::vector<float> query(qdim);
        for (auto& x : query)
            x = static_cast<float>(rng.normal());
        std::vector<std::pair<double, u32>> bf;
        for (u32 i = 0; i < n; ++i)
            bf.push_back(
                {Hnsw::l2Reference(points[i].data(), query.data(), qdim), i});
        std::sort(bf.begin(), bf.end());
        auto got = index.searchKnn(query.data(), 5, 64);
        for (const auto& hit : got)
            for (int t = 0; t < 5; ++t)
                hits += (bf[t].second == hit.id);
        total += 5;
    }
    EXPECT_GT(static_cast<double>(hits) / total, 0.85);
}

TEST(PredictorBatch, ScoreEmbeddingsMatchesTrainingPathAndBatchSplits)
{
    ExtractorConfig cfg;
    cfg.channels = 8;
    cfg.numLayers = 4;
    cfg.featureDim = 32;
    WacoCostModel model(Algorithm::SpMM, "waconet", cfg, 77);

    Rng rng(33);
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 512, 512);
    SuperScheduleSpace space(Algorithm::SpMM, shape);
    std::vector<SuperSchedule> batch;
    for (int i = 0; i < 24; ++i)
        batch.push_back(space.sample(rng));

    std::vector<Triplet> nz;
    for (const auto& c : randomCoords(2, 50, 0, 64, rng))
        nz.push_back({static_cast<u32>(c[0]), static_cast<u32>(c[1]), 1.0f});
    SparseMatrix m(64, 64, std::move(nz));

    Mat feature = model.extractFeature(m);
    Mat emb = model.programEmbeddings(batch);
    Mat train_path = model.predictFromEmbeddings(feature, emb);

    auto query = model.beginQuery(feature);
    Mat batched = model.scoreEmbeddings(query, emb, nullptr, emb.rows);
    ASSERT_EQ(batched.rows, train_path.rows);
    for (u32 n = 0; n < batched.rows; ++n) {
        EXPECT_NEAR(batched.at(n, 0), train_path.at(n, 0),
                    1e-4 * std::max(1.0f, std::abs(train_path.at(n, 0))));
    }

    // Scoring ids one at a time must be bitwise-identical to one batch —
    // the property that makes batched and scalar graph walks agree.
    for (u32 n = 0; n < emb.rows; ++n) {
        u32 id = n;
        Mat one = model.scoreEmbeddings(query, emb, &id, 1);
        EXPECT_EQ(one.at(0, 0), batched.at(n, 0)) << "row " << n;
    }
}

} // namespace
} // namespace waco
