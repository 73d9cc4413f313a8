/**
 * @file
 * Differential tests for the batched cost-model inference engine:
 *
 *  - blocked vs naive GEMM kernels (exact on integer-valued floats, where
 *    every product and partial sum is representable regardless of
 *    summation order),
 *  - cached-rulebook sparse-conv forward vs a fresh rulebook driven
 *    through the per-pair saxpy reference,
 *  - batched vs scalar generic HNSW search (identical hit sets),
 *  - the float-lane l2 kernel vs the double-precision reference, with a
 *    recall pin,
 *  - the hoisted-feature batched predictor vs the training-path
 *    predictFromEmbeddings.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "annsearch/hnsw.hpp"
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

/** Random 2D coordinate cloud without duplicates. */
std::vector<std::array<i32, 3>>
randomCoords(u32 n, i32 extent, Rng& rng)
{
    std::vector<std::array<i32, 3>> coords;
    std::vector<std::vector<bool>> seen(extent,
                                        std::vector<bool>(extent, false));
    while (coords.size() < n) {
        i32 r = static_cast<i32>(rng.index(extent));
        i32 c = static_cast<i32>(rng.index(extent));
        if (seen[r][c])
            continue;
        seen[r][c] = true;
        coords.push_back({r, c, 0});
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
        in.coords = randomCoords(120, 40, rng);
        in.feats = Mat(in.numSites(), 2);
        fillInts(in.feats, rng);

        auto rb = conv.buildRulebook(in.coords);
        Mat want = saxpyForwardReference(in, rb, ps);

        // Engine: gather->GEMM->scatter through the prebuilt rulebook and
        // through the layer-owned fresh one.
        auto fast = conv.forward(in, rb);
        ASSERT_EQ(fast.coords, rb.outCoords) << "stride " << stride;
        ASSERT_EQ(fast.feats.v, want.v) << "stride " << stride;
        ASSERT_EQ(conv.forward(in).feats.v, want.v) << "stride " << stride;
    }
}

TEST(Rulebook, CacheReturnsIdenticalChainsAndCountsHits)
{
    Rng rng(22);
    std::vector<nn::SparseConv> stack;
    stack.emplace_back(2, 5, 1, 1, 4, rng);
    stack.emplace_back(2, 3, 2, 4, 4, rng);
    stack.emplace_back(2, 3, 2, 4, 4, rng);

    auto coords_a = randomCoords(90, 32, rng);
    auto coords_b = randomCoords(70, 32, rng);

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
    for (const auto& c : randomCoords(50, 64, rng))
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
