/**
 * @file
 * Tests of the from-scratch NN stack: numerical gradient checks for every
 * layer type, optimizer convergence on a toy problem, ranking-loss
 * semantics, and sparse-conv structural behaviour (submanifold vs strided).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nn/sparse_conv.hpp"

namespace waco::nn {
namespace {

/** Central-difference gradient check for a scalar-valued function of a
 *  parameter, against the analytic gradient accumulated by backward(). */
template <typename FwdBwd>
void
checkParamGradient(Param& p, FwdBwd&& run, double tol = 2e-2)
{
    p.zeroGrad();
    run(); // accumulate analytic gradients
    Mat analytic = p.g;
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < std::min<std::size_t>(p.w.v.size(), 12); ++i) {
        float saved = p.w.v[i];
        p.w.v[i] = saved + eps;
        p.zeroGrad();
        double up = run();
        p.w.v[i] = saved - eps;
        p.zeroGrad();
        double down = run();
        p.w.v[i] = saved;
        double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(analytic.v[i], numeric,
                    tol * std::max(1.0, std::abs(numeric)))
            << "param element " << i;
    }
}

TEST(NnMat, MatmulAgainstHand)
{
    Mat a(2, 3);
    Mat b(3, 2);
    for (u32 i = 0; i < 6; ++i) {
        a.v[i] = static_cast<float>(i + 1);
        b.v[i] = static_cast<float>(6 - i);
    }
    Mat c;
    matmul(a, b, c);
    // a = [1 2 3; 4 5 6], b = [6 5; 4 3; 2 1]
    EXPECT_FLOAT_EQ(c.at(0, 0), 20.f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 14.f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 56.f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 41.f);
}

TEST(NnLinear, GradientCheck)
{
    Rng rng(1);
    Linear lin(4, 3, rng);
    Mat x(5, 4);
    for (auto& v : x.v)
        v = static_cast<float>(rng.normal());
    std::vector<Param*> ps;
    lin.collectParams(ps);
    auto run = [&]() {
        Mat y = lin.forward(x);
        // Loss = sum of squares / 2 so dL/dy = y.
        double loss = 0.0;
        for (auto v : y.v)
            loss += 0.5 * v * v;
        lin.backward(y);
        return loss;
    };
    for (Param* p : ps)
        checkParamGradient(*p, run);
}

TEST(NnMlp, GradientCheckThroughReLU)
{
    Rng rng(2);
    MLP mlp({3, 8, 1}, rng);
    Mat x(6, 3);
    for (auto& v : x.v)
        v = static_cast<float>(rng.normal());
    std::vector<Param*> ps;
    mlp.collectParams(ps);
    auto run = [&]() {
        Mat y = mlp.forward(x);
        double loss = 0.0;
        for (auto v : y.v)
            loss += 0.5 * v * v;
        mlp.backward(y);
        return loss;
    };
    checkParamGradient(*ps.front(), run);
    checkParamGradient(*ps.back(), run);
}

TEST(NnEmbedding, GatherScatter)
{
    Rng rng(3);
    Embedding emb(10, 4, rng);
    Mat y = emb.forward({3, 3, 7});
    EXPECT_EQ(y.rows, 3u);
    Mat dy(3, 4, 1.0f);
    emb.backward(dy);
    std::vector<Param*> ps;
    emb.collectParams(ps);
    // Row 3 received two unit gradients, row 7 one, others none.
    EXPECT_FLOAT_EQ(ps[0]->g.at(3, 0), 2.0f);
    EXPECT_FLOAT_EQ(ps[0]->g.at(7, 0), 1.0f);
    EXPECT_FLOAT_EQ(ps[0]->g.at(0, 0), 0.0f);
}

TEST(NnAdam, ConvergesOnLeastSquares)
{
    Rng rng(4);
    Linear lin(2, 1, rng);
    std::vector<Param*> ps;
    lin.collectParams(ps);
    Adam opt(ps, 5e-2);
    // Fit y = 2 x0 - x1 + 0.5.
    Mat x(16, 2);
    std::vector<float> target(16);
    for (u32 r = 0; r < 16; ++r) {
        x.at(r, 0) = static_cast<float>(rng.normal());
        x.at(r, 1) = static_cast<float>(rng.normal());
        target[r] = 2.f * x.at(r, 0) - x.at(r, 1) + 0.5f;
    }
    double last = 1e9;
    for (int epoch = 0; epoch < 400; ++epoch) {
        Mat y = lin.forward(x);
        Mat d(16, 1);
        double loss = 0.0;
        for (u32 r = 0; r < 16; ++r) {
            float diff = y.at(r, 0) - target[r];
            loss += 0.5 * diff * diff;
            d.at(r, 0) = diff;
        }
        lin.backward(d);
        opt.step();
        last = loss;
    }
    EXPECT_LT(last, 1e-3);
}

TEST(NnLoss, HingeRanksCorrectly)
{
    Mat pred(3, 1);
    pred.at(0, 0) = 0.0f; // truth: fastest
    pred.at(1, 0) = 5.0f; // truth: middle
    pred.at(2, 0) = 9.0f; // truth: slowest
    std::vector<double> truth = {1.0, 2.0, 3.0};
    auto good = pairwiseHingeLoss(pred, truth);
    EXPECT_DOUBLE_EQ(good.loss, 0.0); // margins all > 1
    EXPECT_DOUBLE_EQ(pairwiseOrderAccuracy(pred, truth), 1.0);

    std::vector<double> reversed = {3.0, 2.0, 1.0};
    auto bad = pairwiseHingeLoss(pred, reversed);
    EXPECT_GT(bad.loss, 1.0);
    EXPECT_DOUBLE_EQ(pairwiseOrderAccuracy(pred, reversed), 0.0);
    // dL/dpred: descent (-grad) raises the prediction of the truly-slow
    // schedule predicted fast, and lowers the truly-fast one predicted slow.
    EXPECT_LT(bad.dPred.at(0, 0), 0.0f);
    EXPECT_GT(bad.dPred.at(2, 0), 0.0f);
}

TEST(NnSparseConv, SubmanifoldKeepsSites)
{
    Rng rng(5);
    SparseConv conv(2, 3, 1, 1, 4, rng);
    SparseMap in;
    in.dim = 2;
    in.coords = {{0, 0, 0}, {0, 1, 0}, {5, 5, 0}};
    in.feats = Mat(3, 1, 1.0f);
    auto out = conv.forward(in);
    EXPECT_EQ(out.numSites(), 3u);
    EXPECT_EQ(out.coords, in.coords);
    EXPECT_EQ(out.feats.cols, 4u);
}

TEST(NnSparseConv, IsolatedSitesDoNotPropagate)
{
    // The Figure 8 pathology: with stride 1, distant nonzeros never
    // exchange information — each output depends only on its own site.
    Rng rng(6);
    SparseConv conv(2, 3, 1, 1, 2, rng);
    SparseMap in;
    in.dim = 2;
    in.coords = {{0, 0, 0}, {100, 100, 0}};
    in.feats = Mat(2, 1);
    in.feats.at(0, 0) = 1.0f;
    in.feats.at(1, 0) = 1.0f;
    auto base = conv.forward(in);
    in.feats.at(1, 0) = 42.0f; // perturb the distant site
    auto perturbed = conv.forward(in);
    EXPECT_FLOAT_EQ(base.feats.at(0, 0), perturbed.feats.at(0, 0));
    EXPECT_NE(base.feats.at(1, 0), perturbed.feats.at(1, 0));
}

TEST(NnSparseConv, Stride2CoarsensAndMerges)
{
    Rng rng(7);
    SparseConv conv(2, 3, 2, 1, 2, rng);
    SparseMap in;
    in.dim = 2;
    in.coords = {{0, 0, 0}, {1, 1, 0}, {8, 8, 0}};
    in.feats = Mat(3, 1, 1.0f);
    auto out = conv.forward(in);
    // Sites (0,0) and (1,1) fall into nearby coarse cells; count shrinks
    // relative to repeated application.
    EXPECT_GT(out.numSites(), 0u);
    // Repeated striding eventually merges everything near the origin.
    SparseMap cur = in;
    SparseConv c2(2, 3, 2, 1, 1, rng);
    for (int l = 0; l < 6; ++l) {
        cur = c2.forward(cur);
        cur.feats = Mat(cur.numSites(), 1, 1.0f);
    }
    EXPECT_LE(cur.numSites(), 3u);
    EXPECT_GE(cur.numSites(), 1u);
}

TEST(NnSparseConv, GradientCheck)
{
    Rng rng(8);
    SparseConv conv(2, 3, 2, 2, 3, rng);
    SparseMap in;
    in.dim = 2;
    in.coords = {{0, 0, 0}, {1, 0, 0}, {3, 2, 0}, {4, 4, 0}};
    in.feats = Mat(4, 2);
    for (auto& v : in.feats.v)
        v = static_cast<float>(rng.normal());
    std::vector<Param*> ps;
    conv.collectParams(ps);
    auto run = [&]() {
        auto out = conv.forward(in);
        double loss = 0.0;
        for (auto v : out.feats.v)
            loss += 0.5 * v * v;
        conv.backward(out.feats);
        return loss;
    };
    checkParamGradient(*ps[4], run); // one filter offset
    checkParamGradient(*ps.back(), run); // bias
}

TEST(NnPool, AverageAndBackward)
{
    Mat feats(2, 2);
    feats.at(0, 0) = 2.0f;
    feats.at(1, 0) = 4.0f;
    feats.at(0, 1) = -2.0f;
    feats.at(1, 1) = 2.0f;
    GlobalAvgPool pool;
    Mat y = pool.forward(feats);
    EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
    Mat dy(1, 2, 1.0f);
    Mat dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0), 0.5f);
    EXPECT_FLOAT_EQ(dx.at(1, 1), 0.5f);
}

TEST(NnSerialize, SaveLoadRoundTrip)
{
    Rng rng(9);
    MLP a({4, 6, 2}, rng);
    MLP b({4, 6, 2}, rng);
    std::vector<Param*> pa, pb;
    a.collectParams(pa);
    b.collectParams(pb);
    std::string path = ::testing::TempDir() + "/waco_params.bin";
    saveParams(pa, path);
    loadParams(pb, path);
    Mat x(2, 4, 0.5f);
    Mat ya = a.forward(x);
    Mat yb = b.forward(x);
    for (std::size_t i = 0; i < ya.v.size(); ++i)
        EXPECT_FLOAT_EQ(ya.v[i], yb.v[i]);
    std::remove(path.c_str());
    MLP c({4, 7, 2}, rng);
    std::vector<Param*> pc;
    c.collectParams(pc);
    saveParams(pa, path);
    EXPECT_THROW(loadParams(pc, path), FatalError);
    std::remove(path.c_str());
}

TEST(NnSerialize, RejectsTruncatedAndOverlongFiles)
{
    Rng rng(11);
    MLP a({3, 5, 1}, rng);
    std::vector<Param*> pa;
    a.collectParams(pa);
    std::string path = ::testing::TempDir() + "/waco_params_corrupt.bin";
    saveParams(pa, path);

    // Read the intact bytes once.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    MLP b({3, 5, 1}, rng);
    std::vector<Param*> pb;
    b.collectParams(pb);

    // Truncation at several byte offsets must raise, never half-load.
    for (std::size_t keep :
         {bytes.size() - 1, bytes.size() - 7, bytes.size() / 2,
          std::size_t(9)}) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(keep));
        out.close();
        EXPECT_THROW(loadParams(pb, path), FatalError) << "keep=" << keep;
    }

    // Trailing garbage (an over-long file) must raise too.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.put('\x42');
        out.close();
        EXPECT_THROW(loadParams(pb, path), FatalError);
    }

    // The intact file still loads after all that.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.close();
        EXPECT_NO_THROW(loadParams(pb, path));
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace waco::nn
