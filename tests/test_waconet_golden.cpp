/**
 * @file
 * Golden feature rows of the sparse-convolution extractors. Each row below
 * is the feature a freshly initialized extractor (seed 2023; 8 channels, 6
 * layers, 32-d features, the benchmark's WACONet size) computes for one
 * input, recorded once as hex floats. The inputs are one seeded matrix per
 * generator family of the tune_fresh stream, at its sizes, one 3-tensor,
 * and one MinkowskiNet row, whose stack is stride-1 layers alone. Any
 * change to the rulebook build, the conv forward's summation order, ReLU or
 * pooling shows up here as a changed bit.
 *
 * The same rows must come out while the global pool grows to 0, 1, 3 and 7
 * workers: the conv forward splits big pair lists over the pool, and a
 * worker count must not move a bit.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "data/generators.hpp"
#include "model/feature_extractor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace waco {
namespace {

/** The inputs the golden table refers to by name. */
enum GoldenInput : u32 {
    kUniform,
    kPowerLaw,
    kBanded,
    kDenseBlocks,
    kHotColumns,
    kDiagonalish,
    kTensor
};

/** Input @p id, built once per process: one matrix per generator family
 *  of the tune_fresh stream at its sizes, and one 3-tensor. */
SparseInput
goldenInput(GoldenInput id)
{
    static const SparseMatrix uniform = [] {
        Rng rng(101);
        return genUniform(4096, 4096, 16000, rng);
    }();
    static const SparseMatrix power_law = [] {
        Rng rng(102);
        return genPowerLawRows(9000, 7000, 21000, 1.2, rng);
    }();
    static const SparseMatrix banded = [] {
        Rng rng(103);
        return genBanded(12000, 12000, 2, 0.4, rng);
    }();
    static const SparseMatrix dense_blocks = [] {
        Rng rng(104);
        return genDenseBlocks(2048, 3000, 8, 250, 0.9, rng);
    }();
    static const SparseMatrix hot_columns = [] {
        Rng rng(105);
        return genHotColumns(16000, 14000, 24000, 14000 / 64, rng);
    }();
    static const SparseMatrix diagonalish = [] {
        Rng rng(106);
        return genDiagonalish(1200, 8, rng);
    }();
    static const Sparse3Tensor tensor = [] {
        Rng rng(107);
        return genTensor3(200, 150, 100, 12000, rng);
    }();
    switch (id) {
      case kUniform: return uniform;
      case kPowerLaw: return power_law;
      case kBanded: return banded;
      case kDenseBlocks: return dense_blocks;
      case kHotColumns: return hot_columns;
      case kDiagonalish: return diagonalish;
      case kTensor: return tensor;
    }
    panic("unknown golden input");
}

constexpr u32 kFeatureDim = 32;

/** One (extractor, input) pair and the feature row it must produce. */
struct Golden
{
    const char* extractor;
    GoldenInput input;
    float feature[kFeatureDim];
};

// clang-format off
const Golden kGolden[] = {
    {"waconet", kUniform,
     {0x1.e740bap-5f, -0x1.ca1d0ep-3f, -0x1.66b174p-5f, 0x1.194cb8p-9f,
      -0x1.dd5458p-4f, -0x1.53d5a8p-6f, -0x1.fa6754p-5f, -0x1.f9daacp-4f,
      0x1.918e48p-4f, 0x1.58ac4ap-3f, -0x1.0f818ap-3f, 0x1.a44cdep-4f,
      0x1.a90ed8p-7f, 0x1.7bdcc8p-6f, -0x1.757b08p-5f, 0x1.776158p-4f,
      -0x1.a3690ep-4f, -0x1.408c4ep-3f, 0x1.24eb22p-6f, -0x1.0857ccp-4f,
      -0x1.32039p-5f, -0x1.af9a0ap-5f, -0x1.ea84ecp-4f, -0x1.7d91bap-4f,
      -0x1.a30162p-6f, -0x1.9adac8p-7f, 0x1.673238p-7f, -0x1.e909e6p-4f,
      0x1.31f85p-3f, -0x1.62abccp-4f, 0x1.69a1ecp-7f, 0x1.547c08p-6f}},
    {"waconet", kPowerLaw,
     {0x1.e62b62p-5f, -0x1.c96cc4p-3f, -0x1.62bed8p-5f, 0x1.d92138p-9f,
      -0x1.d988c8p-4f, -0x1.4b0a9cp-6f, -0x1.edb468p-5f, -0x1.fb86ap-4f,
      0x1.8fe244p-4f, 0x1.5d561ap-3f, -0x1.1028d2p-3f, 0x1.a1e23p-4f,
      0x1.cbf3cp-7f, 0x1.876b44p-6f, -0x1.76d6f8p-5f, 0x1.772b1ap-4f,
      -0x1.a278f2p-4f, -0x1.46378ap-3f, 0x1.f479dp-7f, -0x1.088076p-4f,
      -0x1.1fec6ap-5f, -0x1.b5701ep-5f, -0x1.f13edp-4f, -0x1.89201cp-4f,
      -0x1.b391b6p-6f, -0x1.c7e42cp-7f, 0x1.c092bp-7f, -0x1.f53798p-4f,
      0x1.34e84ap-3f, -0x1.6a9a1p-4f, 0x1.3bf5a4p-7f, 0x1.80b2d8p-6f}},
    {"waconet", kBanded,
     {0x1.d5d70ap-5f, -0x1.c83894p-3f, -0x1.38129p-5f, 0x1.216f3cp-8f,
      -0x1.f0df46p-4f, -0x1.6921a4p-6f, -0x1.12ba6p-4f, -0x1.023eeap-3f,
      0x1.988a24p-4f, 0x1.509f58p-3f, -0x1.0b2cc4p-3f, 0x1.8a10dep-4f,
      0x1.834b68p-7f, 0x1.deeb5cp-6f, -0x1.786a22p-5f, 0x1.5643c6p-4f,
      -0x1.a6ad9cp-4f, -0x1.3537d4p-3f, 0x1.dffc18p-7f, -0x1.1e229cp-4f,
      -0x1.29728ep-5f, -0x1.96412ap-5f, -0x1.e6404cp-4f, -0x1.6ca842p-4f,
      -0x1.afc2dep-6f, -0x1.e1dde8p-8f, 0x1.66e8f8p-7f, -0x1.de7246p-4f,
      0x1.34c154p-3f, -0x1.663f48p-4f, 0x1.dafebcp-7f, 0x1.2171e8p-6f}},
    {"waconet", kDenseBlocks,
     {0x1.18445p-4f, -0x1.d67cf8p-3f, -0x1.622e1p-5f, 0x1.10c1e8p-7f,
      -0x1.cc4e54p-4f, -0x1.118ac4p-6f, -0x1.b92a6p-5f, -0x1.009ec4p-3f,
      0x1.84f22cp-4f, 0x1.685738p-3f, -0x1.264a6p-3f, 0x1.8ec064p-4f,
      0x1.af2e28p-7f, 0x1.3fd824p-6f, -0x1.6ab2a6p-5f, 0x1.7ce09cp-4f,
      -0x1.aeec4cp-4f, -0x1.486826p-3f, 0x1.0a993ep-6f, -0x1.1c5626p-4f,
      -0x1.3492cap-5f, -0x1.ef9f2ap-5f, -0x1.fb3848p-4f, -0x1.a3e58p-4f,
      -0x1.885eb2p-6f, -0x1.8776bcp-7f, 0x1.805d18p-6f, -0x1.01eecep-3f,
      0x1.325766p-3f, -0x1.80fdeap-4f, 0x1.a46e7cp-7f, 0x1.c7409cp-6f}},
    {"waconet", kHotColumns,
     {0x1.e7171ap-5f, -0x1.c990b4p-3f, -0x1.66c2fap-5f, 0x1.ff2ed8p-10f,
      -0x1.ddfa82p-4f, -0x1.53754p-6f, -0x1.f9e0e4p-5f, -0x1.fa52e4p-4f,
      0x1.9279bp-4f, 0x1.58bb8cp-3f, -0x1.0f48c8p-3f, 0x1.a43812p-4f,
      0x1.abe768p-7f, 0x1.80798p-6f, -0x1.746902p-5f, 0x1.77bb78p-4f,
      -0x1.a44246p-4f, -0x1.40b35cp-3f, 0x1.27456cp-6f, -0x1.07c946p-4f,
      -0x1.30aaeep-5f, -0x1.aedfe6p-5f, -0x1.eaa046p-4f, -0x1.7e255ap-4f,
      -0x1.a2217ep-6f, -0x1.9741fcp-7f, 0x1.67f818p-7f, -0x1.e92414p-4f,
      0x1.31afc2p-3f, -0x1.62c6e8p-4f, 0x1.6b5c3cp-7f, 0x1.55a4ecp-6f}},
    {"waconet", kDiagonalish,
     {0x1.c8e8c2p-5f, -0x1.c8d0ecp-3f, -0x1.3b1ce2p-5f, 0x1.b390ecp-9f,
      -0x1.f49e72p-4f, -0x1.8fec94p-6f, -0x1.103edp-4f, -0x1.fc2f4ap-4f,
      0x1.a55d7cp-4f, 0x1.552374p-3f, -0x1.017d18p-3f, 0x1.8f704cp-4f,
      0x1.4b461p-7f, 0x1.c9418p-6f, -0x1.8797dcp-5f, 0x1.5f8ab4p-4f,
      -0x1.a6b398p-4f, -0x1.3b161cp-3f, 0x1.b3df4p-7f, -0x1.19acc4p-4f,
      -0x1.1fdd5p-5f, -0x1.b6c1fep-5f, -0x1.e91438p-4f, -0x1.71b76cp-4f,
      -0x1.d7d0dep-6f, -0x1.ea8aep-8f, 0x1.4022p-7f, -0x1.e01dc2p-4f,
      0x1.38564cp-3f, -0x1.580f4cp-4f, 0x1.f52fc4p-7f, 0x1.2f9df2p-6f}},
    {"waconet", kTensor,
     {0x1.a3618p-4f, 0x1.3d7db6p-4f, 0x1.40e2ap-6f, 0x1.9a3778p-4f,
      -0x1.c52842p-4f, -0x1.93af54p-4f, -0x1.36b3dep-3f, 0x1.72d064p-6f,
      0x1.1114aep-3f, 0x1.a3a73p-4f, -0x1.2db6f8p-4f, -0x1.c3165cp-5f,
      0x1.97b18p-8f, 0x1.7533c8p-5f, -0x1.f65b1p-5f, -0x1.50d2dp-4f,
      0x1.f1c7a6p-4f, 0x1.353a98p-4f, -0x1.7712b2p-3f, -0x1.18ade2p-5f,
      -0x1.f73948p-5f, -0x1.56ac44p-3f, -0x1.2f75d2p-3f, 0x1.f448f6p-4f,
      -0x1.85b5f8p-3f, 0x1.d6d2f6p-4f, -0x1.887e32p-4f, -0x1.dfd05ep-4f,
      -0x1.4d983cp-3f, -0x1.13646ap-4f, -0x1.c042eap-4f, 0x1.0ac294p-4f}},
    {"minkowski", kDenseBlocks,
     {0x1.03f034p-5f, -0x1.6419b8p-2f, 0x1.6429ecp-6f, 0x1.6cc87cp-4f,
      0x1.4f5b8p-5f, -0x1.c0eeccp-4f, -0x1.c90c8p-4f, 0x1.d65da8p-4f,
      0x1.b846d8p-4f, 0x1.b92c54p-3f, 0x1.340a18p-6f, -0x1.600b32p-3f,
      0x1.2c3c74p-4f, -0x1.b26b62p-6f, 0x1.67eb9p-4f, 0x1.7a577ep-3f,
      0x1.a4b8ep-7f, 0x1.f86976p-5f, -0x1.5e24bcp-5f, 0x1.ad5712p-4f,
      0x1.1155d4p-3f, -0x1.ebd32p-9f, 0x1.72392p-4f, -0x1.0b25a4p-5f,
      -0x1.453ec2p-4f, 0x1.4d35dcp-3f, -0x1.c6e79p-3f, -0x1.46d538p-5f,
      0x1.193ce6p-3f, -0x1.334238p-4f, -0x1.d5630cp-3f, -0x1.476cp-3f}},
};
// clang-format on

/** A fresh extractor of @p kind at the benchmark's WACONet size. */
std::unique_ptr<FeatureExtractor>
goldenExtractor(const char* kind, u32 order)
{
    ExtractorConfig cfg;
    cfg.channels = 8;
    cfg.numLayers = 6;
    cfg.featureDim = kFeatureDim;
    Rng rng(2023);
    return makeFeatureExtractor(kind, order, cfg, rng);
}

void
expectGolden(const nn::Mat& f, const Golden& g)
{
    ASSERT_EQ(f.rows, 1u);
    ASSERT_EQ(f.cols, kFeatureDim);
    for (u32 c = 0; c < kFeatureDim; ++c) {
        EXPECT_EQ(std::memcmp(&f.v[c], &g.feature[c], sizeof(float)), 0)
            << "column " << c << ": " << std::hexfloat << f.v[c] << " vs "
            << g.feature[c];
    }
}

/** Every row, from a cold extractor and again through its cached
 *  rulebook chain. */
void
expectEveryRow()
{
    for (const Golden& g : kGolden) {
        SCOPED_TRACE(std::string(g.extractor) + " input " +
                     std::to_string(g.input));
        SparseInput in = goldenInput(g.input);
        auto extractor = goldenExtractor(g.extractor, in.order());
        expectGolden(extractor->forward(in), g);
        expectGolden(extractor->forward(in), g);
    }
}

TEST(WacoNetGolden, EveryRowBitwise)
{
    expectEveryRow();
}

TEST(WacoNetGolden, GrowingPoolKeepsEveryRowBitwise)
{
    for (u32 workers : {0u, 1u, 3u, 7u}) {
        globalPool().ensureWorkers(workers);
        SCOPED_TRACE(std::to_string(globalPool().workers()) + " workers");
        expectEveryRow();
    }
}

} // namespace
} // namespace waco
