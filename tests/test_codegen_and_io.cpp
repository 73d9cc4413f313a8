/**
 * @file
 * Tests for the C kernel emitter and the dataset (de)serialization.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "codegen/emit.hpp"
#include "core/dataset_io.hpp"
#include "data/generators.hpp"
#include "perfmodel/cost_model.hpp"
#include "util/hash.hpp"

namespace waco {
namespace {

/** The kernel C the compiled backend builds for @p s on @p shape. */
std::string
kernelC(const SuperSchedule& s, const ProblemShape& shape)
{
    KernelEmitOptions eo;
    eo.inputRowMajor = inputRowMajorOf(s);
    return emitKernelC(lower(s, shape), eo);
}

TEST(Codegen, DefaultSpmmLooksLikeCsr)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 128, 96);
    auto code = kernelC(defaultSchedule(shape), shape);
    // CSR: host-ranged dense i loop, compressed k loop, dense j tail.
    EXPECT_NE(code.find("for (int64_t i = waco_begin; i < waco_end; i++)"),
              std::string::npos)
        << code;
    EXPECT_NE(code.find("pos1"), std::string::npos) << code;
    EXPECT_NE(code.find("const int64_t k = (int64_t)crd1[p1];"),
              std::string::npos)
        << code;
    EXPECT_NE(code.find("for (int64_t j = 0; j < 256; j++)"),
              std::string::npos)
        << code;
    EXPECT_NE(code.find("cp[j] += v * bp[j];"), std::string::npos) << code;
    // Balanced braces.
    EXPECT_EQ(std::count(code.begin(), code.end(), '{'),
              std::count(code.begin(), code.end(), '}'));
}

TEST(Codegen, SplitEmitsReconstruction)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 64, 64);
    auto s = defaultSchedule(shape);
    s.splits[1] = 8;
    s.sparseLevelOrder = {outerSlot(0), innerSlot(0), outerSlot(1),
                          innerSlot(1)};
    s.sparseLevelFormats = {LevelFormat::Uncompressed, LevelFormat::Compressed,
                            LevelFormat::Compressed,
                            LevelFormat::Uncompressed};
    auto code = kernelC(s, shape);
    EXPECT_NE(code.find("const int64_t k = k1 * 8 + k0;"), std::string::npos)
        << code;
    EXPECT_NE(code.find("k0"), std::string::npos);
}

TEST(Codegen, DiscordantOrderIsAnnotated)
{
    auto shape = ProblemShape::forMatrix(Algorithm::SpMV, 64, 64);
    auto s = defaultSchedule(shape);
    // k before i while A is stored row-major: i is located in the
    // compressed column level by binary search.
    s.loopOrder = {outerSlot(1), innerSlot(1), outerSlot(0), innerSlot(0)};
    auto code = kernelC(s, shape);
    EXPECT_NE(code.find("waco_search(const uint32_t* crd"), std::string::npos)
        << code;
    EXPECT_NE(code.find(" = waco_search(crd1, "), std::string::npos) << code;
}

TEST(DatasetIo, ScheduleRoundTrip)
{
    Rng rng(1);
    auto shape = ProblemShape::forMatrix(Algorithm::SDDMM, 512, 256);
    SuperScheduleSpace space(Algorithm::SDDMM, shape);
    for (int n = 0; n < 10; ++n) {
        auto s = space.sample(rng);
        std::stringstream buf;
        writeSchedule(buf, s);
        auto back = readSchedule(buf);
        EXPECT_EQ(back.key(), s.key());
    }
}

TEST(DatasetIo, DatasetRoundTrip)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    CorpusOptions copt;
    copt.count = 3;
    copt.minDim = 128;
    copt.maxDim = 256;
    copt.minNnz = 200;
    copt.maxNnz = 600;
    auto corpus = makeCorpus(copt, 71);
    auto ds = buildDataset(Algorithm::SpMM, corpus, oracle, 6, 72);
    std::string path = ::testing::TempDir() + "/waco_ds.bin";
    saveDataset(ds, path);
    auto back = loadDataset(path);
    ASSERT_EQ(back.entries.size(), ds.entries.size());
    EXPECT_EQ(back.alg, ds.alg);
    EXPECT_EQ(back.trainIds, ds.trainIds);
    EXPECT_EQ(back.valIds, ds.valIds);
    for (std::size_t e = 0; e < ds.entries.size(); ++e) {
        EXPECT_EQ(back.entries[e].matrix, ds.entries[e].matrix);
        ASSERT_EQ(back.entries[e].samples.size(),
                  ds.entries[e].samples.size());
        for (std::size_t x = 0; x < ds.entries[e].samples.size(); ++x) {
            EXPECT_EQ(back.entries[e].samples[x].schedule.key(),
                      ds.entries[e].samples[x].schedule.key());
            EXPECT_DOUBLE_EQ(back.entries[e].samples[x].runtime,
                             ds.entries[e].samples[x].runtime);
        }
    }
    std::remove(path.c_str());
}

TEST(DatasetIo, DatasetRoundTrip3d)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    CorpusOptions copt;
    copt.count = 2;
    copt.minDim = 64;
    copt.maxDim = 128;
    copt.minNnz = 200;
    copt.maxNnz = 500;
    auto corpus = makeCorpus3d(copt, 73);
    auto ds = buildDataset(Algorithm::MTTKRP, corpus, oracle, 5, 74);
    std::string path = ::testing::TempDir() + "/waco_ds3.bin";
    saveDataset(ds, path);
    auto back = loadDataset(path);
    ASSERT_EQ(back.entries.size(), ds.entries.size());
    EXPECT_TRUE(back.entries[0].is3d);
    EXPECT_EQ(back.entries[0].tensor.nnz(), ds.entries[0].tensor.nnz());
    std::remove(path.c_str());
}

TEST(DatasetIo, FooterChecksumIsFnv1a64OfPayload)
{
    // Pins the on-disk checksum of datasets and labeling checkpoints:
    // files written before any refactor of the hash must still load.
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);

    RuntimeOracle oracle(MachineConfig::intel24());
    CorpusOptions copt;
    copt.count = 1;
    copt.minDim = 64;
    copt.maxDim = 64;
    copt.minNnz = 100;
    copt.maxNnz = 100;
    auto ds = buildDataset(Algorithm::SpMV, makeCorpus(copt, 75), oracle,
                           2, 76);
    std::string path = ::testing::TempDir() + "/waco_ds_footer.bin";
    saveDataset(ds, path);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    // Footer: u32 magic "WEND" | u64 fnv1a64(payload).
    ASSERT_GT(bytes.size(), 12u);
    std::size_t payload = bytes.size() - 12;
    u64 sum = 0;
    std::memcpy(&sum, bytes.data() + payload + 4, sizeof sum);
    EXPECT_EQ(sum, fnv1a64(bytes.data(), payload));
    std::remove(path.c_str());
}

TEST(DatasetIo, RejectsGarbage)
{
    std::string path = ::testing::TempDir() + "/waco_bad.bin";
    std::ofstream(path) << "this is not a dataset";
    EXPECT_THROW(loadDataset(path), FatalError);
    std::remove(path.c_str());
    EXPECT_THROW(loadDataset("/nonexistent/x.bin"), FatalError);
}

} // namespace
} // namespace waco
