/**
 * @file
 * Golden measurements of the runtime oracle. Every field of every
 * Measurement below is pinned bit for bit: the schedules were measured once
 * and their doubles recorded as hex floats, so any change to the oracle's
 * arithmetic, its distinct counting or its format sizing shows up here as a
 * changed bit. The triples cover all five algorithms, the default schedule
 * and sampled ones (stored as SuperSchedule keys), an input large enough
 * for the parallel distinct-count scan, a format over the byte budget and a
 * schedule that fails to lower.
 *
 * OracleThreadInvariance re-measures the large-input triples while the
 * global pool grows, so the parallel scan's atomic bitmap and set-bit count
 * run under ThreadSanitizer (`ctest -L tsan`, oracle_scan_tsan).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <thread>

#include "perfmodel/cost_model.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace waco {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Uniformly scattered nonzeros (duplicates are summed away). */
SparseMatrix
uniformMatrix(u32 rows, u32 cols, u32 nnz, u64 seed)
{
    Rng rng(seed);
    std::vector<Triplet> t;
    for (u32 n = 0; n < nnz; ++n) {
        t.push_back({static_cast<u32>(rng.index(rows)),
                     static_cast<u32>(rng.index(cols)),
                     static_cast<float>(rng.uniformReal(0.5, 1.5))});
    }
    return SparseMatrix(rows, cols, std::move(t));
}

/** 2% heavy rows holding half the columns, the rest two nonzeros each. */
SparseMatrix
skewedMatrix(u32 rows, u32 cols, u64 seed)
{
    Rng rng(seed);
    std::vector<Triplet> t;
    for (u32 r = 0; r < rows; ++r) {
        u32 count = r < rows / 50 ? cols / 2 : 2;
        for (u32 n = 0; n < count; ++n)
            t.push_back({r, static_cast<u32>(rng.index(cols)), 1.0f});
    }
    return SparseMatrix(rows, cols, std::move(t));
}

Sparse3Tensor
uniformTensor(u32 di, u32 dk, u32 dl, u32 nnz, u64 seed)
{
    Rng rng(seed);
    std::vector<Quad> q;
    for (u32 n = 0; n < nnz; ++n) {
        q.push_back({static_cast<u32>(rng.index(di)),
                     static_cast<u32>(rng.index(dk)),
                     static_cast<u32>(rng.index(dl)), 1.0f});
    }
    return Sparse3Tensor(di, dk, dl, std::move(q));
}

/** The inputs the golden table refers to by number. */
enum GoldenInput : u32 { kUniform, kSkewed, kTensor, kLarge, kHuge };

/** Input @p id, built once per process. kLarge has >= 2^16 nonzeros, so
 *  the oracle's distinct counts run as a parallel scan; kHuge is a
 *  131072 x 131072 matrix whose dense formats exceed the byte budget. */
SparseInput
goldenInput(GoldenInput id)
{
    static const SparseMatrix uniform = uniformMatrix(600, 500, 5000, 11);
    static const SparseMatrix skewed = skewedMatrix(800, 700, 12);
    static const Sparse3Tensor tensor = uniformTensor(120, 100, 80, 4000, 13);
    static const SparseMatrix large = uniformMatrix(2048, 2048, 1u << 17, 41);
    static const SparseMatrix huge = uniformMatrix(131072, 131072, 3000, 14);
    switch (id) {
      case kUniform: return uniform;
      case kSkewed: return skewed;
      case kTensor: return tensor;
      case kLarge: return large;
      case kHuge: return huge;
    }
    panic("unknown golden input");
}

/** One (input, schedule) triple and the Measurement it must produce. */
struct Golden
{
    GoldenInput input;
    const char* scheduleKey;
    double seconds;
    bool valid;
    const char* invalidReason;
    double computeSeconds;
    double memorySeconds;
    double serialSeconds;
    double imbalance;
    double missBytes;
    bool simdUsed;
    u64 storedValues;
    u64 formatBytes;
};

// clang-format off
const Golden kGolden[] = {
    {kSkewed, "SpMV|s=1,1|lo=0,1,2,3|p=0:48:128|slo=0,1,2,3|lf=UUCC|dl=rr",
     0x1.944e81258fbbcp-16, true, "",
     0x1.61f99a436df32p-16, 0x1.db0953ac22aa2p-21, 0x1.421f5f40d8376p-18, 0x1.799ffd443261fp+4, 0x1.d6101b180da38p+15, false, 5968ull, 50952ull},
    {kSkewed, "SpMV|s=512,8|lo=2,1,0,3|p=0:48:64|slo=0,1,2,3|lf=CUCU|dl=cr",
     0x1.d26d8a98f4dc9p-7, true, "",
     0x1.d254602583cbbp-7, 0x1.d4e8da34dc6f3p-20, 0x1.ccd209b054877p-7, 0x1.e0afa9a887df8p+4, 0x1.d0000d8c06d1cp+16, false, 23432ull, 109568ull},
    {kSkewed, "SpMV|s=4,256|lo=3,1,2,0|p=1:24:32|slo=0,2,3,1|lf=CUCU|dl=cr",
     0x1.3b9e1ff93b2bep-6, true, "",
     0x1.3b918abf82a37p-6, 0x1.6ab026b48c4d3p-20, 0x1.3872ea00afeb5p-6, 0x1.807c105f080c8p+4, 0x1.66e40d8c06d1cp+16, false, 15888ull, 82660ull},
    {kSkewed, "SpMV|s=128,128|lo=0,3,2,1|p=1:24:1|slo=1,2,0,3|lf=CUUU|dl=cr",
     0x1.a6d61e99926d7p+1, true, "",
     0x1.a6d6056f1efc6p+1, 0x1.54c1f20d691b3p-15, 0x1.a6d2469c3726ep+1, 0x1.2f4e9e474c99dp+0, 0x1.5130a06c60369p+21, false, 688128ull, 2753044ull},
    {kSkewed, "SpMV|s=1,4|lo=0,1,3,2|p=0:24:16|slo=1,3,0,2|lf=CCUU|dl=cc",
     0x1.458b481b7e115p-11, true, "",
     0x1.43f8a0e46d031p-11, 0x1.1578b27fe1095p-15, 0x1.421f5f40d8376p-18, 0x1.1b597a1886f27p+4, 0x1.1291006c60369p+21, true, 560000ull, 2240032ull},
    {kUniform, "SpMM|s=1,1,1|lo=0,1,2,3,4,5|p=0:48:32|slo=0,1,2,3|lf=UUCC|dl=rr",
     0x1.ffe823738456cp-16, true, "",
     0x1.cd933c91628e1p-16, 0x1.b7e672abcf8fbp-16, 0x1.421f5f40d8376p-18, 0x1.aec9ce4da9b56p+0, 0x1.b34b66b4455d5p+20, true, 4955ull, 42048ull},
    {kUniform, "SpMM|s=1,1,32|lo=1,5,2,4,0,3|p=0:24:2|slo=1,2,3,0|lf=CCUC|dl=rr",
     0x1.3aa4e4321fd86p-1, true, "",
     0x1.3aa47f8852142p-1, 0x1.74897dde6e8a1p-18, 0x1.3a95274411a7dp-1, 0x1.15b65c1206795p+0, 0x1.70a2fedd008dcp+18, false, 4955ull, 43652ull},
    {kUniform, "SpMM|s=32,256,32|lo=1,0,2,3,5,4|p=5:24:8|slo=2,3,0,1|lf=UCCU|dl=rr",
     0x1.2fb2a6bb65d09p-1, true, "",
     0x1.2fb24211980c5p-1, 0x1.156e4986d1b9ep-15, 0x1.2c4993dfd5c4fp-1, 0x1.80038b2daff9bp+2, 0x1.1286b35a22aeap+21, false, 122176ull, 508000ull},
    {kUniform, "SpMM|s=2,4,1|lo=0,1,5,4,3,2|p=5:24:64|slo=0,1,2,3|lf=CCCU|dl=rr",
     0x1.7d566dddf32ep+4, true, "",
     0x1.7d566ab8a4bfep+4, 0x1.50fab186c6d63p-16, 0x1.7d566ab8a4bfep+4, 0x1p+0, 0x1.4d73806256ac2p+20, false, 19388ull, 104160ull},
    {kUniform, "SpMM|s=256,64,128|lo=3,2,0,4,5,1|p=5:48:4|slo=3,1,0,2|lf=UUUC|dl=rr",
     0x1.e3af86703dd72p-2, true, "",
     0x1.e3aebd1ca24eap-2, 0x1.97a575022ba3bp-17, 0x1.e335c70a8bb74p-2, 0x1.e07ff54ec1719p+0, 0x1.9360dbebe32efp+19, false, 4955ull, 236264ull},
    {kSkewed, "SDDMM|s=1,1,1|lo=0,1,2,3,4,5|p=0:48:32|slo=0,1,2,3|lf=UUCC|dl=rcr",
     0x1.bba3140025adp-11, true, "",
     0x1.ba106cc9149ecp-11, 0x1.76400b77bd774p-14, 0x1.421f5f40d8376p-18, 0x1.64b95ed39cfc8p+4, 0x1.7254f506a0eb8p+22, true, 5968ull, 50952ull},
    {kSkewed, "SDDMM|s=64,512,128|lo=5,1,4,2,0,3|p=0:24:128|slo=3,1,2,0|lf=UUCU|dl=rcr",
     0x1.42c61e2b0df61p+5, true, "",
     0x1.42c61c9866bfp+5, 0x1.36690a502a793p-14, 0x1.422674db5f91dp+5, 0x1.80004d7a02505p+4, 0x1.33290f5e24a4ap+22, false, 75387ull, 455832ull},
    {kSkewed, "SDDMM|s=256,1,64|lo=4,3,1,2,5,0|p=2:48:128|slo=1,2,3,0|lf=CUCC|dl=rcr",
     0x1.7dea3362aab6ap-8, true, "",
     0x1.7db7de7bc894dp-8, 0x1.72f41e34a88c9p-14, 0x1.4233fce8bb993p-8, 0x1.6b502c32e2fffp+2, 0x1.6f11ddb4f5043p+22, false, 5968ull, 765584ull},
    {kSkewed, "SDDMM|s=512,64,256|lo=3,4,5,2,0,1|p=2:48:1|slo=3,1,2,0|lf=CCCC|dl=rcr",
     0x1.47258406f6f88p-4, true, "",
     0x1.47225eb888d66p-4, 0x1.2175b32aff9c6p-14, 0x1.421f73de801acp-4, 0x1.7b0e3b16e2296p+1, 0x1.1e6ddf5e24a4ap+22, false, 5968ull, 116172ull},
    {kSkewed, "SDDMM|s=32,512,8|lo=4,1,5,2,3,0|p=1:48:256|slo=3,2,1,0|lf=UCUU|dl=rcr",
     0x1.b6713a9904fe8p-2, true, "",
     0x1.b67071456976p-2, 0x1.a4c26e036cf01p-14, 0x1.421f5f40d8376p-13, 0x1.e00011a3a301ap+4, 0x1.a05aaf5e24a4ap+22, true, 560000ull, 2244864ull},
    {kTensor, "MTTKRP|s=1,1,1,1|lo=0,1,2,3,4,5,6,7|p=0:48:32|slo=0,1,2,3,4,5|lf=CCCCCC|dl=rrr",
     0x1.1c9b4749075bp-16, true, "",
     0x1.d48cc0cdcb24ap-17, 0x1.57200251cc9ccp-20, 0x1.421f5f40d8376p-18, 0x1.0f884d8684691p+3, 0x1.5388584865138p+16, true, 3990ull, 60040ull},
    {kTensor, "MTTKRP|s=8,4,8,8|lo=1,4,5,3,6,7,0,2|p=1:48:32|slo=4,3,1,2,0,5|lf=UUUUUC|dl=rrr",
     0x1.65c25c7a7e75cp-10, true, "",
     0x1.64f908def5eeap-10, 0x1.ffbd9c452a581p-18, 0x1.421f5f40d8376p-18, 0x1.e015bcc64f9d7p+4, 0x1.fa620336229c7p+18, false, 3990ull, 511944ull},
    {kTensor, "MTTKRP|s=32,32,16,1|lo=5,7,4,2,6,0,3,1|p=1:24:32|slo=3,0,1,4,5,2|lf=UUCCCU|dl=rrr",
     0x1.39c6fc16fccddp+0, true, "",
     0x1.39c6c9c215ebbp+0, 0x1.0ba562cfc7fc4p-19, 0x1.38d8cce56a604p+0, 0x1.80067f528a46fp+4, 0x1.08d8066c4538fp+17, false, 15912ull, 129008ull},
    {kTensor, "MTTKRP|s=64,16,64,16|lo=1,6,5,2,4,0,7,3|p=0:48:256|slo=5,4,2,3,0,1|lf=CUCUUC|dl=rrr",
     0x1.48d2228d305d8p-6, true, "",
     0x1.48c58d5377d51p-6, 0x1.f25c00625243cp-20, 0x1.39e0b2990027dp-6, 0x1.e020733d7a75cp+4, 0x1.ed2444d8d0bcep+16, false, 3990ull, 105316ull},
    {kTensor, "MTTKRP|s=32,4,32,16|lo=0,6,7,2,5,3,4,1|p=0:48:16|slo=4,3,0,5,1,2|lf=CCUUCU|dl=rrr",
     0x1.939f0c9e88255p-7, true, "",
     0x1.9385e22b17147p-7, 0x1.8e42707960bcfp-18, 0x1.421f5f40d8376p-18, 0x1.e0026553a0bd8p+4, 0x1.8a1700194001fp+18, false, 95075ull, 401756ull},
    {kUniform, "FusedSDDMMSpMM|s=1,1,1,1|lo=0,1,2,3,4,5,6,7|p=0:48:32|slo=0,1,2,3|lf=UUCC|dl=rcrr",
     0x1.ad4dd4027c60bp-15, true, "",
     0x1.942360916b7c6p-15, 0x1.66ea02c25c174p-15, 0x1.421f5f40d8376p-18, 0x1.ac9b8915467c9p+0, 0x1.6328071bafddp+21, true, 4955ull, 42048ull},
    {kUniform, "FusedSDDMMSpMM|s=512,2,128,2|lo=0,1,3,2,6,4,5,7|p=1:48:128|slo=1,0,3,2|lf=UCCU|dl=rcrr",
     0x1.3cf98e19ff414p-7, true, "",
     0x1.3ce063a68e306p-7, 0x1.f537ec62d1cbbp-15, 0x1.7994ec60bbd78p-9, 0x1.56bea53be4f08p+3, 0x1.eff8871bafddp+21, true, 296000ull, 1195600ull},
    {kUniform, "FusedSDDMMSpMM|s=2,16,1,128|lo=1,0,6,7,3,2,4,5|p=0:48:128|slo=2,0,1,3|lf=UCUC|dl=rcrr",
     0x1.716efe858b2f9p-5, true, "",
     0x1.7168b3e8aeeb5p-5, 0x1.6c6e8cbafe909p-15, 0x1.33fe1039ff983p-5, 0x1.9c1b24a5becf2p+3, 0x1.689dc71bafddp+21, true, 4955ull, 86776ull},
    {kUniform, "FusedSDDMMSpMM|s=4,2,4,4|lo=0,1,5,2,7,6,3,4|p=7:48:32|slo=2,1,3,0|lf=UCUC|dl=rcrr",
     0x1.85f69e43357a9p+2, true, "",
     0x1.85f691adfbc2p+2, 0x1.6836be9261077p-15, 0x1.85f691adfbc2p+2, 0x1p+0, 0x1.6471471bafddp+21, true, 4955ull, 52584ull},
    {kUniform, "FusedSDDMMSpMM|s=64,2,256,16|lo=0,1,6,5,4,2,3,7|p=6:24:8|slo=0,1,3,2|lf=UCCC|dl=rcrr",
     0x1.869c763ce3e16p+2, true, "",
     0x1.869c69a7aa28dp+2, 0x1.2d4309b815bb1p-15, 0x1.869c69a7aa28dp+2, 0x1p+0, 0x1.2a1b93f2b8846p+21, false, 4955ull, 53968ull},
    {kLarge, "SpMM|s=1,1,1|lo=0,1,2,3,4,5|p=0:48:32|slo=0,1,2,3|lf=UUCC|dl=rr",
     0x1.febe669271942p-13, true, "",
     0x1.f873c9b62d5b1p-13, 0x1.c453bca5f8e83p-14, 0x1.421f5f40d8376p-18, 0x1.6735800088457p+0, 0x1.bf9762003004ep+22, true, 129018ull, 1040344ull},
    {kLarge, "SpMM|s=16,16,2|lo=5,2,0,1,4,3|p=1:48:16|slo=2,1,3,0|lf=CUUU|dl=rr",
     0x1.4ff1a44d30cbep+5, true, "",
     0x1.4ff1a2ba8994dp+5, 0x1.456e53a52de27p-12, 0x1.42263ea209fd2p+5, 0x1.e0000460df9a6p+4, 0x1.420616556000dp+24, false, 4194304ull, 16777748ull},
    {kLarge, "SDDMM|s=1,1,1|lo=0,1,2,3,4,5|p=0:48:32|slo=0,1,2,3|lf=UUCC|dl=rcr",
     0x1.2cb65a328db1bp-11, true, "",
     0x1.19631af82fdbap-11, 0x1.2b23b2fb7ca37p-11, 0x1.421f5f40d8376p-18, 0x1.6698e8999c7f4p+0, 0x1.2801ed802403ap+25, true, 129018ull, 1040344ull},
    {kHuge, "SpMM|s=1,1,1|lo=0,1,2,3,4,5|p=0:48:32|slo=0,1,2,3|lf=UUUU|dl=rr",
     kInf, false, "uncompressed level exceeds budget in UU(d0,d1)",
     0x0p+0, 0x0p+0, 0x0p+0, 0x1p+0, 0x0p+0, false, 0ull, 0ull},
    {kHuge, "SpMV|s=1,1|lo=0,1,2,3|p=0:48:128|slo=0,1,2,3|lf=UUCC|dl=rr",
     0x1.846e8ba8f32ecp-16, true, "",
     0x1.5219a4c6d1661p-16, 0x1.fcb68ef289facp-17, 0x1.421f5f40d8376p-18, 0x1.21d4e59a04bafp+1, 0x1.f763133abe1c8p+19, false, 3000ull, 548296ull},
    {kUniform, "SpMM|s=1,1,1|lo=0,1,2,3,4|p=0:48:32|slo=0,1,2,3|lf=UUCC|dl=rr",
     kInf, false, "lower: 1 error(s)\n  WACO-S001: loop order has 5 slots, expected 6\n",
     0x0p+0, 0x0p+0, 0x0p+0, 0x1p+0, 0x0p+0, false, 0ull, 0ull},
};
// clang-format on

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Measurement
measureGolden(const RuntimeOracle& oracle, const Golden& g)
{
    SparseInput in = goldenInput(g.input);
    SuperSchedule s = SuperSchedule::parseKey(g.scheduleKey);
    return oracle.measure(in, ProblemShape::forInput(s.alg, in), s);
}

void
expectGolden(const Measurement& m, const Golden& g)
{
    EXPECT_TRUE(sameBits(m.seconds, g.seconds))
        << std::hexfloat << m.seconds << " vs " << g.seconds;
    EXPECT_EQ(m.valid, g.valid);
    EXPECT_EQ(m.invalidReason, g.invalidReason);
    EXPECT_TRUE(sameBits(m.computeSeconds, g.computeSeconds))
        << std::hexfloat << m.computeSeconds << " vs " << g.computeSeconds;
    EXPECT_TRUE(sameBits(m.memorySeconds, g.memorySeconds))
        << std::hexfloat << m.memorySeconds << " vs " << g.memorySeconds;
    EXPECT_TRUE(sameBits(m.serialSeconds, g.serialSeconds))
        << std::hexfloat << m.serialSeconds << " vs " << g.serialSeconds;
    EXPECT_TRUE(sameBits(m.imbalance, g.imbalance))
        << std::hexfloat << m.imbalance << " vs " << g.imbalance;
    EXPECT_TRUE(sameBits(m.missBytes, g.missBytes))
        << std::hexfloat << m.missBytes << " vs " << g.missBytes;
    EXPECT_EQ(m.simdUsed, g.simdUsed);
    EXPECT_EQ(m.storedValues, g.storedValues);
    EXPECT_EQ(m.formatBytes, g.formatBytes);
}

TEST(OracleGolden, EveryFieldBitwise)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    for (const Golden& g : kGolden) {
        SCOPED_TRACE(g.scheduleKey);
        expectGolden(measureGolden(oracle, g), g);
    }
}

TEST(OracleGolden, CoversEveryAlgorithmAndBothFailureKinds)
{
    std::vector<bool> seen(allAlgorithms().size(), false);
    bool over_budget = false, unlowerable = false, parallel_scan = false;
    for (const Golden& g : kGolden) {
        seen[static_cast<std::size_t>(
            SuperSchedule::parseKey(g.scheduleKey).alg)] = true;
        std::string why = g.invalidReason;
        over_budget |= why.find("exceeds budget") != std::string::npos;
        unlowerable |= why.rfind("lower:", 0) == 0;
        parallel_scan |= goldenInput(g.input).nnz() >= (1u << 16);
    }
    for (std::size_t a = 0; a < seen.size(); ++a)
        EXPECT_TRUE(seen[a]) << algorithmName(allAlgorithms()[a]);
    EXPECT_TRUE(over_budget);
    EXPECT_TRUE(unlowerable);
    EXPECT_TRUE(parallel_scan);
}

/**
 * Grow the global pool step by step and re-measure every input whose
 * distinct counts fan out over it: each step must reproduce the golden
 * Measurement bit for bit, on the main thread and on a fresh one (whose
 * thread-local counter is new). The scan itself asks for
 * min(hardware threads, 8) participants, so on a small host the early steps
 * already run with that many; the later ones add idle workers that must
 * not change a bit either.
 */
TEST(OracleThreadInvariance, GrowingPoolKeepsEveryFieldBitwise)
{
    RuntimeOracle oracle(MachineConfig::intel24());
    for (u32 workers : {0u, 1u, 3u, 7u}) {
        globalPool().ensureWorkers(workers);
        for (const Golden& g : kGolden) {
            if (goldenInput(g.input).nnz() < (1u << 16))
                continue;
            SCOPED_TRACE(std::to_string(globalPool().workers()) +
                         " workers: " + g.scheduleKey);
            expectGolden(measureGolden(oracle, g), g);
            Measurement fresh;
            std::thread t([&] { fresh = measureGolden(oracle, g); });
            t.join();
            expectGolden(fresh, g);
        }
    }
}

} // namespace
} // namespace waco
