/**
 * @file
 * Golden decisions of WacoTuner::tune. Seeded tuners (an oracle-labeled
 * dataset attached to the untrained model, as the A/B tests build them)
 * tune one fixed input per algorithm, and every decision field of the
 * outcome is pinned: the winner's key, its measured seconds as a hex float,
 * the ordered top-k keys with their measurements, and every counter,
 * including the remeasurement's retry statistics. Wall-clock fields
 * (feature/search/remeasure seconds) are not decisions and are left out.
 *
 * Beside the full pipeline, each algorithm runs the degraded rungs:
 * skipMeasure (model-only), a dead FaultyOracle (fallback to the default
 * schedule), and a stopHook firing at a fixed poll: at the measurement
 * loop's first poll (nothing measured, so the model-only rung after a
 * deadline) and at its third (truncated after two candidates). A refactor
 * of the candidate pipeline must leave every line here unchanged.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "core/waco_tuner.hpp"
#include "data/generators.hpp"
#include "perfmodel/faulty_oracle.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace waco {
namespace {

std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** FNV-1a over the ordered top-k keys and their measurements. */
u64
topKDigest(const TuneOutcome& o)
{
    std::string all;
    for (std::size_t i = 0; i < o.topK.size(); ++i) {
        const Measurement& m = o.topKMeasured[i];
        all += o.topK[i].key() + " " + hexFloat(m.seconds) + " " +
               (m.valid ? "valid" : m.invalidReason) + "\n";
    }
    return fnv1a64(all.data(), all.size());
}

/** Every decision field of @p o on one line. */
std::string
decisions(const TuneOutcome& o)
{
    const MeasureStats& st = o.remeasureStats;
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(topKDigest(o)));
    return "best=" + o.best.key() +
           " seconds=" + hexFloat(o.bestMeasured.seconds) +
           " valid=" + std::to_string(o.bestMeasured.valid) +
           " reason=" + o.bestMeasured.invalidReason +
           " convert=" + hexFloat(o.convertSeconds) +
           " topK=" + std::to_string(o.topK.size()) + ":" + digest +
           " evals=" + std::to_string(o.costEvaluations) +
           " canonicalized=" + std::to_string(o.candidatesCanonicalized) +
           " reused=" + std::to_string(o.measurementsReused) +
           " asym=" + std::to_string(o.asymKept) + "/" +
           std::to_string(o.asymRejected) +
           " flags=" + std::to_string(o.fellBack) +
           std::to_string(o.truncated) + std::to_string(o.modelOnly) +
           " stats=" + std::to_string(st.calls) + "/" +
           std::to_string(st.attempts) + "/" + std::to_string(st.retries) +
           "/" + std::to_string(st.faults) + "/" +
           std::to_string(st.invalid) + "/" + std::to_string(st.timeouts) +
           "/" + std::to_string(st.discarded);
}

/** Expected decision lines of one algorithm, one per rung. */
struct Golden
{
    Algorithm alg;
    /** The stopHook poll the measurement loop makes first (an uncut run
     *  polls before extraction, after it, at every frontier step of the
     *  walk and after the walk, then once per candidate). */
    u64 firstMeasurePoll;
    const char* full;
    const char* modelOnly;
    const char* fallback;
    const char* deadline;
    const char* cut;
};

/** Names a table row in test output by its algorithm. */
void
PrintTo(const Golden& g, std::ostream* os)
{
    *os << algorithmName(g.alg);
}

/** Decisions of a tune cut short by a stopHook firing at poll @p stopAt. */
std::string
cutAt(WacoTuner& tuner, const SparseInput& in, u64 stopAt)
{
    u64 polls = 0;
    TuneControl ctl;
    ctl.stopHook = [&polls, stopAt] { return ++polls >= stopAt; };
    return decisions(tuner.tune(in, ctl));
}

class TunerGolden : public ::testing::TestWithParam<Golden>
{
  protected:
    void SetUp() override { setLogLevel(LogLevel::Off); }
    void TearDown() override { setLogLevel(LogLevel::Info); }
};

TEST_P(TunerGolden, DecisionsArePinned)
{
    const Golden& g = GetParam();
    const bool threeD = algorithmInfo(g.alg).sparseOrder == 3;

    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 4;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = 10;
    opt.topK = 16;
    WacoTuner tuner(g.alg, MachineConfig::intel24(), opt);

    CorpusOptions copt;
    copt.count = 3;
    copt.minDim = 192;
    copt.maxDim = 320;
    copt.minNnz = 800;
    copt.maxNnz = 2500;
    const u64 seed = 0x601D + static_cast<u64>(g.alg);
    tuner.attachDataset(
        threeD ? buildDataset(g.alg, makeCorpus3d(copt, seed),
                              tuner.oracle(), opt.schedulesPerMatrix,
                              seed + 1)
               : buildDataset(g.alg, makeCorpus(copt, seed), tuner.oracle(),
                              opt.schedulesPerMatrix, seed + 1));

    Rng rng(seed + 2);
    SparseMatrix m;
    Sparse3Tensor t;
    if (threeD)
        t = genTensor3(200, 160, 120, 3000, rng);
    else
        m = genUniform(256, 256, 2000, rng);
    const SparseInput in = threeD ? SparseInput(t) : SparseInput(m);

    EXPECT_EQ(decisions(tuner.tune(in)), g.full);

    TuneControl modelOnly;
    modelOnly.skipMeasure = true;
    EXPECT_EQ(decisions(tuner.tune(in, modelOnly)), g.modelOnly);

    FaultConfig cfg;
    cfg.failProb = 1.0;
    FaultyOracle dead(tuner.oracle(), cfg);
    tuner.setMeasurementBackend(dead);
    EXPECT_EQ(decisions(tuner.tune(in)), g.fallback);
    tuner.setMeasurementBackend(tuner.oracle());

    EXPECT_EQ(cutAt(tuner, in, g.firstMeasurePoll), g.deadline);
    EXPECT_EQ(cutAt(tuner, in, g.firstMeasurePoll + 2), g.cut);
}

const Golden kGolden[] = {
    {Algorithm::SpMV, 45,
     "best=SpMV|s=1,1|lo=0,1,2,3|p=0:48:16|slo=0,1,2,3|lf=UUCC|dl=rr "
     "seconds=0x1.1d9e67ceb062cp-17 valid=1 reason= "
     "convert=0x1.2d34a62aa12b4p-15 topK=14:15a50fdf20d52a50 evals=47 "
     "canonicalized=7 reused=0 asym=14/2 flags=000 "
     "stats=14/14/0/0/0/0/0",
     "best=SpMV|s=8,1|lo=3,2,1,0|p=0:24:32|slo=0,1,3,2|lf=CUCC|dl=cc "
     "seconds=-0x1.c753d4p-4 valid=0 reason=model-only "
     "convert=0x1.2009f570e834p-15 topK=0:cbf29ce484222325 evals=47 "
     "canonicalized=0 reused=0 asym=0/0 flags=001 "
     "stats=0/0/0/0/0/0/0",
     "best=SpMV|s=1,1|lo=0,1,2,3|p=0:48:128|slo=0,1,2,3|lf=UUCC|dl=rr "
     "seconds=inf valid=0 reason=injected transient measurement failure "
     "convert=0x1.2009f570e834p-15 topK=14:7036b971af4e707a evals=47 "
     "canonicalized=7 reused=0 asym=14/2 flags=100 "
     "stats=15/45/30/21/24/0/15",
     "best=SpMV|s=8,1|lo=3,2,1,0|p=0:24:32|slo=0,1,3,2|lf=CUCC|dl=cc "
     "seconds=-0x1.c753d4p-4 valid=0 reason=model-only "
     "convert=0x1.2009f570e834p-15 topK=0:cbf29ce484222325 evals=47 "
     "canonicalized=0 reused=0 asym=14/2 flags=011 "
     "stats=0/0/0/0/0/0/0",
     "best=SpMV|s=64,256|lo=2,3,1,0|p=1:24:16|slo=3,1,2,0|lf=CUCU|dl=rr "
     "seconds=0x1.27b6b91fed0b9p-7 valid=1 reason= "
     "convert=0x1.5265bb8b0072ap-15 topK=2:faa59f690762f6a5 evals=47 "
     "canonicalized=1 reused=0 asym=14/2 flags=010 "
     "stats=2/2/0/0/0/0/0"},
    {Algorithm::SpMM, 45,
     "best=SpMM|s=1,1,1|lo=0,1,2,3,4,5|p=0:48:4|slo=0,1,2,3|lf=UUCC|dl=rr "
     "seconds=0x1.1154461b286aep-16 valid=1 reason= "
     "convert=0x1.2f7437adfe438p-15 topK=11:a1946fecfaeb2164 evals=47 "
     "canonicalized=7 reused=0 asym=11/5 flags=000 "
     "stats=11/11/0/0/0/0/0",
     "best=SpMM|s=64,64,256|lo=1,3,2,0,4,5|p=4:48:64|slo=0,2,1,3|lf=UUUU|dl=rr "
     "seconds=-0x1.6c8ddp-4 valid=0 reason=model-only "
     "convert=0x1.2233317e644cfp-15 topK=0:cbf29ce484222325 evals=47 "
     "canonicalized=0 reused=0 asym=0/0 flags=001 "
     "stats=0/0/0/0/0/0/0",
     "best=SpMM|s=1,1,1|lo=0,1,2,3,4,5|p=0:48:32|slo=0,1,2,3|lf=UUCC|dl=rr "
     "seconds=inf valid=0 reason=transient convert=0x1.2233317e644cfp-15 "
     "topK=11:99f787a5ee70e292 evals=47 canonicalized=7 reused=0 "
     "asym=11/5 flags=100 stats=12/36/24/17/19/0/12",
     "best=SpMM|s=64,64,256|lo=1,3,2,0,4,5|p=4:48:64|slo=0,2,1,3|lf=UUUU|dl=rr "
     "seconds=-0x1.6c8ddp-4 valid=0 reason=model-only "
     "convert=0x1.2233317e644cfp-15 topK=0:cbf29ce484222325 evals=47 "
     "canonicalized=0 reused=0 asym=11/5 flags=011 "
     "stats=0/0/0/0/0/0/0",
     "best=SpMM|s=1,128,8|lo=2,5,0,1,3,4|p=0:24:64|slo=2,1,0,3|lf=UUCU|dl=rr "
     "seconds=0x1.655f20250d172p-11 valid=1 reason= "
     "convert=0x1.6adad610eb398p-14 topK=2:834fefffecf6e0b2 evals=47 "
     "canonicalized=1 reused=0 asym=11/5 flags=010 "
     "stats=2/2/0/0/0/0/0"},
    {Algorithm::SDDMM, 45,
     "best=SDDMM|s=1,1,1|lo=0,1,2,3,4,5|p=0:48:4|slo=0,1,2,3|lf=UUCC|dl=rcr "
     "seconds=0x1.392fec511bdbep-16 valid=1 reason= "
     "convert=0x1.2e3e3e3fbe2b2p-15 topK=12:9afb4f870f187f4b evals=45 "
     "canonicalized=6 reused=0 asym=12/4 flags=000 "
     "stats=12/12/0/0/0/0/0",
     "best=SDDMM|s=4,128,32|lo=3,4,5,0,2,1|p=3:24:256|slo=1,2,0,3|lf=CUUU|"
     "dl=rcr "
     "seconds=-0x1.6d23acp-4 valid=0 reason=model-only "
     "convert=0x1.21093eb21383p-15 topK=0:cbf29ce484222325 evals=45 "
     "canonicalized=0 reused=0 asym=0/0 flags=001 "
     "stats=0/0/0/0/0/0/0",
     "best=SDDMM|s=1,1,1|lo=0,1,2,3,4,5|p=0:48:32|slo=0,1,2,3|lf=UUCC|dl=rcr "
     "seconds=inf valid=0 reason=transient convert=0x1.21093eb21383p-15 "
     "topK=12:af7f42ad4d86f773 evals=45 canonicalized=6 reused=0 "
     "asym=12/4 flags=100 stats=13/39/26/18/21/0/13",
     "best=SDDMM|s=4,128,32|lo=3,4,5,0,2,1|p=3:24:256|slo=1,2,0,3|lf=CUUU|"
     "dl=rcr "
     "seconds=-0x1.6d23acp-4 valid=0 reason=model-only "
     "convert=0x1.21093eb21383p-15 topK=0:cbf29ce484222325 evals=45 "
     "canonicalized=0 reused=0 asym=12/4 flags=011 "
     "stats=0/0/0/0/0/0/0",
     "best=SDDMM|s=4,128,32|lo=3,4,5,0,2,1|p=3:24:256|slo=1,2,0,3|lf=CUUU|"
     "dl=rcr "
     "seconds=0x1.f0736dfa1ed78p-5 valid=1 reason= "
     "convert=0x1.6c6b9e27c7af6p-14 topK=2:1aa945a13df05c85 evals=45 "
     "canonicalized=0 reused=0 asym=12/4 flags=010 "
     "stats=2/2/0/0/0/0/0"},
    {Algorithm::MTTKRP, 40,
     "best=MTTKRP|s=16,16,16,1|lo=6,2,0,4,5,3,7,1|p=0:24:16|slo=2,0,4,5,3,1|"
     "lf=UUUCUC|dl=rrr "
     "seconds=0x1.6ad60571aee18p-10 valid=1 reason= "
     "convert=0x1.4389316fce92ap-14 topK=15:fd327854c6da70a2 evals=36 "
     "canonicalized=6 reused=0 asym=15/1 flags=000 "
     "stats=15/15/0/0/0/0/0",
     "best=MTTKRP|s=32,16,8,2|lo=7,6,3,0,2,4,1,5|p=1:24:64|slo=0,3,4,2,5,1|"
     "lf=UUCCUC|dl=rrr "
     "seconds=-0x1.0d462ap-6 valid=0 reason=model-only "
     "convert=0x1.36837082e2555p-14 topK=0:cbf29ce484222325 evals=36 "
     "canonicalized=0 reused=0 asym=0/0 flags=001 "
     "stats=0/0/0/0/0/0/0",
     "best=MTTKRP|s=1,1,1,1|lo=0,1,2,3,4,5,6,7|p=0:48:32|slo=0,1,2,3,4,5|"
     "lf=CCCCCC|dl=rrr "
     "seconds=inf valid=0 reason=injected transient measurement failure "
     "convert=0x1.36837082e2555p-14 topK=15:ac3b6b29478336bb evals=36 "
     "canonicalized=6 reused=0 asym=15/1 flags=100 "
     "stats=16/48/32/22/26/0/16",
     "best=MTTKRP|s=32,16,8,2|lo=7,6,3,0,2,4,1,5|p=1:24:64|slo=0,3,4,2,5,1|"
     "lf=UUCCUC|dl=rrr "
     "seconds=-0x1.0d462ap-6 valid=0 reason=model-only "
     "convert=0x1.36837082e2555p-14 topK=0:cbf29ce484222325 evals=36 "
     "canonicalized=0 reused=0 asym=15/1 flags=011 "
     "stats=0/0/0/0/0/0/0",
     "best=MTTKRP|s=32,32,32,4|lo=5,7,2,4,1,6,0,3|p=1:24:8|slo=0,3,5,4,1,2|"
     "lf=UUCUUC|dl=rrr "
     "seconds=0x1.cad397d747df7p-3 valid=1 reason= "
     "convert=0x1.4389316fce92ap-14 topK=2:7c1204dd4286d743 evals=36 "
     "canonicalized=0 reused=0 asym=15/1 flags=010 "
     "stats=2/2/0/0/0/0/0"},
    {Algorithm::FusedSDDMMSpMM, 45,
     "best=FusedSDDMMSpMM|s=1,32,1,1|lo=0,1,2,3,4,5,6,7|p=0:48:32|"
     "slo=2,0,1,3|lf=UUCC|dl=rcrr "
     "seconds=0x1.bdf4f0599f9d9p-15 valid=1 reason= "
     "convert=0x1.2e96cb704544bp-15 topK=11:3c40b1646cb00711 evals=47 "
     "canonicalized=6 reused=0 asym=11/5 flags=000 "
     "stats=11/11/0/0/0/0/0",
     "best=FusedSDDMMSpMM|s=8,8,64,8|lo=1,0,5,3,6,4,2,7|p=6:24:256|"
     "slo=1,3,0,2|lf=CUCU|dl=rcrr "
     "seconds=-0x1.d1f48cp-7 valid=0 reason=model-only "
     "convert=0x1.215e5c469f619p-15 topK=0:cbf29ce484222325 evals=47 "
     "canonicalized=0 reused=0 asym=0/0 flags=001 "
     "stats=0/0/0/0/0/0/0",
     "best=FusedSDDMMSpMM|s=1,1,1,1|lo=0,1,2,3,4,5,6,7|p=0:48:32|"
     "slo=0,1,2,3|lf=UUCC|dl=rcrr "
     "seconds=inf valid=0 reason=transient convert=0x1.215e5c469f619p-15 "
     "topK=11:3d474a13dcf56b9a evals=47 canonicalized=6 reused=0 "
     "asym=11/5 flags=100 stats=12/36/24/17/19/0/12",
     "best=FusedSDDMMSpMM|s=8,8,64,8|lo=1,0,5,3,6,4,2,7|p=6:24:256|"
     "slo=1,3,0,2|lf=CUCU|dl=rcrr "
     "seconds=-0x1.d1f48cp-7 valid=0 reason=model-only "
     "convert=0x1.215e5c469f619p-15 topK=0:cbf29ce484222325 evals=47 "
     "canonicalized=0 reused=0 asym=11/5 flags=011 "
     "stats=0/0/0/0/0/0/0",
     "best=FusedSDDMMSpMM|s=8,8,64,8|lo=1,0,5,3,6,4,2,7|p=6:24:256|"
     "slo=1,3,0,2|lf=CUCU|dl=rcrr "
     "seconds=0x1.940c42d687c65p+5 valid=1 reason= "
     "convert=0x1.1a041084ac8dbp-14 topK=2:2b90af285e02bd26 evals=47 "
     "canonicalized=1 reused=0 asym=11/5 flags=010 "
     "stats=2/2/0/0/0/0/0"},
};

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, TunerGolden,
                         ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                             return algorithmName(info.param.alg);
                         });

} // namespace
} // namespace waco
