/**
 * @file
 * Ablation (DESIGN.md §5): pairwise ranking loss vs L2 regression loss for
 * the cost model (Section 4.1.3 argues the model only needs the *ranking*
 * of SuperSchedules, not absolute runtimes).
 *
 * Both models share the dataset, architecture and seed; we compare
 * validation ranking accuracy and top-1 regret (how much slower the
 * model's predicted-best schedule is than the true best in the batch).
 */
#include <cstdio>

#include "common.hpp"
#include "core/trainer.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace waco;
using namespace waco::bench;

namespace {

/** Mean top-1 regret over validation entries: runtime(predicted best) /
 *  runtime(true best) within each entry's labeled schedules. */
double
topOneRegret(WacoCostModel& model, const CostDataset& ds)
{
    std::vector<double> regret;
    for (u32 id : ds.valIds) {
        const auto& e = ds.entries[id];
        std::vector<SuperSchedule> scheds;
        std::vector<double> times;
        for (const auto& s : e.samples) {
            scheds.push_back(s.schedule);
            times.push_back(s.runtime);
        }
        auto feature = model.extractFeature(e.input());
        auto pred = model.predict(feature, scheds);
        u32 best_pred = 0;
        for (u32 n = 1; n < pred.rows; ++n) {
            if (pred.at(n, 0) < pred.at(best_pred, 0))
                best_pred = n;
        }
        double truth_best = *std::min_element(times.begin(), times.end());
        regret.push_back(times[best_pred] / truth_best);
    }
    return geomean(regret);
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Warn);
    Timer total;
    printHeader("Ablation: loss", "Pairwise hinge ranking loss vs L2 "
                                  "log-runtime regression (SpMV)");

    CorpusOptions copt;
    copt.count = 14;
    copt.minDim = 512;
    copt.maxDim = 4096;
    copt.minNnz = 2000;
    copt.maxNnz = 12000;
    auto corpus = makeCorpus(copt, 2001);
    RuntimeOracle oracle(MachineConfig::intel24());
    auto ds = buildDataset(Algorithm::SpMV, corpus, oracle, 24, 2002);

    ExtractorConfig cfg;
    cfg.channels = 16;
    cfg.numLayers = 8;
    cfg.featureDim = 64;

    printRow({"Loss", "val rank-acc", "top-1 regret"}, {16, 14, 14});
    for (bool use_l2 : {false, true}) {
        WacoCostModel model(Algorithm::SpMV, "waconet", cfg, 2003);
        TrainOptions topt;
        topt.epochs = 10;
        topt.batchSchedules = 14;
        topt.useL2 = use_l2;
        auto hist = trainCostModel(model, ds, topt);
        printRow({use_l2 ? "L2 (log-time)" : "Ranking (hinge)",
                  numCell(hist.back().valOrderAccuracy, 3),
                  speedupCell(topOneRegret(model, ds))},
                 {16, 14, 14});
    }
    std::printf("\n(Expected: the ranking loss orders schedules at least as "
                "well, which is what the search consumes.)\n");
    std::printf("[bench completed in %.1fs]\n", total.seconds());
    return 0;
}
