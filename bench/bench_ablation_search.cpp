/**
 * @file
 * Ablation (DESIGN.md §5): the cost-directed KNN-graph walk (ANNS) vs
 * exhaustively scoring every graph node with the predictor head vs picking
 * random nodes. Measures result quality (measured runtime of the winner
 * after top-k re-measurement) and the number of predictor evaluations —
 * ANNS should match exhaustive quality while touching a fraction of the
 * nodes, which is the entire point of Section 4.2.
 */
#include <cstdio>

#include "common.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace waco;
using namespace waco::bench;

int
main()
{
    setLogLevel(LogLevel::Warn);
    Timer total;
    printHeader("Ablation: search", "ANNS graph walk vs exhaustive scoring "
                                    "vs random retrieval (SpMM)");

    auto tuner = makeTrainedTuner(Algorithm::SpMM, MachineConfig::intel24());
    const auto& nodes = tuner->graphSchedules();
    const RuntimeOracle& oracle = tuner->oracle();

    std::vector<double> anns_q, exh_q, rand_q;
    u64 anns_evals = 0;
    Rng rng(3001);
    auto tests = testMatrices(12, 3002);
    for (const auto& m : tests) {
        auto shape = ProblemShape::forMatrix(Algorithm::SpMM, m.rows(),
                                             m.cols());
        auto measure_best = [&](const std::vector<const SuperSchedule*>& top) {
            double best = std::numeric_limits<double>::infinity();
            for (const auto* s : top) {
                auto r = oracle.measure(m, shape, *s);
                if (r.valid)
                    best = std::min(best, r.seconds);
            }
            return best;
        };

        // ANNS (the production path).
        auto outcome = tuner->tune(m);
        anns_evals += outcome.costEvaluations;
        anns_q.push_back(outcome.bestMeasured.seconds);

        // Exhaustive: score every node, take top-10.
        auto feature = tuner->model().extractFeature(m);
        auto pred = tuner->model().predict(feature, nodes);
        std::vector<u32> order(nodes.size());
        for (u32 i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
            return pred.at(a, 0) < pred.at(b, 0);
        });
        std::vector<const SuperSchedule*> top;
        for (u32 i = 0; i < std::min<u32>(10, static_cast<u32>(order.size()));
             ++i)
            top.push_back(&nodes[order[i]]);
        exh_q.push_back(measure_best(top));

        // Random 10 nodes.
        std::vector<const SuperSchedule*> rnd;
        for (int i = 0; i < 10; ++i)
            rnd.push_back(&nodes[rng.index(nodes.size())]);
        rand_q.push_back(measure_best(rnd));
    }

    // Quality relative to exhaustive scoring (1.0 = identical).
    std::vector<double> anns_rel, rand_rel;
    for (std::size_t i = 0; i < anns_q.size(); ++i) {
        anns_rel.push_back(anns_q[i] / exh_q[i]);
        rand_rel.push_back(rand_q[i] / exh_q[i]);
    }
    printRow({"Strategy", "evals/query", "runtime vs exhaustive"},
             {22, 14, 22});
    printRow({"Exhaustive head", std::to_string(nodes.size()), "1.00x"},
             {22, 14, 22});
    printRow({"ANNS (WACO)",
              std::to_string(anns_evals / tests.size()),
              speedupCell(geomean(anns_rel))},
             {22, 14, 22});
    printRow({"Random 10", "10", speedupCell(geomean(rand_rel))},
             {22, 14, 22});
    std::printf("\n(Expected: ANNS ~1.0x of exhaustive quality with far "
                "fewer evaluations; random retrieval is clearly worse.)\n");
    std::printf("[bench completed in %.1fs]\n", total.seconds());
    return 0;
}
