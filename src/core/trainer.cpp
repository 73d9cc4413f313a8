#include "core/trainer.hpp"

#include <cmath>
#include <limits>

#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace waco {

namespace {

/** Draw a batch of (schedule, runtime) pairs from an entry. */
void
drawBatch(const DatasetEntry& e, u32 batch, Rng& rng,
          std::vector<SuperSchedule>& schedules, std::vector<double>& runtimes)
{
    schedules.clear();
    runtimes.clear();
    u32 n = std::min<u32>(batch, static_cast<u32>(e.samples.size()));
    auto perm = rng.permutation(static_cast<u32>(e.samples.size()));
    for (u32 i = 0; i < n; ++i) {
        schedules.push_back(e.samples[perm[i]].schedule);
        runtimes.push_back(e.samples[perm[i]].runtime);
    }
}

} // namespace

std::vector<EpochStats>
trainCostModel(WacoCostModel& model, const CostDataset& dataset,
               const TrainOptions& opt,
               const std::function<void(const EpochStats&)>& on_epoch)
{
    Rng rng(opt.seed);
    std::vector<EpochStats> history;
    std::vector<SuperSchedule> schedules;
    std::vector<double> runtimes;

    // Best-epoch tracking for checkpointing and divergence rollback. The
    // in-memory snapshot is authoritative; checkpointPath additionally
    // persists it through nn::saveParams so interrupted runs can reload.
    double best_metric = std::numeric_limits<double>::infinity();
    std::vector<std::vector<float>> best_params;

    auto rollback = [&] {
        if (best_params.empty())
            return;
        if (!opt.checkpointPath.empty())
            model.load(opt.checkpointPath);
        else
            model.restoreParams(best_params);
    };

    for (u32 epoch = 0; epoch < opt.epochs; ++epoch) {
        WACO_SPAN("train.epoch");
        Timer timer;
        EpochStats stats;
        stats.epoch = epoch;

        auto order = dataset.trainIds;
        rng.shuffle(order);
        double train_loss = 0.0;
        for (u32 id : order) {
            drawBatch(dataset.entries[id], opt.batchSchedules, rng, schedules,
                      runtimes);
            auto step = model.trainStepGuarded(dataset.entries[id].input(),
                                               schedules, runtimes, opt.useL2,
                                               opt.clipNorm);
            if (step.applied) {
                train_loss += step.loss;
            } else {
                ++stats.skippedSteps;
                logWarn("skipping non-finite training step (matrix " +
                        dataset.entries[id].name + ", epoch " +
                        std::to_string(epoch) + ")");
            }
        }
        u32 applied = static_cast<u32>(order.size()) - stats.skippedSteps;
        stats.trainLoss = applied == 0 ? 0.0 : train_loss / applied;
        WACO_COUNT("train.steps", applied);
        WACO_COUNT("train.skipped_steps", stats.skippedSteps);

        double val_loss = 0.0, val_acc = 0.0;
        Rng val_rng(opt.seed + 1); // fixed batches across epochs
        for (u32 id : dataset.valIds) {
            drawBatch(dataset.entries[id], opt.batchSchedules, val_rng,
                      schedules, runtimes);
            val_loss += model.evalLoss(dataset.entries[id].input(), schedules,
                                       runtimes, opt.useL2);
            val_acc += model.evalOrderAccuracy(dataset.entries[id].input(),
                                               schedules, runtimes);
        }
        if (!dataset.valIds.empty()) {
            val_loss /= dataset.valIds.size();
            val_acc /= dataset.valIds.size();
        }
        stats.valLoss = val_loss;
        stats.valOrderAccuracy = val_acc;
        WACO_GAUGE("train.loss", stats.trainLoss);
        WACO_GAUGE("train.val_loss", stats.valLoss);
        WACO_GAUGE("train.val_order_accuracy", stats.valOrderAccuracy);

        // Val loss is the checkpoint metric; fall back to train loss for
        // datasets too small to hold out a validation split.
        double metric = dataset.valIds.empty() ? stats.trainLoss : val_loss;
        bool diverged =
            !std::isfinite(metric) ||
            (opt.divergeFactor > 0.0 && std::isfinite(best_metric) &&
             metric > opt.divergeFactor * best_metric);
        if (!diverged && metric <= best_metric) {
            best_metric = metric;
            best_params = model.snapshotParams();
            if (!opt.checkpointPath.empty())
                model.save(opt.checkpointPath);
        }

        stats.seconds = timer.seconds();
        if (diverged && opt.divergeFactor > 0.0) {
            stats.rolledBack = true;
            WACO_COUNT("train.rollbacks", 1);
            logWarn("divergence at epoch " + std::to_string(epoch) +
                    " (val loss " + std::to_string(val_loss) +
                    "); rolling back to best checkpoint");
            rollback();
            history.push_back(stats);
            if (on_epoch)
                on_epoch(stats);
            break;
        }
        history.push_back(stats);
        if (on_epoch)
            on_epoch(stats);
    }
    if (opt.restoreBest && !history.empty() && !history.back().rolledBack)
        rollback();
    return history;
}

} // namespace waco
