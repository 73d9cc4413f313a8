#include "core/waco_tuner.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>

#include "analysis/asymptotic_cost.hpp"
#include "analysis/schedule_verifier.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace waco {

WacoTuner::WacoTuner(Algorithm alg, MachineConfig machine, WacoOptions opt)
    : alg_(alg), oracle_(std::move(machine)), opt_(std::move(opt))
{
    model_ = std::make_unique<WacoCostModel>(alg_, opt_.extractor,
                                             opt_.extractorConfig, opt_.seed);
    // Warm the persistent pool once up front: labeling and tuning issue
    // thousands of small oracle scans and kernel invocations, and the first
    // one should not pay worker-thread creation.
    globalPool().ensureWorkers(std::min(hardwareThreads() - 1, 8u));
}

template <typename Input>
std::vector<EpochStats>
WacoTuner::labelAndFit(const std::vector<Input>& corpus)
{
    logInfo("building " + algorithmName(alg_) + " dataset from " +
            std::to_string(corpus.size()) + " inputs");
    RobustMeasurer robust(backend(), opt_.retry);
    {
        WACO_SPAN("train.label");
        dataset_ = buildDataset(alg_, corpus, robust, opt_.schedulesPerMatrix,
                                opt_.seed);
    }
    return trainOnDataset(dataset_);
}

std::vector<EpochStats>
WacoTuner::train(const std::vector<SparseMatrix>& corpus)
{
    return labelAndFit(corpus);
}

std::vector<EpochStats>
WacoTuner::train(const std::vector<Sparse3Tensor>& corpus)
{
    return labelAndFit(corpus);
}

std::vector<EpochStats>
WacoTuner::trainOnDataset(const CostDataset& dataset)
{
    if (&dataset != &dataset_)
        dataset_ = dataset;
    std::vector<EpochStats> stats;
    {
        WACO_SPAN("train.fit");
        stats = trainCostModel(*model_, dataset_, opt_.train,
                               [&](const EpochStats& e) {
            LogLine(LogLevel::Info)
                << algorithmName(alg_) << " epoch " << e.epoch << " train "
                << e.trainLoss << " val " << e.valLoss << " acc "
                << e.valOrderAccuracy;
        });
    }
    buildGraph();
    return stats;
}

void
WacoTuner::attachDataset(const CostDataset& dataset)
{
    dataset_ = dataset;
    buildGraph();
}

void
WacoTuner::buildGraph()
{
    WACO_SPAN("train.build_graph");
    nodes_ = dataset_.allSchedules();
    // A node's legality depends only on its structure and its algorithm,
    // so it is decided once here and tune() trusts every node. The only
    // shape-dependent error left is a zero extent, which tune() rejects on
    // entry. Sampled schedules always pass; this guards datasets loaded
    // from disk, built by external tools, or labeled for another
    // algorithm.
    std::size_t kept = 0;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (nodes_[n].alg != alg_ ||
            analysis::verifySchedule(nodes_[n]).hasErrors()) {
            WACO_COUNT("analysis.rejected", 1);
            continue;
        }
        if (kept != n)
            nodes_[kept] = std::move(nodes_[n]);
        ++kept;
    }
    if (kept != nodes_.size()) {
        logWarn("dropped " + std::to_string(nodes_.size() - kept) +
                " malformed or other-algorithm schedules from the KNN graph");
        nodes_.resize(kept);
    }
    fatalIf(nodes_.empty(), "cannot build a KNN graph with no schedules");
    // Embed in chunks to bound peak memory.
    node_embeddings_ = nn::Mat(static_cast<u32>(nodes_.size()),
                               model_->embeddingDim());
    constexpr u32 kChunk = 256;
    for (u32 base = 0; base < nodes_.size(); base += kChunk) {
        u32 end = std::min<u32>(static_cast<u32>(nodes_.size()), base + kChunk);
        std::vector<SuperSchedule> chunk(nodes_.begin() + base,
                                         nodes_.begin() + end);
        nn::Mat emb = model_->programEmbeddings(chunk);
        for (u32 n = 0; n < emb.rows; ++n) {
            std::copy(emb.row(n), emb.row(n) + emb.cols,
                      node_embeddings_.row(base + n));
        }
    }
    graph_ = std::make_unique<Hnsw>(model_->embeddingDim(), opt_.hnswM,
                                    opt_.efConstruction, opt_.seed);
    for (u32 n = 0; n < node_embeddings_.rows; ++n)
        graph_->add(node_embeddings_.row(n));
    logInfo("KNN graph built over " + std::to_string(nodes_.size()) +
            " SuperSchedules");
}

TuneOutcome
WacoTuner::tune(const SparseInput& in, const TuneControl& ctl)
{
    fatalIf(!graph_, "WacoTuner::tune called before train()");
    WACO_SPAN("tune");
    WACO_COUNT("tune.calls", 1);
    // Reject a zero extent before any work: it is the one shape-dependent
    // reason no graph node could run on this input.
    const ProblemShape shape = ProblemShape::forInput(alg_, in);
    const std::string zero = zeroExtentError(shape);
    fatalIf(!zero.empty(), zero);
    RobustMeasurer robust(backend(), opt_.retry);
    TuneOutcome out;

    // Cooperative cancellation poll: token (deadline or client cancel)
    // ORed with the test-injectable hook.
    auto stop = [&ctl] {
        return (ctl.cancel && ctl.cancel->stopRequested()) ||
               (ctl.stopHook && ctl.stopHook());
    };
    if (stop())
        throw CancelledError("tune cancelled before feature extraction");

    // Phase 1 (Fig 16b): run the feature extractor once for this input.
    Timer feature_timer;
    nn::Mat feature;
    {
        WACO_SPAN("tune.extract");
        feature = model_->extractFeature(in);
    }
    out.featureSeconds = feature_timer.seconds();
    // An expired deadline here means no candidate exists yet: nothing to
    // degrade to except the caller's own default-schedule rung.
    if (stop())
        throw CancelledError("tune cancelled after feature extraction");

    // Phase 2: ANNS over the KNN graph; only the predictor head runs. The
    // feature's first-layer partial product is hoisted once per query, and
    // every frontier expansion scores its whole neighbor set through one
    // batched GEMM against the precomputed node embeddings.
    Timer search_timer;
    std::vector<HnswHit> hits;
    {
        WACO_SPAN("tune.search");
        auto query = model_->beginQuery(feature);
        Hnsw::BatchScoreFn score = [&](const u32* ids, u32 count,
                                       double* dst) {
            nn::Mat pred = model_->scoreEmbeddings(query, node_embeddings_,
                                                   ids, count);
            for (u32 i = 0; i < count; ++i)
                dst[i] = static_cast<double>(pred.at(i, 0));
        };
        hits = graph_->searchGenericBatched(
            score, opt_.topK, std::max(opt_.efSearch, opt_.topK),
            &out.costEvaluations, stop);
    }
    out.searchSeconds = search_timer.seconds();
    WACO_COUNT("tune.cost_evals", out.costEvaluations);
    if (stop()) {
        // The walk returned a truncated (but valid) candidate prefix.
        out.truncated = true;
        WACO_COUNT("tune.truncated", 1);
    }
    if (hits.empty())
        throw CancelledError("tune cancelled before any candidate scored");

    // Model-only selection: the best hit by predicted cost, reported
    // unmeasured. Used by the skipMeasure rung (circuit breaker open) and
    // as the last in-tuner rung when a deadline expires before any
    // candidate measured validly.
    auto pick_by_model = [&]() {
        out.modelOnly = true;
        WACO_COUNT("tune.model_only", 1);
        out.best = nodes_[hits[0].id];
        out.bestMeasured = Measurement{};
        out.bestMeasured.seconds = hits[0].dist; // predicted, not measured
        out.bestMeasured.valid = false;
        out.bestMeasured.invalidReason = "model-only";
    };

    if (ctl.skipMeasure) {
        pick_by_model();
        out.convertSeconds = oracle_.conversionSeconds(
            in.nnz(), out.bestMeasured.storedValues);
        return out;
    }

    // Stage 0: drop hits that an already-kept EARLIER hit asymptotically
    // prunes (analysis::paretoFilter), before any of them reaches the
    // backend. pruner[i] names the kept hit that prunes hit i, if any.
    std::vector<std::optional<std::size_t>> pruner;
    {
        WACO_SPAN("tune.asym_filter");
        std::vector<analysis::AsymptoticBounds> profiles;
        profiles.reserve(hits.size());
        for (const HnswHit& h : hits)
            profiles.push_back(analysis::asymptoticBounds(nodes_[h.id], shape));
        pruner = analysis::paretoFilter(profiles);
        for (std::size_t j = 0; j < hits.size(); ++j) {
            if (!pruner[j]) {
                ++out.asymKept;
                WACO_COUNT("analysis.asym_kept", 1);
                continue;
            }
            logDebug("asym filter dropped candidate: " +
                     analysis::explainDomination(profiles[*pruner[j]],
                                                 profiles[j]));
            ++out.asymRejected;
            WACO_COUNT("analysis.asym_rejected", 1);
        }
    }

    // Phase 3: re-measure the top-k on the "hardware" and keep the fastest
    // (the paper's Section 5.2 protocol).
    Timer measure_timer;
    {
        WACO_SPAN("tune.measure");
        double best = std::numeric_limits<double>::infinity();
        // Canonical-key cache: measurement-equivalent candidates (identical
        // up to degenerate-slot bookkeeping) measure once and reuse the
        // result. Safe because lower() and the oracle only see the active
        // orders, which canonicalization preserves exactly.
        std::unordered_map<std::string, Measurement> measured;
        for (std::size_t i = 0; i < hits.size(); ++i) {
            if (pruner[i])
                continue;
            // Between-measurement cancellation point: keep whatever top-k
            // prefix is already measured instead of hogging the backend
            // past the deadline.
            if (stop()) {
                out.truncated = true;
                WACO_COUNT("tune.truncated_measure", 1);
                break;
            }
            const SuperSchedule& s = nodes_[hits[i].id];
            std::string ck = analysis::canonicalKey(s);
            if (ck != s.key()) {
                ++out.candidatesCanonicalized;
                WACO_COUNT("analysis.canonicalized", 1);
            }
            Measurement m;
            auto it = measured.find(ck);
            if (it != measured.end()) {
                ++out.measurementsReused;
                WACO_COUNT("analysis.measurements_reused", 1);
                m = it->second;
            } else {
                m = robust.measure(in, shape, s);
                measured.emplace(std::move(ck), m);
            }
            out.topK.push_back(s);
            out.topKMeasured.push_back(m);
            if (m.valid && m.seconds < best) {
                best = m.seconds;
                out.best = s;
                out.bestMeasured = m;
            }
        }
        out.remeasureSeconds = measure_timer.seconds();
        if (!std::isfinite(best)) {
            if (stop()) {
                // The deadline expired before any candidate measured
                // validly; measuring more (even the default) would blow
                // further past it. Fall down to the model-score rung.
                pick_by_model();
            } else {
                // Every candidate came back invalid or faulted: degrade to
                // the known-safe CSR-row-parallel default rather than
                // returning an invalid winner.
                out.fellBack = true;
                WACO_COUNT("tune.fallbacks", 1);
                out.best = defaultSchedule(shape);
                out.bestMeasured = robust.measure(in, shape, out.best);
                logWarn("all top-" + std::to_string(out.topK.size()) +
                        " remeasurements invalid; falling back to the "
                        "default CSR schedule");
            }
        }
    }
    out.convertSeconds = oracle_.conversionSeconds(
        in.nnz(), out.bestMeasured.storedValues);
    out.remeasureStats = robust.stats();
    return out;
}

} // namespace waco
