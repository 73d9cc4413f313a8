/**
 * @file
 * WacoTuner — the end-to-end system of Figure 1 and the library's main
 * public API.
 *
 *  (a) train(): label a corpus with the runtime oracle and fit the cost
 *      model (WACONet + program embedder + predictor, ranking loss).
 *  (b) buildGraph(): embed every training SuperSchedule and build the HNSW
 *      KNN graph over the program embeddings (l2 metric).
 *  (c) tune(): for a new matrix or 3-tensor, extract the sparsity feature
 *      once, walk the graph under the predicted-cost metric (ANNS),
 *      re-measure the top-k candidates on the "hardware" (oracle), and
 *      return the winner — exactly the paper's evaluation protocol
 *      (Section 5.2 reports the fastest of the top-10).
 *
 * Every stage takes the input as one SparseInput, so a matrix and a
 * 3-tensor run the same code from labeling to the top-k remeasurement.
 */
#pragma once

#include <functional>
#include <memory>

#include "annsearch/hnsw.hpp"
#include "core/dataset.hpp"
#include "core/trainer.hpp"
#include "model/waco_model.hpp"
#include "perfmodel/cost_model.hpp"
#include "perfmodel/robust_measure.hpp"
#include "util/cancel.hpp"

namespace waco {

/** Knobs for the whole pipeline (paper defaults, shrinkable for tests). */
struct WacoOptions
{
    std::string extractor = "waconet";
    ExtractorConfig extractorConfig = {};
    u32 schedulesPerMatrix = 40; ///< Paper samples 100 per matrix.
    TrainOptions train = {};
    u32 hnswM = 16;
    u32 efConstruction = 60;
    u32 efSearch = 40;
    /**
     * Candidates re-measured on the backend (Section 5.2). Every one is a
     * graph node, whose legality was decided when the graph was built.
     * tune() runs them through one pipeline: the stage-0 asymptotic
     * filter (analysis::paretoFilter) drops those an earlier kept
     * candidate prunes, and measurement-equivalent ones (same canonical
     * key: degenerate-slot permutations lower to the same nest) reuse the
     * first measurement. Neither changes which schedule wins — only how
     * many candidates are measured.
     */
    u32 topK = 10;
    u64 seed = 42;
    /** Retry/denoise policy for every measurement (labeling + top-k
     *  remeasurement). The default (1 sample, 3 attempts) is a no-op on a
     *  healthy backend; raise medianOf when the backend is noisy. */
    RetryPolicy retry = {};
};

/**
 * Per-call controls threaded through tune()'s extract/search/measure
 * phases. All default-constructed fields reproduce the uncontrolled
 * protocol exactly (same code path, bitwise-identical results).
 */
struct TuneControl
{
    /** Cooperative cancel/deadline token, polled at phase boundaries, HNSW
     *  frontier steps, and between top-k measurements. When it fires
     *  before any candidate exists, tune() throws CancelledError; once
     *  candidates exist, tune() degrades instead (truncated / modelOnly
     *  flags in the outcome). Null = never cancelled. */
    const CancelToken* cancel = nullptr;
    /** Extra stop predicate ORed with the token — lets tests fire a
     *  deterministic cancellation at the Nth checkpoint. */
    std::function<bool()> stopHook;
    /** Skip the measurement phase entirely and rank by model score alone
     *  (the service's circuit-breaker-open rung): the winner is the best
     *  hit by predicted cost, reported unmeasured with that cost. */
    bool skipMeasure = false;
};

/** Result of tuning one input. Every candidate in it is a KNN-graph
 *  node, legal by construction (see WacoTuner::attachDataset). */
struct TuneOutcome
{
    SuperSchedule best;
    Measurement bestMeasured;
    std::vector<SuperSchedule> topK;
    std::vector<Measurement> topKMeasured;

    double featureSeconds = 0.0;    ///< Feature-extractor part (Fig 16b).
    double searchSeconds = 0.0;     ///< ANNS walk part (Fig 16b).
    double remeasureSeconds = 0.0;  ///< Top-k validation on "hardware".
    double convertSeconds = 0.0;    ///< COO -> chosen format conversion.
    u64 costEvaluations = 0;        ///< Predictor-head calls during ANNS.

    /** Retry/fault/timeout counters of the top-k remeasurement pass. */
    MeasureStats remeasureStats;
    /** Top-k candidates whose canonical form differs from their raw form
     *  (degenerate-slot bookkeeping only; measurement-equivalent). */
    u64 candidatesCanonicalized = 0;
    /** Measurements served from a canonical-duplicate's earlier result
     *  instead of a fresh oracle call. */
    u64 measurementsReused = 0;
    /** Top-k candidates discarded unmeasured by the stage-0 asymptotic
     *  dominance filter. */
    u64 asymRejected = 0;
    /** Candidates that survived the stage-0 filter — the Pareto-kept set
     *  the measurement loop actually runs. */
    u64 asymKept = 0;
    /** True when every top-k candidate came back invalid or faulted and
     *  the tuner degraded to the CSR-row-parallel default schedule. */
    bool fellBack = false;
    /** True when cancellation truncated the search walk or the top-k
     *  measurement loop (the winner is valid but saw fewer candidates). */
    bool truncated = false;
    /** True when the winner was chosen by model score without measurement
     *  (TuneControl::skipMeasure, or a deadline that expired before any
     *  candidate measured validly). bestMeasured is then invalid with
     *  reason "model-only" and seconds = the predicted cost. */
    bool modelOnly = false;

    /** Total tuning overhead T_tuning of Section 5.6. */
    double
    tuningSeconds() const
    {
        return featureSeconds + searchSeconds + remeasureSeconds;
    }
};

/** Workload-aware co-optimizer for one algorithm on one machine. */
class WacoTuner
{
  public:
    WacoTuner(Algorithm alg, MachineConfig machine, WacoOptions opt = {});

    Algorithm algorithm() const { return alg_; }
    const RuntimeOracle& oracle() const { return oracle_; }
    WacoCostModel& model() { return *model_; }

    /**
     * Route all measurements (corpus labeling and top-k remeasurement)
     * through @p backend instead of the built-in deterministic oracle —
     * e.g. a FaultyOracle for fault-injection testing, or a real hardware
     * harness. @p backend must outlive this tuner. Measurements are always
     * wrapped in a RobustMeasurer configured by WacoOptions::retry.
     */
    void setMeasurementBackend(const MeasurementBackend& backend)
    {
        backend_ = &backend;
    }

    /** The active measurement backend (defaults to the built-in oracle). */
    const MeasurementBackend& backend() const
    {
        return backend_ ? *backend_ : oracle_;
    }

    /** Build dataset from a corpus of matrices, train the model, build
     *  the graph. */
    std::vector<EpochStats> train(const std::vector<SparseMatrix>& corpus);

    /** Same for a corpus of 3-tensors (MTTKRP). */
    std::vector<EpochStats> train(const std::vector<Sparse3Tensor>& corpus);

    /** Train on a pre-built dataset (lets benches share datasets). */
    std::vector<EpochStats> trainOnDataset(const CostDataset& dataset);

    /**
     * Attach a dataset and build the KNN graph WITHOUT training — for use
     * after loading pre-trained model parameters from disk. The dataset
     * must be the one the loaded model was trained on (rebuilding it is
     * cheap and deterministic). Building the graph drops every schedule
     * that is malformed or for another algorithm, and throws FatalError
     * when none is left.
     */
    void attachDataset(const CostDataset& dataset);

    /** Co-optimize the format and schedule for a new matrix or 3-tensor
     *  (its order must match the algorithm's), with optional
     *  cancellation/degradation controls (see TuneControl). Throws
     *  FatalError naming the index of an input with a zero extent, for
     *  which no schedule is legal. */
    TuneOutcome tune(const SparseInput& in, const TuneControl& ctl = {});

    /** Schedules indexed by the KNN graph (exposed for benches/tests). */
    const std::vector<SuperSchedule>& graphSchedules() const { return nodes_; }

    /** Precomputed program embeddings of the graph nodes, row n = node n
     *  (embedded once after training, reused by every tune query). */
    const nn::Mat& nodeEmbeddings() const { return node_embeddings_; }

    /** The KNN graph itself (exposed for benches/tests). */
    const Hnsw& graph() const { return *graph_; }

    /** The labeled dataset from the last train() call. */
    const CostDataset& dataset() const { return dataset_; }

  private:
    void buildGraph();
    template <typename Input>
    std::vector<EpochStats> labelAndFit(const std::vector<Input>& corpus);

    Algorithm alg_;
    RuntimeOracle oracle_;
    const MeasurementBackend* backend_ = nullptr; ///< null = oracle_.
    WacoOptions opt_;
    std::unique_ptr<WacoCostModel> model_;
    CostDataset dataset_;
    std::vector<SuperSchedule> nodes_;
    nn::Mat node_embeddings_;
    std::unique_ptr<Hnsw> graph_;
};

} // namespace waco
