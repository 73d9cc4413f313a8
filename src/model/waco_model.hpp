/**
 * @file
 * The full WACO cost model (Figure 6): feature extractor + program embedder
 * + runtime predictor, trained with the pairwise ranking loss.
 *
 * The three-part split mirrors how the model is *used* at search time
 * (Figure 1c / Section 5.4): the sparsity-pattern feature is extracted once
 * per input matrix, KNN-graph nodes memoize their program embeddings, and
 * the graph walk only re-runs the cheap runtime-predictor head.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/feature_extractor.hpp"
#include "model/program_embedder.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace waco {

/** End-to-end learned cost model for one algorithm. */
class WacoCostModel
{
  public:
    /**
     * @param alg algorithm whose schedules are scored
     * @param extractor_kind "waconet" | "minkowski" | "denseconv" | "human"
     * @param cfg network widths (paper defaults; shrink for unit tests)
     * @param seed parameter-init seed
     * @param lr Adam learning rate (paper: 1e-4)
     */
    WacoCostModel(Algorithm alg, const std::string& extractor_kind,
                  const ExtractorConfig& cfg, u64 seed, double lr = 1e-4);

    Algorithm algorithm() const { return alg_; }
    u32 embeddingDim() const { return embedder_->outDim(); }

    /** Run the feature extractor once for an input pattern. */
    nn::Mat extractFeature(const SparseInput& in);

    /** Program embeddings for a batch of schedules (KNN-graph nodes). */
    nn::Mat programEmbeddings(const std::vector<SuperSchedule>& batch);

    /** Predicted relative cost for schedules, given a cached feature. */
    nn::Mat predict(const nn::Mat& feature,
                    const std::vector<SuperSchedule>& batch);

    /**
     * Search-time fast path: score pre-computed program embeddings against
     * a cached feature using only the predictor head.
     */
    nn::Mat predictFromEmbeddings(const nn::Mat& feature,
                                  const nn::Mat& embeddings);

    /**
     * Per-query state for the batched inference engine: the feature row's
     * partial product through the predictor's first layer, hoisted so the
     * search loop never re-multiplies (or even re-copies) the broadcast
     * feature, plus the first layer's embedding-column block.
     */
    struct PredictorQuery
    {
        nn::Mat featPreact; ///< [1 x H0]: feature . W0_feat^T + b0.
        nn::Mat wEmb;       ///< [H0 x E]: W0 columns for the embedding half.
    };

    /** Hoist one query feature through the predictor's first layer. */
    PredictorQuery beginQuery(const nn::Mat& feature) const;

    /**
     * Inference-only batched scoring: predictions for @p count rows of
     * @p embeddings selected by @p ids (or rows [0, count) when @p ids is
     * null), as a [count x 1] column. Up to rounding (the feature partial
     * is pre-reduced), equals predictFromEmbeddings on the same rows, and
     * is bitwise-identical across batch splits: scoring ids one at a time
     * gives exactly the same column as one call — what makes batched and
     * scalar graph walks return identical hits.
     */
    nn::Mat scoreEmbeddings(const PredictorQuery& q,
                            const nn::Mat& embeddings, const u32* ids,
                            u32 count) const;

    /** Outcome of one guarded optimizer step. */
    struct StepOutcome
    {
        double loss = 0.0;
        /** Pre-clip global gradient norm (NaN/Inf when poisoned). */
        double gradNorm = 0.0;
        /** False when the update was vetoed (non-finite loss/gradients). */
        bool applied = true;
    };

    /**
     * One optimizer step on an (input, schedule batch) group: forward,
     * pairwise hinge loss (or L2 for the ablation), backward, Adam update,
     * with fault guards: a non-finite loss or gradient norm skips the Adam
     * update entirely (gradients are zeroed, weights and optimizer moments
     * untouched), and when @p clip_norm > 0 the global gradient norm is
     * clipped before the update. StepOutcome::loss is the batch loss
     * before the update.
     */
    StepOutcome trainStepGuarded(const SparseInput& in,
                                 const std::vector<SuperSchedule>& batch,
                                 const std::vector<double>& runtimes,
                                 bool use_l2, double clip_norm);

    /** Copy of every parameter tensor, for in-memory rollback. */
    std::vector<std::vector<float>> snapshotParams();

    /** Restore a snapshotParams() copy (shapes must match). */
    void restoreParams(const std::vector<std::vector<float>>& snap);

    /** True when every weight is finite. */
    bool paramsFinite();

    /** Loss without any update (validation). */
    double evalLoss(const SparseInput& in,
                    const std::vector<SuperSchedule>& batch,
                    const std::vector<double>& runtimes, bool use_l2 = false);

    /** Ranking accuracy on a batch (fraction of pairs ordered correctly). */
    double evalOrderAccuracy(const SparseInput& in,
                             const std::vector<SuperSchedule>& batch,
                             const std::vector<double>& runtimes);

    void save(const std::string& path);
    void load(const std::string& path);

  private:
    struct ForwardState
    {
        nn::Mat pred;
        u32 batch = 0;
    };

    ForwardState forwardFull(const SparseInput& in,
                             const std::vector<SuperSchedule>& batch);
    void backwardFull(const nn::Mat& d_pred);

    Algorithm alg_;
    std::unique_ptr<FeatureExtractor> extractor_;
    std::unique_ptr<ProgramEmbedder> embedder_;
    nn::MLP predictor_;
    std::unique_ptr<nn::Adam> opt_;
    u32 feature_dim_ = 0;
};

} // namespace waco
