#include "model/waco_model.hpp"

#include <cmath>

#include "nn/serialize.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace waco {

using nn::Mat;

WacoCostModel::WacoCostModel(Algorithm alg, const std::string& extractor_kind,
                             const ExtractorConfig& cfg, u64 seed, double lr)
    : alg_(alg)
{
    Rng rng(seed);
    u32 pattern_dim = algorithmInfo(alg).sparseOrder == 3 ? 3 : 2;
    extractor_ = makeFeatureExtractor(extractor_kind, pattern_dim, cfg, rng);
    embedder_ = std::make_unique<ProgramEmbedder>(alg, rng);
    feature_dim_ = extractor_->featureDim();
    predictor_ = nn::MLP(
        {feature_dim_ + embedder_->outDim(), 128, 64, 1}, rng);
    std::vector<nn::Param*> params;
    extractor_->collectParams(params);
    embedder_->collectParams(params);
    predictor_.collectParams(params);
    opt_ = std::make_unique<nn::Adam>(params, lr);
}

Mat
WacoCostModel::extractFeature(const SparseInput& in)
{
    WACO_SPAN("model.extract");
    WACO_COUNT("model.features_extracted", 1);
    return extractor_->forward(in);
}

Mat
WacoCostModel::programEmbeddings(const std::vector<SuperSchedule>& batch)
{
    WACO_SPAN("model.embed");
    WACO_COUNT("model.schedules_embedded", batch.size());
    return embedder_->forward(batch);
}

Mat
WacoCostModel::predictFromEmbeddings(const Mat& feature, const Mat& embeddings)
{
    panicIf(feature.rows != 1 || feature.cols != feature_dim_,
            "feature shape mismatch");
    Mat x(embeddings.rows, feature_dim_ + embeddings.cols);
    for (u32 n = 0; n < embeddings.rows; ++n) {
        std::copy(feature.row(0), feature.row(0) + feature_dim_, x.row(n));
        std::copy(embeddings.row(n), embeddings.row(n) + embeddings.cols,
                  x.row(n) + feature_dim_);
    }
    return predictor_.forward(x);
}

WacoCostModel::PredictorQuery
WacoCostModel::beginQuery(const Mat& feature) const
{
    panicIf(feature.rows != 1 || feature.cols != feature_dim_,
            "feature shape mismatch");
    const nn::Linear& l0 = predictor_.firstLayer();
    const Mat& w0 = l0.weight(); // [H0 x (F + E)]
    u32 h0 = w0.rows;
    u32 emb_dim = w0.cols - feature_dim_;
    PredictorQuery q;
    q.featPreact = Mat(1, h0);
    q.wEmb = Mat(h0, emb_dim);
    const float* f = feature.row(0);
    for (u32 h = 0; h < h0; ++h) {
        const float* wrow = w0.row(h);
        float acc = l0.bias().at(0, h);
        for (u32 c = 0; c < feature_dim_; ++c)
            acc += f[c] * wrow[c];
        q.featPreact.at(0, h) = acc;
        std::copy(wrow + feature_dim_, wrow + w0.cols, q.wEmb.row(h));
    }
    return q;
}

Mat
WacoCostModel::scoreEmbeddings(const PredictorQuery& q, const Mat& embeddings,
                               const u32* ids, u32 count) const
{
    u32 emb_dim = q.wEmb.cols;
    panicIf(embeddings.cols != emb_dim, "embedding width mismatch");
    WACO_COUNT("model.embeddings_scored", count);
    Mat batch(count, emb_dim);
    for (u32 n = 0; n < count; ++n) {
        u32 row = ids ? ids[n] : n;
        std::copy(embeddings.row(row), embeddings.row(row) + emb_dim,
                  batch.row(n));
    }
    // First-layer pre-activation: the hoisted feature partial plus the
    // embedding block's GEMM — one real matrix multiply per batch instead
    // of a broadcast copy and a batch-of-1 forward per candidate.
    Mat y1;
    nn::matmulNT(batch, q.wEmb, y1);
    for (u32 n = 0; n < count; ++n) {
        float* row = y1.row(n);
        const float* fp = q.featPreact.row(0);
        for (u32 h = 0; h < y1.cols; ++h)
            row[h] += fp[h];
    }
    return predictor_.inferenceFromFirstPreact(std::move(y1));
}

Mat
WacoCostModel::predict(const Mat& feature,
                       const std::vector<SuperSchedule>& batch)
{
    Mat emb = embedder_->forward(batch);
    return predictFromEmbeddings(feature, emb);
}

WacoCostModel::ForwardState
WacoCostModel::forwardFull(const SparseInput& in,
                           const std::vector<SuperSchedule>& batch)
{
    ForwardState st;
    st.batch = static_cast<u32>(batch.size());
    Mat feature = extractor_->forward(in);
    st.pred = predict(feature, batch);
    return st;
}

void
WacoCostModel::backwardFull(const Mat& d_pred)
{
    Mat dx = predictor_.backward(d_pred);
    // Split gradient: feature part sums over the batch (the feature row was
    // broadcast), embedding part goes row-wise to the embedder.
    Mat d_feat(1, feature_dim_);
    Mat d_emb(dx.rows, embedder_->outDim());
    for (u32 n = 0; n < dx.rows; ++n) {
        for (u32 c = 0; c < feature_dim_; ++c)
            d_feat.at(0, c) += dx.at(n, c);
        std::copy(dx.row(n) + feature_dim_, dx.row(n) + dx.cols, d_emb.row(n));
    }
    embedder_->backward(d_emb);
    extractor_->backward(d_feat);
}

WacoCostModel::StepOutcome
WacoCostModel::trainStepGuarded(const SparseInput& in,
                                const std::vector<SuperSchedule>& batch,
                                const std::vector<double>& runtimes,
                                bool use_l2, double clip_norm)
{
    auto st = forwardFull(in, batch);
    auto loss = use_l2 ? nn::l2LogLoss(st.pred, runtimes)
                       : nn::pairwiseHingeLoss(st.pred, runtimes);
    StepOutcome out;
    out.loss = loss.loss;
    if (!std::isfinite(loss.loss)) {
        // Poisoned label or diverged forward pass: no backward, no update.
        opt_->zeroGrad();
        out.applied = false;
        return out;
    }
    backwardFull(loss.dPred);
    out.gradNorm = opt_->gradNorm();
    if (!std::isfinite(out.gradNorm)) {
        opt_->zeroGrad();
        out.applied = false;
        return out;
    }
    if (clip_norm > 0.0)
        opt_->clipGradNorm(clip_norm);
    opt_->step();
    return out;
}

std::vector<std::vector<float>>
WacoCostModel::snapshotParams()
{
    std::vector<nn::Param*> params;
    extractor_->collectParams(params);
    embedder_->collectParams(params);
    predictor_.collectParams(params);
    std::vector<std::vector<float>> snap;
    snap.reserve(params.size());
    for (const nn::Param* p : params)
        snap.push_back(p->w.v);
    return snap;
}

void
WacoCostModel::restoreParams(const std::vector<std::vector<float>>& snap)
{
    std::vector<nn::Param*> params;
    extractor_->collectParams(params);
    embedder_->collectParams(params);
    predictor_.collectParams(params);
    panicIf(snap.size() != params.size(),
            "parameter snapshot count mismatch");
    for (std::size_t i = 0; i < params.size(); ++i) {
        panicIf(snap[i].size() != params[i]->w.v.size(),
                "parameter snapshot shape mismatch");
        params[i]->w.v = snap[i];
    }
}

bool
WacoCostModel::paramsFinite()
{
    std::vector<nn::Param*> params;
    extractor_->collectParams(params);
    embedder_->collectParams(params);
    predictor_.collectParams(params);
    for (const nn::Param* p : params) {
        for (float x : p->w.v) {
            if (!std::isfinite(x))
                return false;
        }
    }
    return true;
}

double
WacoCostModel::evalLoss(const SparseInput& in,
                        const std::vector<SuperSchedule>& batch,
                        const std::vector<double>& runtimes, bool use_l2)
{
    auto st = forwardFull(in, batch);
    auto loss = use_l2 ? nn::l2LogLoss(st.pred, runtimes)
                       : nn::pairwiseHingeLoss(st.pred, runtimes);
    return loss.loss;
}

double
WacoCostModel::evalOrderAccuracy(const SparseInput& in,
                                 const std::vector<SuperSchedule>& batch,
                                 const std::vector<double>& runtimes)
{
    auto st = forwardFull(in, batch);
    return nn::pairwiseOrderAccuracy(st.pred, runtimes);
}

void
WacoCostModel::save(const std::string& path)
{
    std::vector<nn::Param*> params;
    extractor_->collectParams(params);
    embedder_->collectParams(params);
    predictor_.collectParams(params);
    nn::saveParams(params, path);
}

void
WacoCostModel::load(const std::string& path)
{
    std::vector<nn::Param*> params;
    extractor_->collectParams(params);
    embedder_->collectParams(params);
    predictor_.collectParams(params);
    nn::loadParams(params, path);
}

} // namespace waco
