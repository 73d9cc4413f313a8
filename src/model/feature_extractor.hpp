/**
 * @file
 * Sparsity-pattern feature extractors (Section 4.1.1 and the Figure 15
 * comparison):
 *
 *  - WacoNet        — the paper's contribution: a 5x5 stride-1 submanifold
 *                     conv followed by 13 3x3 stride-2 sparse convs
 *                     (32 channels), with the global-average-pooled outputs
 *                     of all 14 layers concatenated into the feature.
 *  - MinkowskiNet   — sparse CNN baseline: same sparse convolutions but
 *                     without the aggressive striding / multi-layer
 *                     concatenation (receptive field stalls on distant
 *                     nonzeros, Figure 8a).
 *  - DenseConv      — downsample the matrix to a fixed grid of nonzero
 *                     counts, then a conventional CNN [48].
 *  - HumanFeature   — (#rows, #cols, #nnz) through an MLP [27, 40].
 *
 * All extractors read a matrix or a 3-tensor through the same SparseInput
 * view (the extractor's own dimensionality must match the input's order)
 * and output a fixed-width feature row, so the rest of the cost model is
 * extractor-agnostic.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/sparse_conv.hpp"
#include "tensor/coo.hpp"

namespace waco {

/** Interface all four extractors implement. */
class FeatureExtractor
{
  public:
    virtual ~FeatureExtractor() = default;

    /** Feature row [1 x featureDim()] for the sparsity pattern of @p in
     *  (values are ignored); caches for backward. */
    virtual nn::Mat forward(const SparseInput& in) = 0;

    /** Backpropagate d(feature) into the extractor's parameters. */
    virtual void backward(const nn::Mat& d_feat) = 0;

    virtual void collectParams(std::vector<nn::Param*>& out) = 0;
    virtual u32 featureDim() const = 0;
    virtual std::string name() const = 0;
};

/** Configuration shared by the convolutional extractors. */
struct ExtractorConfig
{
    u32 channels = 32;    ///< Paper: 32 (kept small to fit big inputs).
    u32 numLayers = 14;   ///< Paper: 14 (1 submanifold + 13 strided).
    u32 featureDim = 128; ///< Output feature width.
};

/** Build one of the four extractors by name:
 *  "waconet", "minkowski", "denseconv", "human". */
std::unique_ptr<FeatureExtractor> makeFeatureExtractor(
    const std::string& kind, u32 pattern_dim, const ExtractorConfig& cfg,
    Rng& rng);

} // namespace waco
