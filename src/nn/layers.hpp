/**
 * @file
 * Dense neural-network building blocks with explicit forward/backward
 * (no autograd): Param, Linear, ReLU, MLP, and embedding lookup tables.
 * Every layer caches the activations of its most recent forward, so one
 * forward must be followed by at most one backward.
 */
#pragma once

#include <cmath>
#include <memory>
#include <vector>

#include "nn/mat.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace waco::nn {

/** A learnable tensor with its gradient accumulator. */
struct Param
{
    Mat w;
    Mat g;

    Param() = default;
    Param(u32 rows, u32 cols) : w(rows, cols), g(rows, cols) {}

    /** Kaiming-uniform style init scaled by fan-in. */
    void
    init(Rng& rng, u32 fan_in)
    {
        float bound = fan_in ? 1.0f / std::sqrt(static_cast<float>(fan_in))
                             : 0.1f;
        for (auto& x : w.v)
            x = static_cast<float>(rng.uniformReal(-bound, bound));
        g.zero();
    }

    void zeroGrad() { g.zero(); }
};

/** y = x W^T + b, with x of shape [N, in]. */
class Linear
{
  public:
    Linear() = default;
    Linear(u32 in, u32 out, Rng& rng) : w_(out, in), b_(1, out)
    {
        w_.init(rng, in);
        b_.init(rng, in);
    }

    u32 inDim() const { return w_.w.cols; }
    u32 outDim() const { return w_.w.rows; }

    /** Forward pass; caches x for backward. */
    Mat forward(const Mat& x);

    /** Forward without caching activations — inference only, const, no
     *  backward possible afterwards. */
    Mat inference(const Mat& x) const;

    /** Backward pass: accumulates dW/db and returns dx. */
    Mat backward(const Mat& dy);

    const Mat& weight() const { return w_.w; } ///< [out x in].
    const Mat& bias() const { return b_.w; }   ///< [1 x out].

    void
    collectParams(std::vector<Param*>& out)
    {
        out.push_back(&w_);
        out.push_back(&b_);
    }

  private:
    Param w_;
    Param b_;
    Mat x_; // cached input
};

/** Elementwise max(0, x). */
class ReLU
{
  public:
    /** Keeps a copy of @p x for backward and returns max(x, 0) in its
     *  storage, so pass it by move. */
    Mat forward(Mat x);
    Mat backward(const Mat& dy);

  private:
    Mat x_;
};

/** Linear-ReLU stack with a linear final layer. */
class MLP
{
  public:
    MLP() = default;
    /** @param dims layer widths, e.g. {448, 128, 128} -> two linears. */
    MLP(const std::vector<u32>& dims, Rng& rng);

    Mat forward(const Mat& x);
    Mat backward(const Mat& dy);

    /** Forward without caching activations (inference only, const). */
    Mat inference(const Mat& x) const;

    /**
     * Inference given the FIRST layer's pre-activation (x W0^T + b0)
     * already computed: applies the first ReLU then the remaining layers.
     * Lets callers that know part of x is constant (the broadcast feature
     * row of the runtime predictor) hoist its W0 partial product out of
     * the per-batch work.
     */
    Mat inferenceFromFirstPreact(Mat y1) const;

    u32 outDim() const { return layers_.back().outDim(); }
    const Linear& firstLayer() const { return layers_.front(); }
    void collectParams(std::vector<Param*>& out);

  private:
    std::vector<Linear> layers_;
    std::vector<ReLU> relus_;
};

/** Learnable lookup table mapping categorical ids to embedding vectors
 *  (the green boxes of Figure 11). */
class Embedding
{
  public:
    Embedding() = default;
    Embedding(u32 vocab, u32 dim, Rng& rng) : table_(vocab, dim)
    {
        table_.init(rng, dim);
    }

    u32 dim() const { return table_.w.cols; }

    /** Gather rows for a batch of ids. */
    Mat forward(const std::vector<u32>& ids);

    /** Scatter-accumulate gradients into the table. */
    void backward(const Mat& dy);

    void collectParams(std::vector<Param*>& out) { out.push_back(&table_); }

  private:
    Param table_;
    std::vector<u32> ids_;
};

} // namespace waco::nn
