/**
 * @file
 * Adam optimizer (Kingma & Ba [24]), the paper's choice with lr = 1e-4.
 */
#pragma once

#include <vector>

#include "nn/layers.hpp"

namespace waco::nn {

/** Adam over a fixed set of registered parameters. */
class Adam
{
  public:
    explicit Adam(std::vector<Param*> params, double lr = 1e-4,
                  double beta1 = 0.9, double beta2 = 0.999,
                  double eps = 1e-8);

    /** Apply one update from the accumulated gradients, then zero them. */
    void step();

    /** Zero all gradients without updating. */
    void zeroGrad();

    /** Global L2 norm over all accumulated gradients. NaN/Inf gradients
     *  make the result non-finite, which is how poisoned steps are
     *  detected before they reach the weights. */
    double gradNorm() const;

    /** Scale all gradients so their global norm is at most @p max_norm
     *  (no-op when already within bounds or max_norm <= 0).
     *  @return the pre-clip norm. */
    double clipGradNorm(double max_norm);

  private:
    std::vector<Param*> params_;
    std::vector<std::vector<float>> m_;
    std::vector<std::vector<float>> v_;
    double lr_, beta1_, beta2_, eps_;
    u64 t_ = 0;
};

} // namespace waco::nn
