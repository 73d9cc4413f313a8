/**
 * @file
 * The four baselines of Section 5.1, reimplemented against the same runtime
 * oracle so comparisons are apples-to-apples:
 *
 *  - FixedCsr  — TACO's default: CSR (CSF for MTTKRP), concordant loops,
 *                chunk 128 for SpMV / 32 otherwise. No tuning.
 *  - MklLike   — inspector-executor in MKL's style [34]: the format is
 *                pinned to CSR and only the schedule (chunk, threads) is
 *                tuned by running trials; supports SpMV and SpMM only.
 *  - BestFormat— format-only selection among a handful of candidate
 *                formats via a learned classifier over pattern statistics
 *                [42, 48]; the schedule stays concordant-default.
 *  - ASpT      — adaptive sparse tiling [19]: reorder rows by column-block
 *                similarity, split each row panel into dense tiles and a
 *                sparse remainder; SpMM and SDDMM only.
 */
#pragma once

#include <vector>

#include "ir/schedule.hpp"
#include "nn/layers.hpp"
#include "perfmodel/cost_model.hpp"
#include "tensor/pattern_stats.hpp"

namespace waco {

/** Common result for a baseline applied to one input. */
struct BaselineResult
{
    SuperSchedule schedule;
    Measurement measured;
    double tuningSeconds = 0.0;  ///< Inspector/classifier overhead.
    double convertSeconds = 0.0; ///< Format conversion (0 when reusing CSR).
};

/** TACO default: Fixed CSR for a matrix, Fixed CSF for a 3-tensor. */
BaselineResult fixedCsr(const RuntimeOracle& oracle, const SparseInput& in,
                        Algorithm alg);

/** MKL-style inspector-executor: schedule-only tuning on CSR. */
class MklLike
{
  public:
    explicit MklLike(const RuntimeOracle& oracle) : oracle_(oracle) {}

    /** SpMV / SpMM only, as in the paper. */
    bool supports(Algorithm alg) const
    {
        return alg == Algorithm::SpMV || alg == Algorithm::SpMM;
    }

    BaselineResult tune(const SparseMatrix& m, Algorithm alg) const;

    /** Naive MKL (inspector disabled): plain CSR defaults. The x-axis unit
     *  of Figure 17 / Table 8. */
    BaselineResult naive(const SparseMatrix& m, Algorithm alg) const;

  private:
    const RuntimeOracle& oracle_;
};

/** Format-only auto-tuner with a learned classifier. */
class BestFormat
{
  public:
    explicit BestFormat(const RuntimeOracle& oracle);

    /** The five candidate format schedules for @p alg on a given shape
     *  (the most frequent winners in WACO-style searches: CSR, CSC,
     *  BCSR 4x4, dense-block UCU-16, sparse-block UUC). */
    std::vector<SuperSchedule> candidates(const ProblemShape& shape) const;

    /** Fit the classifier: label each corpus matrix with its best
     *  candidate under the oracle, then train multinomial logistic
     *  regression on the pattern statistics. */
    void train(Algorithm alg, const std::vector<SparseMatrix>& corpus,
               u64 seed = 5);

    /** Pick a format for a new matrix and measure it. */
    BaselineResult tune(const SparseMatrix& m) const;

    /** Classifier-chosen candidate index (for tests). */
    u32 predictClass(const SparseMatrix& m) const;

  private:
    const RuntimeOracle& oracle_;
    Algorithm alg_ = Algorithm::SpMM;
    nn::Linear classifier_;
    bool trained_ = false;
};

/** Format-only selection for 3D tensors (SpTFS-style [42]): choose among
 *  CSF mode orders / hybrid level formats with a classifier over per-mode
 *  fiber statistics. */
class BestFormat3d
{
  public:
    explicit BestFormat3d(const RuntimeOracle& oracle) : oracle_(oracle) {}

    /** Candidate format schedules: CSF in three mode orders + two hybrids. */
    std::vector<SuperSchedule> candidates(const ProblemShape& shape) const;

    /** Per-mode fiber statistics used as classifier features. */
    static std::vector<float> features(const Sparse3Tensor& t);

    void train(const std::vector<Sparse3Tensor>& corpus, u64 seed = 6);

    BaselineResult tune(const Sparse3Tensor& t) const;

  private:
    const RuntimeOracle& oracle_;
    nn::Linear classifier_;
    bool trained_ = false;
};

/** ASpT-style adaptive sparse tiling (SpMM / SDDMM). */
class Aspt
{
  public:
    explicit Aspt(const RuntimeOracle& oracle) : oracle_(oracle) {}

    bool supports(Algorithm alg) const
    {
        return alg == Algorithm::SpMM || alg == Algorithm::SDDMM;
    }

    BaselineResult tune(const SparseMatrix& m, Algorithm alg) const;

  private:
    const RuntimeOracle& oracle_;
};

} // namespace waco
