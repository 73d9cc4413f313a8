/**
 * @file
 * Shared infrastructure for the table/figure reproduction binaries.
 *
 * Each bench binary regenerates one table or figure from the paper and
 * prints it in a fixed-width layout resembling the original. Trained cost
 * models are cached on disk under ./waco_model_cache so that running all
 * benches back-to-back trains each (algorithm, machine) model only once —
 * datasets are rebuilt deterministically from seeds, so the KNN graph is
 * identical across runs.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/dataset_io.hpp"
#include "core/waco_tuner.hpp"
#include "data/generators.hpp"

namespace waco::bench {

/**
 * Scan argv for `--trace-out FILE` / `--metrics-out FILE`, enable the
 * corresponding observability subsystem, and remember each path. The
 * consumed flags are compacted out of argv; returns the new argc, so
 * benches can keep their own positional parsing unchanged.
 */
int parseObservabilityFlags(int argc, char** argv);

/** Write the trace/metrics files requested by parseObservabilityFlags. */
void writeObservabilityOutputs();

/** Print a banner naming the table/figure being reproduced. */
void printHeader(const std::string& experiment_id, const std::string& title);

/** Print one fixed-width table row. */
void printRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

/** Format a double as "1.23x". */
std::string speedupCell(double x);

/** Format a double with @p digits decimals. */
std::string numCell(double x, int digits = 3);

/** Format seconds in engineering units ("1.23ms"). */
std::string timeCell(double seconds);

/** IQR of the per-round ratios num[i] / den[i], as "1.02-1.10x". */
std::string ratioIqrCell(const std::vector<double>& num,
                         const std::vector<double>& den);

/** Scaled-down paper configuration used by every bench (documented in
 *  EXPERIMENTS.md): 8-layer 16-channel WACONet, 64-d features. */
WacoOptions benchOptions();

/** Training corpus shared by all 2D benches (seeded, deterministic). */
std::vector<SparseMatrix> trainingCorpus();

/** Held-out 2D test matrices ("726 SuiteSparse matrices" stand-in). */
std::vector<SparseMatrix> testMatrices(u32 count = 40, u64 seed = 900);

/** Training / test corpora for MTTKRP. */
std::vector<Sparse3Tensor> trainingCorpus3d();
std::vector<Sparse3Tensor> testTensors(u32 count = 12, u64 seed = 910);

/**
 * Build (or load from cache) a trained WacoTuner for an algorithm+machine.
 * The on-disk cache stores only model parameters; the dataset and KNN graph
 * are rebuilt deterministically.
 */
std::unique_ptr<WacoTuner> makeTrainedTuner(
    Algorithm alg, const MachineConfig& machine,
    const std::string& cache_dir = "waco_model_cache");

/** Per-matrix result of one method for the comparison benches. */
struct MethodTimes
{
    std::string matrix;
    double waco = 0.0;
    double mkl = 0.0;        ///< 0 when unsupported.
    double bestformat = 0.0;
    double fixed = 0.0;
    double aspt = 0.0;       ///< 0 when unsupported.
};

/** Run WACO + all applicable baselines over a 2D test set. */
std::vector<MethodTimes> runComparison2d(Algorithm alg, WacoTuner& tuner,
                                         const std::vector<SparseMatrix>& tests);

/** Run WACO + applicable baselines (BestFormat excluded) over tensors. */
std::vector<MethodTimes> runComparison3d(WacoTuner& tuner,
                                         const std::vector<Sparse3Tensor>& tests);

/** Geomean of baseline/waco over matrices where both are valid. */
double geomeanSpeedup(const std::vector<MethodTimes>& rows,
                      double MethodTimes::*baseline);

} // namespace waco::bench
