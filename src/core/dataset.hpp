/**
 * @file
 * Training-data pipeline (Section 4.1.3): for each input pattern, sample
 * random SuperSchedules and label them with the runtime oracle, producing
 * the (Sparse Matrix, SuperSchedule, Ground Truth Runtime) tuples of
 * Figure 1a. Schedules whose formats blow the storage budget are excluded,
 * mirroring the paper's exclusion of >1-minute configurations. Entries are
 * split 80:20 into train and validation sets. Matrix and 3-tensor corpora
 * share one labeling loop: an entry owns its matrix or tensor and hands it
 * on as a SparseInput (DatasetEntry::input()).
 */
#pragma once

#include <string>
#include <vector>

#include "perfmodel/cost_model.hpp"

namespace waco {

/** One labeled (schedule, runtime) pair. */
struct ScheduleSample
{
    SuperSchedule schedule;
    double runtime;
};

/** One input pattern with its labeled schedules. */
struct DatasetEntry
{
    std::string name;
    bool is3d = false;
    SparseMatrix matrix;     ///< Valid when !is3d.
    Sparse3Tensor tensor;    ///< Valid when is3d.
    ProblemShape shape;
    std::vector<ScheduleSample> samples;

    /** The owned matrix or tensor, whichever this entry holds. */
    SparseInput
    input() const
    {
        if (is3d)
            return tensor;
        return matrix;
    }
};

/** A full cost-model training set for one algorithm. */
struct CostDataset
{
    Algorithm alg = Algorithm::SpMV;
    std::vector<DatasetEntry> entries;
    std::vector<u32> trainIds;
    std::vector<u32> valIds;

    /** All distinct schedules in the dataset (KNN-graph node set). */
    std::vector<SuperSchedule> allSchedules() const;
};

/** Label a corpus of matrices (SpMV / SpMM / SDDMM / fused). Transient
 *  measurement failures (MeasurementError) and invalid results skip that
 *  schedule; an input left with fewer than two labels is dropped. */
CostDataset buildDataset(Algorithm alg,
                         const std::vector<SparseMatrix>& corpus,
                         const MeasurementBackend& oracle,
                         u32 schedules_per_matrix, u64 seed);

/** Label a corpus of 3-tensors (MTTKRP); the same labeling loop. */
CostDataset buildDataset(Algorithm alg,
                         const std::vector<Sparse3Tensor>& corpus,
                         const MeasurementBackend& oracle,
                         u32 schedules_per_matrix, u64 seed);

/** Knobs of the fault-tolerant, checkpointed labeling pass. */
struct LabelingOptions
{
    u32 schedulesPerMatrix = 40;
    u64 seed = 42;
    /** Checkpoint file; "" disables checkpointing (but the per-matrix
     *  seeding below still makes the result independent of interruption). */
    std::string checkpointPath;
    /** Flush the checkpoint after this many newly labeled corpus items. */
    u32 flushEvery = 1;
};

/**
 * Fingerprint of one exact labeling job: algorithm, options, and the
 * corpus itself (names, dims, nnz). Checkpoints carry it so a resume
 * against a different corpus or configuration fails loudly.
 */
u64 corpusFingerprint(Algorithm alg, const std::vector<SparseMatrix>& corpus,
                      u32 schedules_per_matrix, u64 seed);

/**
 * Checkpointed, resumable version of buildDataset: every matrix is labeled
 * under a seed derived from (seed, corpus index) — not a running stream —
 * so a run killed halfway and resumed from its checkpoint produces a
 * bit-identical CostDataset to an uninterrupted run.
 */
CostDataset buildDatasetResumable(Algorithm alg,
                                  const std::vector<SparseMatrix>& corpus,
                                  const MeasurementBackend& oracle,
                                  const LabelingOptions& opt);

} // namespace waco
