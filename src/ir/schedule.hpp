/**
 * @file
 * SuperSchedule: the paper's unified template that defines the format and
 * the schedule of a sparse tensor program together (Section 4.1.2, Table 3).
 *
 * Every index variable of the algorithm is split exactly once into an outer
 * and an inner loop ("slot"); choosing a split size of 1 degenerates the
 * split away, which is how SuperSchedule covers all less-split schedules.
 * The compute schedule is a permutation of all slots plus a parallelization
 * choice (slot, thread count, OpenMP-dynamic chunk size). The format
 * schedule is a permutation of the sparse tensor's slots plus a U/C level
 * format per level, and a row-/column-major choice for each dense operand
 * whose layout the paper does not fix.
 */
#pragma once

#include <array>
#include <string>
#include <vector>

#include "ir/algorithm.hpp"
#include "tensor/format.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace waco {

/** Slot id helpers: slot 2*idx is the outer half of index idx, 2*idx+1 the inner. */
constexpr u32 outerSlot(u32 idx) { return 2 * idx; }
constexpr u32 innerSlot(u32 idx) { return 2 * idx + 1; }
constexpr u32 slotIndex(u32 slot) { return slot / 2; }
constexpr bool slotIsInner(u32 slot) { return (slot & 1) != 0; }

/** A complete point in the co-optimization search space. */
struct SuperSchedule
{
    Algorithm alg = Algorithm::SpMV;

    /** Split size per index variable (1 = degenerate / unsplit). */
    std::array<u32, 4> splits = {1, 1, 1, 1};

    /** Compute schedule: permutation of all 2*numIndices slots, outermost first. */
    std::vector<u32> loopOrder;

    /** Parallelized slot (must reference a non-reduction index). */
    u32 parallelSlot = 0;
    /** Simulated thread count (paper: 24 or 48). */
    u32 numThreads = 48;
    /** OpenMP dynamic-scheduling chunk size (paper: powers of two, 1..256). */
    u32 ompChunk = 32;

    /** Format schedule: permutation of the sparse tensor's slots. */
    std::vector<u32> sparseLevelOrder;
    /** Level format per entry of sparseLevelOrder. */
    std::vector<LevelFormat> sparseLevelFormats;
    /** Row-major flag per dense operand (entries with fixed layout are
     *  forced back to the paper's choice). */
    std::vector<bool> denseRowMajor;

    /** Compact unique string key (used for dedup and hashing). */
    std::string key() const;

    /**
     * Parse a key() string back into a schedule (exact inverse:
     * parse(k).key() == k). Throws FatalError on malformed input. The
     * result is NOT legality-checked — feed it to analysis::verifySchedule
     * (what `tune_cli --verify-only --schedule KEY` does).
     */
    static SuperSchedule parseKey(const std::string& key);

    /** Human-readable multi-line description. */
    std::string describe() const;

    bool operator==(const SuperSchedule& o) const { return key() == o.key(); }
};

/**
 * The per-problem geometry a schedule is applied to: extent of every index
 * variable (sparse dims from the input tensor, dense-only dims from the
 * algorithm defaults unless overridden).
 */
struct ProblemShape
{
    Algorithm alg = Algorithm::SpMV;
    std::array<u32, 4> indexExtent = {0, 0, 0, 0};

    /** Shape for a sparse input whose order matches the algorithm's. */
    static ProblemShape forInput(Algorithm alg, const SparseInput& in,
                                 u32 dense_extent = 0);
    /** Shape for a 2D sparse input (SpMV / SpMM / SDDMM). */
    static ProblemShape forMatrix(Algorithm alg, u32 rows, u32 cols,
                                  u32 dense_extent = 0);
    /** Shape for a 3D sparse input (MTTKRP). */
    static ProblemShape forTensor3(Algorithm alg, u32 di, u32 dk, u32 dl,
                                   u32 dense_extent = 0);
};

/** Empty when every index of @p shape has a nonzero extent; otherwise a
 *  message naming the first zero-extent index. No schedule is legal for
 *  such a problem (WACO-S011), so the tuner and the service reject the
 *  input where it enters. */
std::string zeroExtentError(const ProblemShape& shape);

/** Extent of a slot's loop under a schedule (outer: ceil(n/split), inner: split). */
u32 slotExtent(const SuperSchedule& s, const ProblemShape& shape, u32 slot);

/** True when the slot is degenerate (its index is unsplit and it is the
 *  inner half, i.e. a loop of extent 1 that TACO would elide). */
bool slotDegenerate(const SuperSchedule& s, u32 slot);

/** Loop order with degenerate slots removed (what actually executes). */
std::vector<u32> activeLoopOrder(const SuperSchedule& s);

/** Sparse level order with degenerate slots removed. */
std::vector<u32> activeSparseLevelOrder(const SuperSchedule& s);

/** Level formats aligned with activeSparseLevelOrder(). */
std::vector<LevelFormat> activeSparseLevelFormats(const SuperSchedule& s);

/** Build the FormatDescriptor the schedule's format half describes. */
FormatDescriptor formatOf(const SuperSchedule& s, const ProblemShape& shape);

/** Layout dense operand @p op (an index into algorithmInfo(s.alg)
 *  .denseOperands) takes under @p s: the paper's layout for a fixed
 *  operand or a missing flag, the schedule's choice otherwise. */
bool denseRowMajorOf(const SuperSchedule& s, std::size_t op);

/** denseRowMajorOf for each dense input matrix (outputs skipped, and
 *  SpMV's vector, which has no layout): the layout vector
 *  KernelEmitOptions::inputRowMajor takes. */
std::vector<bool> inputRowMajorOf(const SuperSchedule& s);

/**
 * Degree of concordance between the compute loop order and the sparse level
 * order: 1.0 when the sparse levels appear in the same relative order in the
 * loop nest (cheap co-iteration), lower when the loop order is discordant
 * and traversal needs searches over compressed levels (Section 3.1).
 */
double concordance(const SuperSchedule& s);

/**
 * The enumerable parameter space of SuperSchedules for one algorithm
 * (Table 3). Used by the random sampler, the black-box tuners, and the
 * program embedder's categorical vocabularies.
 */
class SuperScheduleSpace
{
  public:
    SuperScheduleSpace(Algorithm alg, const ProblemShape& shape);

    Algorithm alg() const { return alg_; }
    const ProblemShape& shape() const { return shape_; }
    u32 numIndices() const { return num_indices_; }
    u32 numSlots() const { return 2 * num_indices_; }

    /** Allowed split sizes (powers of two) for index @p idx. */
    const std::vector<u32>& splitOptions(u32 idx) const { return split_options_[idx]; }
    /** Slots legal to parallelize (non-reduction indices). */
    const std::vector<u32>& parallelOptions() const { return parallel_options_; }
    const std::vector<u32>& threadOptions() const { return thread_options_; }
    const std::vector<u32>& chunkOptions() const { return chunk_options_; }
    /** Indices of dense operands whose layout is free. */
    const std::vector<u32>& freeLayoutOperands() const { return free_layout_ops_; }

    /** Uniformly sample a valid SuperSchedule. */
    SuperSchedule sample(Rng& rng) const;

    /** Randomly mutate one parameter group of @p s (for local tuners). */
    SuperSchedule mutate(const SuperSchedule& s, Rng& rng) const;

    /** Total log10 cardinality of the space, for reporting. */
    double log10Size() const;

  private:
    Algorithm alg_;
    ProblemShape shape_;
    u32 num_indices_ = 0;
    std::array<std::vector<u32>, 4> split_options_;
    std::vector<u32> parallel_options_;
    std::vector<u32> thread_options_;
    std::vector<u32> chunk_options_;
    std::vector<u32> free_layout_ops_;
};

/** The fixed baseline schedule: CSR (CSF for MTTKRP) with TACO's default
 *  concordant loop order, parallelized outermost loop.
 *  @param chunk paper's FixedCSR chunk sizes: 128 for SpMV, 32 otherwise. */
SuperSchedule defaultSchedule(const ProblemShape& shape, u32 chunk = 0);

/**
 * The five classic format families expressed as concordant SuperSchedules:
 * CSR, CSC, BCSR 4x4 (UCUU), one-dimensional dense blocks (UCU-16) and
 * sparse blocks (UUC with a large column split). These are both the
 * BestFormat baseline's candidate set (the five most frequent winners in
 * WACO-style searches, Section 5.1) and anchor points mixed into training
 * datasets so the KNN graph contains the known-good format corners.
 * 2D algorithms only.
 */
std::vector<SuperSchedule> wellKnownFormatSchedules(const ProblemShape& shape);

} // namespace waco
