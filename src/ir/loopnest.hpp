/**
 * @file
 * Lowered loop-nest IR: the single shared representation of what a
 * SuperSchedule *means* operationally.
 *
 * lower(SuperSchedule, ProblemShape) turns the schedule's declarative
 * parameters (splits, loop order, format level order/formats, parallel
 * annotation) into an explicit nest of typed loop nodes:
 *
 *  - Dense:  a full-coordinate loop over one slot — either a dense-only
 *            index of the algorithm, or a sparse slot whose loop is ordered
 *            *discordantly* with A's storage level order (its storage level
 *            is resolved later by a locate step).
 *  - Sparse: a concordant traversal of the next storage level of A
 *            (0..extent for an Uncompressed level, pos/crd iteration for a
 *            Compressed one).
 *
 * A Sparse node carries the locate steps that fire once its level binds:
 * every deeper level whose loop ran further out (discordant) is resolved
 * there — by direct offset for U levels, by binary search over crd for C
 * levels (Section 3.1's discordant-traversal cost made explicit).
 *
 * Exactly one compute leaf per algorithm sits under the innermost loop.
 *
 * Workspace kernels (Algorithm::FusedSDDMMSpMM) lower to a FUSED nest: a
 * shared scope prefix (the loops of the algorithm's scope indices), a
 * dense workspace temporary declared at the fission point, and two phase
 * bodies under it. loops() holds prefix + producer phase with leaf() its
 * accumulate statement (w[j] += ...); consumerLoops() holds the consumer
 * phase (depths scopeDepth..) with consumerLeaf() its statement (E +=
 * A*w[j]*F). Each scope iteration zero-initializes the workspace, runs
 * the producer, then the consumer — init/accumulate/consume phases with
 * an explicit scope level (Kjolstad et al., workspaces).
 *
 * Three consumers share this IR so they can never drift apart:
 *  - exec/loopnest_exec.cpp interprets it (the semantic reference),
 *  - codegen/emit.cpp prints it as the C kernel the JIT backend runs,
 *  - perfmodel/cost_model.cpp walks it for traversal/locality terms.
 */
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ir/schedule.hpp"

namespace waco {

/** Kind of one loop node in the lowered nest. */
enum class LoopKind : unsigned char
{
    Dense,  ///< Full coordinate loop over one slot.
    Sparse, ///< Concordant traversal of one storage level of A.
};

/** Resolve a storage level whose loop ran discordantly further out. */
struct LocateStep
{
    u32 level;         ///< Storage level of A being resolved.
    u32 slot;          ///< Slot whose already-bound coordinate is located.
    bool binarySearch; ///< C level: search crd; U level: direct offset.
};

/** One loop of the lowered nest, outermost first. */
struct LoopNode
{
    LoopKind kind = LoopKind::Dense;
    u32 slot = 0;   ///< Slot this loop iterates.
    u32 extent = 0; ///< Trip count (coordinate range; C levels vary per run).
    /** Storage level of A: the traversed level for Sparse nodes, the level
     *  this slot belongs to for discordant Dense nodes, -1 for dense-only
     *  indices. */
    int level = -1;
    bool parallel = false; ///< Schedule's parallel annotation.
    u32 chunk = 0;         ///< Annotated OpenMP-dynamic chunk size.
    /** Levels resolved right after each iteration of this loop binds. */
    std::vector<LocateStep> locates;
};

/**
 * Dense workspace temporary of a fused nest: a scratch vector indexed by
 * one index variable, private to each iteration of the scope prefix
 * (loops [0, scopeDepth)). Executors allocate one per parallel chunk and
 * zero it at the top of every scope iteration (the init phase).
 */
struct WorkspaceDecl
{
    bool present = false;
    u32 index = 0;      ///< Index variable the workspace is indexed by.
    u32 extent = 0;     ///< Coordinate extent (shape.indexExtent[index]).
    u32 scopeDepth = 0; ///< Declared under loops [0, scopeDepth).
};

/** The single compute statement under the innermost loop. */
struct ComputeLeaf
{
    Algorithm alg = Algorithm::SpMV;
    /**
     * Dense-only index whose full, unsplit loop is the innermost node of
     * the nest, or -1. Executor leaves may fuse that loop into a tight
     * (vectorizable) tail instead of recursing per element; the emitter
     * still prints it as an ordinary loop.
     */
    int vectorIndex = -1;
};

/**
 * A fully lowered sparse tensor program: an ordered nest of loop nodes over
 * the storage levels of A plus one compute leaf. Immutable after lower().
 */
class LoopNest
{
  public:
    Algorithm alg() const { return alg_; }
    const ProblemShape& shape() const { return shape_; }
    /** Every loop of a single-expression nest; scope prefix + producer
     *  phase of a fused one. */
    const std::vector<LoopNode>& loops() const { return loops_; }
    /** Compute statement of the (producer) nest. */
    const ComputeLeaf& leaf() const { return leaf_; }

    /** True for a fused workspace nest (consumer phase present). */
    bool fused() const { return workspace_.present; }
    /** Workspace temporary (present only for fused nests). */
    const WorkspaceDecl& workspace() const { return workspace_; }
    /** Consumer-phase loops, starting at depth workspace().scopeDepth. */
    const std::vector<LoopNode>& consumerLoops() const
    {
        return consumerLoops_;
    }
    /** Compute statement of the consumer phase. */
    const ComputeLeaf& consumerLeaf() const { return consumerLeaf_; }

    /** Number of storage levels of A (== formatOf(...).numLevels()). */
    u32 numLevels() const { return static_cast<u32>(levelSlots_.size()); }
    /** Slot traversed/located at storage level @p l. */
    u32 levelSlot(u32 l) const { return levelSlots_[l]; }
    /** Level format of storage level @p l. */
    LevelFormat levelFormat(u32 l) const { return levelFormats_[l]; }
    /** True when level @p l is traversed by a Sparse node (concordant),
     *  false when a LocateStep resolves it. */
    bool levelConcordant(u32 l) const { return levelConcordant_[l]; }

    /** Effective (extent-clamped) split size of index @p idx. */
    u32 splitOf(u32 idx) const { return splits_[idx]; }

    /** Number of loops every phase shares: the scope prefix of a fused
     *  nest (== workspace().scopeDepth), 0 for single-expression nests
     *  (which have exactly one phase). */
    u32 scopePrefixDepth() const
    {
        return workspace_.present ? workspace_.scopeDepth : 0;
    }

    /**
     * Position of @p slot in the nest, outermost = 0. Degenerate inner
     * slots (split 1) execute "at" their outer half's position, matching
     * how TACO elides extent-1 loops.
     */
    u32 loopPositionOf(u32 slot) const;

    /** Loop variable name of the node at @p depth ("i", "k0", ...). */
    std::string varName(u32 depth) const;
    /** Loop variable name for an arbitrary slot. */
    std::string slotVarName(u32 slot) const;

    /** Multi-line human-readable dump (debugging / logging). */
    std::string describe() const;

    /**
     * Assemble a nest directly from its parts, bypassing lower(). NO
     * validation happens here — the result may violate every nest
     * invariant. This is the entry point for alternative frontends and
     * for the analysis tests, which corrupt nests deliberately; run
     * analysis::verifyLoopNest() before executing or emitting one.
     */
    static LoopNest fromRaw(Algorithm alg, const ProblemShape& shape,
                            const std::array<u32, 4>& splits,
                            std::vector<LoopNode> loops, ComputeLeaf leaf,
                            std::vector<u32> levelSlots,
                            std::vector<LevelFormat> levelFormats,
                            std::vector<bool> levelConcordant);

    /** fromRaw for fused nests: additionally installs the consumer phase
     *  and the workspace declaration. Same no-validation contract. */
    static LoopNest fromRawFused(Algorithm alg, const ProblemShape& shape,
                                 const std::array<u32, 4>& splits,
                                 std::vector<LoopNode> loops,
                                 ComputeLeaf leaf,
                                 std::vector<u32> levelSlots,
                                 std::vector<LevelFormat> levelFormats,
                                 std::vector<bool> levelConcordant,
                                 std::vector<LoopNode> consumerLoops,
                                 ComputeLeaf consumerLeaf,
                                 WorkspaceDecl workspace);

  private:
    friend LoopNest lower(const SuperSchedule& s, const ProblemShape& shape);

    Algorithm alg_ = Algorithm::SpMV;
    ProblemShape shape_;
    std::array<u32, 4> splits_ = {1, 1, 1, 1};
    std::vector<LoopNode> loops_;
    ComputeLeaf leaf_;
    std::vector<u32> levelSlots_;
    std::vector<LevelFormat> levelFormats_;
    std::vector<bool> levelConcordant_;
    // Fused-nest extension (empty / absent for single-expression nests).
    std::vector<LoopNode> consumerLoops_;
    ComputeLeaf consumerLeaf_;
    WorkspaceDecl workspace_;
};

/** Phase a loop belongs to when walking a (possibly fused) nest. */
enum class NestPhase : unsigned char
{
    Producer, ///< Scope prefix + producer chain (every loop of loops()).
    Consumer, ///< Consumer chain of a fused nest (consumerLoops()).
};

/**
 * Visit every loop of @p nest in execution order with its global depth and
 * phase: first loops() at depths 0.., then — fused nests only — the
 * consumer chain re-entered at depth workspace().scopeDepth. Analysis
 * passes that must price both phases (cost model, asymptotic bounds) walk
 * through this so the fused-nest shape lives in exactly one place.
 */
void forEachLoop(const LoopNest& nest,
                 const std::function<void(const LoopNode&, u32 depth,
                                          NestPhase phase)>& fn);

/**
 * Lower a SuperSchedule to its loop nest. Validates the schedule against
 * @p shape (analysis::verifySchedule); throws FatalError listing every
 * error for a malformed schedule.
 */
LoopNest lower(const SuperSchedule& s, const ProblemShape& shape);

/**
 * The nest that iterates a tensor stored as @p desc exactly in its storage
 * order (a concordant schedule whose format half reproduces @p desc), with
 * the algorithm's dense-only loops innermost and extent @p dense_extent
 * (the algorithm default when 0) — how to run an arbitrary pre-built
 * HierSparseTensor.
 */
LoopNest lowerStorageOrder(Algorithm alg, const FormatDescriptor& desc,
                           u32 dense_extent = 0);

} // namespace waco
