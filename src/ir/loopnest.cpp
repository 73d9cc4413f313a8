#include "ir/loopnest.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/loopnest_verifier.hpp"
#include "analysis/schedule_verifier.hpp"

namespace waco {

LoopNest
LoopNest::fromRaw(Algorithm alg, const ProblemShape& shape,
                  const std::array<u32, 4>& splits,
                  std::vector<LoopNode> loops, ComputeLeaf leaf,
                  std::vector<u32> levelSlots,
                  std::vector<LevelFormat> levelFormats,
                  std::vector<bool> levelConcordant)
{
    LoopNest nest;
    nest.alg_ = alg;
    nest.shape_ = shape;
    nest.splits_ = splits;
    nest.loops_ = std::move(loops);
    nest.leaf_ = leaf;
    nest.levelSlots_ = std::move(levelSlots);
    nest.levelFormats_ = std::move(levelFormats);
    nest.levelConcordant_ = std::move(levelConcordant);
    return nest;
}

LoopNest
LoopNest::fromRawFused(Algorithm alg, const ProblemShape& shape,
                       const std::array<u32, 4>& splits,
                       std::vector<LoopNode> loops, ComputeLeaf leaf,
                       std::vector<u32> levelSlots,
                       std::vector<LevelFormat> levelFormats,
                       std::vector<bool> levelConcordant,
                       std::vector<LoopNode> consumerLoops,
                       ComputeLeaf consumerLeaf, WorkspaceDecl workspace)
{
    LoopNest nest = fromRaw(alg, shape, splits, std::move(loops), leaf,
                            std::move(levelSlots), std::move(levelFormats),
                            std::move(levelConcordant));
    nest.consumerLoops_ = std::move(consumerLoops);
    nest.consumerLeaf_ = consumerLeaf;
    nest.workspace_ = workspace;
    return nest;
}

u32
LoopNest::loopPositionOf(u32 slot) const
{
    for (u32 p = 0; p < loops_.size(); ++p) {
        if (loops_[p].slot == slot)
            return p;
    }
    // Degenerate inner slot: executes at its outer half's position.
    u32 outer = outerSlot(slotIndex(slot));
    if (outer != slot) {
        for (u32 p = 0; p < loops_.size(); ++p) {
            if (loops_[p].slot == outer)
                return p;
        }
    }
    panic("slot not found in lowered loop nest");
}

std::string
LoopNest::slotVarName(u32 slot) const
{
    const auto& info = algorithmInfo(alg_);
    std::string base = info.indexNames[slotIndex(slot)];
    if (splits_[slotIndex(slot)] == 1)
        return base;
    return base + (slotIsInner(slot) ? "0" : "1");
}

std::string
LoopNest::varName(u32 depth) const
{
    return slotVarName(loops_[depth].slot);
}

std::string
LoopNest::describe() const
{
    std::ostringstream os;
    os << algorithmName(alg_) << " loop nest (" << loops_.size()
       << " loops, " << numLevels() << " A levels):\n";
    std::string indent;
    for (u32 d = 0; d < loops_.size(); ++d) {
        const LoopNode& n = loops_[d];
        os << indent;
        if (n.parallel)
            os << "parallel(chunk=" << n.chunk << ") ";
        if (n.kind == LoopKind::Sparse) {
            os << "sparse " << varName(d) << " over A level " << n.level
               << " ("
               << (levelFormats_[n.level] == LevelFormat::Uncompressed ? 'U'
                                                                       : 'C')
               << ")";
        } else {
            os << "dense " << varName(d) << " < " << n.extent;
            if (n.level >= 0)
                os << " (discordant with A level " << n.level << ")";
        }
        for (const LocateStep& loc : n.locates) {
            os << "; locate " << slotVarName(loc.slot) << " in level "
               << loc.level
               << (loc.binarySearch ? " (binary search)" : " (offset)");
        }
        os << "\n";
        indent += "  ";
    }
    os << indent << "compute " << algorithmInfo(alg_).einsum;
    if (leaf_.vectorIndex >= 0) {
        os << "  [vector tail over "
           << algorithmInfo(alg_).indexNames[leaf_.vectorIndex] << "]";
    }
    os << "\n";
    if (fused()) {
        const auto& info = algorithmInfo(alg_);
        os << "workspace w[" << info.indexNames[workspace_.index]
           << "] extent " << workspace_.extent << " at scope depth "
           << workspace_.scopeDepth << "; consumer phase:\n";
        std::string cind(2 * workspace_.scopeDepth, ' ');
        for (const LoopNode& n : consumerLoops_) {
            os << cind;
            if (n.parallel)
                os << "parallel(chunk=" << n.chunk << ") ";
            if (n.kind == LoopKind::Sparse) {
                os << "sparse " << slotVarName(n.slot) << " over A level "
                   << n.level;
            } else {
                os << "dense " << slotVarName(n.slot) << " < " << n.extent;
            }
            for (const LocateStep& loc : n.locates) {
                os << "; locate " << slotVarName(loc.slot) << " in level "
                   << loc.level
                   << (loc.binarySearch ? " (binary search)" : " (offset)");
            }
            os << "\n";
            cind += "  ";
        }
        os << cind << "consume E[i,m] += A * w * F";
        if (consumerLeaf_.vectorIndex >= 0) {
            os << "  [vector tail over "
               << info.indexNames[consumerLeaf_.vectorIndex] << "]";
        }
        os << "\n";
    }
    return os.str();
}

LoopNest
lower(const SuperSchedule& s, const ProblemShape& shape)
{
    // Front-door verification: all structural errors at once, not just the
    // first (the thrown message lists every WACO-S0xx finding).
    analysis::verifySchedule(s, shape).throwIfErrors("lower");
    const auto& info = algorithmInfo(s.alg);

    LoopNest nest;
    nest.alg_ = s.alg;
    nest.shape_ = shape;
    for (u32 idx = 0; idx < info.numIndices; ++idx)
        nest.splits_[idx] = std::min(s.splits[idx], shape.indexExtent[idx]);

    const auto active = activeLoopOrder(s);
    nest.levelSlots_ = activeSparseLevelOrder(s);
    nest.levelFormats_ = activeSparseLevelFormats(s);
    const u32 num_levels = static_cast<u32>(nest.levelSlots_.size());

    auto level_of_slot = [&](u32 slot) -> int {
        for (u32 l = 0; l < num_levels; ++l) {
            if (nest.levelSlots_[l] == slot)
                return static_cast<int>(l);
        }
        return -1;
    };

    // Walk one compute loop order, resolving A's storage levels in level
    // order. A level whose slot-loop opens while an earlier level is still
    // unresolved becomes a full-coordinate Dense loop; it is located (by
    // offset or binary search) once the levels above it have been
    // traversed. Fused nests run this walk once per phase (the phases see
    // the same level-slot order, so their concordance bookkeeping agrees).
    struct Walk
    {
        std::vector<LoopNode> loops;
        std::vector<bool> concordant;
        int vectorIndex = -1;
    };
    auto build = [&](const std::vector<u32>& loops) {
        Walk w;
        w.concordant.assign(num_levels, true);
        u32 next_level = 0;
        for (std::size_t pos = 0; pos < loops.size(); ++pos) {
            u32 slot = loops[pos];
            LoopNode node;
            node.slot = slot;
            node.extent = slotExtent(s, shape, slot);
            if (slot == s.parallelSlot) {
                node.parallel = true;
                node.chunk = s.ompChunk;
            }
            int level = level_of_slot(slot);
            if (level >= 0 && static_cast<u32>(level) == next_level) {
                node.kind = LoopKind::Sparse;
                node.level = level;
                ++next_level;
                // Deeper levels whose loops already ran further out are
                // resolved here, in level order.
                while (next_level < num_levels) {
                    u32 dslot = nest.levelSlots_[next_level];
                    bool opened_above = false;
                    for (std::size_t q = 0; q < pos; ++q)
                        opened_above |= (loops[q] == dslot);
                    if (!opened_above)
                        break;
                    node.locates.push_back(
                        {next_level, dslot,
                         nest.levelFormats_[next_level] ==
                             LevelFormat::Compressed});
                    w.concordant[next_level] = false;
                    ++next_level;
                }
            } else {
                node.kind = LoopKind::Dense;
                node.level = level; // -1 for dense-only indices
            }
            w.loops.push_back(std::move(node));
        }
        panicIf(next_level != num_levels,
                "lowering left storage levels unresolved");
        if (!w.loops.empty()) {
            const LoopNode& last = w.loops.back();
            u32 idx = slotIndex(last.slot);
            if (last.kind == LoopKind::Dense && last.level < 0 &&
                nest.splits_[idx] == 1) {
                w.vectorIndex = static_cast<int>(idx);
            }
        }
        return w;
    };

    nest.leaf_.alg = s.alg;
    if (!info.usesWorkspace) {
        Walk w = build(active);
        nest.loops_ = std::move(w.loops);
        nest.levelConcordant_ = std::move(w.concordant);
        nest.leaf_.vectorIndex = w.vectorIndex;
    } else {
        // Fused lowering: each phase walks the active loop order with the
        // other phase's private slots removed. S015 guarantees the scope
        // loops lead, so the two walks share an identical prefix — the
        // loops [0, scopeDepth) the workspace is declared under.
        std::vector<u32> producer_order, consumer_order;
        u32 scope_depth = 0;
        for (u32 slot : active) {
            u32 idx = slotIndex(slot);
            if (info.producerIndex[idx])
                producer_order.push_back(slot);
            if (info.consumerIndex[idx])
                consumer_order.push_back(slot);
        }
        while (scope_depth < producer_order.size() &&
               info.scopeIndex[slotIndex(producer_order[scope_depth])])
            ++scope_depth;

        Walk prod = build(producer_order);
        Walk cons = build(consumer_order);
        panicIf(prod.concordant != cons.concordant,
                "fused phases disagree on level concordance");
        for (u32 d = 0; d < scope_depth; ++d) {
            panicIf(prod.loops[d].slot != cons.loops[d].slot,
                    "fused phases disagree on the scope prefix");
        }
        nest.loops_ = std::move(prod.loops);
        nest.levelConcordant_ = std::move(prod.concordant);
        nest.leaf_.vectorIndex = prod.vectorIndex;
        nest.consumerLoops_.assign(cons.loops.begin() + scope_depth,
                                   cons.loops.end());
        nest.consumerLeaf_.alg = s.alg;
        nest.consumerLeaf_.vectorIndex = cons.vectorIndex;
        nest.workspace_.present = true;
        nest.workspace_.index = info.workspaceIndex;
        nest.workspace_.extent = shape.indexExtent[info.workspaceIndex];
        nest.workspace_.scopeDepth = scope_depth;
    }
#ifndef NDEBUG
    // Lowering self-check: a verified schedule must lower to a nest that
    // satisfies every structural invariant. A failure here is a lowering
    // bug, not a user error.
    {
        auto diags = analysis::verifyLoopNest(nest);
        panicIf(diags.hasErrors(),
                "lower produced an invalid loop nest:\n" + diags.format());
    }
#endif
    return nest;
}

namespace {

/** ProblemShape matching @p desc's dimensions, with @p dense_extent (or the
 *  algorithm default when 0) for dense-only indices. */
ProblemShape
shapeForFormat(Algorithm alg, const FormatDescriptor& desc, u32 dense_extent)
{
    const auto& info = algorithmInfo(alg);
    fatalIf(desc.order() != info.sparseOrder,
            "format order does not match the algorithm's sparse tensor");
    if (info.sparseOrder == 3) {
        return ProblemShape::forTensor3(alg, desc.dims()[0], desc.dims()[1],
                                        desc.dims()[2], dense_extent);
    }
    return ProblemShape::forMatrix(alg, desc.dims()[0], desc.dims()[1],
                                   dense_extent);
}

/** The concordant SuperSchedule that iterates @p desc in its storage
 *  order; formatOf(result, shape) reproduces @p desc. */
SuperSchedule
storageOrderSchedule(Algorithm alg, const FormatDescriptor& desc)
{
    const auto& info = algorithmInfo(alg);
    fatalIf(desc.order() != info.sparseOrder,
            "format order does not match the algorithm's sparse tensor");

    SuperSchedule s;
    s.alg = alg;
    s.splits = {1, 1, 1, 1};
    for (u32 d = 0; d < desc.order(); ++d)
        s.splits[info.indexOfSparseDim(d)] = desc.splits()[d];

    // Format half: the descriptor's levels verbatim, with the degenerate
    // inner slots of unsplit dimensions appended (the verifier requires
    // a full permutation; activeSparseLevelOrder strips them again).
    for (const LevelSpec& lv : desc.levels()) {
        u32 idx = info.indexOfSparseDim(lv.dim);
        s.sparseLevelOrder.push_back(
            lv.part == LevelPart::Inner ? innerSlot(idx) : outerSlot(idx));
        s.sparseLevelFormats.push_back(lv.fmt);
    }
    for (u32 d = 0; d < desc.order(); ++d) {
        if (desc.splits()[d] == 1) {
            s.sparseLevelOrder.push_back(
                innerSlot(info.indexOfSparseDim(d)));
            s.sparseLevelFormats.push_back(LevelFormat::Uncompressed);
        }
    }

    // Compute half: traverse storage concordantly, dense-only loops
    // innermost (where the per-nonzero dense work runs), degenerate slots
    // wherever (they are elided).
    std::vector<bool> placed(2 * info.numIndices, false);
    auto push = [&](u32 slot) {
        if (!placed[slot]) {
            s.loopOrder.push_back(slot);
            placed[slot] = true;
        }
    };
    for (const LevelSpec& lv : desc.levels()) {
        u32 idx = info.indexOfSparseDim(lv.dim);
        push(lv.part == LevelPart::Inner ? innerSlot(idx) : outerSlot(idx));
    }
    for (u32 idx = 0; idx < info.numIndices; ++idx) {
        if (info.sparseDim[idx] < 0) {
            push(outerSlot(idx));
            push(innerSlot(idx));
        }
    }
    for (u32 slot = 0; slot < 2 * info.numIndices; ++slot)
        push(slot);

    // Workspace kernels need the scope loops outermost (S015): the
    // workspace is private per scope iteration, so no phase loop may run
    // outside it. Storage orders that lead with another dimension (e.g.
    // CSC's column level) then traverse discordantly, via locates.
    if (info.usesWorkspace) {
        std::stable_partition(s.loopOrder.begin(), s.loopOrder.end(),
                              [&](u32 slot) {
                                  return info.scopeIndex[slotIndex(slot)];
                              });
    }

    // Parallel annotation: the outermost non-reduction slot (the executor
    // decides at run time whether the top loop is actually chunked).
    s.parallelSlot = 0;
    for (u32 slot : s.loopOrder) {
        if (!info.isReduction[slotIndex(slot)] && !slotDegenerate(s, slot)) {
            s.parallelSlot = slot;
            break;
        }
    }
    s.numThreads = 48;
    s.ompChunk = 32;
    for (const auto& op : info.denseOperands)
        s.denseRowMajor.push_back(op.rowMajorDefault);
    return s;
}

} // namespace

void
forEachLoop(const LoopNest& nest,
            const std::function<void(const LoopNode&, u32 depth,
                                     NestPhase phase)>& fn)
{
    const auto& loops = nest.loops();
    for (u32 d = 0; d < loops.size(); ++d)
        fn(loops[d], d, NestPhase::Producer);
    if (!nest.fused())
        return;
    const auto& consumer = nest.consumerLoops();
    u32 base = nest.scopePrefixDepth();
    for (u32 d = 0; d < consumer.size(); ++d)
        fn(consumer[d], base + d, NestPhase::Consumer);
}

LoopNest
lowerStorageOrder(Algorithm alg, const FormatDescriptor& desc,
                  u32 dense_extent)
{
    ProblemShape shape = shapeForFormat(alg, desc, dense_extent);
    SuperSchedule s = storageOrderSchedule(alg, desc);
    LoopNest nest = lower(s, shape);
    panicIf(!(formatOf(s, shape) == desc),
            "storage-order schedule does not reproduce the format");
    return nest;
}

} // namespace waco
