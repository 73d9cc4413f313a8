#include "analysis/schedule_verifier.hpp"

#include <algorithm>
#include <sstream>

namespace waco::analysis {

namespace {

std::string
str(u64 v)
{
    return std::to_string(v);
}

/**
 * Structural error checks (S0xx). Every later phase indexes arrays by slot
 * and index id, so it only runs once this phase reports no errors.
 */
void
checkStructure(const SuperSchedule& s, const ProblemShape* shape,
               DiagnosticBag& bag)
{
    const auto& info = algorithmInfo(s.alg);
    const u32 num_slots = 2 * info.numIndices;

    if (shape && shape->alg != s.alg) {
        bag.add(DiagCode::S014_AlgorithmMismatch,
                "schedule is for " + algorithmName(s.alg) +
                    " but the problem shape is for " +
                    algorithmName(shape->alg));
    }

    if (s.loopOrder.size() != num_slots) {
        bag.add(DiagCode::S001_LoopOrderSize,
                "loop order has " + str(s.loopOrder.size()) +
                    " slots, expected " + str(num_slots));
    }
    std::vector<bool> seen(num_slots, false);
    for (u32 slot : s.loopOrder) {
        if (slot >= num_slots) {
            bag.add(DiagCode::S002_SlotOutOfRange,
                    "loop order slot " + str(slot) + " out of range [0, " +
                        str(num_slots) + ")");
            continue;
        }
        if (seen[slot]) {
            bag.add(DiagCode::S003_DuplicateSlot,
                    "slot " + str(slot) + " appears twice in the loop order",
                    static_cast<int>(slotIndex(slot)));
        }
        seen[slot] = true;
    }

    if (s.sparseLevelOrder.size() != 2 * info.sparseOrder) {
        bag.add(DiagCode::S004_LevelOrderSize,
                "sparse level order has " + str(s.sparseLevelOrder.size()) +
                    " slots, expected " + str(2 * info.sparseOrder));
    }
    std::vector<bool> level_seen(num_slots, false);
    for (std::size_t l = 0; l < s.sparseLevelOrder.size(); ++l) {
        u32 slot = s.sparseLevelOrder[l];
        if (slot >= num_slots) {
            bag.add(DiagCode::S002_SlotOutOfRange,
                    "sparse level order slot " + str(slot) +
                        " out of range [0, " + str(num_slots) + ")",
                    -1, static_cast<int>(l));
            continue;
        }
        if (info.sparseDim[slotIndex(slot)] < 0) {
            bag.add(DiagCode::S005_LevelOrderDenseIndex,
                    "sparse level order references dense-only index '" +
                        info.indexNames[slotIndex(slot)] + "'",
                    static_cast<int>(slotIndex(slot)),
                    static_cast<int>(l));
        }
        if (level_seen[slot]) {
            bag.add(DiagCode::S006_LevelOrderDuplicate,
                    "slot " + str(slot) +
                        " appears twice in the sparse level order",
                    static_cast<int>(slotIndex(slot)),
                    static_cast<int>(l));
        }
        level_seen[slot] = true;
    }
    if (s.sparseLevelFormats.size() != s.sparseLevelOrder.size()) {
        bag.add(DiagCode::S007_LevelFormatMisaligned,
                "level formats have " + str(s.sparseLevelFormats.size()) +
                    " entries for " + str(s.sparseLevelOrder.size()) +
                    " level-order slots");
    }

    u32 pidx = slotIndex(s.parallelSlot);
    if (pidx >= info.numIndices) {
        bag.add(DiagCode::S008_ParallelSlotRange,
                "parallel slot " + str(s.parallelSlot) +
                    " out of range [0, " + str(num_slots) + ")");
    } else if (info.isReduction[pidx]) {
        bag.add(DiagCode::S009_ParallelReduction,
                "parallelized slot belongs to reduction index '" +
                    info.indexNames[pidx] + "'",
                static_cast<int>(pidx));
    }

    for (u32 idx = 0; idx < info.numIndices; ++idx) {
        if (s.splits[idx] == 0) {
            bag.add(DiagCode::S010_SplitZero,
                    "index '" + info.indexNames[idx] + "' has split size 0",
                    static_cast<int>(idx));
        }
        if (shape && shape->indexExtent[idx] == 0) {
            bag.add(DiagCode::S011_ShapeExtentZero,
                    "index '" + info.indexNames[idx] +
                        "' has extent 0 in the problem shape",
                    static_cast<int>(idx));
        }
    }

    if (s.denseRowMajor.size() != info.denseOperands.size()) {
        bag.add(DiagCode::S012_DenseLayoutMisaligned,
                "dense layout flags have " + str(s.denseRowMajor.size()) +
                    " entries for " + str(info.denseOperands.size()) +
                    " dense operands");
    }
}

/**
 * Workspace-scope order (S015): a workspace kernel's scratch tensor is
 * private per iteration of the scope loops, so every active scope slot
 * must precede every other active slot — a phase loop outside the scope
 * would mix workspace contents across scope iterations. Runs only on
 * structurally valid schedules (needs a well-formed loop order).
 */
void
checkWorkspaceOrder(const SuperSchedule& s, DiagnosticBag& bag)
{
    const auto& info = algorithmInfo(s.alg);
    if (!info.usesWorkspace)
        return;
    bool phase_seen = false;
    for (u32 slot : activeLoopOrder(s)) {
        u32 idx = slotIndex(slot);
        if (!info.scopeIndex[idx]) {
            phase_seen = true;
        } else if (phase_seen) {
            bag.add(DiagCode::S015_WorkspaceScopeOrder,
                    "scope loop '" + info.indexNames[idx] +
                        "' runs inside a phase loop; workspace scope loops "
                        "must be outermost",
                    static_cast<int>(idx));
        }
    }
}

/** Warnings (S1xx) — only called on structurally valid schedules. */
void
checkWarnings(const SuperSchedule& s, const ProblemShape* shape,
              DiagnosticBag& bag)
{
    const auto& info = algorithmInfo(s.alg);
    for (u32 idx = 0; idx < info.numIndices; ++idx) {
        if (!isPow2(s.splits[idx])) {
            bag.add(DiagCode::S101_SplitNotPow2,
                    "split " + str(s.splits[idx]) + " of index '" +
                        info.indexNames[idx] +
                        "' is outside the paper's power-of-two space",
                    static_cast<int>(idx));
        }
        if (shape && s.splits[idx] > shape->indexExtent[idx]) {
            bag.add(DiagCode::S102_SplitExceedsExtent,
                    "split " + str(s.splits[idx]) + " of index '" +
                        info.indexNames[idx] + "' exceeds its extent " +
                        str(shape->indexExtent[idx]) +
                        " (will be clamped on lowering)",
                    static_cast<int>(idx));
        }
    }
    if (slotDegenerate(s, s.parallelSlot)) {
        bag.add(DiagCode::S103_ParallelDegenerate,
                "parallel annotation sits on the elided split-1 inner slot "
                "of index '" +
                    info.indexNames[slotIndex(s.parallelSlot)] +
                    "'; the program runs serial",
                static_cast<int>(slotIndex(s.parallelSlot)));
    }
}

/** Perf notes (S2xx) — only called on structurally valid schedules. */
void
checkPerfNotes(const SuperSchedule& s, DiagnosticBag& bag)
{
    const auto& info = algorithmInfo(s.alg);
    const auto loops = activeLoopOrder(s);
    const auto levels = activeSparseLevelOrder(s);
    const auto fmts = activeSparseLevelFormats(s);

    auto loop_pos = [&](u32 slot) -> std::size_t {
        for (std::size_t p = 0; p < loops.size(); ++p) {
            if (loops[p] == slot)
                return p;
        }
        return loops.size();
    };

    // Replay lower()'s level-resolution walk to find the discordant levels:
    // a level whose loop opens while an earlier level is still untraversed
    // is resolved later by a locate — a binary search when Compressed
    // (Section 3.1's discordant-traversal cost).
    std::size_t next = 0;
    for (std::size_t pos = 0; pos < loops.size(); ++pos) {
        if (next >= levels.size() || loops[pos] != levels[next])
            continue;
        ++next;
        while (next < levels.size() && loop_pos(levels[next]) < pos) {
            if (fmts[next] == LevelFormat::Compressed) {
                bag.add(DiagCode::S201_DiscordantBinarySearch,
                        "compressed level " + str(next) + " ('" +
                            info.indexNames[slotIndex(levels[next])] +
                            "') is traversed discordantly and will be "
                            "resolved by binary search per iteration",
                        static_cast<int>(slotIndex(levels[next])),
                        static_cast<int>(next));
            }
            ++next;
        }
    }

    if (!loops.empty()) {
        u32 last = loops.back();
        // Innermost loop over a compressed level: the pos/crd indirection
        // defeats vectorization of the compute statement.
        for (std::size_t l = 0; l < levels.size(); ++l) {
            if (levels[l] == last && fmts[l] == LevelFormat::Compressed) {
                bag.add(DiagCode::S202_InnerLoopNotVectorizable,
                        "innermost loop iterates compressed level " +
                            str(l) + "; the compute statement cannot be "
                            "vectorized",
                        static_cast<int>(slotIndex(last)),
                        static_cast<int>(l));
            }
        }
        // Vectorizable dense tail whose access into a dense operand is
        // strided by the operand's layout choice.
        u32 idx = slotIndex(last);
        bool dense_tail = info.sparseDim[idx] < 0 && s.splits[idx] == 1;
        if (dense_tail && s.denseRowMajor.size() == info.denseOperands.size()) {
            for (std::size_t op = 0; op < info.denseOperands.size(); ++op) {
                const auto& operand = info.denseOperands[op];
                const auto& ops_idx = operand.indices;
                bool uses = std::find(ops_idx.begin(), ops_idx.end(), idx) !=
                            ops_idx.end();
                if (!uses || ops_idx.size() < 2)
                    continue;
                bool row_major = denseRowMajorOf(s, op);
                bool contiguous = row_major ? ops_idx.back() == idx
                                            : ops_idx.front() == idx;
                if (!contiguous) {
                    bag.add(DiagCode::S203_StridedVectorAccess,
                            "vector tail over '" + info.indexNames[idx] +
                                "' strides operand " + operand.name +
                                " under its " +
                                (row_major ? "row" : "column") +
                                "-major layout",
                            static_cast<int>(idx));
                }
            }
        }
    }
}

DiagnosticBag
verifyImpl(const SuperSchedule& s, const ProblemShape* shape)
{
    DiagnosticBag bag;
    checkStructure(s, shape, bag);
    if (bag.hasErrors())
        return bag; // malformed arrays make the deeper walks unsafe
    checkWorkspaceOrder(s, bag);
    if (bag.hasErrors())
        return bag; // fused lowering depends on the scope prefix
    checkAccessCapabilities(s, requiredAccess(s.alg), bag);
    checkWarnings(s, shape, bag);
    checkPerfNotes(s, bag);
    return bag;
}

} // namespace

DiagnosticBag
verifySchedule(const SuperSchedule& s, const ProblemShape& shape)
{
    return verifyImpl(s, &shape);
}

DiagnosticBag
verifySchedule(const SuperSchedule& s)
{
    return verifyImpl(s, nullptr);
}

AccessRequirements
requiredAccess(Algorithm alg)
{
    (void)alg;
    // See the header: A is read-only for SpMV/SpMM/MTTKRP and SDDMM's
    // output writes are aligned with A's pattern, so no current kernel
    // random-inserts. FusedSDDMMSpMM reads A's pattern twice (producer and
    // consumer phase) but its workspace and output are dense, so it adds
    // no format capability either. Locate needs are schedule-dependent
    // (discordance), not algorithm-dependent, and both level formats
    // support locate (offset for U, binary search for C).
    return {};
}

void
checkAccessCapabilities(const SuperSchedule& s, const AccessRequirements& req,
                        DiagnosticBag& bag)
{
    if (!req.randomInsert)
        return;
    const auto& info = algorithmInfo(s.alg);
    const auto levels = activeSparseLevelOrder(s);
    const auto fmts = activeSparseLevelFormats(s);
    for (std::size_t l = 0; l < levels.size(); ++l) {
        if (!levelSupportsRandomInsert(fmts[l])) {
            bag.add(DiagCode::S013_CompressedRandomInsert,
                    "kernel requires random insert but level " + str(l) +
                        " ('" + info.indexNames[slotIndex(levels[l])] +
                        "') is Compressed (append-only)",
                    static_cast<int>(slotIndex(levels[l])),
                    static_cast<int>(l));
        }
    }
}

SuperSchedule
canonicalizeSchedule(const SuperSchedule& s)
{
    if (verifySchedule(s).hasErrors())
        return s;
    const auto& info = algorithmInfo(s.alg);
    SuperSchedule out = s;

    // Compute half: each degenerate inner slot moves directly after its
    // outer half. activeLoopOrder() strips them either way, so the lowered
    // nest is identical; only the serialized key changes.
    out.loopOrder.clear();
    for (u32 slot : s.loopOrder) {
        if (slotDegenerate(s, slot))
            continue;
        out.loopOrder.push_back(slot);
        if (!slotIsInner(slot) && s.splits[slotIndex(slot)] == 1)
            out.loopOrder.push_back(innerSlot(slotIndex(slot)));
    }

    // Format half: degenerate slots sink to the end in slot order, and
    // their stripped format letter is normalized to Uncompressed.
    out.sparseLevelOrder.clear();
    out.sparseLevelFormats.clear();
    for (std::size_t l = 0; l < s.sparseLevelOrder.size(); ++l) {
        if (slotDegenerate(s, s.sparseLevelOrder[l]))
            continue;
        out.sparseLevelOrder.push_back(s.sparseLevelOrder[l]);
        out.sparseLevelFormats.push_back(s.sparseLevelFormats[l]);
    }
    std::vector<u32> degenerate;
    for (u32 slot : s.sparseLevelOrder) {
        if (slotDegenerate(s, slot))
            degenerate.push_back(slot);
    }
    std::sort(degenerate.begin(), degenerate.end());
    for (u32 slot : degenerate) {
        out.sparseLevelOrder.push_back(slot);
        out.sparseLevelFormats.push_back(LevelFormat::Uncompressed);
    }

    // Dense operands with a fixed layout always carry the paper's choice
    // in the key, whatever a mutated flag says: consumers force it back.
    for (std::size_t op = 0; op < info.denseOperands.size() &&
                             op < out.denseRowMajor.size();
         ++op) {
        if (info.denseOperands[op].layoutFixed)
            out.denseRowMajor[op] = info.denseOperands[op].rowMajorDefault;
    }
    return out;
}

std::string
canonicalKey(const SuperSchedule& s)
{
    return canonicalizeSchedule(s).key();
}

} // namespace waco::analysis
