/**
 * @file
 * TACO-style C code emission (the paper's Figure 10c shows such generated
 * code). The emitter is deliberately NOT an independent lowering: it
 * pretty-prints the same lowered LoopNest (ir/loopnest.hpp) that the
 * generic interpreter in exec/loopnest_exec.cpp executes and the cost
 * model walks. Every loop, locate step, and parallel annotation in the
 * printed C corresponds one-to-one to a node of that shared IR, so what
 * you read is exactly what runs.
 *
 * Sparse levels reached in storage order print as sequential pos/crd
 * loops; levels whose loop is ordered discordantly print an explicit
 * locate — a direct offset for U levels, a binary search over crd for C
 * levels — mirroring what TACO generates for discordant traversals
 * (Section 3.1).
 */
#pragma once

#include <string>
#include <vector>

#include "ir/loopnest.hpp"

namespace waco {

/** Emit C-like source implementing @p s on @p shape (lowers internally). */
std::string emitC(const SuperSchedule& s, const ProblemShape& shape);

/** Emit C-like source for an already-lowered nest. @p scheduleKey, when
 *  non-empty, is echoed into the header comment for provenance. */
std::string emitC(const LoopNest& nest, u32 numThreads = 48,
                  const std::string& scheduleKey = "");

/** Options for the compilable kernel emitter (emitKernelC). */
struct KernelEmitOptions
{
    /**
     * Row-major flag per dense INPUT operand of the algorithm, in
     * algorithmInfo().denseOperands order with output operands skipped
     * (so SpMM: {B}, SDDMM/MTTKRP: {B, C}, FusedSDDMMSpMM: {B, C, F}).
     * Empty means every input operand's rowMajorDefault. The generated
     * code bakes the resulting strides in as literals, so a kernel is
     * specialized per layout combination (part of the cache key).
     */
    std::vector<bool> inputRowMajor;
    /** Echoed into the generated header comment for provenance. */
    std::string cacheKey;
};

/**
 * Emit a complete, warning-free (-Wall -Wextra -Werror) C translation
 * unit implementing @p nest behind the fixed C ABI of
 * codegen/kernel_cache.hpp:
 *
 *   void waco_kernel(const waco_args_t* args,
 *                    int64_t begin, int64_t end, float* scratch);
 *
 * [begin, end) is the outermost loop's range in the interpreter's
 * chunking domain (coordinates for Dense/U, absolute crd positions for
 * Compressed), so the host drives parallelism by invoking disjoint
 * ranges from the thread pool — chunk boundaries, and therefore float
 * results, are bitwise identical to exec/loopnest_exec.cpp.
 *
 * Unlike emitC (the pretty-printer, kept verbatim for readability and
 * its golden tests), this emitter applies two DietCode-style post-emit
 * passes. Split-tail predicate removal: when the later-binding half of a
 * split index is a dense/U loop, that loop's trip count is clamped to
 * min(split, extent - outer*split) instead of guarding every leaf visit;
 * indices the pass cannot prove clampable keep the interpreter-equivalent
 * leaf guard. Workspace hoisting: the fused nests' `float w[J]` VLA
 * becomes the caller-provided heap @p scratch parameter, zero-initialized
 * per scope iteration exactly like the interpreter's per-chunk private
 * workspace.
 */
std::string emitKernelC(const LoopNest& nest,
                        const KernelEmitOptions& opt = {});

} // namespace waco
