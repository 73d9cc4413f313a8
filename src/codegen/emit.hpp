/**
 * @file
 * TACO-style C code emission (the paper's Figure 10c shows such generated
 * code). The emitter is deliberately NOT an independent lowering: it
 * prints the same lowered LoopNest (ir/loopnest.hpp) that the generic
 * interpreter in exec/loopnest_exec.cpp executes and the cost model walks,
 * as the translation unit the JIT backend (codegen/kernel_backend.hpp)
 * compiles and runs. Every loop and locate step in the printed C
 * corresponds one-to-one to a node of that shared IR, so what you read
 * is exactly what runs. The schedule's parallel annotation is not
 * printed: the host drives threading through driveLoopNest, and
 * SuperSchedule::describe() shows it.
 *
 * Sparse levels reached in storage order print as sequential pos/crd
 * loops; levels whose loop is ordered discordantly print an explicit
 * locate — a direct offset for U levels, a binary search over crd
 * (waco_search) for C levels — mirroring what TACO generates for
 * discordant traversals (Section 3.1).
 */
#pragma once

#include <string>
#include <vector>

#include "ir/loopnest.hpp"

namespace waco {

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
 * [begin, end) is a range of the outermost loop's domain (coordinates
 * for Dense/U, absolute crd positions for Compressed); driveLoopNest
 * (exec/loopnest_exec.hpp) invokes it per chunk exactly as it invokes the
 * interpreter, so chunk boundaries, and therefore float results, are
 * bitwise identical to exec/loopnest_exec.cpp. Loops other than the top
 * and the innermost call args->stop(args->token) every kPollEvery
 * iterations and return once it says stop (the run's wall-clock budget).
 *
 * Two DietCode-style post-emit passes shape the output. Split-tail
 * predicate removal: when the later-binding half of a split index is a
 * dense/U loop, that loop's trip count is clamped to
 * min(split, extent - outer*split) instead of guarding every leaf visit;
 * indices the pass cannot prove clampable keep the interpreter-equivalent
 * leaf guard. Workspace hoisting: the fused nests' workspace `w[J]` is
 * the caller-provided heap @p scratch parameter, zero-initialized per
 * scope iteration exactly like the interpreter's per-chunk private
 * workspace.
 */
std::string emitKernelC(const LoopNest& nest,
                        const KernelEmitOptions& opt = {});

} // namespace waco
