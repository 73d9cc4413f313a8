/**
 * @file
 * The single generic executor: interprets a lowered LoopNest against a
 * HierSparseTensor and dense operands. All five algorithms (SpMV, SpMM,
 * SDDMM, MTTKRP, FusedSDDMMSpMM) run through executeLoopNest; there are no
 * per-format or per-algorithm kernels. Callers run a nest through
 * KernelBackend::execute (codegen/kernel_backend.hpp), which picks this
 * interpreter or the JIT'd kernel. A pre-built tensor runs in its own
 * storage order via the nest lowerStorageOrder(alg, t.descriptor()) gives.
 *
 * The interpreter walks the nest's typed nodes: Dense nodes iterate full
 * coordinate ranges, Sparse nodes traverse A's pos/crd (or padded U)
 * levels, and locate steps resolve discordantly-ordered levels by direct
 * offset (U) or binary search over crd (C) — so discordant schedules
 * execute with exactly the cost structure the paper describes (§3.1).
 * Compute leaves are template-specialized per algorithm so the innermost
 * loops stay tight; an unsplit dense-only innermost loop is fused into the
 * leaf as a vectorizable tail.
 *
 * Parallelism: the outermost loop is chunked over the persistent global
 * ThreadPool (util/thread_pool.hpp) whenever its index variable is not a
 * reduction index — each chunk then writes a disjoint slice of the output
 * (disjoint rows/columns, or disjoint A value positions for SDDMM).
 * Reduction-major nests run serially, which is also what a legal TACO
 * schedule would be forced to do.
 *
 * Fused workspace nests run through a scope driver: the shared scope
 * prefix executes once, and at the fission point each scope iteration
 * zero-initializes a dense workspace, runs the producer phase (w[j] +=
 * B*C), then the consumer phase (E += A*w*F). Each parallel chunk owns a
 * private workspace vector, so chunks of the (non-reducing) scope index
 * never share scratch state.
 */
#pragma once

#include <utility>
#include <vector>

#include "ir/loopnest.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"
#include "tensor/format.hpp"

namespace waco {

/**
 * OpenMP-style dynamic scheduling of the outermost loop: chunks of
 * @p chunk iterations are handed to @p threads workers
 * (#pragma omp parallel for schedule(dynamic, chunk)).
 */
struct ParallelConfig
{
    u32 threads = 1;
    u32 chunk = 128;
};

/** Operands of one executeLoopNest call; only the algorithm's inputs are
 *  read (`a` always, `vecB` for SpMV, `matB`/`matC` per einsum). */
struct LoopNestArgs
{
    const HierSparseTensor* a = nullptr;
    const DenseVector* vecB = nullptr; ///< SpMV B.
    const DenseMatrix* matB = nullptr; ///< SpMM / SDDMM / MTTKRP / fused B.
    const DenseMatrix* matC = nullptr; ///< SDDMM / MTTKRP / fused C.
    const DenseMatrix* matF = nullptr; ///< FusedSDDMMSpMM F.
};

/** Result of one executeLoopNest call; the algorithm determines which
 *  member is populated. */
struct LoopNestResult
{
    DenseVector vec;     ///< SpMV output C.
    DenseMatrix mat;     ///< SpMM output C / MTTKRP output D / fused E.
    SparseMatrix sparse; ///< SDDMM output D (A's sparsity pattern).
};

/**
 * Execute @p nest over the given operands. The tensor must be stored in
 * the format the nest was lowered for (formatOf of the lowered schedule).
 */
LoopNestResult executeLoopNest(const LoopNest& nest, const LoopNestArgs& args,
                               const ParallelConfig& par = {1, 128});

/** Process-wide count of executeLoopNest invocations — lets tests assert
 *  that executions dispatch through the generic executor. */
u64 loopNestExecutionCount();

// Pieces of the interpreter that any alternative execution engine (the
// JIT'd CompiledBackend in codegen/kernel_backend.hpp) must share so its
// argument contract, chunking domain, and output assembly can never
// drift from the interpreter's.
namespace exec_detail {

/** Validate that @p args carries the operands @p nest's algorithm needs
 *  with matching shapes, and that the tensor physically realizes the
 *  nest's format half. Fatal/panic on mismatch (executeLoopNest's exact
 *  contract). */
void checkLoopNestArgs(const LoopNest& nest, const LoopNestArgs& args);

/** Chunking domain of the outermost loop: coordinates for a Dense/U top
 *  node, absolute crd positions for a Compressed one. */
std::pair<u64, u64> topLoopDomain(const LoopNest& nest,
                                  const HierSparseTensor& a);

/** True when chunks of the top loop write disjoint output slices (the
 *  top index is not a reduction index; fused nests always qualify). */
bool topLoopParallelizable(const LoopNest& nest);

/** Serial storage-order pass assembling SDDMM's sparse output on A's
 *  pattern from per-stored-position accumulators (padding and explicit
 *  stored zeros dropped). */
SparseMatrix assembleSddmmOutput(const HierSparseTensor& a,
                                 const std::vector<float>& dvals);

} // namespace exec_detail

} // namespace waco
