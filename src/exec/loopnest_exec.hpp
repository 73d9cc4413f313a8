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
 * Operand shapes, layouts and checks come from one table,
 * algorithmInfo(alg).denseOperands: it names the dense inputs a nest
 * reads and in what order they bind (LoopNestArgs), each one's extents,
 * and the output's shape. makeDenseInputs allocates inputs from it, and
 * inputLayoutsOf (codegen/kernel_backend.hpp) reads their layouts by it.
 *
 * Both engines run through one driver, driveLoopNest: it checks the
 * operands, allocates the output, and chunks the outermost loop over the
 * persistent global ThreadPool (util/thread_pool.hpp) whenever its index
 * variable is not a reduction index — each chunk then writes a disjoint
 * slice of the output (disjoint rows/columns, or disjoint A value
 * positions for SDDMM). Reduction-major nests run serially, which is also
 * what a legal TACO schedule would be forced to do. An engine supplies
 * only the body that runs one chunk: the interpreter's execNode walk, or
 * the JIT'd kernel's function pointer. Chunk boundaries, and therefore
 * float results, are the same for both by construction.
 *
 * Fused workspace nests run the shared scope prefix as the nest; at the
 * fission point each scope iteration zero-initializes a dense workspace,
 * runs the producer phase (w[j] += B*C), then the consumer phase
 * (E += A*w*F). Each chunk owns a private workspace the driver hands it,
 * so chunks of the (non-reducing) scope index never share scratch state.
 */
#pragma once

#include <functional>

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

/**
 * Operands of one executeLoopNest call. `a` is always read; the dense
 * inputs are the non-output entries of algorithmInfo(alg).denseOperands,
 * in table order: the k-th binds the k-th of B, C, F — `vecB` for a
 * one-index operand (SpMV's B), `matB`/`matC`/`matF` otherwise. Each is
 * sized by its operand's indices; a matrix may be in either layout.
 */
struct LoopNestArgs
{
    const HierSparseTensor* a = nullptr;
    const DenseVector* vecB = nullptr; ///< SpMV B.
    const DenseMatrix* matB = nullptr; ///< SpMM / SDDMM / MTTKRP / fused B.
    const DenseMatrix* matC = nullptr; ///< SDDMM / MTTKRP / fused C.
    const DenseMatrix* matF = nullptr; ///< FusedSDDMMSpMM F.

    /** The matrix the @p k-th dense input binds (matB, matC, matF). */
    const DenseMatrix* matrix(std::size_t k) const;
};

/** Call @p visit(k, op) for each dense input of @p alg: the non-output
 *  entries of algorithmInfo(alg).denseOperands in table order, k counting
 *  inputs only (LoopNestArgs binds at most three: B, C, F). */
template <class Visit>
void
forEachDenseInput(Algorithm alg, const Visit& visit)
{
    std::size_t k = 0;
    for (const DenseOperand& op : algorithmInfo(alg).denseOperands) {
        if (op.isOutput)
            continue;
        if (k >= 3)
            panic("more than three dense inputs");
        visit(k++, op);
    }
}

/** Writes the values of dense input @p k (table order, outputs skipped)
 *  in storage order. */
using DenseInputFill =
    std::function<void(std::size_t k, std::vector<float>& values)>;

/**
 * Owned dense inputs of one nest and the LoopNestArgs bound to them and to
 * the sparse operand. Move-only: `args` points into the heap storage of
 * `vecs`/`mats`, which a move carries over unchanged.
 */
struct DenseInputs
{
    std::vector<DenseVector> vecs; ///< SpMV's B, else empty.
    std::vector<DenseMatrix> mats; ///< The matrix inputs, in table order.
    LoopNestArgs args;

    DenseInputs() = default;
    DenseInputs(DenseInputs&&) = default;
    DenseInputs& operator=(DenseInputs&&) = default;
    DenseInputs(const DenseInputs&) = delete;
    DenseInputs& operator=(const DenseInputs&) = delete;
};

/**
 * Allocate every dense input @p nest reads, sized from the nest's shape by
 * its operand's indices, filled by @p fill, the matrices laid out as
 * @p inputRowMajor says (inputRowMajorOf order: one flag per matrix
 * input), and bind them with @p a.
 */
DenseInputs makeDenseInputs(const LoopNest& nest,
                            const std::vector<bool>& inputRowMajor,
                            const HierSparseTensor& a,
                            const DenseInputFill& fill);

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

/**
 * Raw pointers of one execution: A's storage, the dense inputs and the
 * output buffer the driver allocated. This is also the fixed C argument
 * block of every JIT'd kernel (`waco_args_t` in the code emitKernelC
 * prints), so its layout is ABI. One layout for all five algorithms:
 * unused members stay null. pos/crd are indexed by storage level of A.
 */
struct WacoKernelArgs
{
    const u64* pos[8] = {};
    const u32* crd[8] = {};
    const float* vals = nullptr; ///< A's stored values.
    const float* b = nullptr;    ///< Dense operand B (vector or matrix).
    const float* c = nullptr;    ///< Dense operand C.
    const float* f = nullptr;    ///< Dense operand F (fused kernel only).
    float* out = nullptr; ///< Output buffer (per-position values for SDDMM).
};

/**
 * One engine's body: execute the nest for the top-loop range
 * [begin, end) over @p buf. @p scratch is that chunk's private workspace
 * for fused nests (null otherwise).
 */
using NestRangeFn = std::function<void(const WacoKernelArgs& buf, u64 begin,
                                       u64 end, float* scratch)>;

/**
 * The one nest driver both engines run through. It checks @p args
 * against the nest's operand table (executeLoopNest's contract: a
 * FatalError names a missing or mis-shaped input), allocates the output
 * from the output operand's indices (one indexed by A's dimensions,
 * SDDMM's, gets one accumulator per stored position of A), and computes the
 * top loop's domain: coordinates for a Dense/U top node, absolute crd
 * positions for a Compressed one. When the top loop is parallelizable
 * and @p par asks for more than one thread, the domain is chunked over
 * the global ThreadPool; otherwise @p range runs once over all of it.
 * Every call of @p range gets its own zeroed workspace. SDDMM's sparse
 * output is assembled on A's pattern at the end.
 */
LoopNestResult driveLoopNest(const LoopNest& nest, const LoopNestArgs& args,
                             const ParallelConfig& par,
                             const NestRangeFn& range);

/** True when chunks of the top loop write disjoint output slices (the
 *  top index is not a reduction index; fused nests always qualify), so
 *  driveLoopNest may run them in parallel. */
bool topLoopParallelizable(const LoopNest& nest);

} // namespace waco
