#include "nn/mat.hpp"

#include "util/thread_pool.hpp"

namespace waco::nn {

namespace naive {

void
matmul(const Mat& a, const Mat& b, Mat& c)
{
    c = Mat(a.rows, b.cols);
    naive::matmulAcc(a, b, c);
}

void
matmulAcc(const Mat& a, const Mat& b, Mat& c)
{
    panicIf(a.cols != b.rows || c.rows != a.rows || c.cols != b.cols,
            "matmul shape mismatch");
    for (u32 i = 0; i < a.rows; ++i) {
        const float* arow = a.row(i);
        float* crow = c.row(i);
        for (u32 k = 0; k < a.cols; ++k) {
            float av = arow[k];
            if (av == 0.0f)
                continue;
            const float* brow = b.row(k);
            for (u32 j = 0; j < b.cols; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
matmulTN(const Mat& a, const Mat& b, Mat& c)
{
    panicIf(a.rows != b.rows, "matmulTN shape mismatch");
    c = Mat(a.cols, b.cols);
    for (u32 k = 0; k < a.rows; ++k) {
        const float* arow = a.row(k);
        const float* brow = b.row(k);
        for (u32 i = 0; i < a.cols; ++i) {
            float av = arow[i];
            if (av == 0.0f)
                continue;
            float* crow = c.row(i);
            for (u32 j = 0; j < b.cols; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
matmulNT(const Mat& a, const Mat& b, Mat& c)
{
    panicIf(a.cols != b.cols, "matmulNT shape mismatch");
    c = Mat(a.rows, b.rows);
    for (u32 i = 0; i < a.rows; ++i) {
        const float* arow = a.row(i);
        float* crow = c.row(i);
        for (u32 j = 0; j < b.rows; ++j) {
            const float* brow = b.row(j);
            float acc = 0.0f;
            for (u32 k = 0; k < a.cols; ++k)
                acc += arow[k] * brow[k];
            crow[j] = acc;
        }
    }
}

} // namespace naive

namespace {

/** Minimum multiply-adds before a kernel considers ThreadPool panels: tiny
 *  GEMMs (predictor heads, single schedules) must not pay hand-off cost. */
constexpr u64 kParallelFlopThreshold = u64(1) << 21;

/** Rows per ThreadPool chunk for panel-parallel kernels. */
constexpr u64 kPanelRows = 64;

u32
panelThreads()
{
    return globalPool().workers() + 1;
}

/**
 * Saxpy micro-kernel: C[i0..i0+mr) += A[i0..i0+mr) * B over the full k/j
 * extent. mr is 4 (register block) with a remainder path. The j-loops are
 * branch-free contiguous updates, the form the vectorizer handles; each
 * B row is streamed once per 4 output rows instead of once per row.
 */
void
accPanel(const Mat& a, const Mat& b, Mat& c, u32 row_begin, u32 row_end)
{
    const u32 kk = a.cols;
    const u32 nn = b.cols;
    u32 i = row_begin;
    for (; i + 4 <= row_end; i += 4) {
        const float* a0 = a.row(i);
        const float* a1 = a.row(i + 1);
        const float* a2 = a.row(i + 2);
        const float* a3 = a.row(i + 3);
        float* c0 = c.row(i);
        float* c1 = c.row(i + 1);
        float* c2 = c.row(i + 2);
        float* c3 = c.row(i + 3);
        for (u32 k = 0; k < kk; ++k) {
            const float* brow = b.row(k);
            float v0 = a0[k], v1 = a1[k], v2 = a2[k], v3 = a3[k];
            for (u32 j = 0; j < nn; ++j) {
                float bj = brow[j];
                c0[j] += v0 * bj;
                c1[j] += v1 * bj;
                c2[j] += v2 * bj;
                c3[j] += v3 * bj;
            }
        }
    }
    for (; i < row_end; ++i) {
        const float* arow = a.row(i);
        float* crow = c.row(i);
        for (u32 k = 0; k < kk; ++k) {
            const float* brow = b.row(k);
            float v = arow[k];
            for (u32 j = 0; j < nn; ++j)
                crow[j] += v * brow[j];
        }
    }
}

/**
 * Pack B (given as [n x k], i.e. the transpose of the right operand) into a
 * thread-local [k x n] scratch so C = A * B^T can run through the saxpy
 * kernel. Dot-product NT kernels force a horizontal reduction per element,
 * which the vectorizer handles far worse than the saxpy form's contiguous
 * j-updates; the O(k*n) pack amortizes against the O(m*k*n) multiply. The
 * saxpy kernel accumulates every C element in ascending-k order no matter
 * how rows are blocked, so NT results are bitwise-identical across batch
 * splits — the property batched-vs-scalar search identity rests on.
 */
const Mat&
packTransposed(const Mat& bt)
{
    static thread_local Mat pack;
    if (pack.rows != bt.cols || pack.cols != bt.rows)
        pack = Mat(bt.cols, bt.rows);
    for (u32 j = 0; j < bt.rows; ++j) {
        const float* src = bt.row(j);
        for (u32 k = 0; k < bt.cols; ++k)
            pack.at(k, j) = src[k];
    }
    return pack;
}

/** Rank-block micro-kernel for C += A^T * B over a C-row (A-column) panel. */
void
tnPanel(const Mat& a, const Mat& b, Mat& c, u32 row_begin, u32 row_end)
{
    const u32 kk = a.rows;
    const u32 nn = b.cols;
    u32 i = row_begin;
    for (; i + 4 <= row_end; i += 4) {
        float* c0 = c.row(i);
        float* c1 = c.row(i + 1);
        float* c2 = c.row(i + 2);
        float* c3 = c.row(i + 3);
        for (u32 k = 0; k < kk; ++k) {
            const float* arow = a.row(k);
            const float* brow = b.row(k);
            float v0 = arow[i], v1 = arow[i + 1];
            float v2 = arow[i + 2], v3 = arow[i + 3];
            for (u32 j = 0; j < nn; ++j) {
                float bj = brow[j];
                c0[j] += v0 * bj;
                c1[j] += v1 * bj;
                c2[j] += v2 * bj;
                c3[j] += v3 * bj;
            }
        }
    }
    for (; i < row_end; ++i) {
        float* crow = c.row(i);
        for (u32 k = 0; k < kk; ++k) {
            float v = a.at(k, i);
            const float* brow = b.row(k);
            for (u32 j = 0; j < nn; ++j)
                crow[j] += v * brow[j];
        }
    }
}

/** Run @p panel over C's rows, through the pool when the job is big. */
template <typename Panel>
void
runPanels(u32 rows, u64 flops, bool allow_parallel, Panel&& panel)
{
    if (allow_parallel && flops >= kParallelFlopThreshold &&
        globalPool().workers() > 0 && rows > kPanelRows) {
        globalPool().parallelFor(rows, kPanelRows, panelThreads(),
                                 [&](u64 begin, u64 end) {
            panel(static_cast<u32>(begin), static_cast<u32>(end));
        });
    } else {
        panel(0, rows);
    }
}

void
accImpl(const Mat& a, const Mat& b, Mat& c, bool allow_parallel)
{
    panicIf(a.cols != b.rows || c.rows != a.rows || c.cols != b.cols,
            "matmul shape mismatch");
    u64 flops = u64(a.rows) * a.cols * b.cols;
    runPanels(a.rows, flops, allow_parallel, [&](u32 lo, u32 hi) {
        accPanel(a, b, c, lo, hi);
    });
}

} // namespace

void
matmul(const Mat& a, const Mat& b, Mat& c)
{
    c = Mat(a.rows, b.cols);
    accImpl(a, b, c, /*allow_parallel=*/true);
}

void
matmulAcc(const Mat& a, const Mat& b, Mat& c)
{
    accImpl(a, b, c, /*allow_parallel=*/true);
}

void
matmulAccSerial(const Mat& a, const Mat& b, Mat& c)
{
    accImpl(a, b, c, /*allow_parallel=*/false);
}

void
matmulTN(const Mat& a, const Mat& b, Mat& c)
{
    panicIf(a.rows != b.rows, "matmulTN shape mismatch");
    c = Mat(a.cols, b.cols);
    u64 flops = u64(a.rows) * a.cols * b.cols;
    runPanels(a.cols, flops, /*allow_parallel=*/true, [&](u32 lo, u32 hi) {
        tnPanel(a, b, c, lo, hi);
    });
}

void
matmulNT(const Mat& a, const Mat& b, Mat& c)
{
    panicIf(a.cols != b.cols, "matmulNT shape mismatch");
    c = Mat(a.rows, b.rows);
    const Mat& packed = packTransposed(b);
    u64 flops = u64(a.rows) * a.cols * b.rows;
    runPanels(a.rows, flops, /*allow_parallel=*/true, [&](u32 lo, u32 hi) {
        accPanel(a, packed, c, lo, hi);
    });
}

} // namespace waco::nn
