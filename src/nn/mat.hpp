/**
 * @file
 * Minimal dense row-major float matrix used by the neural-network stack.
 * Deliberately separate from tensor/dense.hpp: kernels there model the
 * *workload*; this type is plumbing for the cost model's own math.
 *
 * The matmul family dispatches to register-blocked, cache-friendly kernels
 * whose inner loops are written for autovectorization (contiguous j-loops
 * for the saxpy forms, explicit float lanes for the dot-product form).
 * Large row panels are farmed out to the process-wide ThreadPool. The
 * original scalar implementations are kept under nn::naive as plain
 * reference functions the GEMM differential test compares against (like
 * exec/reference for the sparse kernels); nothing dispatches to them.
 *
 * Summation order differs between the blocked and naive kernels, so results
 * agree exactly only when products and partial sums are exactly
 * representable (e.g. integer-valued floats — what the differential tests
 * use) and to rounding error otherwise.
 */
#pragma once

#include <algorithm>
#include <vector>

#include "util/common.hpp"
#include "util/rng.hpp"

namespace waco::nn {

/** Row-major float matrix. */
struct Mat
{
    u32 rows = 0;
    u32 cols = 0;
    std::vector<float> v;

    Mat() = default;
    Mat(u32 r, u32 c, float fill = 0.0f) : rows(r), cols(c), v(static_cast<std::size_t>(r) * c, fill) {}

    float& at(u32 r, u32 c) { return v[static_cast<std::size_t>(r) * cols + c]; }
    float at(u32 r, u32 c) const { return v[static_cast<std::size_t>(r) * cols + c]; }
    float* row(u32 r) { return v.data() + static_cast<std::size_t>(r) * cols; }
    const float* row(u32 r) const { return v.data() + static_cast<std::size_t>(r) * cols; }

    void zero() { std::fill(v.begin(), v.end(), 0.0f); }
};

/** C = A * B (rows_a x cols_b). */
void matmul(const Mat& a, const Mat& b, Mat& c);

/** C = A^T * B. */
void matmulTN(const Mat& a, const Mat& b, Mat& c);

/** C = A * B^T. */
void matmulNT(const Mat& a, const Mat& b, Mat& c);

/** C += A * B. */
void matmulAcc(const Mat& a, const Mat& b, Mat& c);

/**
 * C += A * B, never using the ThreadPool. Required inside
 * ThreadPool::parallelFor bodies: parallelFor is not reentrant, so a
 * worker spawning a nested parallel matmul would deadlock on the caller
 * mutex.
 */
void matmulAccSerial(const Mat& a, const Mat& b, Mat& c);

/** Scalar reference kernels for the differential tests. */
namespace naive {
void matmul(const Mat& a, const Mat& b, Mat& c);
void matmulTN(const Mat& a, const Mat& b, Mat& c);
void matmulNT(const Mat& a, const Mat& b, Mat& c);
void matmulAcc(const Mat& a, const Mat& b, Mat& c);
} // namespace naive

} // namespace waco::nn
