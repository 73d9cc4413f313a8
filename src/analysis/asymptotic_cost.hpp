/**
 * @file
 * Asymptotic cost bounds and schedule dominance — stage 0 of the two-stage
 * search (Ahrens & Kjolstad's asymptotic cost model, adapted to the
 * SuperSchedule space).
 *
 * asymptoticBounds() walks a lowered LoopNest (including fused
 * producer/consumer phases and the workspace init loop) and derives, per
 * schedule, a vector of symbolic big-O bounds:
 *
 *   iterations   total loop-body entries across every phase,
 *   search       discordant locate cost (binary probes weighted by log),
 *   traffic:X    memory touches per operand (A, each dense operand, w).
 *
 * Bounds are polynomials over the abstract problem-size symbols
 *
 *   N, M, L   coordinate extents of the sparse tensor's dimensions,
 *   K         extent of any dense-only index,
 *   nnz_row   average nonzeros per row (nnz == N * nnz_row by definition),
 *   log       a binary-search factor, incomparable to everything else.
 *
 * Coefficients and constant factors (split sizes, SIMD width, thread
 * counts) are deliberately dropped: two schedules differing only in
 * constants must come out Equal/incomparable, never dominated, because
 * the analytic pass cannot see which constant wins on real hardware.
 *
 * Comparison is a PARTIAL order. polyLeq(a, b) holds iff every monomial
 * of a is bounded by some monomial of b under the side conditions that
 * every symbol is >= 1 and nnz_row <= M (2D; nnz <= N*M) or
 * nnz_row <= M*L (3D). dominates(a, b) holds iff every bound of a is <=
 * the corresponding bound of b and at least one is strictly smaller —
 * a strict partial order (irreflexive, antisymmetric, transitive), which
 * tests/test_asymptotic.cpp proves by property over sampled schedules.
 *
 * Bounds are UPPER bounds, and position-count estimates can overshoot
 * for scrambled storage orders (when the coordinate product and nnz are
 * incomparable the estimate keeps the product, which may exceed the true
 * stored-position count by a dimension factor). Dropping a candidate is
 * only justified when its own bound is attained up to constants — the
 * soundness chain is b_actual ~ b_bound >= a_bound >= a_actual — so each
 * profile carries a `tight` flag (no incomparable clamp fired) and
 * prunes(a, b) = dominates(a, b) && b.tight is the filter relation.
 *
 * paretoFilter() applies prunes() over the tuner's rank-ordered top-k
 * candidate list: a candidate is discarded only when an already-kept
 * candidate dominates it AND its own bounds are tight, so incomparable or
 * loose-bounded candidates all survive and there is never a total-order
 * sort. asymptoticPerfNotes() surfaces the same comparison against the
 * default CSR/CSF schedule as WACO-S3xx perf-note diagnostics
 * (tune_cli --verify-only).
 */
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "ir/loopnest.hpp"

namespace waco::analysis {

/** Abstract problem-size symbols of the bound polynomials. */
enum class AsymSym : unsigned char
{
    N = 0,      ///< Extent of sparse dimension 0 (rows).
    M = 1,      ///< Extent of sparse dimension 1 (cols).
    L = 2,      ///< Extent of sparse dimension 2 (3D tensors only).
    K = 3,      ///< Extent of any dense-only index.
    NnzRow = 4, ///< nnz / N; nnz itself is the monomial N * nnz_row.
    Log = 5,    ///< Binary-search factor, incomparable to the others.
};

constexpr std::size_t kNumAsymSyms = 6;

/** One monomial: a product of integer powers of the six symbols. The
 *  coefficient is intentionally absent — bounds are big-O classes. */
struct AsymTerm
{
    std::array<int, kNumAsymSyms> exp = {0, 0, 0, 0, 0, 0};

    bool operator==(const AsymTerm& o) const { return exp == o.exp; }
};

/**
 * A sum of monomials (duplicates merged, coefficients dropped). The empty
 * polynomial is the zero bound (e.g. the search cost of a fully concordant
 * nest); zero is <= everything.
 */
class AsymPoly
{
  public:
    AsymPoly() = default; ///< Zero.

    static AsymPoly one();
    static AsymPoly sym(AsymSym s, int power = 1);
    /** The nnz monomial, N * nnz_row. */
    static AsymPoly nnz();

    bool isZero() const { return terms_.empty(); }
    const std::vector<AsymTerm>& terms() const { return terms_; }

    AsymPoly& operator+=(const AsymPoly& o);
    AsymPoly operator+(const AsymPoly& o) const;
    AsymPoly operator*(const AsymPoly& o) const;

    /** Drop monomials absorbed by another monomial of the same polynomial
     *  under the threeD side condition (nnz_row <= M or <= M*L): purely a
     *  readability normalization, comparisons are unaffected. */
    void normalize(bool threeD);

    /** "nnz * K + N", with N * nnz_row pairs printed as nnz. "0" when
     *  zero. Deterministic term order. */
    std::string str() const;

  private:
    void addTerm(const AsymTerm& t);

    std::vector<AsymTerm> terms_;
};

/** Outcome of comparing two bounds in the dominance partial order. */
enum class PolyOrder : unsigned char
{
    Equal,        ///< a <= b and b <= a (same big-O class).
    Less,         ///< a <= b and not b <= a.
    Greater,      ///< b <= a and not a <= b.
    Incomparable, ///< Neither direction holds.
};

/**
 * True when @p a is asymptotically bounded by @p b under: all symbols
 * >= 1, and nnz_row <= M (2D) or nnz_row <= M * L (@p threeD). A
 * reflexive, transitive relation (preorder).
 */
bool polyLeq(const AsymPoly& a, const AsymPoly& b, bool threeD);

/** Classify the pair (two polyLeq probes). */
PolyOrder comparePoly(const AsymPoly& a, const AsymPoly& b, bool threeD);

/**
 * The asymptotic cost profile of one lowered schedule: a fixed-length
 * vector of named bounds ([0] iterations, [1] search, then traffic per
 * operand). Two profiles are comparable only for the same algorithm.
 */
struct AsymptoticBounds
{
    Algorithm alg = Algorithm::SpMV;
    bool threeD = false; ///< Selects the nnz_row side condition.
    /** False when a position estimate took the incomparable-clamp branch
     *  (coordinate product vs nnz): the bounds are still sound upper
     *  bounds but may overshoot the actual cost, so they must not
     *  justify pruning this schedule (see prunes()). */
    bool tight = true;
    std::vector<std::string> names;
    std::vector<AsymPoly> bounds;

    const AsymPoly& iterations() const { return bounds[0]; }
    const AsymPoly& searchCost() const { return bounds[1]; }

    /** One line per bound: "iterations: O(nnz + N)". */
    std::string describe() const;
};

/** Derive the bound profile by walking @p nest (both phases + workspace
 *  init for fused nests). */
AsymptoticBounds asymptoticBounds(const LoopNest& nest);

/** Convenience: lower (validating) and derive. Throws FatalError for
 *  schedules that do not lower; run verifySchedule first. */
AsymptoticBounds asymptoticBounds(const SuperSchedule& s,
                                  const ProblemShape& shape);

/**
 * Strict dominance: every bound of @p a is <= the matching bound of
 * @p b and at least one is strictly smaller. False for profiles of
 * different algorithms. A strict partial order.
 */
bool dominates(const AsymptoticBounds& a, const AsymptoticBounds& b);

/**
 * The filter relation: dominates(a, b) AND b.tight. Discarding b
 * unmeasured is justified only when b's bounds are attained up to
 * shape-independent constants (b_actual ~ b_bound >= a_bound >= a_actual);
 * a loose-bounded b may be far cheaper than its bounds suggest and must
 * survive to measurement. Irreflexive and antisymmetric like dominates();
 * transitivity over a kept set holds because keeping decisions only ever
 * remove candidates dominated by a KEPT (earlier) one.
 */
bool prunes(const AsymptoticBounds& a, const AsymptoticBounds& b);

/** Human-readable reason, e.g. "iterations: O(nnz) < O(N * M); ..."
 *  listing every strictly-smaller bound. Empty when !dominates(a, b). */
std::string explainDomination(const AsymptoticBounds& a,
                              const AsymptoticBounds& b);

/**
 * The tuner's stage-0 Pareto filter over a rank-ordered candidate list:
 * walk @p ranked in order and drop a profile exactly when an earlier KEPT
 * profile prunes() it. Returns, per profile, the index of the first kept
 * profile that prunes it, or nullopt when it is kept. Never a total-order
 * sort: incomparable and loose-bounded profiles all survive, and a kept
 * profile is never removed by a later one (the later one is measured too
 * and wins on its own merits), so whenever the backend respects
 * dominance on the measured shape the filter cannot change the winner.
 */
std::vector<std::optional<std::size_t>>
paretoFilter(const std::vector<AsymptoticBounds>& ranked);

/**
 * WACO-S3xx perf notes: compare @p s against the default CSR/CSF
 * schedule on @p shape and report every strictly-worse bound (S302
 * iterations, S303 traffic, S304 search) plus S301 when the default
 * dominates @p s outright. Emits nothing for schedules the verifier
 * rejects (bounds of an illegal schedule are meaningless).
 */
void asymptoticPerfNotes(const SuperSchedule& s, const ProblemShape& shape,
                         DiagnosticBag& bag);

} // namespace waco::analysis
