/**
 * @file
 * ScheduleVerifier: the first pass of the static-analysis pipeline.
 *
 * Checks a SuperSchedule for structural legality (WACO-S0xx errors:
 * permutation well-formedness, split legality, parallel-slot constraints,
 * level-format capability per the Chou et al. format abstraction),
 * suspicious-but-legal parameters (WACO-S1xx warnings: out-of-space split
 * sizes, degenerate parallel annotations), and predictable slowness
 * (WACO-S2xx perf notes: discordant binary-search locates, unvectorizable
 * or strided inner loops — the Section 3.1 costs surfaced statically).
 *
 * The shape-free overload checks everything derivable from the schedule
 * alone; the tuner runs it once per node when it builds its KNN graph,
 * whose nodes span many problem shapes, and tune() trusts those nodes.
 * The shape-aware overload adds the extent and algorithm checks; it is
 * the contract behind lower(), defaultSchedule() and
 * wellKnownFormatSchedules().
 *
 * canonicalizeSchedule() maps a verified schedule to the representative of
 * its measurement-equivalence class: degenerate (split-1 inner) slots are
 * elided from every active order before lowering, so two schedules that
 * differ only in where those slots sit (or what stripped format letter
 * they carry) lower to the same nest and measure identically. The tuner
 * dedupes top-k candidates by canonicalKey() and reuses measurements.
 */
#pragma once

#include "analysis/diagnostics.hpp"
#include "ir/schedule.hpp"

namespace waco::analysis {

/** Full verification of @p s against @p shape (S0xx/S1xx/S2xx). */
DiagnosticBag verifySchedule(const SuperSchedule& s,
                             const ProblemShape& shape);

/** Structure-only verification (skips the shape-dependent checks
 *  S011/S014/S102). */
DiagnosticBag verifySchedule(const SuperSchedule& s);

/**
 * What a kernel needs from the sparse tensor's storage. Derived from the
 * algorithm today (requiredAccess), but callers composing new kernels can
 * state requirements directly.
 */
struct AccessRequirements
{
    /** Writes at positions not present in A's pattern (needs U levels). */
    bool randomInsert = false;
    /** Coordinate lookup into levels traversed discordantly. */
    bool locate = false;
};

/**
 * Access the four paper kernels need from A. None of them random-inserts:
 * A is a read-only input to SpMV/SpMM/MTTKRP, and SDDMM's output D shares
 * A's pattern exactly, so writes are position-aligned appends. Locate is
 * required whenever the loop order is discordant (checked per-schedule).
 */
AccessRequirements requiredAccess(Algorithm alg);

/**
 * Check @p s's level formats against @p req (WACO-S013 errors when a
 * Compressed level would need random insert). Split out from
 * verifySchedule so synthetic requirements are testable even though no
 * current algorithm random-inserts.
 */
void checkAccessCapabilities(const SuperSchedule& s,
                             const AccessRequirements& req,
                             DiagnosticBag& bag);

/**
 * Representative of @p s's measurement-equivalence class. Requires an
 * error-free schedule (returns @p s unchanged otherwise). Only degenerate
 * bookkeeping moves: degenerate inner slots reorder to sit right after
 * their outer half in loopOrder, sink to the end of sparseLevelOrder
 * (sorted by slot) with their stripped format normalized to Uncompressed.
 * Everything observable — activeLoopOrder, activeSparseLevelOrder/Formats,
 * splits, parallel annotation, layouts — is untouched, so lower() and the
 * cost model cannot tell the difference.
 */
SuperSchedule canonicalizeSchedule(const SuperSchedule& s);

/** key() of the canonical representative (the tuner's dedup key). */
std::string canonicalKey(const SuperSchedule& s);

} // namespace waco::analysis
