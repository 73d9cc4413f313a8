/**
 * @file
 * Shared diagnostics engine of the static-analysis subsystem.
 *
 * Every verifier pass (ScheduleVerifier, LoopNestVerifier, the race-hazard
 * analysis) reports findings as Diagnostics collected into a DiagnosticBag
 * instead of aborting on the first problem — a compiler-style design: one
 * run surfaces *all* defects of a candidate, callers decide whether errors
 * are fatal, and tools (tune_cli --verify-only, the fuzz differential
 * oracle) consume the machine-readable form.
 *
 * Diagnostic codes are STABLE: a code never changes meaning and is never
 * renumbered, only appended. The namespaces are
 *
 *   WACO-S0xx  SuperSchedule structural / capability errors
 *   WACO-S1xx  SuperSchedule warnings (legal but suspicious)
 *   WACO-S2xx  performance notes (legal but slow, Section 3.1 costs)
 *   WACO-S3xx  asymptotic-dominance perf notes (two-stage search, §14)
 *   WACO-L0xx  LoopNest IR structural invariant violations
 *   WACO-R0xx  parallel-hazard (race / vectorization) findings
 *
 * JSON export follows the util/metrics flat style so downstream tooling can
 * parse both with one reader.
 */
#pragma once

#include <string>
#include <vector>

#include "util/common.hpp"

namespace waco::analysis {

/** How bad a finding is. Only Error makes a candidate illegal. */
enum class Severity : unsigned char
{
    Error,    ///< Candidate is malformed / would mis-execute; reject it.
    Warning,  ///< Legal but suspicious (e.g. out-of-space parameter).
    PerfNote, ///< Legal but predictably slow (discordance, no SIMD).
};

/** Stable diagnostic codes (see file header for the namespace scheme). */
enum class DiagCode : unsigned short
{
    // --- WACO-S0xx: SuperSchedule errors -------------------------------
    S001_LoopOrderSize = 1,      ///< loopOrder does not cover all slots.
    S002_SlotOutOfRange = 2,     ///< loopOrder slot id out of range.
    S003_DuplicateSlot = 3,      ///< loopOrder repeats a slot.
    S004_LevelOrderSize = 4,     ///< sparseLevelOrder wrong length.
    S005_LevelOrderDenseIndex = 5, ///< level order names a dense-only index.
    S006_LevelOrderDuplicate = 6,  ///< level order repeats a slot.
    S007_LevelFormatMisaligned = 7, ///< formats not aligned with level order.
    S008_ParallelSlotRange = 8,  ///< parallel slot out of range.
    S009_ParallelReduction = 9,  ///< parallelized reduction index.
    S010_SplitZero = 10,         ///< split size of 0.
    S011_ShapeExtentZero = 11,   ///< problem shape has a zero extent.
    S012_DenseLayoutMisaligned = 12, ///< layout flags wrong length.
    S013_CompressedRandomInsert = 13, ///< random insert into a C level.
    S014_AlgorithmMismatch = 14, ///< schedule and shape disagree on alg.
    S015_WorkspaceScopeOrder = 15, ///< fused: scope loops not outermost.

    // --- WACO-S1xx: SuperSchedule warnings -----------------------------
    S101_SplitNotPow2 = 101,     ///< split outside the paper's pow2 space.
    S102_SplitExceedsExtent = 102, ///< split larger than the index extent.
    S103_ParallelDegenerate = 103, ///< parallel slot is an elided loop.

    // --- WACO-S2xx: performance notes ----------------------------------
    S201_DiscordantBinarySearch = 201, ///< C level resolved by search.
    S202_InnerLoopNotVectorizable = 202, ///< innermost loop is compressed.
    S203_StridedVectorAccess = 203, ///< vector tail strides an operand.

    // --- WACO-L0xx: LoopNest structural invariants ---------------------
    L001_SlotBoundTwice = 301,   ///< two loops bind the same slot.
    L002_ActiveSlotUnbound = 302, ///< an active slot has no loop.
    L003_LevelUnresolved = 303,  ///< storage level never traversed/located.
    L004_SparseParentNotDominated = 304, ///< level touched before parent.
    L005_LocateSlotUnbound = 305, ///< locate consumes an unbound slot.
    L006_SplitReconstruction = 306, ///< loop extents break coord rebuild.
    L007_LevelResolvedTwice = 307, ///< level traversed/located twice.
    L008_LocateKindMismatch = 308, ///< binarySearch flag contradicts format.
    L009_VectorLeafMismatch = 309, ///< leaf metadata contradicts the nest.
    L010_LevelSlotMismatch = 310, ///< node/level slot bookkeeping broken.
    L011_WorkspaceScopeInvalid = 311, ///< workspace scope/extent broken.
    L012_WorkspaceInitBeforeUse = 312, ///< producer/consumer phase missing.

    // --- WACO-R0xx: parallel-hazard analysis ---------------------------
    R001_ParallelReductionRace = 401, ///< parallel loop carries a reduction.
    R002_NestedParallelIgnored = 402, ///< parallel annotation not outermost.
    R003_ParallelChunkZero = 403, ///< parallel loop without a chunk size.
    R004_ParallelWorkspaceWrite = 404, ///< producer accumulates w in parallel.
    R005_ParallelWorkspaceConsume = 405, ///< consumer reads shared w across
                                         ///< threads without a phase barrier.

    // --- WACO-S3xx: asymptotic-dominance perf notes --------------------
    // (encoded at 500+ so the S0xx/S1xx/S2xx values stay untouched)
    S301_AsymptoticallyDominated = 501, ///< default schedule dominates this.
    S302_AsymIterationBound = 502, ///< iteration bound above the default's.
    S303_AsymTrafficBound = 503,   ///< operand traffic above the default's.
    S304_AsymSearchBound = 504,    ///< locate/search bound above default's.
};

/** Stable printable code, e.g. "WACO-S009". */
std::string diagCodeName(DiagCode code);

/** The severity class a code always reports at. */
Severity diagSeverity(DiagCode code);

/** Printable severity ("error" / "warning" / "perf-note"). */
std::string severityName(Severity sev);

/** One finding of a verifier pass. */
struct Diagnostic
{
    DiagCode code;
    Severity severity;
    std::string message;
    /** Offending index variable (algorithm index id), or -1. */
    int index = -1;
    /** Offending storage level / loop depth, or -1. */
    int level = -1;
};

/** An ordered collection of findings from one or more passes. */
class DiagnosticBag
{
  public:
    /** Append a finding; severity comes from the code's fixed class. */
    void add(DiagCode code, std::string message, int index = -1,
             int level = -1);

    /** Append every finding of @p other (pass pipelining). */
    void merge(const DiagnosticBag& other);

    const std::vector<Diagnostic>& all() const { return diags_; }
    bool empty() const { return diags_.empty(); }
    std::size_t size() const { return diags_.size(); }

    bool hasErrors() const { return errors_ > 0; }
    std::size_t errorCount() const { return errors_; }
    std::size_t warningCount() const { return warnings_; }
    std::size_t noteCount() const { return notes_; }

    /** True when any finding carries @p code. */
    bool has(DiagCode code) const;

    /** First finding with severity Error, or nullptr. */
    const Diagnostic* firstError() const;

    /** Human-readable one-line-per-finding dump. */
    std::string format() const;

    /** JSON export (util/metrics style):
     *  {"errors":N,"warnings":N,"notes":N,"diagnostics":[...]} */
    std::string exportJson() const;

    /** Throw FatalError listing every error when hasErrors(). @p context
     *  prefixes the message ("defaultSchedule", "lower", ...). */
    void throwIfErrors(const std::string& context) const;

  private:
    std::vector<Diagnostic> diags_;
    std::size_t errors_ = 0;
    std::size_t warnings_ = 0;
    std::size_t notes_ = 0;
};

/** Write @p bag.exportJson() to @p path (FatalError on I/O failure). */
void writeDiagnosticsJson(const DiagnosticBag& bag, const std::string& path);

} // namespace waco::analysis
