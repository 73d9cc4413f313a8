#include "perfmodel/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>

#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace waco {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kLineBytes = 64.0;

/** Nonzero count above which pattern scans fan out over the global pool. */
constexpr u64 kParallelScanNnz = 1ull << 16;

u32
scanThreads()
{
    return std::min(hardwareThreads(), 8u);
}

/** Mixing step for coordinate-tuple hashing. */
u64
hashCombine(u64 h, u64 v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

/**
 * Approximate distinct counting via linear counting over a fixed bitmap
 * (Whang et al.): insert hashes, then estimate n ≈ -m * ln(empty/m).
 * Replaces exact hash sets in the hot path of the oracle — the estimate is
 * within a few percent for the cardinalities we see. The counter keeps its
 * number of set bits as it sets them, and a serial count remembers the
 * words it dirtied, so a count is O(nnz) and never sweeps the 512 KiB
 * bitmap; only the reset after a parallel scan clears the whole map.
 */
class LinearCounter
{
  public:
    LinearCounter() : bits_(kWords, 0) {}

    /** Estimated number of distinct values among hash_at(0), ...,
     *  hash_at(n - 1). At kParallelScanNnz values or more the scan fans
     *  out over the global pool, every worker setting bits in this map. */
    template <typename HashAt>
    double
    count(u64 n, const HashAt& hash_at)
    {
        reset();
        if (n >= kParallelScanNnz) {
            // fetch_or's old word says whether this thread set the bit, so
            // the set-bit count, like the bitmap's OR, is exact no matter
            // how the scan is chunked or interleaved.
            u32 threads = scanThreads();
            globalPool().ensureWorkers(threads - 1);
            globalPool().parallelFor(n, 1u << 13, threads, [&](u64 b, u64 e) {
                u64 fresh = 0;
                for (u64 i = b; i < e; ++i)
                    fresh += insertAtomic(hash_at(i));
                __atomic_fetch_add(&set_, fresh, __ATOMIC_RELAXED);
            });
            wholeMapDirty_ = true;
        } else {
            for (u64 i = 0; i < n; ++i)
                insert(hash_at(i));
        }
        return estimate();
    }

  private:
    void
    reset()
    {
        if (wholeMapDirty_) {
            std::fill(bits_.begin(), bits_.end(), 0);
        } else {
            for (u32 w : touched_)
                bits_[w] = 0;
        }
        touched_.clear();
        wholeMapDirty_ = false;
        set_ = 0;
    }

    void
    insert(u64 h)
    {
        u64 bit = mix(h);
        u64& word = bits_[bit >> 6];
        u64 mask = 1ull << (bit & 63);
        if (word & mask)
            return;
        if (word == 0)
            touched_.push_back(static_cast<u32>(bit >> 6));
        word |= mask;
        ++set_;
    }

    /** Thread-safe insert; 1 if this call set the bit, else 0. */
    u64
    insertAtomic(u64 h)
    {
        u64 bit = mix(h);
        u64 mask = 1ull << (bit & 63);
        u64 old = __atomic_fetch_or(&bits_[bit >> 6], mask, __ATOMIC_RELAXED);
        return (old & mask) ? 0 : 1;
    }

    double
    estimate() const
    {
        if (set_ == 0)
            return 0.0;
        if (set_ >= kBits)
            return static_cast<double>(kBits);
        double m = static_cast<double>(kBits);
        return -m * std::log((m - static_cast<double>(set_)) / m);
    }

    static u64
    mix(u64 h)
    {
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 29;
        return h & (kBits - 1);
    }

    static constexpr u64 kBits = 1ull << 22; // 4M bits = 512 KiB
    static constexpr u64 kWords = kBits / 64;
    std::vector<u64> bits_;
    std::vector<u32> touched_;   ///< Words a serial count made nonzero.
    bool wholeMapDirty_ = false; ///< A parallel scan ran; touched_ is empty.
    u64 set_ = 0;                ///< Set bits in bits_.
};

/** Where a slot's per-nonzero coordinate comes from: the sparse dimension
 *  of its index and the nest's extent-clamped split (outer: c / split,
 *  inner: c % split). Decoded once per slot, applied per nonzero. */
struct SlotCoord
{
    u32 dim;
    u32 split;
    bool inner;

    u32
    of(const std::array<u32, 3>& coords) const
    {
        u32 c = coords[dim];
        return inner ? c % split : c / split;
    }
};

SlotCoord
slotCoordOf(const LoopNest& nest, const AlgorithmInfo& info, u32 slot)
{
    u32 idx = slotIndex(slot);
    int d = info.sparseDim[idx];
    panicIf(d < 0, "slotCoordOf on a dense-only index");
    return {static_cast<u32>(d), nest.splitOf(idx), slotIsInner(slot)};
}

} // namespace

Measurement
RuntimeOracle::measure(const SparseInput& in, const ProblemShape& shape,
                       const SuperSchedule& s) const
{
    WACO_SPAN("perfmodel.oracle");
    measurements_.fetch_add(1);
    Measurement out;
    try {
        LoopNest nest = lower(s, shape); // validates the schedule
        FormatFootprint fmt = formatFootprint(formatOf(s, shape), in);
        std::vector<std::array<u32, 3>> coords(in.nnz());
        for (u64 n = 0; n < in.nnz(); ++n)
            coords[n] = in.coord(n);
        return measureImpl(coords, in.nnz(), shape, s, nest, fmt);
    } catch (const FatalError& e) {
        out.valid = false;
        out.invalidReason = e.what();
        out.seconds = kInf;
        return out;
    }
}

double
RuntimeOracle::conversionSeconds(u64 nnz, u64 stored_values) const
{
    // Sort-dominated assembly of pos/crd/val arrays, single-threaded as in
    // TACO's pack routine.
    double n = static_cast<double>(nnz);
    double cycles = n * std::log2(std::max(2.0, n)) * 4.0 +
                    static_cast<double>(stored_values) * 2.0;
    return cycles / (machine_.freqGHz * 1e9);
}

Measurement
RuntimeOracle::measureImpl(const std::vector<std::array<u32, 3>>& coords,
                           u64 nnz, const ProblemShape& shape,
                           const SuperSchedule& s, const LoopNest& nest,
                           const FormatFootprint& fmt) const
{
    const auto& info = algorithmInfo(s.alg);
    const MachineConfig& mc = machine_;
    Measurement out;
    out.storedValues = fmt.storedValues();
    out.formatBytes = fmt.bytes();

    // All loop/level structure comes from the lowered nest — the same IR
    // the interpreter executes and the emitter prints.
    const std::vector<LoopNode>& loops = nest.loops();
    const u32 num_loops = static_cast<u32>(loops.size());
    const u32 num_levels = nest.numLevels();

    auto loop_pos = [&](u32 slot) { return nest.loopPositionOf(slot); };

    auto dense_only = [&](u32 idx) { return info.sparseDim[idx] < 0; };

    // ---- visit multipliers from dense-only loops placed outside ----
    auto dense_mult_before = [&](u32 pos) {
        double m = 1.0;
        for (u32 p = 0; p < pos && p < num_loops; ++p) {
            if (dense_only(slotIndex(loops[p].slot)))
                m *= loops[p].extent;
        }
        return m;
    };

    std::vector<double> level_visits(num_levels, 1.0);
    u32 deepest_sparse_pos = 0;
    for (u32 l = 0; l < num_levels; ++l) {
        u32 p = loop_pos(nest.levelSlot(l));
        level_visits[l] = dense_mult_before(p);
        deepest_sparse_pos = std::max(deepest_sparse_pos, p);
    }
    double leaf_visits_mult = dense_mult_before(deepest_sparse_pos);

    double dense_work_total = 1.0;
    for (u32 idx = 0; idx < info.numIndices; ++idx) {
        if (dense_only(idx))
            dense_work_total *= shape.indexExtent[idx];
    }
    double inner_dense_work = dense_work_total / leaf_visits_mult;

    const double stored = static_cast<double>(fmt.storedValues());
    const double leaf_visits = stored * leaf_visits_mult;

    // ---- SIMD decision for the innermost loop (Figure 14 cliff) ----
    bool simd = false;
    double simd_factor = 1.0;
    if (num_loops > 0) {
        u32 inner = loops[num_loops - 1].slot;
        u32 inner_idx = slotIndex(inner);
        u32 trip = loops[num_loops - 1].extent;
        bool contiguous = false;
        if (dense_only(inner_idx)) {
            // Vector code needs a dense operand contiguous along this index.
            for (std::size_t op = 0; op < info.denseOperands.size(); ++op) {
                const auto& d = info.denseOperands[op];
                if (d.indices.size() < 2)
                    continue;
                bool row_major = denseRowMajorOf(s, op);
                u32 contig = row_major ? d.indices[1] : d.indices[0];
                if (contig == inner_idx)
                    contiguous = true;
            }
        } else {
            // Inner dense block of A (U level): contiguous over the padded
            // values only when it is the last storage level, e.g. the UCU
            // SpMV of Figure 14.
            contiguous = num_levels > 0 &&
                         nest.levelSlot(num_levels - 1) == inner &&
                         fmt.levels[num_levels - 1].fmt ==
                             LevelFormat::Uncompressed;
        }
        if (contiguous && trip >= mc.simdTripThreshold) {
            simd = true;
            simd_factor = mc.simdWidth * 0.75;
        }
    }
    out.simdUsed = simd;

    // ---- compute cycles ----
    double traversal_cycles = 0.0;
    for (u32 l = 0; l < num_levels; ++l) {
        const FormatFootprint::Level& bl = fmt.levels[l];
        double per = bl.fmt == LevelFormat::Uncompressed
            ? mc.uncompressedLevelCycles
            : mc.compressedLevelCycles;
        traversal_cycles += level_visits[l] *
                            static_cast<double>(bl.numPositions) * per;
    }

    double fma_per_dense_iter = info.flopsPerNnz / 2.0;
    double loads_per_dense_iter = info.flopsPerNnz; // one load per flop operand
    double per_dense_iter_cycles =
        fma_per_dense_iter * mc.fmaCycles / simd_factor +
        loads_per_dense_iter * mc.scalarLoadCycles /
            (simd ? mc.simdWidth : 1.0);
    double leaf_cycles = leaf_visits * inner_dense_work * per_dense_iter_cycles;

    // ---- discordance: searches over compressed levels (Section 3.1) ----
    double discord_cycles = 0.0;
    for (u32 l1 = 0; l1 < num_levels; ++l1) {
        for (u32 l2 = l1 + 1; l2 < num_levels; ++l2) {
            if (loop_pos(nest.levelSlot(l2)) < loop_pos(nest.levelSlot(l1))) {
                const FormatFootprint::Level& deeper = fmt.levels[l2];
                double parent = std::max<double>(
                    1.0, static_cast<double>(
                             l2 ? fmt.levels[l2 - 1].numPositions : 1));
                double fanout = std::max(
                    2.0, static_cast<double>(deeper.numPositions) / parent);
                double probes = deeper.fmt == LevelFormat::Compressed
                    ? std::log2(fanout) * mc.searchCyclesPerProbe
                    : mc.uncompressedLevelCycles;
                discord_cycles += leaf_visits * probes;
            }
        }
    }

    // ---- fused workspace nests: phase-split compute costs ----
    double workspace_cycles = 0.0;
    if (nest.fused()) {
        const WorkspaceDecl& wsd = nest.workspace();
        const auto& cons = nest.consumerLoops();

        // The generic leaf term charges the product of ALL dense-only
        // extents (K·M) per stored point; the fused nest does K work in the
        // producer and M in the consumer per stored point instead.
        double prod_dense = 1.0;
        double cons_dense = 1.0;
        for (u32 idx = 0; idx < info.numIndices; ++idx) {
            if (!dense_only(idx))
                continue;
            if (info.producerIndex[idx])
                prod_dense *= shape.indexExtent[idx];
            if (info.consumerIndex[idx])
                cons_dense *= shape.indexExtent[idx];
        }
        leaf_cycles =
            leaf_visits * (prod_dense / leaf_visits_mult) *
                per_dense_iter_cycles +
            stored * cons_dense * per_dense_iter_cycles;

        // The consumer phase re-traverses A's below-scope levels and
        // re-fires their locate drains, once per enclosing dense iteration
        // of the consumer walk.
        double cons_mult = 1.0;
        for (const LoopNode& n : cons) {
            if (n.kind == LoopKind::Sparse) {
                const FormatFootprint::Level& bl = fmt.levels[n.level];
                double per = bl.fmt == LevelFormat::Uncompressed
                    ? mc.uncompressedLevelCycles
                    : mc.compressedLevelCycles;
                traversal_cycles +=
                    cons_mult * level_visits[n.level] *
                    static_cast<double>(bl.numPositions) * per;
            } else if (dense_only(slotIndex(n.slot))) {
                cons_mult *= n.extent;
            }
            for (const LocateStep& ls : n.locates) {
                const FormatFootprint::Level& bl = fmt.levels[ls.level];
                double parent = std::max<double>(
                    1.0, static_cast<double>(
                             ls.level ? fmt.levels[ls.level - 1].numPositions
                                      : 1));
                double fanout = std::max(
                    2.0, static_cast<double>(bl.numPositions) / parent);
                double probes = bl.fmt == LevelFormat::Compressed
                    ? std::log2(fanout) * mc.searchCyclesPerProbe
                    : mc.uncompressedLevelCycles;
                discord_cycles += stored * cons_mult * probes;
            }
        }

        // Workspace init: a dense J-vector zeroed once per scope iteration.
        // (The accumulate/consume accesses ride in the leaf terms, and at
        // 4·J bytes the vector is cache-resident — no miss traffic.)
        double ws_iters = 1.0;
        for (u32 d = 0; d < wsd.scopeDepth && d < num_loops; ++d) {
            const LoopNode& n = loops[d];
            if (n.kind == LoopKind::Sparse) {
                // numPositions already includes outer fan-out.
                ws_iters = static_cast<double>(
                    fmt.levels[n.level].numPositions);
            } else {
                ws_iters *= n.extent;
            }
        }
        workspace_cycles =
            ws_iters * static_cast<double>(wsd.extent) * mc.scalarLoadCycles;
    }

    // ---- memory traffic ----
    double llc = mc.llcBytes;
    double v_max = leaf_visits_mult;
    for (double v : level_visits)
        v_max = std::max(v_max, v);
    double a_bytes = static_cast<double>(fmt.bytes());
    double a_miss = a_bytes;
    if (v_max > 1.0 && a_bytes > llc)
        a_miss += (v_max - 1.0) * a_bytes;
    // The consumer phase of a fused nest walks A's below-scope levels a
    // second time; an LLC-resident tensor is free, a larger one pays again.
    if (nest.fused() && a_bytes > llc)
        a_miss += a_bytes;

    double dense_miss = 0.0;
    for (std::size_t op = 0; op < info.denseOperands.size(); ++op) {
        const auto& d = info.denseOperands[op];
        bool row_major = denseRowMajorOf(s, op);
        // Identify the non-contiguous ("row") index and the contiguous one.
        u32 r_idx, contig_idx;
        bool has_contig;
        if (d.indices.size() == 1) {
            r_idx = d.indices[0];
            contig_idx = 0;
            has_contig = false;
        } else {
            r_idx = row_major ? d.indices[0] : d.indices[1];
            contig_idx = row_major ? d.indices[1] : d.indices[0];
            has_contig = true;
        }

        if (dense_only(r_idx)) {
            // Pathological layout: the strided index is a dense loop, so
            // every access strides through memory. Charge a line per access
            // unless the whole operand is LLC-resident.
            double op_bytes = 4.0;
            for (u32 ix : d.indices)
                op_bytes *= shape.indexExtent[ix];
            double accesses = leaf_visits * inner_dense_work;
            dense_miss += op_bytes <= llc
                ? op_bytes * std::max(1.0, v_max)
                : accesses * kLineBytes * 0.5;
            continue;
        }

        // Bytes fetched per distinct row visit: the contiguous-index slots
        // executing inside the row's deepest loop.
        u32 boundary = loop_pos(
            loop_pos(outerSlot(r_idx)) > loop_pos(innerSlot(r_idx))
                ? outerSlot(r_idx) : innerSlot(r_idx));
        double fetch_bytes = 4.0;
        double dense_outer_mult = 1.0;
        if (has_contig && dense_only(contig_idx)) {
            double inner_extent = 1.0;
            for (u32 p = boundary + 1; p < num_loops; ++p) {
                if (slotIndex(loops[p].slot) == contig_idx)
                    inner_extent *= loops[p].extent;
            }
            // Consumer-only contiguous indices (fused m) loop inside the
            // consumer phase, not in loops(): whole rows are fetched.
            for (const LoopNode& cn : nest.consumerLoops()) {
                if (slotIndex(cn.slot) == contig_idx)
                    inner_extent *= cn.extent;
            }
            fetch_bytes = 4.0 * std::max(1.0, inner_extent);
            dense_outer_mult = shape.indexExtent[contig_idx] /
                               std::max(1.0, inner_extent);
        } else if (has_contig) {
            // Contiguous along another sparse index (e.g. SDDMM's
            // column-major C is contiguous along dense k): fetch whole rows.
            fetch_bytes = 4.0 * shape.indexExtent[contig_idx];
        }
        // Dense-only loops of indices not appearing in this operand re-run
        // the whole access stream when placed outside the row boundary.
        for (u32 p = 0; p < boundary && p < num_loops; ++p) {
            u32 ix = slotIndex(loops[p].slot);
            bool in_op = false;
            for (u32 di : d.indices)
                in_op |= (di == ix);
            if (dense_only(ix) && !in_op)
                dense_outer_mult *= loops[p].extent;
        }

        // Key slots: sparse slots running outside the row boundary,
        // outermost first. Slots of the row index itself are redundant for
        // counting (the row determines them) but essential as cell
        // boundaries in the working-set analysis — e.g. UUC's outer k1
        // chunk is what makes per-chunk row reuse fit the LLC.
        std::vector<u32> key_slots;
        for (u32 p = 0; p < boundary && p < num_loops; ++p) {
            u32 slot = loops[p].slot;
            if (!dense_only(slotIndex(slot)))
                key_slots.push_back(slot);
        }

        // Line-granular row id for thin rows.
        u32 line_div = 1;
        if (fetch_bytes < kLineBytes)
            line_div = static_cast<u32>(kLineBytes / fetch_bytes);
        int rd = info.sparseDim[r_idx];
        panicIf(rd < 0, "sparse row index without sparse dim");

        // Hash every key-slot prefix of every nonzero once:
        // prefix_hash[p * nnz + n] chains the first p key slots of
        // nonzero n onto the seed.
        const u32 num_keys = static_cast<u32>(key_slots.size());
        std::vector<SlotCoord> key_coords;
        for (u32 slot : key_slots)
            key_coords.push_back(slotCoordOf(nest, info, slot));
        std::vector<u64> prefix_hash((num_keys + 1) * nnz);
        for (u64 n = 0; n < nnz; ++n) {
            u64 h = 0x12345;
            prefix_hash[n] = h;
            for (u32 kq = 0; kq < num_keys; ++kq) {
                h = hashCombine(h, key_coords[kq].of(coords[n]));
                prefix_hash[(kq + 1) * nnz + n] = h;
            }
        }

        // Bind the calling thread's counter by reference: pool workers in
        // a parallel scan must set bits in this map, not touch their own
        // (never-constructed) thread_local instance.
        static thread_local LinearCounter tls_counter;
        LinearCounter& counter = tls_counter;
        // The analysis below asks for some (prefix, with_row) counts twice.
        std::vector<std::optional<double>> memo(2 * (num_keys + 1));
        auto count_distinct = [&](u32 prefix_len, bool with_row) {
            std::optional<double>& known = memo[2 * prefix_len + with_row];
            if (!known) {
                WACO_COUNT("perfmodel.distinct_scans", 1);
                const u64* h = prefix_hash.data() + prefix_len * nnz;
                known = counter.count(nnz, [&](u64 n) {
                    return with_row ? hashCombine(h[n], coords[n][rd] / line_div)
                                    : h[n];
                });
            }
            return *known;
        };

        // Hierarchical working-set analysis: starting from the finest
        // partition, merge away inner key slots whenever the coarser cell's
        // row working set still fits in the LLC (split-induced tiling).
        u32 p_len = static_cast<u32>(key_slots.size());
        double distinct_rows = count_distinct(p_len, true);
        while (p_len > 0) {
            double coarser_rows = count_distinct(p_len - 1, true);
            double coarser_cells =
                p_len - 1 == 0 ? 1.0 : count_distinct(p_len - 1, false);
            double ws = coarser_rows / std::max(1.0, coarser_cells) *
                        std::max(fetch_bytes, kLineBytes);
            if (ws <= llc) {
                distinct_rows = coarser_rows;
                --p_len;
            } else {
                break;
            }
        }
        // Compulsory footprint of the whole operand vs the per-outer-pass
        // working set: a cache-resident operand costs its footprint once;
        // an operand whose per-pass slice fits (e.g. j-blocked SpMM) costs
        // one slice per outer pass; otherwise the distinct-row estimate
        // with outer repetition applies.
        double distinct_rows_all = count_distinct(0, true);
        double row_full_bytes = std::max(
            has_contig ? 4.0 * shape.indexExtent[contig_idx] : 4.0,
            kLineBytes);
        double full_op_bytes = distinct_rows_all * row_full_bytes;
        double per_pass_bytes =
            distinct_rows_all * std::max(fetch_bytes, kLineBytes);
        double op_miss;
        if (full_op_bytes <= llc) {
            op_miss = full_op_bytes;
        } else if (per_pass_bytes <= llc) {
            op_miss = std::max(full_op_bytes,
                               per_pass_bytes * dense_outer_mult);
        } else {
            op_miss = distinct_rows * std::max(fetch_bytes, kLineBytes) *
                      dense_outer_mult;
        }
        if (d.isOutput)
            op_miss *= 2.0; // write-allocate + writeback
        dense_miss += op_miss;
    }

    double miss_bytes = a_miss + dense_miss;
    out.missBytes = miss_bytes;
    double miss_cycles = miss_bytes / kLineBytes * mc.missLatencyCycles *
                         mc.missOverlapFactor;

    double total_cycles = traversal_cycles + leaf_cycles + discord_cycles +
                          workspace_cycles + miss_cycles;

    // ---- parallel decomposition ----
    u32 p_slot = s.parallelSlot;
    bool p_degenerate = slotDegenerate(s, p_slot);
    if (!p_degenerate && nest.fused()) {
        // A consumer-phase parallel slot is not in loops(): its pragma sits
        // inside the scope loop (R002) and buys nothing — model it serial.
        bool in_producer_walk = false;
        for (const LoopNode& n : loops)
            in_producer_walk |= (n.slot == p_slot);
        p_degenerate = p_degenerate || !in_producer_walk;
    }
    u32 p_pos = p_degenerate ? num_loops : loop_pos(p_slot);
    u32 p_extent = p_degenerate ? 1 : slotExtent(s, shape, p_slot);

    // Work outside the parallel loop runs serially.
    double outside_cycles = 0.0;
    for (u32 l = 0; l < num_levels; ++l) {
        if (loop_pos(nest.levelSlot(l)) < p_pos) {
            const FormatFootprint::Level& bl = fmt.levels[l];
            double per = bl.fmt == LevelFormat::Uncompressed
                ? mc.uncompressedLevelCycles
                : mc.compressedLevelCycles;
            outside_cycles += level_visits[l] *
                              static_cast<double>(bl.numPositions) * per;
        }
    }
    if (p_degenerate)
        outside_cycles = total_cycles;
    double inside_cycles = std::max(0.0, total_cycles - outside_cycles);

    // Parallel region relaunches for every outer-loop iteration.
    double launches = dense_mult_before(p_pos);
    double deepest_outside_positions = 1.0;
    for (u32 l = 0; l < num_levels; ++l) {
        if (loop_pos(nest.levelSlot(l)) < p_pos) {
            deepest_outside_positions = std::max(
                deepest_outside_positions,
                static_cast<double>(fmt.levels[l].numPositions));
        }
    }
    launches *= deepest_outside_positions;
    double launch_cycles = launches * mc.parallelLaunchCycles;

    // Per-parallel-iteration work histogram from the actual pattern.
    double makespan = inside_cycles;
    double t_eff = mc.effectiveThreads(s.numThreads);
    out.imbalance = 1.0;
    if (!p_degenerate && p_extent > 1 && inside_cycles > 0.0) {
        std::vector<double> hist(p_extent, 0.0);
        u32 p_idx = slotIndex(p_slot);
        if (dense_only(p_idx)) {
            for (auto& h : hist)
                h = 1.0 / p_extent;
        } else {
            SlotCoord pc = slotCoordOf(nest, info, p_slot);
            for (u64 n = 0; n < nnz; ++n)
                hist[pc.of(coords[n])] += 1.0;
            double total_w = static_cast<double>(nnz);
            for (auto& h : hist)
                h /= total_w;
        }
        u32 chunk = std::max<u32>(1, s.ompChunk);
        u32 num_chunks = ceilDiv(p_extent, chunk);
        u32 t = std::max<u32>(1, static_cast<u32>(std::lround(t_eff)));
        std::priority_queue<double, std::vector<double>,
                            std::greater<double>> threads;
        for (u32 q = 0; q < t; ++q)
            threads.push(0.0);
        for (u32 c = 0; c < num_chunks; ++c) {
            double w = 0.0;
            for (u32 e = c * chunk; e < std::min(p_extent, (c + 1) * chunk); ++e)
                w += hist[e];
            double start = threads.top();
            threads.pop();
            threads.push(start + w * inside_cycles + mc.chunkDispatchCycles);
        }
        while (threads.size() > 1)
            threads.pop();
        makespan = threads.top();
        double ideal = inside_cycles / t_eff;
        out.imbalance = ideal > 0.0 ? makespan / ideal : 1.0;
    } else if (!p_degenerate) {
        makespan = inside_cycles; // extent-1 parallel loop: all serial
    }

    double critical_cycles = outside_cycles + launch_cycles + makespan;
    double compute_seconds = critical_cycles / (mc.freqGHz * 1e9);
    double memory_seconds = miss_bytes / (mc.memBwGBs * 1e9);

    out.computeSeconds = compute_seconds;
    out.memorySeconds = memory_seconds;
    out.serialSeconds = (outside_cycles + launch_cycles) / (mc.freqGHz * 1e9);
    out.seconds = std::max(compute_seconds, memory_seconds) +
                  mc.kernelLaunchSeconds;
    return out;
}

} // namespace waco
