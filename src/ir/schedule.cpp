#include "ir/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/schedule_verifier.hpp"

namespace waco {

std::string
SuperSchedule::key() const
{
    std::ostringstream os;
    os << algorithmName(alg) << "|s=";
    const auto& info = algorithmInfo(alg);
    for (u32 idx = 0; idx < info.numIndices; ++idx)
        os << (idx ? "," : "") << splits[idx];
    os << "|lo=";
    for (std::size_t i = 0; i < loopOrder.size(); ++i)
        os << (i ? "," : "") << loopOrder[i];
    os << "|p=" << parallelSlot << ":" << numThreads << ":" << ompChunk;
    os << "|slo=";
    for (std::size_t i = 0; i < sparseLevelOrder.size(); ++i)
        os << (i ? "," : "") << sparseLevelOrder[i];
    os << "|lf=";
    for (LevelFormat f : sparseLevelFormats)
        os << (f == LevelFormat::Uncompressed ? 'U' : 'C');
    os << "|dl=";
    for (bool rm : denseRowMajor)
        os << (rm ? 'r' : 'c');
    return os.str();
}

SuperSchedule
SuperSchedule::parseKey(const std::string& key)
{
    // Grammar (the exact key() output):
    //   <alg>|s=<u32>,..|lo=<u32>,..|p=<u32>:<u32>:<u32>|slo=<u32>,..
    //        |lf=[UC]*|dl=[rc]*
    auto fail = [&](const std::string& why) -> void {
        throw FatalError("parseKey: " + why + " in '" + key + "'");
    };
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        std::size_t bar = key.find('|', start);
        parts.push_back(key.substr(start, bar - start));
        if (bar == std::string::npos)
            break;
        start = bar + 1;
    }
    if (parts.size() != 7)
        fail("expected 7 '|'-separated fields");

    auto expect_prefix = [&](const std::string& part,
                             const std::string& prefix) {
        if (part.rfind(prefix, 0) != 0)
            fail("expected field '" + prefix + "...'");
        return part.substr(prefix.size());
    };
    auto parse_u32 = [&](const std::string& tok) -> u32 {
        if (tok.empty() ||
            tok.find_first_not_of("0123456789") != std::string::npos)
            fail("expected a number, got '" + tok + "'");
        unsigned long v = std::stoul(tok);
        if (v > 0xfffffffful)
            fail("number out of range: '" + tok + "'");
        return static_cast<u32>(v);
    };
    auto parse_list = [&](const std::string& body, char sep) {
        std::vector<u32> out;
        if (body.empty())
            return out;
        std::size_t pos = 0;
        while (true) {
            std::size_t next = body.find(sep, pos);
            out.push_back(parse_u32(body.substr(pos, next - pos)));
            if (next == std::string::npos)
                break;
            pos = next + 1;
        }
        return out;
    };

    SuperSchedule s;
    bool alg_found = false;
    for (Algorithm alg : allAlgorithms()) {
        if (algorithmName(alg) == parts[0]) {
            s.alg = alg;
            alg_found = true;
        }
    }
    if (!alg_found)
        fail("unknown algorithm '" + parts[0] + "'");
    const auto& info = algorithmInfo(s.alg);

    auto splits = parse_list(expect_prefix(parts[1], "s="), ',');
    if (splits.size() != info.numIndices)
        fail("wrong split count");
    for (u32 idx = 0; idx < info.numIndices; ++idx)
        s.splits[idx] = splits[idx];

    auto lo = parse_list(expect_prefix(parts[2], "lo="), ',');
    s.loopOrder.assign(lo.begin(), lo.end());

    auto p = parse_list(expect_prefix(parts[3], "p="), ':');
    if (p.size() != 3)
        fail("expected p=<slot>:<threads>:<chunk>");
    s.parallelSlot = p[0];
    s.numThreads = p[1];
    s.ompChunk = p[2];

    auto slo = parse_list(expect_prefix(parts[4], "slo="), ',');
    s.sparseLevelOrder.assign(slo.begin(), slo.end());

    for (char c : expect_prefix(parts[5], "lf=")) {
        if (c != 'U' && c != 'C')
            fail("level format must be 'U' or 'C'");
        s.sparseLevelFormats.push_back(c == 'U' ? LevelFormat::Uncompressed
                                                : LevelFormat::Compressed);
    }
    for (char c : expect_prefix(parts[6], "dl=")) {
        if (c != 'r' && c != 'c')
            fail("dense layout must be 'r' or 'c'");
        s.denseRowMajor.push_back(c == 'r');
    }
    return s;
}

std::string
SuperSchedule::describe() const
{
    const auto& info = algorithmInfo(alg);
    auto slot_name = [&](u32 slot) {
        std::string n = info.indexNames[slotIndex(slot)];
        n += slotIsInner(slot) ? "0" : "1";
        return n;
    };
    std::ostringstream os;
    os << algorithmName(alg) << " " << info.einsum << "\n";
    os << "  split:";
    for (u32 idx = 0; idx < info.numIndices; ++idx)
        os << " " << info.indexNames[idx] << "=" << splits[idx];
    os << "\n  loop order:";
    for (u32 slot : activeLoopOrder(*this))
        os << " " << slot_name(slot);
    os << "\n  parallelize: " << slot_name(parallelSlot) << " threads="
       << numThreads << " chunk=" << ompChunk;
    os << "\n  A levels:";
    auto fmts = activeSparseLevelFormats(*this);
    auto order = activeSparseLevelOrder(*this);
    for (std::size_t l = 0; l < order.size(); ++l) {
        os << " " << slot_name(order[l]) << ":"
           << (fmts[l] == LevelFormat::Uncompressed ? 'U' : 'C');
    }
    os << "\n";
    return os.str();
}

namespace {

/** The one body behind every ProblemShape factory: sparse dims fill the
 *  algorithm's sparse indices, dense-only indices take @p dense_extent
 *  (0 = the algorithm default). */
ProblemShape
shapeOf(Algorithm alg, u32 order, const std::array<u32, 3>& dims,
        u32 dense_extent)
{
    const auto& info = algorithmInfo(alg);
    fatalIf(info.sparseOrder != order,
            "order-" + std::to_string(order) + " input for " +
                algorithmName(alg) + ", which takes order " +
                std::to_string(info.sparseOrder));
    ProblemShape shape;
    shape.alg = alg;
    for (u32 d = 0; d < order; ++d)
        shape.indexExtent[info.indexOfSparseDim(d)] = dims[d];
    for (u32 idx = 0; idx < info.numIndices; ++idx) {
        if (info.sparseDim[idx] < 0) {
            shape.indexExtent[idx] =
                dense_extent ? dense_extent : info.denseExtent[idx];
        }
    }
    return shape;
}

} // namespace

ProblemShape
ProblemShape::forInput(Algorithm alg, const SparseInput& in, u32 dense_extent)
{
    return shapeOf(alg, in.order(), in.dims(), dense_extent);
}

ProblemShape
ProblemShape::forMatrix(Algorithm alg, u32 rows, u32 cols, u32 dense_extent)
{
    return shapeOf(alg, 2, {rows, cols, 0}, dense_extent);
}

ProblemShape
ProblemShape::forTensor3(Algorithm alg, u32 di, u32 dk, u32 dl,
                         u32 dense_extent)
{
    return shapeOf(alg, 3, {di, dk, dl}, dense_extent);
}

std::string
zeroExtentError(const ProblemShape& shape)
{
    const auto& info = algorithmInfo(shape.alg);
    for (u32 idx = 0; idx < info.numIndices; ++idx) {
        if (shape.indexExtent[idx] == 0) {
            return "index '" + info.indexNames[idx] + "' of the " +
                   algorithmName(shape.alg) + " input has extent 0";
        }
    }
    return {};
}

u32
slotExtent(const SuperSchedule& s, const ProblemShape& shape, u32 slot)
{
    u32 idx = slotIndex(slot);
    u32 extent = shape.indexExtent[idx];
    u32 split = std::min(s.splits[idx], extent);
    return slotIsInner(slot) ? split : ceilDiv(extent, split);
}

bool
slotDegenerate(const SuperSchedule& s, u32 slot)
{
    return slotIsInner(slot) && s.splits[slotIndex(slot)] == 1;
}

std::vector<u32>
activeLoopOrder(const SuperSchedule& s)
{
    std::vector<u32> out;
    out.reserve(s.loopOrder.size());
    for (u32 slot : s.loopOrder) {
        if (!slotDegenerate(s, slot))
            out.push_back(slot);
    }
    return out;
}

std::vector<u32>
activeSparseLevelOrder(const SuperSchedule& s)
{
    std::vector<u32> out;
    out.reserve(s.sparseLevelOrder.size());
    for (u32 slot : s.sparseLevelOrder) {
        if (!slotDegenerate(s, slot))
            out.push_back(slot);
    }
    return out;
}

std::vector<LevelFormat>
activeSparseLevelFormats(const SuperSchedule& s)
{
    std::vector<LevelFormat> out;
    for (std::size_t l = 0; l < s.sparseLevelOrder.size(); ++l) {
        if (!slotDegenerate(s, s.sparseLevelOrder[l]))
            out.push_back(s.sparseLevelFormats[l]);
    }
    return out;
}

FormatDescriptor
formatOf(const SuperSchedule& s, const ProblemShape& shape)
{
    const auto& info = algorithmInfo(s.alg);
    std::array<u32, 3> dims = {0, 0, 0};
    std::array<u32, 3> splits = {1, 1, 1};
    for (u32 d = 0; d < info.sparseOrder; ++d) {
        u32 idx = info.indexOfSparseDim(d);
        dims[d] = shape.indexExtent[idx];
        splits[d] = std::min(s.splits[idx], dims[d]);
    }
    std::vector<LevelSpec> levels;
    auto order = activeSparseLevelOrder(s);
    auto fmts = activeSparseLevelFormats(s);
    for (std::size_t l = 0; l < order.size(); ++l) {
        u32 idx = slotIndex(order[l]);
        int d = info.sparseDim[idx];
        panicIf(d < 0, "sparse level order references a dense-only index");
        LevelPart part;
        if (splits[d] == 1) {
            part = LevelPart::Full;
        } else {
            part = slotIsInner(order[l]) ? LevelPart::Inner : LevelPart::Outer;
        }
        levels.push_back({static_cast<u32>(d), part, fmts[l]});
    }
    return FormatDescriptor(info.sparseOrder, dims, splits, levels);
}

bool
denseRowMajorOf(const SuperSchedule& s, std::size_t op)
{
    const DenseOperand& d = algorithmInfo(s.alg).denseOperands[op];
    if (d.layoutFixed || s.denseRowMajor.size() <= op)
        return d.rowMajorDefault;
    return s.denseRowMajor[op];
}

std::vector<bool>
inputRowMajorOf(const SuperSchedule& s)
{
    const auto& ops = algorithmInfo(s.alg).denseOperands;
    std::vector<bool> layouts;
    for (std::size_t op = 0; op < ops.size(); ++op) {
        if (!ops[op].isOutput && ops[op].indices.size() == 2)
            layouts.push_back(denseRowMajorOf(s, op));
    }
    return layouts;
}

double
concordance(const SuperSchedule& s)
{
    auto level_order = activeSparseLevelOrder(s);
    if (level_order.size() < 2)
        return 1.0;
    auto loop_order = activeLoopOrder(s);
    auto loop_pos = [&](u32 slot) {
        for (std::size_t i = 0; i < loop_order.size(); ++i) {
            if (loop_order[i] == slot)
                return i;
        }
        panic("slot missing from loop order");
    };
    u64 consistent = 0, total = 0;
    for (std::size_t a = 0; a < level_order.size(); ++a) {
        for (std::size_t b = a + 1; b < level_order.size(); ++b) {
            ++total;
            if (loop_pos(level_order[a]) < loop_pos(level_order[b]))
                ++consistent;
        }
    }
    return static_cast<double>(consistent) / static_cast<double>(total);
}

SuperScheduleSpace::SuperScheduleSpace(Algorithm alg, const ProblemShape& shape)
    : alg_(alg), shape_(shape)
{
    const auto& info = algorithmInfo(alg);
    num_indices_ = info.numIndices;
    for (u32 idx = 0; idx < num_indices_; ++idx) {
        u32 extent = shape.indexExtent[idx];
        fatalIf(extent == 0, "SuperScheduleSpace with zero-extent index");
        for (u32 sp = 1; sp <= std::min<u32>(32768, extent); sp *= 2)
            split_options_[idx].push_back(sp);
    }
    for (u32 idx = 0; idx < num_indices_; ++idx) {
        if (!info.isReduction[idx]) {
            parallel_options_.push_back(outerSlot(idx));
            parallel_options_.push_back(innerSlot(idx));
        }
    }
    thread_options_ = {24, 48};
    for (u32 c = 1; c <= 256; c *= 2)
        chunk_options_.push_back(c);
    for (u32 op = 0; op < info.denseOperands.size(); ++op) {
        if (!info.denseOperands[op].layoutFixed)
            free_layout_ops_.push_back(op);
    }
}

SuperSchedule
SuperScheduleSpace::sample(Rng& rng) const
{
    const auto& info = algorithmInfo(alg_);
    SuperSchedule s;
    s.alg = alg_;
    for (u32 idx = 0; idx < num_indices_; ++idx)
        s.splits[idx] = rng.pick(split_options_[idx]);
    auto perm = rng.permutation(numSlots());
    s.loopOrder.assign(perm.begin(), perm.end());
    // Workspace kernels constrain the order (S015): the scope loops must
    // enclose both phases. Partition them to the front, keeping the
    // sampled relative order within each group.
    if (info.usesWorkspace) {
        std::stable_partition(s.loopOrder.begin(), s.loopOrder.end(),
                              [&](u32 slot) {
                                  return info.scopeIndex[slotIndex(slot)];
                              });
    }
    s.parallelSlot = rng.pick(parallel_options_);
    s.numThreads = rng.pick(thread_options_);
    s.ompChunk = rng.pick(chunk_options_);
    auto sparse_perm = rng.permutation(2 * info.sparseOrder);
    s.sparseLevelOrder.clear();
    for (u32 p : sparse_perm) {
        u32 idx = info.indexOfSparseDim(p / 2);
        s.sparseLevelOrder.push_back(p % 2 ? innerSlot(idx) : outerSlot(idx));
    }
    s.sparseLevelFormats.clear();
    for (std::size_t l = 0; l < s.sparseLevelOrder.size(); ++l) {
        s.sparseLevelFormats.push_back(rng.bernoulli(0.5)
                                           ? LevelFormat::Compressed
                                           : LevelFormat::Uncompressed);
    }
    s.denseRowMajor.clear();
    for (const auto& op : info.denseOperands) {
        s.denseRowMajor.push_back(op.layoutFixed ? op.rowMajorDefault
                                                 : rng.bernoulli(0.5));
    }
    return s;
}

SuperSchedule
SuperScheduleSpace::mutate(const SuperSchedule& s, Rng& rng) const
{
    SuperSchedule out = s;
    switch (rng.uniformInt(0, 7)) {
      case 0: { // change one split size
        u32 idx = static_cast<u32>(rng.index(num_indices_));
        out.splits[idx] = rng.pick(split_options_[idx]);
        break;
      }
      case 1: { // swap two loops
        std::size_t a = rng.index(out.loopOrder.size());
        std::size_t b = rng.index(out.loopOrder.size());
        std::swap(out.loopOrder[a], out.loopOrder[b]);
        // Restore the workspace-scope constraint (S015) after the swap.
        const auto& info = algorithmInfo(alg_);
        if (info.usesWorkspace) {
            std::stable_partition(out.loopOrder.begin(), out.loopOrder.end(),
                                  [&](u32 slot) {
                                      return info.scopeIndex[slotIndex(slot)];
                                  });
        }
        break;
      }
      case 2:
        out.parallelSlot = rng.pick(parallel_options_);
        break;
      case 3:
        out.numThreads = rng.pick(thread_options_);
        break;
      case 4:
        out.ompChunk = rng.pick(chunk_options_);
        break;
      case 5: { // swap two format levels (order and format move together)
        std::size_t a = rng.index(out.sparseLevelOrder.size());
        std::size_t b = rng.index(out.sparseLevelOrder.size());
        std::swap(out.sparseLevelOrder[a], out.sparseLevelOrder[b]);
        break;
      }
      case 6: { // flip one level format
        std::size_t a = rng.index(out.sparseLevelFormats.size());
        out.sparseLevelFormats[a] =
            out.sparseLevelFormats[a] == LevelFormat::Uncompressed
                ? LevelFormat::Compressed
                : LevelFormat::Uncompressed;
        break;
      }
      default: { // flip one free dense layout
        if (!free_layout_ops_.empty()) {
            u32 op = rng.pick(free_layout_ops_);
            out.denseRowMajor[op] = !out.denseRowMajor[op];
        }
        break;
      }
    }
    return out;
}

double
SuperScheduleSpace::log10Size() const
{
    const auto& info = algorithmInfo(alg_);
    double log_size = 0.0;
    for (u32 idx = 0; idx < num_indices_; ++idx)
        log_size += std::log10(static_cast<double>(split_options_[idx].size()));
    auto log_fact = [](u32 n) {
        double s = 0.0;
        for (u32 i = 2; i <= n; ++i)
            s += std::log10(static_cast<double>(i));
        return s;
    };
    log_size += log_fact(numSlots());
    log_size += std::log10(static_cast<double>(parallel_options_.size()));
    log_size += std::log10(static_cast<double>(thread_options_.size()));
    log_size += std::log10(static_cast<double>(chunk_options_.size()));
    log_size += log_fact(2 * info.sparseOrder);
    log_size += 2 * info.sparseOrder * std::log10(2.0);
    log_size += free_layout_ops_.size() * std::log10(2.0);
    return log_size;
}

SuperSchedule
defaultSchedule(const ProblemShape& shape, u32 chunk)
{
    const auto& info = algorithmInfo(shape.alg);
    SuperSchedule s;
    s.alg = shape.alg;
    s.splits = {1, 1, 1, 1};
    // Canonical concordant order: every index contributes (outer, inner)
    // in declaration order, which degenerates to i, k(, l)(, j).
    for (u32 idx = 0; idx < info.numIndices; ++idx) {
        s.loopOrder.push_back(outerSlot(idx));
        s.loopOrder.push_back(innerSlot(idx));
    }
    s.parallelSlot = outerSlot(0);
    s.numThreads = 48;
    s.ompChunk = chunk ? chunk : (shape.alg == Algorithm::SpMV ? 128 : 32);
    for (u32 d = 0; d < info.sparseOrder; ++d) {
        u32 idx = info.indexOfSparseDim(d);
        s.sparseLevelOrder.push_back(outerSlot(idx));
        s.sparseLevelOrder.push_back(innerSlot(idx));
    }
    for (std::size_t l = 0; l < s.sparseLevelOrder.size(); ++l) {
        bool first_dim = slotIndex(s.sparseLevelOrder[l]) ==
                         info.indexOfSparseDim(0);
        // CSR = UC for matrices; CSF = CCC for the 3D tensor.
        LevelFormat f = (info.sparseOrder == 3)
            ? LevelFormat::Compressed
            : (first_dim ? LevelFormat::Uncompressed : LevelFormat::Compressed);
        s.sparseLevelFormats.push_back(f);
    }
    for (const auto& op : info.denseOperands)
        s.denseRowMajor.push_back(op.rowMajorDefault);
    analysis::verifySchedule(s, shape).throwIfErrors("defaultSchedule");
    return s;
}

std::vector<SuperSchedule>
wellKnownFormatSchedules(const ProblemShape& shape)
{
    const auto& info = algorithmInfo(shape.alg);
    fatalIf(info.sparseOrder != 2,
            "wellKnownFormatSchedules covers 2D algorithms only");
    u32 row_idx = info.indexOfSparseDim(0);
    u32 col_idx = info.indexOfSparseDim(1);
    std::vector<SuperSchedule> out;

    auto dense_tail = [&](std::vector<u32>& lo) {
        for (u32 idx = 0; idx < info.numIndices; ++idx) {
            if (idx != row_idx && idx != col_idx) {
                lo.push_back(outerSlot(idx));
                lo.push_back(innerSlot(idx));
            }
        }
    };

    // 1. CSR — the default.
    out.push_back(defaultSchedule(shape));

    // 2. CSC — column-major storage with a concordant traversal.
    {
        auto s = defaultSchedule(shape);
        s.sparseLevelOrder = {outerSlot(col_idx), innerSlot(col_idx),
                              outerSlot(row_idx), innerSlot(row_idx)};
        s.sparseLevelFormats = {LevelFormat::Uncompressed,
                                LevelFormat::Compressed,
                                LevelFormat::Compressed,
                                LevelFormat::Compressed};
        std::vector<u32> lo = {outerSlot(col_idx), innerSlot(col_idx),
                               outerSlot(row_idx), innerSlot(row_idx)};
        dense_tail(lo);
        s.loopOrder = lo;
        s.parallelSlot = info.isReduction[col_idx] ? outerSlot(row_idx)
                                                   : outerSlot(col_idx);
        out.push_back(s);
    }

    // 3. BCSR 4x4 (UCUU).
    {
        auto s = defaultSchedule(shape);
        s.splits[row_idx] = 4;
        s.splits[col_idx] = 4;
        s.sparseLevelOrder = {outerSlot(row_idx), outerSlot(col_idx),
                              innerSlot(row_idx), innerSlot(col_idx)};
        s.sparseLevelFormats = {LevelFormat::Uncompressed,
                                LevelFormat::Compressed,
                                LevelFormat::Uncompressed,
                                LevelFormat::Uncompressed};
        std::vector<u32> lo = {outerSlot(row_idx), outerSlot(col_idx),
                               innerSlot(row_idx), innerSlot(col_idx)};
        dense_tail(lo);
        s.loopOrder = lo;
        out.push_back(s);
    }

    // 4. One-dimensional dense blocks UCU-16 (the Figure 14 format).
    {
        auto s = defaultSchedule(shape);
        s.splits[col_idx] = 16;
        s.sparseLevelOrder = {outerSlot(row_idx), innerSlot(row_idx),
                              outerSlot(col_idx), innerSlot(col_idx)};
        s.sparseLevelFormats = {LevelFormat::Uncompressed,
                                LevelFormat::Compressed,
                                LevelFormat::Compressed,
                                LevelFormat::Uncompressed};
        out.push_back(s);
    }

    // 5. Sparse blocks UUC (cache tiling over the column dimension).
    {
        auto s = defaultSchedule(shape);
        u32 extent = shape.indexExtent[col_idx];
        u32 target = std::min<u32>(16384, std::max<u32>(2, extent / 4));
        u32 sp = 1;
        while (sp * 2 <= target)
            sp *= 2;
        s.splits[col_idx] = sp;
        s.sparseLevelOrder = {outerSlot(col_idx), outerSlot(row_idx),
                              innerSlot(row_idx), innerSlot(col_idx)};
        s.sparseLevelFormats = {LevelFormat::Uncompressed,
                                LevelFormat::Uncompressed,
                                LevelFormat::Compressed,
                                LevelFormat::Compressed};
        std::vector<u32> lo = {outerSlot(col_idx), outerSlot(row_idx),
                               innerSlot(row_idx), innerSlot(col_idx)};
        dense_tail(lo);
        s.loopOrder = lo;
        out.push_back(s);
    }
    // Workspace kernels: the CSC/UUC entries lead with column slots, which
    // S015 forbids (the scope loops must enclose both phases). Keep the
    // format half — the traversal just turns discordant.
    if (info.usesWorkspace) {
        for (auto& s : out) {
            std::stable_partition(s.loopOrder.begin(), s.loopOrder.end(),
                                  [&](u32 slot) {
                                      return info.scopeIndex[slotIndex(slot)];
                                  });
        }
    }
    for (const auto& s : out)
        analysis::verifySchedule(s, shape).throwIfErrors(
            "wellKnownFormatSchedules");
    return out;
}

} // namespace waco
