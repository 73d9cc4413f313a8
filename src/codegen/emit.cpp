#include "codegen/emit.hpp"

#include <sstream>

#include "analysis/loopnest_verifier.hpp"

namespace waco {

namespace {

std::string
posVar(u32 level)
{
    std::string v = "p";
    v += std::to_string(level);
    return v;
}

/** Position expression of the level above @p level ("0" for the root). */
std::string
parentPos(u32 level)
{
    return level == 0 ? "0" : posVar(level - 1);
}

/** Coordinate extent of storage level @p level. */
u32
levelExtent(const LoopNest& nest, u32 level)
{
    u32 slot = nest.levelSlot(level);
    u32 idx = slotIndex(slot);
    u32 split = nest.splitOf(idx);
    return slotIsInner(slot)
               ? split
               : ceilDiv(nest.shape().indexExtent[idx], split);
}

/** Row/column strides of one dense input operand under a fixed layout. */
struct OpStrides
{
    u64 row = 0;
    u64 col = 0;
};

/** How one split index's padding overshoot is handled in a given walk. */
enum class GuardKind : unsigned char
{
    None,      ///< No overshoot (or handled by an enclosing walk).
    Predicate, ///< Interpreter-equivalent leaf guard: if (i >= E) continue;
    Clamp,     ///< Ragged-tail loop limit: min(split, E - outer*split).
};

struct WalkPlan
{
    std::array<GuardKind, 4> guard = {GuardKind::None, GuardKind::None,
                                      GuardKind::None, GuardKind::None};
    /** Walk position of the loop whose trip count is clamped. */
    std::array<std::size_t, 4> clampAt = {0, 0, 0, 0};
};

class KernelEmitter
{
  public:
    KernelEmitter(const LoopNest& nest, const KernelEmitOptions& opt)
        : nest_(nest), info_(algorithmInfo(nest.alg())), opt_(opt)
    {
        const auto& ext = nest_.shape().indexExtent;
        std::size_t in = 0;
        for (const DenseOperand& op : info_.denseOperands) {
            if (op.isOutput)
                continue;
            bool rm = in < opt_.inputRowMajor.size()
                          ? static_cast<bool>(opt_.inputRowMajor[in])
                          : op.rowMajorDefault;
            OpStrides s;
            if (op.indices.size() == 2) {
                u64 rows = ext[op.indices[0]];
                u64 cols = ext[op.indices[1]];
                s = rm ? OpStrides{cols, 1} : OpStrides{1, rows};
            }
            strides_.push_back(s);
            ++in;
        }
    }

    std::string emit();

  private:
    // -- small formatting helpers -------------------------------------
    void line(const std::string& text) { os_ << ind_ << text << "\n"; }
    void open() { ind_ += "    "; }
    void close()
    {
        ind_.resize(ind_.size() - 4);
        line("}");
    }
    static std::string str(u64 v) { return std::to_string(v); }
    /** `var * stride`, folding `* 1` away. */
    static std::string mul(const std::string& var, u64 stride)
    {
        return stride == 1 ? var : var + " * " + str(stride);
    }
    /** Two-index address `r*rs + c*cs`. */
    static std::string addr(const std::string& r, u64 rs,
                            const std::string& c, u64 cs)
    {
        return mul(r, rs) + " + " + mul(c, cs);
    }
    std::string idx(u32 i) const { return info_.indexNames[i]; }
    /** Extent of index @p i. */
    u64 extOf(u32 i) const { return nest_.shape().indexExtent[i]; }
    const OpStrides& opStride(std::size_t in) const { return strides_[in]; }

    // -- nest walking --------------------------------------------------
    bool overshoots(u32 i) const
    {
        u32 s = nest_.splitOf(i);
        return s > 1 && static_cast<u64>(ceilDiv(
                            nest_.shape().indexExtent[i], s)) *
                                s !=
                            nest_.shape().indexExtent[i];
    }
    WalkPlan planWalk(const std::vector<LoopNode>& walk, std::size_t from,
                      std::size_t to, bool hostTop,
                      std::size_t tailCut) const;
    /** Position-var liveness of one walk emission: which levels' pos
     *  bindings are consumed later. Null walk = everything is needed
     *  (the scope prefix, whose bindings feed the nested phases). */
    struct PosUse
    {
        const std::vector<LoopNode>* walk = nullptr;
        std::size_t to = 0;
        bool leafUsesPos = true; ///< False for the producer phase.
    };
    /** True when posVar(lv) bound at depth @p d has a consumer: a
     *  traversal/locate of level lv+1 deeper in the walk, or the phase
     *  leaf's pA when lv is the last level. A U-level consumer only
     *  counts if its own (conditional) binding is emitted — hence the
     *  recursion; a C traversal or binary search always reads pos. */
    bool posNeeded(const PosUse& pu, std::size_t d, u32 lv) const
    {
        if (pu.walk == nullptr)
            return true;
        if (pu.leafUsesPos && lv + 1 == nest_.numLevels())
            return true;
        for (std::size_t k = d; k < pu.to; ++k) {
            const LoopNode& n = (*pu.walk)[k];
            if (k > d && n.kind == LoopKind::Sparse &&
                static_cast<u32>(n.level) == lv + 1) {
                if (nest_.levelFormat(n.level) == LevelFormat::Compressed)
                    return true;
                return posNeeded(pu, k, lv + 1);
            }
            for (const LocateStep& ls : n.locates) {
                if (ls.level != lv + 1)
                    continue;
                if (ls.binarySearch)
                    return true;
                return posNeeded(pu, k, lv + 1);
            }
        }
        return false;
    }
    void emitNode(const LoopNode& n, bool hostTop, bool clamped,
                  const PosUse& pu, std::size_t d);
    void emitWalkLoops(const std::vector<LoopNode>& walk, std::size_t from,
                       std::size_t to, bool hostTop, const WalkPlan& plan,
                       const PosUse& pu);
    std::string guardCondition(const WalkPlan& plan) const;
    void emitGuard(const WalkPlan& plan);
    void emitValuePos();

    // -- leaves (each mirrors the interpreter leaf of the same name) ---
    void emitScalarLeaf();
    void emitTailLeaf();
    void emitProducerScalar();
    void emitProducerTail();
    void emitConsumerScalar();
    void emitConsumerTail();

    const LoopNest& nest_;
    const AlgorithmInfo& info_;
    KernelEmitOptions opt_;
    std::ostringstream os_;
    std::string ind_;
    std::vector<OpStrides> strides_;
    std::array<bool, 8> slotBound_ = {};
    std::array<bool, 4> combinedDone_ = {};
};

WalkPlan
KernelEmitter::planWalk(const std::vector<LoopNode>& walk, std::size_t from,
                        std::size_t to, bool hostTop,
                        std::size_t tailCut) const
{
    WalkPlan plan;
    for (u32 i = 0; i < info_.numIndices; ++i) {
        if (!overshoots(i))
            continue;
        std::size_t dOut = to, dIn = to;
        for (std::size_t d = from; d < to; ++d) {
            if (walk[d].slot == outerSlot(i))
                dOut = d;
            if (walk[d].slot == innerSlot(i))
                dIn = d;
        }
        if (dOut == to && dIn == to)
            continue; // bound entirely by an enclosing walk
        plan.guard[i] = GuardKind::Predicate;
        // Pass 1: clamp the ragged tail instead of predicating every
        // leaf visit — legal when the inner (later-binding) half is a
        // plain coordinate loop we may shorten. Compressed traversals
        // iterate stored positions, not coordinates, so they keep the
        // predicate; so does a host-ranged top loop (the chunk range is
        // the caller's contract).
        if (dIn == to || (dOut != to && dOut > dIn))
            continue;
        const LoopNode& n = walk[dIn];
        bool coordLoop =
            n.kind == LoopKind::Dense ||
            nest_.levelFormat(n.level) == LevelFormat::Uncompressed;
        if (!coordLoop || (hostTop && dIn == from) || dIn >= tailCut)
            continue;
        plan.guard[i] = GuardKind::Clamp;
        plan.clampAt[i] = dIn;
    }
    return plan;
}

/** One loop header + its position/coordinate bookkeeping and locates. */
void
KernelEmitter::emitNode(const LoopNode& n, bool hostTop, bool clamped,
                        const PosUse& pu, std::size_t d)
{
    std::string var = nest_.slotVarName(n.slot);
    std::string lo = hostTop ? "waco_begin" : "0";
    std::string hi = hostTop ? "waco_end"
                     : clamped ? var + "_lim"
                               : str(n.extent);

    if (clamped) {
        u32 i = slotIndex(n.slot);
        u64 s = nest_.splitOf(i);
        std::string rem = str(extOf(i)) + " - " +
                          mul(nest_.slotVarName(outerSlot(i)), s);
        line("const int64_t " + var + "_lim = (" + rem + ") < " + str(s) +
             " ? (" + rem + ") : " + str(s) + ";");
    }

    if (n.kind == LoopKind::Dense) {
        line("for (int64_t " + var + " = " + lo + "; " + var + " < " + hi +
             "; " + var + "++) {");
        open();
    } else if (nest_.levelFormat(n.level) == LevelFormat::Uncompressed) {
        u32 lv = static_cast<u32>(n.level);
        line("for (int64_t " + var + " = " + lo + "; " + var + " < " + hi +
             "; " + var + "++) {");
        open();
        if (posNeeded(pu, d, lv)) {
            line("const int64_t " + posVar(lv) + " = " +
                 (lv == 0 ? var
                          : mul(parentPos(lv), levelExtent(nest_, lv)) +
                                " + " + var) +
                 ";");
        }
    } else {
        u32 lv = static_cast<u32>(n.level);
        std::string L = std::to_string(lv);
        std::string p = posVar(lv);
        if (hostTop) {
            line("for (int64_t " + p + " = waco_begin; " + p +
                 " < waco_end; " + p + "++) {");
        } else {
            std::string par = lv == 0 ? "0" : parentPos(lv);
            line("for (int64_t " + p + " = (int64_t)pos" + L + "[" + par +
                 "]; " + p + " < (int64_t)pos" + L + "[" + par + " + 1]; " +
                 p + "++) {");
        }
        open();
        line("const int64_t " + var + " = (int64_t)crd" + L + "[" + p +
             "];");
    }
    slotBound_[n.slot] = true;

    for (const LocateStep& ls : n.locates) {
        u32 lv = ls.level;
        std::string L = std::to_string(lv);
        std::string p = posVar(lv);
        std::string lvar = nest_.slotVarName(ls.slot);
        std::string par = lv == 0 ? "0" : parentPos(lv);
        if (ls.binarySearch) {
            line("const int64_t " + p + " = waco_search(crd" + L +
                 ", (int64_t)pos" + L + "[" + par + "], (int64_t)pos" + L +
                 "[" + par + " + 1], " + lvar + ");");
            line("if (" + p + " < 0) continue;");
        } else if (posNeeded(pu, d, lv)) {
            line("const int64_t " + p + " = " +
                 (lv == 0 ? lvar
                          : mul(parentPos(lv), levelExtent(nest_, lv)) +
                                " + " + lvar) +
                 ";");
        }
    }

    // Recombine the split coordinate once both halves are bound.
    u32 i = slotIndex(n.slot);
    if (nest_.splitOf(i) > 1 && !combinedDone_[i] &&
        slotBound_[outerSlot(i)] && slotBound_[innerSlot(i)]) {
        line("const int64_t " + idx(i) + " = " +
             mul(nest_.slotVarName(outerSlot(i)), nest_.splitOf(i)) +
             " + " + nest_.slotVarName(innerSlot(i)) + ";");
        combinedDone_[i] = true;
    }
}

void
KernelEmitter::emitWalkLoops(const std::vector<LoopNode>& walk,
                             std::size_t from, std::size_t to, bool hostTop,
                             const WalkPlan& plan, const PosUse& pu)
{
    for (std::size_t d = from; d < to; ++d) {
        bool clamped = false;
        for (u32 i = 0; i < info_.numIndices; ++i)
            clamped |= plan.guard[i] == GuardKind::Clamp &&
                       plan.clampAt[i] == d;
        emitNode(walk[d], hostTop && d == from, clamped, pu, d);
    }
}

std::string
KernelEmitter::guardCondition(const WalkPlan& plan) const
{
    std::string cond;
    for (u32 i = 0; i < info_.numIndices; ++i) {
        if (plan.guard[i] != GuardKind::Predicate)
            continue;
        if (!cond.empty())
            cond += " || ";
        cond += idx(i) + " >= " + str(extOf(i));
    }
    return cond;
}

void
KernelEmitter::emitGuard(const WalkPlan& plan)
{
    std::string cond = guardCondition(plan);
    if (!cond.empty())
        line("if (" + cond + ") continue;");
}

void
KernelEmitter::emitValuePos()
{
    line("const int64_t pA = " + posVar(nest_.numLevels() - 1) + ";");
}

void
KernelEmitter::emitScalarLeaf()
{
    const auto& ext = nest_.shape().indexExtent;
    switch (nest_.alg()) {
      case Algorithm::SpMV:
        emitValuePos();
        line("out[" + idx(0) + "] += vals[pA] * b[" + idx(1) + "];");
        return;
      case Algorithm::SpMM: {
        const OpStrides& bs = opStride(0);
        emitValuePos();
        line("out[" + addr(idx(0), ext[2], idx(2), 1) + "] += vals[pA] * b[" +
             addr(idx(1), bs.row, idx(2), bs.col) + "];");
        return;
      }
      case Algorithm::SDDMM: {
        const OpStrides& bs = opStride(0);
        const OpStrides& cs = opStride(1);
        emitValuePos();
        line("out[pA] += vals[pA] * b[" +
             addr(idx(0), bs.row, idx(2), bs.col) + "] * c[" +
             addr(idx(2), cs.row, idx(1), cs.col) + "];");
        return;
      }
      case Algorithm::MTTKRP: {
        const OpStrides& bs = opStride(0);
        const OpStrides& cs = opStride(1);
        emitValuePos();
        line("out[" + addr(idx(0), ext[3], idx(3), 1) + "] += vals[pA] * b[" +
             addr(idx(1), bs.row, idx(3), bs.col) + "] * c[" +
             addr(idx(2), cs.row, idx(3), cs.col) + "];");
        return;
      }
      case Algorithm::FusedSDDMMSpMM:
        break;
    }
    panic("emitKernelC: fused nests emit per-phase leaves");
}

/** The fused innermost dense loop, matching the interpreter tail()s'
 *  accumulation order float-op for float-op. */
void
KernelEmitter::emitTailLeaf()
{
    const auto& ext = nest_.shape().indexExtent;
    switch (nest_.alg()) {
      case Algorithm::SpMM: {
        const OpStrides& bs = opStride(0);
        u64 J = ext[2];
        emitValuePos();
        line("const float v = vals[pA];");
        line("const float* const bp = b + " + mul(idx(1), bs.row) + ";");
        line("float* const cp = out + " + mul(idx(0), J) + ";");
        line("for (int64_t " + idx(2) + " = 0; " + idx(2) + " < " + str(J) +
             "; " + idx(2) + "++)");
        line("    cp[" + idx(2) + "] += v * bp[" + mul(idx(2), bs.col) +
             "];");
        return;
      }
      case Algorithm::SDDMM: {
        const OpStrides& bs = opStride(0);
        const OpStrides& cs = opStride(1);
        u64 K = ext[2];
        emitValuePos();
        line("const float v = vals[pA];");
        line("if (v != 0.0f) {"); // dense-block padding carries zeros
        open();
        line("const float* const bp = b + " + mul(idx(0), bs.row) + ";");
        line("const float* const cp = c + " + mul(idx(1), cs.col) + ";");
        line("float dot = 0.0f;");
        line("for (int64_t " + idx(2) + " = 0; " + idx(2) + " < " + str(K) +
             "; " + idx(2) + "++)");
        line("    dot += bp[" + mul(idx(2), bs.col) + "] * cp[" +
             mul(idx(2), cs.row) + "];");
        line("out[pA] += v * dot;");
        close();
        return;
      }
      case Algorithm::MTTKRP: {
        const OpStrides& bs = opStride(0);
        const OpStrides& cs = opStride(1);
        u64 J = ext[3];
        emitValuePos();
        line("const float v = vals[pA];");
        line("const float* const bp = b + " + mul(idx(1), bs.row) + ";");
        line("const float* const cp = c + " + mul(idx(2), cs.row) + ";");
        line("float* const dp = out + " + mul(idx(0), J) + ";");
        line("for (int64_t " + idx(3) + " = 0; " + idx(3) + " < " + str(J) +
             "; " + idx(3) + "++)");
        line("    dp[" + idx(3) + "] += v * bp[" + mul(idx(3), bs.col) +
             "] * cp[" + mul(idx(3), cs.col) + "];");
        return;
      }
      case Algorithm::SpMV:
      case Algorithm::FusedSDDMMSpMM:
        break;
    }
    panic("emitKernelC: no vector tail for this walk");
}

void
KernelEmitter::emitProducerScalar()
{
    const OpStrides& bs = opStride(0);
    const OpStrides& cs = opStride(1);
    line("waco_ws[" + idx(1) + "] += b[" +
         addr(idx(0), bs.row, idx(2), bs.col) + "] * c[" +
         addr(idx(2), cs.row, idx(1), cs.col) + "];");
}

void
KernelEmitter::emitProducerTail()
{
    const OpStrides& bs = opStride(0);
    const OpStrides& cs = opStride(1);
    u64 K = nest_.shape().indexExtent[2];
    line("const float* const bp = b + " + mul(idx(0), bs.row) + ";");
    line("const float* const cp = c + " + mul(idx(1), cs.col) + ";");
    line("float dot = 0.0f;");
    line("for (int64_t " + idx(2) + " = 0; " + idx(2) + " < " + str(K) +
         "; " + idx(2) + "++)");
    line("    dot += bp[" + mul(idx(2), bs.col) + "] * cp[" +
         mul(idx(2), cs.row) + "];");
    line("waco_ws[" + idx(1) + "] += dot;");
}

void
KernelEmitter::emitConsumerScalar()
{
    const OpStrides& fs = opStride(2);
    u64 M = nest_.shape().indexExtent[3];
    emitValuePos();
    line("out[" + addr(idx(0), M, idx(3), 1) + "] += vals[pA] * waco_ws[" +
         idx(1) + "] * f[" + addr(idx(1), fs.row, idx(3), fs.col) + "];");
}

void
KernelEmitter::emitConsumerTail()
{
    const OpStrides& fs = opStride(2);
    u64 M = nest_.shape().indexExtent[3];
    emitValuePos();
    line("const float v = vals[pA] * waco_ws[" + idx(1) + "];");
    line("const float* const fp = f + " + mul(idx(1), fs.row) + ";");
    line("float* const ep = out + " + mul(idx(0), M) + ";");
    line("for (int64_t " + idx(3) + " = 0; " + idx(3) + " < " + str(M) +
         "; " + idx(3) + "++)");
    line("    ep[" + idx(3) + "] += v * fp[" + mul(idx(3), fs.col) + "];");
}

std::string
KernelEmitter::emit()
{
    const std::vector<LoopNode>& loops = nest_.loops();
    const std::size_t numLoops = loops.size();

    // Header comment: what this kernel is and where it came from.
    os_ << "/* WACO compiled kernel\n";
    os_ << " * " << algorithmName(nest_.alg()) << ": " << info_.einsum
        << "\n";
    os_ << " * A stored as ";
    for (u32 l = 0; l < nest_.numLevels(); ++l)
        os_ << (nest_.levelFormat(l) == LevelFormat::Uncompressed ? 'U'
                                                                  : 'C');
    os_ << "(";
    for (u32 l = 0; l < nest_.numLevels(); ++l)
        os_ << (l ? "," : "") << nest_.slotVarName(nest_.levelSlot(l));
    os_ << ")\n";
    if (!opt_.cacheKey.empty())
        os_ << " * cache key: " << opt_.cacheKey << "\n";
    os_ << " */\n";
    os_ << "#include <stdint.h>\n\n";

    // Binary-search locate helper, only when some locate needs it.
    bool needSearch = false;
    auto scanLocates = [&](const std::vector<LoopNode>& ls) {
        for (const LoopNode& n : ls)
            for (const LocateStep& s : n.locates)
                needSearch |= s.binarySearch;
    };
    scanLocates(loops);
    scanLocates(nest_.consumerLoops());
    if (needSearch) {
        os_ << "static int64_t\n"
               "waco_search(const uint32_t* crd, int64_t lo, int64_t hi,\n"
               "            int64_t target)\n"
               "{\n"
               "    const int64_t end = hi;\n"
               "    while (lo < hi) {\n"
               "        const int64_t mid = lo + (hi - lo) / 2;\n"
               "        if ((int64_t)crd[mid] < target)\n"
               "            lo = mid + 1;\n"
               "        else\n"
               "            hi = mid;\n"
               "    }\n"
               "    return (lo < end && (int64_t)crd[lo] == target) ? lo\n"
               "                                                    : -1;\n"
               "}\n\n";
    }

    // The argument block: must stay layout-identical to WacoKernelArgs.
    os_ << "typedef struct {\n"
           "    const uint64_t* pos[8];\n"
           "    const uint32_t* crd[8];\n"
           "    const float* vals;\n"
           "    const float* b;\n"
           "    const float* c;\n"
           "    const float* f;\n"
           "    float* out;\n"
           "} waco_args_t;\n\n";

    os_ << "void\n"
           "waco_kernel(const waco_args_t* args, int64_t waco_begin,\n"
           "            int64_t waco_end, float* waco_ws)\n"
           "{\n";
    const std::string head = os_.str();
    os_.str("");
    os_.clear();
    ind_ = "    ";

    // The body is rendered first; the unpack block is assembled
    // afterwards with exactly the members the body references, so the
    // unit survives -Werror=unused-variable (e.g. a host-ranged top
    // Compressed loop never reads its own pos array).
    auto finish = [&]() {
        os_ << "}\n";
        const std::string body = os_.str();
        auto uses = [&](const std::string& name) {
            return body.find(name) != std::string::npos;
        };
        std::ostringstream decl;
        const char* ind = "    ";
        decl << ind << "const float* const vals = args->vals;\n";
        decl << ind << "const float* const b = args->b;\n";
        if (strides_.size() >= 2)
            decl << ind << "const float* const c = args->c;\n";
        if (strides_.size() >= 3)
            decl << ind << "const float* const f = args->f;\n";
        decl << ind << "float* const out = args->out;\n";
        for (u32 l = 0; l < nest_.numLevels(); ++l) {
            if (nest_.levelFormat(l) != LevelFormat::Compressed)
                continue;
            std::string L = std::to_string(l);
            if (uses("pos" + L))
                decl << ind << "const uint64_t* const pos" << L
                     << " = args->pos[" << L << "];\n";
            if (uses("crd" + L))
                decl << ind << "const uint32_t* const crd" << L
                     << " = args->crd[" << L << "];\n";
        }
        if (!nest_.fused())
            decl << ind << "(void)waco_ws;\n";
        return head + decl.str() + "\n" + body;
    };

    if (!nest_.fused()) {
        bool tail = nest_.leaf().vectorIndex >= 0 && numLoops >= 2;
        std::size_t cut = tail ? numLoops - 1 : numLoops;
        WalkPlan plan = planWalk(loops, 0, cut, true, cut);
        PosUse pu{&loops, cut, true};
        emitWalkLoops(loops, 0, cut, true, plan, pu);
        emitGuard(plan);
        if (tail)
            emitTailLeaf();
        else
            emitScalarLeaf();
        for (std::size_t d = 0; d < cut; ++d)
            close();
        return finish();
    }

    // Fused workspace nest: host-chunked scope prefix, then per scope
    // iteration `init; producer; consumer` — the workspace lives in the
    // hoisted waco_ws scratch the driver hands each chunk (pass 2).
    const WorkspaceDecl& ws = nest_.workspace();
    const std::size_t scope = ws.scopeDepth;

    // Prefix bindings feed the nested phases, so they are always live.
    WalkPlan prefixPlan = planWalk(loops, 0, scope, true, scope);
    emitWalkLoops(loops, 0, scope, true, prefixPlan, PosUse{});
    emitGuard(prefixPlan);

    line("for (int64_t waco_wi = 0; waco_wi < " + str(ws.extent) +
         "; waco_wi++)");
    line("    waco_ws[waco_wi] = 0.0f;");

    auto savedSlots = slotBound_;
    auto savedCombined = combinedDone_;

    { // producer phase
        bool tail = nest_.leaf().vectorIndex >= 0 && numLoops - scope >= 2;
        std::size_t cut = tail ? numLoops - 1 : numLoops;
        WalkPlan plan = planWalk(loops, scope, cut, false, cut);
        line("{");
        open();
        // The producer leaf never reads pA: bindings of A's levels are
        // live only while deeper traversals/locates consume them.
        emitWalkLoops(loops, scope, cut, false, plan,
                      PosUse{&loops, cut, false});
        emitGuard(plan);
        if (tail)
            emitProducerTail();
        else
            emitProducerScalar();
        for (std::size_t d = scope; d < cut; ++d)
            close();
        close(); // phase block
    }

    slotBound_ = savedSlots;
    combinedDone_ = savedCombined;

    { // consumer phase
        const std::vector<LoopNode>& cons = nest_.consumerLoops();
        bool tail =
            nest_.consumerLeaf().vectorIndex >= 0 && cons.size() >= 2;
        std::size_t cut = tail ? cons.size() - 1 : cons.size();
        WalkPlan plan = planWalk(cons, 0, cut, false, cut);
        line("{");
        open();
        emitWalkLoops(cons, 0, cut, false, plan, PosUse{&cons, cut, true});
        emitGuard(plan);
        if (tail)
            emitConsumerTail();
        else
            emitConsumerScalar();
        for (std::size_t d = 0; d < cut; ++d)
            close();
        close(); // phase block
    }

    for (std::size_t d = 0; d < scope; ++d)
        close();
    return finish();
}

} // namespace

std::string
emitKernelC(const LoopNest& nest, const KernelEmitOptions& opt)
{
#ifndef NDEBUG
    {
        auto diags = analysis::verifyLoopNest(nest);
        fatalIf(diags.hasErrors(),
                "emitKernelC: invalid loop nest:\n" + diags.format());
    }
#endif
    return KernelEmitter(nest, opt).emit();
}

} // namespace waco
