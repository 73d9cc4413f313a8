#include "exec/loopnest_exec.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <sstream>
#include <type_traits>
#include <utility>

#include "analysis/loopnest_verifier.hpp"
#include "util/thread_pool.hpp"

namespace waco {

namespace {

std::atomic<u64> g_exec_count{0};

/** Storage levels the buffer block (and so the interpreter) carries. */
constexpr u32 kMaxLevels = std::extent_v<decltype(WacoKernelArgs::pos)>;

/**
 * Flattened per-invocation interpreter state. Trivially copyable: the
 * parallel path hands each chunk its own copy so loop bindings never race.
 */
struct Ctx
{
    const LoopNode* loops = nullptr;
    const BuiltLevel* levels = nullptr;
    u32 numLoops = 0;
    /** Depth at which the leaf's fused tail runs (numLoops = no tail). */
    u32 tailDepth = 0;
    u32 lastLevel = 0;
    u32 numIndices = 0;
    u32 split[4] = {1, 1, 1, 1};
    u32 bound[4] = {0, 0, 0, 0}; ///< Index extents (padding bounds check).
    u32 slotCoord[8] = {};
    u32 coord[4] = {}; ///< Combined coordinate per index variable.
    u64 posAfter[kMaxLevels] = {};
};

/** Value position of the currently bound storage point. */
inline u64
valuePos(const Ctx& cx)
{
    return cx.posAfter[cx.lastLevel];
}

/** Split indices can overshoot their extent (ceil-division padding); every
 *  leaf visit is guarded the same way TACO guards its tail iterations. */
inline bool
inBounds(const Ctx& cx)
{
    for (u32 idx = 0; idx < cx.numIndices; ++idx) {
        if (cx.coord[idx] >= cx.bound[idx])
            return false;
    }
    return true;
}

inline void
bindSlot(Ctx& cx, u32 slot, u32 c)
{
    cx.slotCoord[slot] = c;
    u32 idx = slotIndex(slot);
    cx.coord[idx] = cx.slotCoord[outerSlot(idx)] * cx.split[idx] +
                    cx.slotCoord[innerSlot(idx)];
}

/** Resolve discordant levels now that this node's level has bound: direct
 *  offset into U levels, binary search over crd for C levels.
 *  @return false when a searched coordinate is absent (skip the point). */
inline bool
runLocates(Ctx& cx, const LoopNode& n)
{
    for (const LocateStep& ls : n.locates) {
        const BuiltLevel& bl = cx.levels[ls.level];
        u64 parent = ls.level == 0 ? 0 : cx.posAfter[ls.level - 1];
        u32 target = cx.slotCoord[ls.slot];
        if (bl.fmt == LevelFormat::Uncompressed) {
            cx.posAfter[ls.level] = parent * bl.extent + target;
        } else {
            const u32* crd = bl.crd.data();
            const u32* first = crd + bl.pos[parent];
            const u32* last = crd + bl.pos[parent + 1];
            const u32* it = std::lower_bound(first, last, target);
            if (it == last || *it != target)
                return false;
            cx.posAfter[ls.level] = static_cast<u64>(it - crd);
        }
    }
    return true;
}

/** Iteration domain of the node at @p depth (its parents already bound):
 *  coordinates for Dense/U nodes, crd positions for C nodes. */
inline std::pair<u64, u64>
nodeDomain(const Ctx& cx, const LoopNode& n)
{
    if (n.kind == LoopKind::Dense)
        return {0, n.extent};
    const BuiltLevel& bl = cx.levels[n.level];
    if (bl.fmt == LevelFormat::Uncompressed)
        return {0, bl.extent};
    u64 parent = n.level == 0 ? 0 : cx.posAfter[n.level - 1];
    return {bl.pos[parent], bl.pos[parent + 1]};
}

template <class Leaf>
void execNode(Ctx& cx, u32 depth, u64 lo, u64 hi, const Leaf& leaf);

template <class Leaf>
inline void
descend(Ctx& cx, u32 depth, const Leaf& leaf)
{
    u32 d = depth + 1;
    if (d >= cx.tailDepth) {
        if (!inBounds(cx))
            return;
        if (d == cx.numLoops)
            leaf.scalar(cx);
        else
            leaf.tail(cx); // fused innermost dense-only loop
        return;
    }
    const LoopNode& n = cx.loops[d];
    auto dom = nodeDomain(cx, n);
    execNode(cx, d, dom.first, dom.second, leaf);
}

template <class Leaf>
void
execNode(Ctx& cx, u32 depth, u64 lo, u64 hi, const Leaf& leaf)
{
    const LoopNode& n = cx.loops[depth];
    if (n.kind == LoopKind::Dense) {
        for (u64 c = lo; c < hi; ++c) {
            bindSlot(cx, n.slot, static_cast<u32>(c));
            descend(cx, depth, leaf);
        }
        return;
    }
    const BuiltLevel& bl = cx.levels[n.level];
    if (bl.fmt == LevelFormat::Uncompressed) {
        u64 parent = n.level == 0 ? 0 : cx.posAfter[n.level - 1];
        u64 base = parent * bl.extent;
        for (u64 c = lo; c < hi; ++c) {
            cx.posAfter[n.level] = base + c;
            bindSlot(cx, n.slot, static_cast<u32>(c));
            if (!n.locates.empty() && !runLocates(cx, n))
                continue;
            descend(cx, depth, leaf);
        }
    } else {
        const u32* crd = bl.crd.data();
        for (u64 p = lo; p < hi; ++p) {
            cx.posAfter[n.level] = p;
            bindSlot(cx, n.slot, crd[p]);
            if (!n.locates.empty() && !runLocates(cx, n))
                continue;
            descend(cx, depth, leaf);
        }
    }
}

/** Interpreter state of a walk over the nest's first @p numLoops loops
 *  (the whole nest, or a fused nest's scope prefix) before any loop binds;
 *  the leaf (or its fused dense tail) runs at @p tailDepth. */
Ctx
protoCtx(const LoopNest& nest, u32 numLoops, u32 tailDepth)
{
    const auto& info = algorithmInfo(nest.alg());
    Ctx cx;
    cx.loops = nest.loops().data();
    cx.numLoops = numLoops;
    cx.tailDepth = tailDepth;
    cx.lastLevel = nest.numLevels() - 1;
    cx.numIndices = info.numIndices;
    for (u32 idx = 0; idx < info.numIndices; ++idx) {
        cx.split[idx] = nest.splitOf(idx);
        cx.bound[idx] = nest.shape().indexExtent[idx];
    }
    return cx;
}

/** Row/column strides of a dense matrix under its runtime layout. */
struct Strides
{
    u64 row;
    u64 col;
};

inline Strides
stridesOf(const DenseMatrix& m)
{
    if (m.layout() == Layout::RowMajor)
        return {m.cols(), 1};
    return {1, m.rows()};
}

// ---- Per-algorithm compute leaves ------------------------------------
// scalar() runs once per stored point when the innermost loop binds a
// storage level or a split dense index; tail() fuses the full unsplit
// dense-only innermost loop (leaf().vectorIndex) into one tight pass.

struct SpMVLeaf // C[i] = A[i,k] * B[k]
{
    const float* av;
    const float* b;
    float* c;

    void
    scalar(const Ctx& cx) const
    {
        c[cx.coord[0]] += av[valuePos(cx)] * b[cx.coord[1]];
    }
    void
    tail(const Ctx&) const
    {} // SpMV has no dense-only index
};

struct SpMMLeaf // C[i,j] = A[i,k] * B[k,j]
{
    const float* av;
    const float* bd;
    float* cd;
    Strides bs;
    u64 J; ///< Also the row stride of the row-major output.

    void
    scalar(const Ctx& cx) const
    {
        u64 j = cx.coord[2];
        cd[cx.coord[0] * J + j] +=
            av[valuePos(cx)] * bd[cx.coord[1] * bs.row + j * bs.col];
    }
    void
    tail(const Ctx& cx) const
    {
        float v = av[valuePos(cx)];
        const float* bp = bd + cx.coord[1] * bs.row;
        float* cp = cd + cx.coord[0] * J;
        if (bs.col == 1) {
            for (u64 j = 0; j < J; ++j)
                cp[j] += v * bp[j];
        } else {
            for (u64 j = 0; j < J; ++j)
                cp[j] += v * bp[j * bs.col];
        }
    }
};

struct SDDMMLeaf // D[i,j] = A[i,j] * B[i,k] * C[k,j]
{
    const float* av;
    const float* bd;
    const float* cd;
    /** Per-stored-position accumulators: chunks of any non-reduction top
     *  loop touch disjoint positions, so the parallel path is race-free
     *  even though D's sparsity pattern is shared. */
    float* dvals;
    Strides bs;
    Strides cs;
    u64 K;

    void
    scalar(const Ctx& cx) const
    {
        u64 p = valuePos(cx);
        u64 k = cx.coord[2];
        dvals[p] += av[p] * bd[cx.coord[0] * bs.row + k * bs.col] *
                    cd[k * cs.row + cx.coord[1] * cs.col];
    }
    void
    tail(const Ctx& cx) const
    {
        u64 p = valuePos(cx);
        float v = av[p];
        if (v == 0.0f)
            return; // dense-block padding
        const float* bp = bd + cx.coord[0] * bs.row;
        const float* cp = cd + cx.coord[1] * cs.col;
        float dot = 0.0f;
        if (bs.col == 1 && cs.row == 1) {
            // B row-major, C column-major (the paper's fixed layouts):
            // both operands walk contiguously in k.
            for (u64 k = 0; k < K; ++k)
                dot += bp[k] * cp[k];
        } else {
            for (u64 k = 0; k < K; ++k)
                dot += bp[k * bs.col] * cp[k * cs.row];
        }
        dvals[p] += v * dot;
    }
};

struct MTTKRPLeaf // D[i,j] = A[i,k,l] * B[k,j] * C[l,j]
{
    const float* av;
    const float* bd;
    const float* cd;
    float* dd;
    Strides bs;
    Strides cs;
    u64 J; ///< Also the row stride of the row-major output.

    void
    scalar(const Ctx& cx) const
    {
        u64 j = cx.coord[3];
        dd[cx.coord[0] * J + j] += av[valuePos(cx)] *
                                      bd[cx.coord[1] * bs.row + j * bs.col] *
                                      cd[cx.coord[2] * cs.row + j * cs.col];
    }
    void
    tail(const Ctx& cx) const
    {
        float v = av[valuePos(cx)];
        const float* bp = bd + cx.coord[1] * bs.row;
        const float* cp = cd + cx.coord[2] * cs.row;
        float* dp = dd + cx.coord[0] * J;
        if (bs.col == 1 && cs.col == 1) {
            for (u64 j = 0; j < J; ++j)
                dp[j] += v * bp[j] * cp[j];
        } else {
            for (u64 j = 0; j < J; ++j)
                dp[j] += v * bp[j * bs.col] * cp[j * cs.row];
        }
    }
};

struct FusedProducerLeaf // w[j] += B[i,k] * C[k,j]  (A applied in consumer)
{
    const float* bd;
    const float* cd;
    Strides bs;
    Strides cs;
    u64 K;
    float* ws = nullptr; ///< Chunk-private workspace, set by the driver.

    void
    scalar(const Ctx& cx) const
    {
        u64 k = cx.coord[2];
        ws[cx.coord[1]] += bd[cx.coord[0] * bs.row + k * bs.col] *
                           cd[k * cs.row + cx.coord[1] * cs.col];
    }
    void
    tail(const Ctx& cx) const
    {
        const float* bp = bd + cx.coord[0] * bs.row;
        const float* cp = cd + cx.coord[1] * cs.col;
        float dot = 0.0f;
        if (bs.col == 1 && cs.row == 1) {
            for (u64 k = 0; k < K; ++k)
                dot += bp[k] * cp[k];
        } else {
            for (u64 k = 0; k < K; ++k)
                dot += bp[k * bs.col] * cp[k * cs.row];
        }
        ws[cx.coord[1]] += dot;
    }
};

struct FusedConsumerLeaf // E[i,m] += A[i,j] * w[j] * F[j,m]
{
    const float* av;
    const float* fd;
    float* ed;
    Strides fs;
    u64 M; ///< Also the row stride of the row-major output.
    const float* ws = nullptr; ///< Chunk-private workspace, set by the driver.

    void
    scalar(const Ctx& cx) const
    {
        u64 m = cx.coord[3];
        ed[cx.coord[0] * M + m] +=
            av[valuePos(cx)] * ws[cx.coord[1]] *
            fd[cx.coord[1] * fs.row + m * fs.col];
    }
    void
    tail(const Ctx& cx) const
    {
        // Padding entries carry av == 0, so they contribute nothing.
        float v = av[valuePos(cx)] * ws[cx.coord[1]];
        const float* fp = fd + cx.coord[1] * fs.row;
        float* ep = ed + cx.coord[0] * M;
        if (fs.col == 1) {
            for (u64 m = 0; m < M; ++m)
                ep[m] += v * fp[m];
        } else {
            for (u64 m = 0; m < M; ++m)
                ep[m] += v * fp[m * fs.col];
        }
    }
};

/**
 * The compute "leaf" of the scope prefix of a fused nest. Runs once per
 * scope iteration (e.g. per row i): zero-initializes the workspace, then
 * executes the producer subtree and the consumer subtree at the fission
 * depth — the init/accumulate/consume protocol of the workspace temporary.
 * Both phase views share the prefix's bound coordinates and resolved
 * storage positions through the copied Ctx.
 */
struct ScopeLeaf
{
    const LoopNode* prodLoops;
    u32 prodNum;
    u32 prodTail;
    const LoopNode* consLoops;
    u32 consNum;
    u32 consTail;
    u32 scope;
    u32 wsExtent;
    FusedProducerLeaf prod; ///< Its ws is the chunk's workspace.
    FusedConsumerLeaf cons;

    void
    scalar(const Ctx& cx) const
    {
        std::fill(prod.ws, prod.ws + wsExtent, 0.0f);
        Ctx px = cx;
        px.loops = prodLoops;
        px.numLoops = prodNum;
        px.tailDepth = prodTail;
        auto pd = nodeDomain(px, prodLoops[scope]);
        execNode(px, scope, pd.first, pd.second, prod);
        Ctx qx = cx;
        qx.loops = consLoops;
        qx.numLoops = consNum;
        qx.tailDepth = consTail;
        auto qd = nodeDomain(qx, consLoops[scope]);
        execNode(qx, scope, qd.first, qd.second, cons);
    }
    void
    tail(const Ctx&) const
    {} // the scope prefix never ends in a fused dense tail
};

/**
 * The interpreter's chunk body for driveLoopNest. Everything that depends
 * only on the nest (the proto Ctx, and for fused nests the materialized
 * consumer walk) is set up once; each chunk copies it, points the leaf at
 * the driver's buffers and walks [begin, end) of the top loop. A fused
 * nest runs its scope prefix as the walk, with ScopeLeaf (the
 * producer+consumer fission point) as its leaf.
 */
class Interpreter
{
  public:
    Interpreter(const LoopNest& nest, const LoopNestArgs& args)
        : nest_(nest), args_(args)
    {
        const u32 numLoops = static_cast<u32>(nest.loops().size());
        if (!nest.fused()) {
            proto_ = protoCtx(nest, numLoops,
                              nest.leaf().vectorIndex >= 0 ? numLoops - 1
                                                           : numLoops);
            return;
        }
        const WorkspaceDecl& ws = nest.workspace();
        const u32 scope = ws.scopeDepth;
        panicIf(!ws.present || scope == 0 || scope >= numLoops ||
                    nest.consumerLoops().empty(),
                "executeLoopNest: malformed workspace scope");
        proto_ = protoCtx(nest, scope, scope);

        // The consumer walk: shared prefix + consumer-phase loops.
        consWalk_.assign(nest.loops().begin(), nest.loops().begin() + scope);
        consWalk_.insert(consWalk_.end(), nest.consumerLoops().begin(),
                         nest.consumerLoops().end());
        const u32 consNum = static_cast<u32>(consWalk_.size());
        scope_.prodLoops = nest.loops().data();
        scope_.prodNum = numLoops;
        scope_.prodTail =
            nest.leaf().vectorIndex >= 0 ? numLoops - 1 : numLoops;
        scope_.consLoops = consWalk_.data();
        scope_.consNum = consNum;
        scope_.consTail =
            nest.consumerLeaf().vectorIndex >= 0 ? consNum - 1 : consNum;
        scope_.scope = scope;
        scope_.wsExtent = ws.extent;
    }

    void
    operator()(const WacoKernelArgs& buf, u64 begin, u64 end,
               float* scratch) const
    {
        const auto& ext = nest_.shape().indexExtent;
        Ctx cx = proto_;
        cx.levels = args_.a->levels().data();
        switch (nest_.alg()) {
          case Algorithm::SpMV:
            execNode(cx, 0, begin, end, SpMVLeaf{buf.vals, buf.b, buf.out});
            return;
          case Algorithm::SpMM:
            execNode(cx, 0, begin, end,
                     SpMMLeaf{buf.vals, buf.b, buf.out,
                              stridesOf(*args_.matB), ext[2]});
            return;
          case Algorithm::SDDMM:
            execNode(cx, 0, begin, end,
                     SDDMMLeaf{buf.vals, buf.b, buf.c, buf.out,
                               stridesOf(*args_.matB),
                               stridesOf(*args_.matC), ext[2]});
            return;
          case Algorithm::MTTKRP:
            execNode(cx, 0, begin, end,
                     MTTKRPLeaf{buf.vals, buf.b, buf.c, buf.out,
                                stridesOf(*args_.matB),
                                stridesOf(*args_.matC), ext[3]});
            return;
          case Algorithm::FusedSDDMMSpMM: {
            // E[i,m] = Σ_j A[i,j] · (Σ_k B[i,k]·C[k,j]) · F[j,m] via w[j].
            ScopeLeaf leaf = scope_;
            leaf.prod = {buf.b, buf.c, stridesOf(*args_.matB),
                         stridesOf(*args_.matC), ext[2], scratch};
            leaf.cons = {buf.vals, buf.f, buf.out, stridesOf(*args_.matF),
                         ext[3], scratch};
            execNode(cx, 0, begin, end, leaf);
            return;
          }
        }
    }

  private:
    const LoopNest& nest_;
    const LoopNestArgs& args_;
    Ctx proto_;
    std::vector<LoopNode> consWalk_;
    ScopeLeaf scope_{};
};

/** The tensor must be the physical realization of the nest's format half. */
void
checkTensorMatchesNest(const LoopNest& nest, const HierSparseTensor& a)
{
    panicIf(a.descriptor().numLevels() != nest.numLevels(),
            "executeLoopNest: tensor level count does not match the nest");
    for (u32 l = 0; l < nest.numLevels(); ++l) {
        const BuiltLevel& bl = a.levels()[l];
        u32 slot = nest.levelSlot(l);
        u32 idx = slotIndex(slot);
        u32 split = nest.splitOf(idx);
        u32 expected = slotIsInner(slot)
                           ? split
                           : ceilDiv(nest.shape().indexExtent[idx], split);
        panicIf(bl.fmt != nest.levelFormat(l) || bl.extent != expected,
                "executeLoopNest: tensor level does not match the nest");
    }
}

/** The LoopNestArgs member the k-th dense input binds, and the
 *  WacoKernelArgs member its storage goes to (B, C, F). A one-index input
 *  binds vecB instead of a matrix. */
constexpr const DenseMatrix* LoopNestArgs::*kMatrixSlot[] = {
    &LoopNestArgs::matB, &LoopNestArgs::matC, &LoopNestArgs::matF};
constexpr const float* WacoKernelArgs::*kBufferSlot[] = {
    &WacoKernelArgs::b, &WacoKernelArgs::c, &WacoKernelArgs::f};

const DenseOperand&
outputOperand(const AlgorithmInfo& info)
{
    for (const DenseOperand& op : info.denseOperands) {
        if (op.isOutput)
            return op;
    }
    panic("algorithm has no output operand");
}

/** True when the output is indexed exactly by A's dimensions (SDDMM): it
 *  has one value per stored position of A, accumulated in place. */
bool
outputOnSparsePattern(const AlgorithmInfo& info, const DenseOperand& out)
{
    for (u32 d = 0; d < out.indices.size(); ++d) {
        if (info.sparseDim[out.indices[d]] != static_cast<int>(d))
            return false;
    }
    return out.indices.size() == info.sparseOrder;
}

/** Each dense input the table names must be bound with its operand's
 *  extents; the error names the algorithm and the operand. */
void
checkLoopNestArgs(const LoopNest& nest, const LoopNestArgs& args)
{
    fatalIf(args.a == nullptr, "executeLoopNest: missing sparse operand");
    checkTensorMatchesNest(nest, *args.a);
    const auto& ext = nest.shape().indexExtent;
    forEachDenseInput(nest.alg(), [&](std::size_t k, const DenseOperand& op) {
        std::vector<u64> want, got;
        for (u32 idx : op.indices)
            want.push_back(ext[idx]);
        if (op.indices.size() == 1 && args.vecB != nullptr)
            got = {args.vecB->size()};
        if (op.indices.size() == 2 && args.matrix(k) != nullptr)
            got = {args.matrix(k)->rows(), args.matrix(k)->cols()};
        if (got == want)
            return;
        std::ostringstream msg;
        auto put = [&](const std::vector<u64>& e) {
            for (std::size_t d = 0; d < e.size(); ++d)
                msg << (d ? "x" : "") << e[d];
        };
        msg << "executeLoopNest: " << algorithmName(nest.alg())
            << " operand " << op.name;
        if (got.empty()) {
            msg << " is missing";
        } else {
            msg << " has extents ";
            put(got);
            msg << ", expected ";
            put(want);
        }
        fatal(msg.str());
    });
}

std::pair<u64, u64>
topLoopDomain(const LoopNest& nest, const HierSparseTensor& a)
{
    const LoopNode& top = nest.loops().front();
    if (top.kind == LoopKind::Dense)
        return {0, top.extent};
    const BuiltLevel& bl = a.levels()[top.level];
    if (bl.fmt == LevelFormat::Uncompressed)
        return {0, bl.extent};
    return {bl.pos[0], bl.pos[1]}; // top Sparse node is always level 0
}

SparseMatrix
assembleSddmmOutput(const HierSparseTensor& a, const std::vector<float>& dvals)
{
    // Out-of-bounds padding and explicit stored zeros are dropped,
    // matching the dense-block semantics of the hierarchy builder.
    std::vector<Triplet> out;
    u64 p = 0;
    a.forEachStored([&](const std::array<u32, 3>& x, float v, bool ok) {
        if (ok && v != 0.0f)
            out.push_back({x[0], x[1], dvals[p]});
        ++p;
    });
    return SparseMatrix(a.descriptor().dims()[0], a.descriptor().dims()[1],
                        std::move(out));
}

} // namespace

bool
topLoopParallelizable(const LoopNest& nest)
{
    if (nest.fused())
        return true; // the prefix leads with the (non-reducing) scope index
    const auto& info = algorithmInfo(nest.alg());
    return !info.isReduction[slotIndex(nest.loops().front().slot)];
}

LoopNestResult
driveLoopNest(const LoopNest& nest, const LoopNestArgs& args,
              const ParallelConfig& par, const NestRangeFn& range)
{
    checkLoopNestArgs(nest, args);
    const HierSparseTensor& a = *args.a;
    const auto& ext = nest.shape().indexExtent;

    WacoKernelArgs buf;
    panicIf(nest.numLevels() > kMaxLevels,
            "executeLoopNest: too many storage levels");
    for (u32 l = 0; l < nest.numLevels(); ++l) {
        buf.pos[l] = a.levels()[l].pos.data();
        buf.crd[l] = a.levels()[l].crd.data();
    }
    buf.vals = a.values().data();

    forEachDenseInput(nest.alg(), [&](std::size_t k, const DenseOperand& op) {
        buf.*kBufferSlot[k] = op.indices.size() == 1
                                  ? args.vecB->data().data()
                                  : args.matrix(k)->data().data();
    });

    // The output is sized by its operand's indices, row-major; one indexed
    // by A's dimensions (SDDMM) gets one accumulator per stored position.
    const AlgorithmInfo& info = algorithmInfo(nest.alg());
    const DenseOperand& out = outputOperand(info);
    const bool onPattern = outputOnSparsePattern(info, out);
    LoopNestResult r;
    std::vector<float> dvals;
    if (onPattern) {
        dvals.assign(a.storedValues(), 0.0f);
        buf.out = dvals.data();
    } else if (out.indices.size() == 1) {
        r.vec = DenseVector(ext[out.indices[0]], 0.0f);
        buf.out = r.vec.data().data();
    } else {
        r.mat = DenseMatrix(ext[out.indices[0]], ext[out.indices[1]],
                            Layout::RowMajor, 0.0f);
        buf.out = r.mat.data().data();
    }

    const u32 wsExtent = nest.fused() ? nest.workspace().extent : 0;
    auto run = [&](u64 begin, u64 end) {
        std::vector<float> scratch(wsExtent, 0.0f);
        range(buf, begin, end, wsExtent > 0 ? scratch.data() : nullptr);
    };
    const auto dom = topLoopDomain(nest, a);
    const u32 threads = std::max<u32>(1, par.threads);
    if (dom.second > dom.first) {
        if (threads == 1 || !topLoopParallelizable(nest)) {
            run(dom.first, dom.second);
        } else {
            globalPool().ensureWorkers(
                std::min(threads, ThreadPool::kMaxWorkers + 1) - 1);
            globalPool().parallelFor(
                dom.second - dom.first, std::max<u32>(1, par.chunk),
                threads,
                [&](u64 b, u64 e) { run(dom.first + b, dom.first + e); });
        }
    }

    if (onPattern)
        r.sparse = assembleSddmmOutput(a, dvals);
    return r;
}

LoopNestResult
executeLoopNest(const LoopNest& nest, const LoopNestArgs& args,
                const ParallelConfig& par)
{
    g_exec_count.fetch_add(1, std::memory_order_relaxed);
#ifndef NDEBUG
    // Nests from lower() verified at lowering time; this guards nests
    // assembled through LoopNest::fromRaw from reaching the interpreter.
    {
        auto diags = analysis::verifyLoopNest(nest);
        fatalIf(diags.hasErrors(),
                "executeLoopNest: invalid loop nest:\n" + diags.format());
    }
#endif
    const Interpreter interp(nest, args);
    return driveLoopNest(nest, args, par, std::cref(interp));
}

const DenseMatrix*
LoopNestArgs::matrix(std::size_t k) const
{
    if (k >= std::size(kMatrixSlot))
        panic("LoopNestArgs: no dense input slot");
    return this->*kMatrixSlot[k];
}

DenseInputs
makeDenseInputs(const LoopNest& nest, const std::vector<bool>& inputRowMajor,
                const HierSparseTensor& a, const DenseInputFill& fill)
{
    const auto& ext = nest.shape().indexExtent;
    DenseInputs in;
    // Reserved up front: args points into these buffers as they fill (the
    // one vector input LoopNestArgs can bind, one per layout flag).
    in.vecs.reserve(1);
    in.mats.reserve(inputRowMajor.size());
    in.args.a = &a;
    forEachDenseInput(nest.alg(), [&](std::size_t k, const DenseOperand& op) {
        if (op.indices.size() == 1) {
            DenseVector& v = in.vecs.emplace_back(ext[op.indices[0]]);
            fill(k, v.data());
            in.args.vecB = &v;
            return;
        }
        panicIf(in.mats.size() >= inputRowMajor.size(),
                "makeDenseInputs: a matrix input has no layout");
        const bool rowMajor = inputRowMajor[in.mats.size()];
        DenseMatrix& m = in.mats.emplace_back(
            ext[op.indices[0]], ext[op.indices[1]],
            rowMajor ? Layout::RowMajor : Layout::ColMajor);
        fill(k, m.data());
        in.args.*kMatrixSlot[k] = &m;
    });
    return in;
}

u64
loopNestExecutionCount()
{
    return g_exec_count.load(std::memory_order_relaxed);
}

} // namespace waco
