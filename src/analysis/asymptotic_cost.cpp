#include "analysis/asymptotic_cost.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/schedule_verifier.hpp"

namespace waco::analysis {

namespace {

using Mono = AsymTerm;

constexpr std::size_t kN = static_cast<std::size_t>(AsymSym::N);
constexpr std::size_t kM = static_cast<std::size_t>(AsymSym::M);
constexpr std::size_t kL = static_cast<std::size_t>(AsymSym::L);
constexpr std::size_t kK = static_cast<std::size_t>(AsymSym::K);
constexpr std::size_t kR = static_cast<std::size_t>(AsymSym::NnzRow);
constexpr std::size_t kLog = static_cast<std::size_t>(AsymSym::Log);

Mono
monoOne()
{
    return Mono{};
}

Mono
monoSym(AsymSym s)
{
    Mono m;
    m.exp[static_cast<std::size_t>(s)] = 1;
    return m;
}

Mono
monoNnz()
{
    Mono m;
    m.exp[kN] = 1;
    m.exp[kR] = 1;
    return m;
}

Mono
monoMul(Mono a, const Mono& b)
{
    for (std::size_t i = 0; i < kNumAsymSyms; ++i)
        a.exp[i] += b.exp[i];
    return a;
}

Mono
monoDiv(Mono a, const Mono& b)
{
    for (std::size_t i = 0; i < kNumAsymSyms; ++i)
        a.exp[i] -= b.exp[i];
    return a;
}

/**
 * Monomial order under the side conditions: every symbol >= 1 and
 * nnz_row <= M (2D) / nnz_row <= M*L (3D). a <= b iff substituting the
 * excess nnz_row powers of a by M (or M*L) makes a's exponent vector
 * componentwise <= b's. Taking the minimal substitution count d is
 * optimal (more substitutions only inflate M/L), which makes the check
 * exact and — because substitution counts compose additively — the
 * relation transitive.
 */
bool
monoLeq(const Mono& a, const Mono& b, bool threeD)
{
    int d = a.exp[kR] - b.exp[kR];
    if (d < 0)
        d = 0;
    if (a.exp[kN] > b.exp[kN] || a.exp[kK] > b.exp[kK] ||
        a.exp[kLog] > b.exp[kLog])
        return false;
    if (threeD)
        return a.exp[kM] + d <= b.exp[kM] && a.exp[kL] + d <= b.exp[kL];
    return a.exp[kL] <= b.exp[kL] && a.exp[kM] + d <= b.exp[kM];
}

/** The smaller of two comparable monomials; prefers @p a (the coordinate
 *  product) when they are incomparable — a sound over-approximation, but
 *  a potentially loose one, reported through @p loose so the profile can
 *  drop its tightness claim. */
Mono
monoMinPrefer(const Mono& a, const Mono& b, bool threeD, bool* loose)
{
    if (monoLeq(b, a, threeD))
        return b;
    if (!monoLeq(a, b, threeD))
        *loose = true; // Incomparable: the kept product may overshoot.
    return a;
}

/** Deterministic total order for term storage/printing only (NOT the
 *  dominance order): by total degree descending, then lexicographic. */
bool
termDisplayLess(const Mono& a, const Mono& b)
{
    int da = 0, db = 0;
    for (std::size_t i = 0; i < kNumAsymSyms; ++i) {
        da += a.exp[i];
        db += b.exp[i];
    }
    if (da != db)
        return da > db;
    return a.exp > b.exp;
}

std::string
monoStr(const Mono& m)
{
    // Print N * nnz_row pairs as nnz; remaining symbols by name.
    int e[kNumAsymSyms];
    for (std::size_t i = 0; i < kNumAsymSyms; ++i)
        e[i] = m.exp[i];
    int nnz = 0;
    if (e[kN] > 0 && e[kR] > 0) {
        nnz = std::min(e[kN], e[kR]);
        e[kN] -= nnz;
        e[kR] -= nnz;
    }
    static const char* const names[kNumAsymSyms] = {"N",       "M",  "L",
                                                    "K",       "nnz_row",
                                                    "log"};
    std::string num, den;
    auto factor = [](const char* name, int power) {
        std::string f = name;
        if (power != 1) {
            f += '^';
            f += std::to_string(power);
        }
        return f;
    };
    if (nnz > 0)
        num = factor("nnz", nnz);
    for (std::size_t i = 0; i < kNumAsymSyms; ++i) {
        if (e[i] > 0) {
            if (!num.empty())
                num += " * ";
            num += factor(names[i], e[i]);
        } else if (e[i] < 0) {
            if (!den.empty())
                den += " / ";
            den += factor(names[i], -e[i]);
        }
    }
    if (num.empty())
        num += '1';
    if (!den.empty())
        num += " / " + den;
    return num;
}

} // namespace

AsymPoly
AsymPoly::one()
{
    AsymPoly p;
    p.addTerm(monoOne());
    return p;
}

AsymPoly
AsymPoly::sym(AsymSym s, int power)
{
    Mono m;
    m.exp[static_cast<std::size_t>(s)] = power;
    AsymPoly p;
    p.addTerm(m);
    return p;
}

AsymPoly
AsymPoly::nnz()
{
    AsymPoly p;
    p.addTerm(monoNnz());
    return p;
}

void
AsymPoly::addTerm(const AsymTerm& t)
{
    for (const AsymTerm& have : terms_) {
        if (have == t)
            return; // Coefficients are dropped: x + x is still O(x).
    }
    terms_.push_back(t);
}

AsymPoly&
AsymPoly::operator+=(const AsymPoly& o)
{
    for (const AsymTerm& t : o.terms_)
        addTerm(t);
    return *this;
}

AsymPoly
AsymPoly::operator+(const AsymPoly& o) const
{
    AsymPoly p = *this;
    p += o;
    return p;
}

AsymPoly
AsymPoly::operator*(const AsymPoly& o) const
{
    AsymPoly p;
    for (const AsymTerm& a : terms_) {
        for (const AsymTerm& b : o.terms_)
            p.addTerm(monoMul(a, b));
    }
    return p;
}

void
AsymPoly::normalize(bool threeD)
{
    // Keep only maximal monomials: a term absorbed by another contributes
    // nothing to the big-O class. Mutual absorption implies identical
    // exponent vectors (already merged), so one survivor always remains.
    std::vector<AsymTerm> keep;
    for (std::size_t i = 0; i < terms_.size(); ++i) {
        bool absorbed = false;
        for (std::size_t j = 0; j < terms_.size(); ++j) {
            if (i != j && monoLeq(terms_[i], terms_[j], threeD) &&
                !monoLeq(terms_[j], terms_[i], threeD)) {
                absorbed = true;
                break;
            }
        }
        if (!absorbed)
            keep.push_back(terms_[i]);
    }
    terms_ = std::move(keep);
    std::sort(terms_.begin(), terms_.end(), termDisplayLess);
}

std::string
AsymPoly::str() const
{
    if (terms_.empty())
        return "0";
    std::vector<AsymTerm> sorted = terms_;
    std::sort(sorted.begin(), sorted.end(), termDisplayLess);
    std::string out;
    for (const AsymTerm& t : sorted) {
        if (!out.empty())
            out += " + ";
        out += monoStr(t);
    }
    return out;
}

bool
polyLeq(const AsymPoly& a, const AsymPoly& b, bool threeD)
{
    // Sum vs sum: every monomial of a must be bounded by some monomial of
    // b (a finite sum is Theta of its maximal terms). Vacuously true for
    // the zero polynomial.
    for (const AsymTerm& ta : a.terms()) {
        bool bounded = false;
        for (const AsymTerm& tb : b.terms()) {
            if (monoLeq(ta, tb, threeD)) {
                bounded = true;
                break;
            }
        }
        if (!bounded)
            return false;
    }
    return true;
}

PolyOrder
comparePoly(const AsymPoly& a, const AsymPoly& b, bool threeD)
{
    bool ab = polyLeq(a, b, threeD);
    bool ba = polyLeq(b, a, threeD);
    if (ab && ba)
        return PolyOrder::Equal;
    if (ab)
        return PolyOrder::Less;
    if (ba)
        return PolyOrder::Greater;
    return PolyOrder::Incomparable;
}

namespace {

/** Symbol standing for the coordinate extent of index @p idx. */
AsymSym
symOfIndex(const AlgorithmInfo& info, u32 idx)
{
    switch (info.sparseDim[idx]) {
      case 0:
        return AsymSym::N;
      case 1:
        return AsymSym::M;
      case 2:
        return AsymSym::L;
      default:
        return AsymSym::K;
    }
}

/**
 * Coordinate range of one slot's loop as a monomial. Split sizes are
 * constants, so the half that carries the dimension gets the symbol and
 * the other half collapses to 1. When the (clamped) split swallowed the
 * whole extent, the INNER half carries the dimension and the outer loop
 * runs once.
 */
Mono
slotExtentMono(const LoopNest& nest, const AlgorithmInfo& info, u32 slot)
{
    u32 idx = slotIndex(slot);
    bool full = nest.splitOf(idx) >= nest.shape().indexExtent[idx];
    if (slotIsInner(slot) == full)
        return monoSym(symOfIndex(info, idx));
    return monoOne();
}

/** Mutable state of one phase chain during the bound walk. */
struct ChainState
{
    Mono entries = monoOne(); ///< Loop-body entries of the current depth.
    Mono lastPos = monoOne(); ///< Positions of the last traversed level.
};

/** Entries recorded after each loop, tagged with the index it binds. */
struct BoundLoop
{
    u32 index;
    Mono entries;
};

} // namespace

AsymptoticBounds
asymptoticBounds(const LoopNest& nest)
{
    const AlgorithmInfo& info = algorithmInfo(nest.alg());
    bool threeD = info.sparseOrder == 3;

    // Position-count estimate per storage level: the running coordinate
    // product, clamped to nnz whenever a Compressed level materializes
    // only stored prefixes. Incomparable clamps (e.g. M vs nnz for CSC's
    // leading column level) keep the coordinate product — a sound
    // over-approximation either way, but a loose one: it marks the whole
    // profile non-tight, which bars it from justifying a prune.
    bool loose = false;
    std::vector<Mono> posAt(nest.numLevels());
    {
        Mono pos = monoOne();
        for (u32 l = 0; l < nest.numLevels(); ++l) {
            pos = monoMul(pos, slotExtentMono(nest, info, nest.levelSlot(l)));
            if (nest.levelFormat(l) == LevelFormat::Compressed)
                pos = monoMinPrefer(pos, monoNnz(), threeD, &loose);
            posAt[l] = pos;
        }
    }

    auto polyOfMono = [](const Mono& t) {
        AsymPoly p = AsymPoly::one();
        for (std::size_t i = 0; i < kNumAsymSyms; ++i) {
            if (t.exp[i] != 0)
                p = p * AsymPoly::sym(static_cast<AsymSym>(i), t.exp[i]);
        }
        return p;
    };

    AsymPoly iterations, search, trafficA;
    std::vector<BoundLoop> prodAt, consAt;
    ChainState prod, cons;
    Mono prefixEntries = monoOne();
    u32 prefixDepth = nest.scopePrefixDepth();
    bool consStarted = false;

    forEachLoop(nest, [&](const LoopNode& node, u32 depth, NestPhase phase) {
        ChainState* st;
        std::vector<BoundLoop>* rec;
        if (phase == NestPhase::Producer) {
            st = &prod;
            rec = &prodAt;
        } else {
            if (!consStarted) {
                // The consumer chain re-enters at the scope prefix depth:
                // it inherits the prefix's entry count and traversal
                // position, not the producer leaf's.
                consStarted = true;
                cons.entries = prefixEntries;
                cons.lastPos = monoOne();
                for (u32 d = 0; d < prefixDepth; ++d) {
                    const LoopNode& p = nest.loops()[d];
                    if (p.kind == LoopKind::Sparse)
                        cons.lastPos = posAt[static_cast<u32>(p.level)];
                }
            }
            st = &cons;
            rec = &consAt;
        }
        Mono trip;
        if (node.kind == LoopKind::Sparse) {
            // Concordant traversal: per-parent trip is the ratio of this
            // level's positions to the last traversed level's.
            const Mono& pos = posAt[static_cast<u32>(node.level)];
            trip = monoDiv(pos, st->lastPos);
            st->lastPos = pos;
        } else {
            // Full coordinate loop (dense-only index or discordant slot).
            trip = slotExtentMono(nest, info, node.slot);
        }
        st->entries = monoMul(st->entries, trip);

        AsymPoly entriesNow = polyOfMono(st->entries);
        iterations += entriesNow;
        if (node.kind == LoopKind::Sparse)
            trafficA += entriesNow;
        for (const LocateStep& loc : node.locates) {
            AsymPoly cost = entriesNow;
            if (loc.binarySearch)
                cost = cost * AsymPoly::sym(AsymSym::Log);
            search += cost;
            trafficA += entriesNow;
        }
        rec->push_back(BoundLoop{slotIndex(node.slot), st->entries});
        if (phase == NestPhase::Producer && depth + 1 == prefixDepth)
            prefixEntries = st->entries;
    });

    // Workspace init phase: each scope iteration zeroes the full scratch
    // vector before the producer runs.
    AsymPoly trafficW;
    if (nest.fused()) {
        const WorkspaceDecl& ws = nest.workspace();
        AsymPoly init = polyOfMono(prefixEntries) *
                        AsymPoly::sym(symOfIndex(info, ws.index));
        iterations += init;
        trafficW += init;
        // Producer writes and consumer reads of w: the deepest loop of
        // each phase that binds the workspace index.
        for (const auto* list : {&prodAt, &consAt}) {
            for (auto it = list->rbegin(); it != list->rend(); ++it) {
                if (it->index == ws.index) {
                    trafficW += polyOfMono(it->entries);
                    break;
                }
            }
        }
    }

    AsymptoticBounds out;
    out.alg = nest.alg();
    out.threeD = threeD;
    out.tight = !loose;
    out.names.push_back("iterations");
    out.bounds.push_back(iterations);
    out.names.push_back("search");
    out.bounds.push_back(search);

    // Memory traffic of the sparse tensor (pos/crd/val touches while
    // traversing and locating), then of every dense operand: the entry
    // count of the deepest loop in its phase that binds one of its
    // indices (address changes upper bound; shallower loops only revisit).
    out.names.push_back("traffic:A");
    out.bounds.push_back(trafficA);
    for (const DenseOperand& op : info.denseOperands) {
        bool inProducer = true;
        bool inConsumer = true;
        for (u32 idx : op.indices) {
            if (info.usesWorkspace) {
                inProducer = inProducer && info.producerIndex[idx];
                inConsumer = inConsumer && info.consumerIndex[idx];
            }
        }
        const std::vector<BoundLoop>& list =
            (nest.fused() && !inProducer && inConsumer) ? consAt : prodAt;
        AsymPoly traffic;
        bool found = false;
        for (auto it = list.rbegin(); it != list.rend(); ++it) {
            bool binds = false;
            for (u32 idx : op.indices)
                binds = binds || it->index == idx;
            if (binds) {
                traffic = polyOfMono(it->entries);
                found = true;
                break;
            }
        }
        if (!found)
            traffic = AsymPoly::one();
        out.names.push_back("traffic:" + op.name);
        out.bounds.push_back(traffic);
    }
    if (nest.fused()) {
        out.names.push_back("traffic:w");
        out.bounds.push_back(trafficW);
    }
    for (AsymPoly& p : out.bounds)
        p.normalize(threeD);
    return out;
}

AsymptoticBounds
asymptoticBounds(const SuperSchedule& s, const ProblemShape& shape)
{
    return asymptoticBounds(lower(s, shape));
}

std::string
AsymptoticBounds::describe() const
{
    std::ostringstream os;
    os << algorithmName(alg) << " asymptotic bounds:\n";
    for (std::size_t i = 0; i < bounds.size(); ++i)
        os << "  " << names[i] << ": O(" << bounds[i].str() << ")\n";
    if (!tight)
        os << "  (loose: position estimates may overshoot; "
              "never pruned on these bounds)\n";
    return os.str();
}

bool
dominates(const AsymptoticBounds& a, const AsymptoticBounds& b)
{
    if (a.alg != b.alg || a.bounds.size() != b.bounds.size())
        return false;
    bool strict = false;
    for (std::size_t i = 0; i < a.bounds.size(); ++i) {
        if (!polyLeq(a.bounds[i], b.bounds[i], a.threeD))
            return false;
        if (!polyLeq(b.bounds[i], a.bounds[i], a.threeD))
            strict = true;
    }
    return strict;
}

bool
prunes(const AsymptoticBounds& a, const AsymptoticBounds& b)
{
    return b.tight && dominates(a, b);
}

std::string
explainDomination(const AsymptoticBounds& a, const AsymptoticBounds& b)
{
    if (!dominates(a, b))
        return "";
    std::string out;
    for (std::size_t i = 0; i < a.bounds.size(); ++i) {
        if (polyLeq(b.bounds[i], a.bounds[i], a.threeD))
            continue; // Equal in this bound.
        if (!out.empty())
            out += "; ";
        out += a.names[i] + ": O(" + a.bounds[i].str() + ") < O(" +
               b.bounds[i].str() + ")";
    }
    return out;
}

std::vector<std::optional<std::size_t>>
paretoFilter(const std::vector<AsymptoticBounds>& ranked)
{
    std::vector<std::optional<std::size_t>> pruner(ranked.size());
    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        for (std::size_t k : kept) {
            if (prunes(ranked[k], ranked[i])) {
                pruner[i] = k;
                break;
            }
        }
        if (!pruner[i])
            kept.push_back(i);
    }
    return pruner;
}

void
asymptoticPerfNotes(const SuperSchedule& s, const ProblemShape& shape,
                    DiagnosticBag& bag)
{
    if (verifySchedule(s, shape).hasErrors())
        return; // Bounds of an illegal schedule are meaningless.
    AsymptoticBounds mine = asymptoticBounds(s, shape);
    AsymptoticBounds base = asymptoticBounds(defaultSchedule(shape), shape);
    for (std::size_t i = 0; i < mine.bounds.size(); ++i) {
        PolyOrder ord =
            comparePoly(mine.bounds[i], base.bounds[i], mine.threeD);
        if (ord != PolyOrder::Greater)
            continue;
        DiagCode code = DiagCode::S303_AsymTrafficBound;
        if (i == 0)
            code = DiagCode::S302_AsymIterationBound;
        else if (i == 1)
            code = DiagCode::S304_AsymSearchBound;
        bag.add(code, mine.names[i] + " bound O(" + mine.bounds[i].str() +
                          ") exceeds the default schedule's O(" +
                          base.bounds[i].str() + ")");
    }
    // The dominated-outright note mirrors the filter relation: only a
    // tight profile would actually be pruned on these bounds.
    if (prunes(base, mine)) {
        bag.add(DiagCode::S301_AsymptoticallyDominated,
                "asymptotically dominated by the default schedule: " +
                    explainDomination(base, mine));
    }
}

} // namespace waco::analysis
