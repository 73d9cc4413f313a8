#include "baselines/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "nn/optimizer.hpp"
#include "util/timer.hpp"

namespace waco {

namespace {

/** Measure a schedule and package it as a baseline result. */
BaselineResult
measureAs(const RuntimeOracle& oracle, const SparseInput& in,
          const ProblemShape& shape, const SuperSchedule& s)
{
    BaselineResult r;
    r.schedule = s;
    r.measured = oracle.measure(in, shape, s);
    return r;
}

} // namespace

BaselineResult
fixedCsr(const RuntimeOracle& oracle, const SparseInput& in, Algorithm alg)
{
    auto shape = ProblemShape::forInput(alg, in);
    auto r = measureAs(oracle, in, shape, defaultSchedule(shape));
    r.convertSeconds =
        oracle.conversionSeconds(in.nnz(), r.measured.storedValues);
    return r;
}

BaselineResult
MklLike::tune(const SparseMatrix& m, Algorithm alg) const
{
    fatalIf(!supports(alg), "MKL baseline supports SpMV/SpMM only");
    auto shape = ProblemShape::forMatrix(alg, m.rows(), m.cols());
    BaselineResult best;
    best.measured.seconds = std::numeric_limits<double>::infinity();
    double tuning = 0.0;
    // Inspector: run schedule-only trials on the fixed CSR format. The
    // trials themselves are the tuning cost (they execute on "hardware").
    for (u32 threads : {24u, 48u}) {
        for (u32 chunk = 1; chunk <= 256; chunk *= 4) {
            auto s = defaultSchedule(shape, chunk);
            s.numThreads = threads;
            auto r = measureAs(oracle_, m, shape, s);
            if (r.measured.valid)
                tuning += r.measured.seconds;
            if (r.measured.valid && r.measured.seconds < best.measured.seconds)
                best = r;
        }
    }
    best.tuningSeconds = tuning;
    best.convertSeconds = 0.0; // format is pinned: no conversion charged
    return best;
}

BaselineResult
MklLike::naive(const SparseMatrix& m, Algorithm alg) const
{
    auto shape = ProblemShape::forMatrix(alg, m.rows(), m.cols());
    // Inspector disabled: static-ish partitioning of rows across threads.
    u32 chunk = std::max<u32>(1, m.rows() / 48);
    chunk = std::min<u32>(256, chunk);
    auto s = defaultSchedule(shape, chunk);
    return measureAs(oracle_, m, shape, s);
}

BestFormat::BestFormat(const RuntimeOracle& oracle)
    : oracle_(oracle)
{
}

std::vector<SuperSchedule>
BestFormat::candidates(const ProblemShape& shape) const
{
    // The five most frequent format families (Section 5.1), shared with
    // the dataset anchors: CSR, CSC, BCSR 4x4, UCU-16, UUC.
    return wellKnownFormatSchedules(shape);
}

void
BestFormat::train(Algorithm alg, const std::vector<SparseMatrix>& corpus,
                  u64 seed)
{
    alg_ = alg;
    Rng rng(seed);
    // Label: best candidate per matrix under the oracle.
    std::vector<std::vector<float>> features;
    std::vector<u32> labels;
    u32 n_classes = 0;
    for (const auto& m : corpus) {
        auto shape = ProblemShape::forMatrix(alg, m.rows(), m.cols());
        auto cands = candidates(shape);
        n_classes = static_cast<u32>(cands.size());
        double best = std::numeric_limits<double>::infinity();
        u32 best_c = 0;
        for (u32 c = 0; c < cands.size(); ++c) {
            auto r = oracle_.measure(m, shape, cands[c]);
            if (r.valid && r.seconds < best) {
                best = r.seconds;
                best_c = c;
            }
        }
        features.push_back(computePatternStats(m).toFeatureVector());
        labels.push_back(best_c);
    }
    fatalIf(features.empty(), "BestFormat::train needs a corpus");
    u32 fdim = static_cast<u32>(features.front().size());
    classifier_ = nn::Linear(fdim, n_classes, rng);
    std::vector<nn::Param*> params;
    classifier_.collectParams(params);
    nn::Adam opt(params, 5e-2);
    // Softmax cross-entropy over the whole corpus per epoch.
    nn::Mat x(static_cast<u32>(features.size()), fdim);
    for (u32 r = 0; r < x.rows; ++r)
        std::copy(features[r].begin(), features[r].end(), x.row(r));
    for (u32 epoch = 0; epoch < 200; ++epoch) {
        nn::Mat logits = classifier_.forward(x);
        nn::Mat d(logits.rows, logits.cols);
        for (u32 r = 0; r < logits.rows; ++r) {
            float mx = *std::max_element(logits.row(r),
                                         logits.row(r) + logits.cols);
            float denom = 0.0f;
            for (u32 c = 0; c < logits.cols; ++c)
                denom += std::exp(logits.at(r, c) - mx);
            for (u32 c = 0; c < logits.cols; ++c) {
                float p = std::exp(logits.at(r, c) - mx) / denom;
                d.at(r, c) = (p - (c == labels[r] ? 1.0f : 0.0f)) /
                             static_cast<float>(logits.rows);
            }
        }
        classifier_.backward(d);
        opt.step();
    }
    trained_ = true;
}

u32
BestFormat::predictClass(const SparseMatrix& m) const
{
    fatalIf(!trained_, "BestFormat used before train()");
    auto f = computePatternStats(m).toFeatureVector();
    nn::Mat x(1, static_cast<u32>(f.size()));
    std::copy(f.begin(), f.end(), x.row(0));
    // const_cast is safe: Linear::forward only caches its input.
    nn::Mat logits = const_cast<nn::Linear&>(classifier_).forward(x);
    u32 best = 0;
    for (u32 c = 1; c < logits.cols; ++c) {
        if (logits.at(0, c) > logits.at(0, best))
            best = c;
    }
    return best;
}

BaselineResult
BestFormat::tune(const SparseMatrix& m) const
{
    auto shape = ProblemShape::forMatrix(alg_, m.rows(), m.cols());
    Timer t;
    u32 cls = predictClass(m);
    auto cands = candidates(shape);
    auto r = measureAs(oracle_, m, shape, cands[cls]);
    if (!r.measured.valid) {
        // Classifier picked an infeasible format for this shape: fall back.
        r = measureAs(oracle_, m, shape, cands[0]);
    }
    r.tuningSeconds = t.seconds() +
                      oracle_.conversionSeconds(m.nnz(), m.nnz()) * 0.1;
    r.convertSeconds =
        oracle_.conversionSeconds(m.nnz(), r.measured.storedValues);
    return r;
}

std::vector<SuperSchedule>
BestFormat3d::candidates(const ProblemShape& shape) const
{
    const auto& info = algorithmInfo(Algorithm::MTTKRP);
    u32 i_idx = info.indexOfSparseDim(0);
    u32 k_idx = info.indexOfSparseDim(1);
    u32 l_idx = info.indexOfSparseDim(2);
    std::vector<SuperSchedule> out;

    auto with_order = [&](std::array<u32, 3> dims, bool dense_top) {
        auto s = defaultSchedule(shape);
        s.sparseLevelOrder.clear();
        s.sparseLevelFormats.clear();
        std::vector<u32> lo;
        for (u32 d : dims) {
            u32 idx = d == 0 ? i_idx : (d == 1 ? k_idx : l_idx);
            s.sparseLevelOrder.push_back(outerSlot(idx));
            s.sparseLevelOrder.push_back(innerSlot(idx));
            lo.push_back(outerSlot(idx));
            lo.push_back(innerSlot(idx));
        }
        for (std::size_t l = 0; l < s.sparseLevelOrder.size(); ++l) {
            bool top = l < 2 && dense_top;
            s.sparseLevelFormats.push_back(top ? LevelFormat::Uncompressed
                                               : LevelFormat::Compressed);
        }
        // Dense j innermost, concordant traversal; parallelize the
        // outermost non-reduction loop if possible, else i.
        for (u32 idx = 0; idx < info.numIndices; ++idx) {
            if (info.sparseDim[idx] < 0) {
                lo.push_back(outerSlot(idx));
                lo.push_back(innerSlot(idx));
            }
        }
        s.loopOrder = lo;
        s.parallelSlot = outerSlot(i_idx);
        return s;
    };

    out.push_back(with_order({0, 1, 2}, false)); // CSF i->k->l
    out.push_back(with_order({0, 2, 1}, false)); // CSF i->l->k
    out.push_back(with_order({1, 0, 2}, false)); // CSF k->i->l (discord-ish)
    out.push_back(with_order({0, 1, 2}, true));  // dense-top UCC hybrid
    out.push_back(with_order({0, 2, 1}, true));  // dense-top UCC hybrid
    return out;
}

std::vector<float>
BestFormat3d::features(const Sparse3Tensor& t)
{
    std::unordered_set<u64> ik, il, kl;
    for (u64 n = 0; n < t.nnz(); ++n) {
        u64 i = t.iIndices()[n], k = t.kIndices()[n], l = t.lIndices()[n];
        ik.insert(i << 32 | k);
        il.insert(i << 32 | l);
        kl.insert(k << 32 | l);
    }
    double nnz = static_cast<double>(std::max<u64>(1, t.nnz()));
    std::vector<float> f;
    f.push_back(std::log1p(static_cast<float>(t.dimI())));
    f.push_back(std::log1p(static_cast<float>(t.dimK())));
    f.push_back(std::log1p(static_cast<float>(t.dimL())));
    f.push_back(std::log1p(static_cast<float>(t.nnz())));
    f.push_back(static_cast<float>(ik.size() / nnz)); // l-fiber density
    f.push_back(static_cast<float>(il.size() / nnz));
    f.push_back(static_cast<float>(kl.size() / nnz));
    return f;
}

void
BestFormat3d::train(const std::vector<Sparse3Tensor>& corpus, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<float>> xs;
    std::vector<u32> labels;
    u32 n_classes = 0;
    for (const auto& t : corpus) {
        auto shape = ProblemShape::forTensor3(Algorithm::MTTKRP, t.dimI(),
                                              t.dimK(), t.dimL());
        auto cands = candidates(shape);
        n_classes = static_cast<u32>(cands.size());
        double best = std::numeric_limits<double>::infinity();
        u32 best_c = 0;
        for (u32 c = 0; c < cands.size(); ++c) {
            auto r = oracle_.measure(t, shape, cands[c]);
            if (r.valid && r.seconds < best) {
                best = r.seconds;
                best_c = c;
            }
        }
        xs.push_back(features(t));
        labels.push_back(best_c);
    }
    fatalIf(xs.empty(), "BestFormat3d::train needs a corpus");
    u32 fdim = static_cast<u32>(xs.front().size());
    classifier_ = nn::Linear(fdim, n_classes, rng);
    std::vector<nn::Param*> params;
    classifier_.collectParams(params);
    nn::Adam opt(params, 5e-2);
    nn::Mat x(static_cast<u32>(xs.size()), fdim);
    for (u32 r = 0; r < x.rows; ++r)
        std::copy(xs[r].begin(), xs[r].end(), x.row(r));
    for (u32 epoch = 0; epoch < 200; ++epoch) {
        nn::Mat logits = classifier_.forward(x);
        nn::Mat d(logits.rows, logits.cols);
        for (u32 r = 0; r < logits.rows; ++r) {
            float mx = *std::max_element(logits.row(r),
                                         logits.row(r) + logits.cols);
            float denom = 0.0f;
            for (u32 c = 0; c < logits.cols; ++c)
                denom += std::exp(logits.at(r, c) - mx);
            for (u32 c = 0; c < logits.cols; ++c) {
                float p = std::exp(logits.at(r, c) - mx) / denom;
                d.at(r, c) = (p - (c == labels[r] ? 1.0f : 0.0f)) /
                             static_cast<float>(logits.rows);
            }
        }
        classifier_.backward(d);
        opt.step();
    }
    trained_ = true;
}

BaselineResult
BestFormat3d::tune(const Sparse3Tensor& t) const
{
    fatalIf(!trained_, "BestFormat3d used before train()");
    auto shape = ProblemShape::forTensor3(Algorithm::MTTKRP, t.dimI(),
                                          t.dimK(), t.dimL());
    Timer timer;
    auto f = features(t);
    nn::Mat x(1, static_cast<u32>(f.size()));
    std::copy(f.begin(), f.end(), x.row(0));
    nn::Mat logits = const_cast<nn::Linear&>(classifier_).forward(x);
    u32 best = 0;
    for (u32 c = 1; c < logits.cols; ++c) {
        if (logits.at(0, c) > logits.at(0, best))
            best = c;
    }
    auto cands = candidates(shape);
    BaselineResult r;
    r.schedule = cands[best];
    r.measured = oracle_.measure(t, shape, r.schedule);
    if (!r.measured.valid) {
        r.schedule = cands[0];
        r.measured = oracle_.measure(t, shape, r.schedule);
    }
    r.tuningSeconds = timer.seconds();
    r.convertSeconds =
        oracle_.conversionSeconds(t.nnz(), r.measured.storedValues);
    return r;
}

BaselineResult
Aspt::tune(const SparseMatrix& m, Algorithm alg) const
{
    fatalIf(!supports(alg), "ASpT baseline supports SpMM/SDDMM only");
    auto shape = ProblemShape::forMatrix(alg, m.rows(), m.cols());

    // --- Inspector: reorder rows by column-block signature so similar rows
    // land in the same panel, then split columns into dense/sparse parts.
    constexpr u32 kPanel = 64;    // rows per tile panel
    constexpr double kDenseFrac = 0.4;

    std::vector<u32> order(m.rows());
    for (u32 r = 0; r < m.rows(); ++r)
        order[r] = r;
    // Signature: the first few 256-wide column blocks a row touches.
    auto row_counts = m.rowNnz();
    std::vector<u64> signature(m.rows(), 0);
    for (u64 n = 0; n < m.nnz(); ++n) {
        u32 blk = std::min<u32>(63, m.colIndices()[n] / 256);
        signature[m.rowIndices()[n]] |= 1ull << blk;
    }
    std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
        if (signature[a] != signature[b])
            return signature[a] > signature[b];
        return row_counts[a] > row_counts[b];
    });
    std::vector<u32> new_row(m.rows());
    for (u32 p = 0; p < m.rows(); ++p)
        new_row[order[p]] = p;

    // Panel-wise dense-column detection.
    std::vector<Triplet> dense_part, sparse_part;
    std::map<std::pair<u32, u32>, u32> panel_col_count;
    for (u64 n = 0; n < m.nnz(); ++n) {
        u32 panel = new_row[m.rowIndices()[n]] / kPanel;
        ++panel_col_count[{panel, m.colIndices()[n]}];
    }
    for (u64 n = 0; n < m.nnz(); ++n) {
        u32 r = new_row[m.rowIndices()[n]];
        u32 panel = r / kPanel;
        Triplet t{r, m.colIndices()[n], m.values()[n]};
        bool dense = panel_col_count[{panel, t.col}] >=
                     static_cast<u32>(kDenseFrac * kPanel);
        (dense ? dense_part : sparse_part).push_back(t);
    }

    BaselineResult out;
    double total = 0.0;
    u64 stored = 0;
    // --- Executor: dense tiles run as a blocked (UCUU) kernel with SIMD;
    // the remainder runs as plain CSR. Two phases, summed.
    if (!dense_part.empty()) {
        SparseMatrix md(m.rows(), m.cols(), dense_part);
        auto s = defaultSchedule(shape);
        const auto& info = algorithmInfo(alg);
        u32 row_idx = info.indexOfSparseDim(0);
        u32 col_idx = info.indexOfSparseDim(1);
        s.splits[row_idx] = kPanel;
        s.splits[col_idx] = 16;
        s.sparseLevelOrder = {outerSlot(row_idx), outerSlot(col_idx),
                              innerSlot(row_idx), innerSlot(col_idx)};
        s.sparseLevelFormats = {LevelFormat::Uncompressed,
                                LevelFormat::Compressed,
                                LevelFormat::Uncompressed,
                                LevelFormat::Uncompressed};
        std::vector<u32> lo = {outerSlot(row_idx), outerSlot(col_idx),
                               innerSlot(row_idx), innerSlot(col_idx)};
        for (u32 idx = 0; idx < info.numIndices; ++idx) {
            if (idx != row_idx && idx != col_idx) {
                lo.push_back(outerSlot(idx));
                lo.push_back(innerSlot(idx));
            }
        }
        s.loopOrder = lo;
        auto r = oracle_.measure(md, shape, s);
        if (r.valid) {
            total += r.seconds;
            stored += r.storedValues;
            out.schedule = s;
        }
    }
    if (!sparse_part.empty()) {
        SparseMatrix ms(m.rows(), m.cols(), sparse_part);
        auto r = oracle_.measure(ms, shape, defaultSchedule(shape));
        if (r.valid) {
            total += r.seconds;
            stored += r.storedValues;
            if (dense_part.empty())
                out.schedule = defaultSchedule(shape);
        }
    }
    out.measured.valid = true;
    out.measured.seconds = total;
    out.measured.storedValues = stored;
    // Inspection (reorder + tiling) is roughly two packs over the data.
    out.tuningSeconds = oracle_.conversionSeconds(m.nnz(), m.nnz()) * 2.0;
    out.convertSeconds = oracle_.conversionSeconds(m.nnz(), stored);
    return out;
}

} // namespace waco
