#include "core/dataset.hpp"

#include <unordered_set>

#include "core/dataset_io.hpp"
#include "util/logging.hpp"

namespace waco {

namespace {

void
splitTrainVal(CostDataset& ds, Rng& rng)
{
    std::vector<u32> ids(ds.entries.size());
    for (u32 i = 0; i < ids.size(); ++i)
        ids[i] = i;
    rng.shuffle(ids);
    // 80:20 split as in the paper; keep at least one validation entry.
    std::size_t n_train =
        std::max<std::size_t>(1, ids.size() * 8 / 10);
    if (n_train == ids.size() && ids.size() > 1)
        --n_train;
    ds.trainIds.assign(ids.begin(), ids.begin() + n_train);
    ds.valIds.assign(ids.begin() + n_train, ids.end());
}

void
sampleEntry(DatasetEntry& e, Algorithm alg, const MeasurementBackend& oracle,
            u32 schedules_per_matrix, Rng& rng)
{
    SuperScheduleSpace space(alg, e.shape);
    std::unordered_set<std::string> seen;

    auto add = [&](const SuperSchedule& s) {
        if (!seen.insert(s.key()).second)
            return;
        Measurement m;
        try {
            m = oracle.measure(e.input(), e.shape, s);
        } catch (const MeasurementError&) {
            // A transient backend failure drops this schedule, never the
            // labeling run (wrap the backend in a RobustMeasurer to retry
            // instead of dropping).
            return;
        }
        if (m.valid) // invalid = excluded, like the paper's >1min timeouts
            e.samples.push_back({s, m.seconds});
    };

    // Anchor schedules: the defaults plus the classic format families and
    // an OpenMP chunk sweep. The paper's 100-random-samples-per-matrix over
    // 21k matrices covers these corners by volume; at our reduced scale we
    // include them explicitly so the KNN graph contains the known-good
    // neighborhoods.
    for (u32 chunk = 1; chunk <= 256; chunk *= 4)
        add(defaultSchedule(e.shape, chunk));
    {
        auto s24 = defaultSchedule(e.shape);
        s24.numThreads = 24;
        add(s24);
    }
    // The classic format families (CSR, CSC, BCSR, ...) are matrix formats.
    if (algorithmInfo(alg).sparseOrder == 2) {
        for (const auto& s : wellKnownFormatSchedules(e.shape)) {
            add(s);
            auto fine = s;
            fine.ompChunk = 4;
            add(fine);
        }
    }

    // Random exploration on top of the anchors (the paper's uniform
    // sampling), so every matrix gets schedules_per_matrix random draws.
    std::size_t target = e.samples.size() + schedules_per_matrix;
    u32 attempts = 0;
    while (e.samples.size() < target && attempts < schedules_per_matrix * 4) {
        ++attempts;
        add(space.sample(rng));
    }
}

void
own(DatasetEntry& e, const SparseMatrix& m)
{
    e.matrix = m;
}

void
own(DatasetEntry& e, const Sparse3Tensor& t)
{
    e.is3d = true;
    e.tensor = t;
}

/** Copy one corpus item into a fresh entry and label it. */
template <typename Input>
DatasetEntry
labelEntry(Algorithm alg, const Input& x, const MeasurementBackend& oracle,
           u32 schedules_per_matrix, Rng& rng)
{
    DatasetEntry e;
    own(e, x);
    e.name = x.name();
    e.shape = ProblemShape::forInput(alg, e.input());
    sampleEntry(e, alg, oracle, schedules_per_matrix, rng);
    return e;
}

/** Append @p e unless it has too few valid labels to rank. */
void
keepEntry(std::vector<DatasetEntry>& entries, DatasetEntry&& e)
{
    if (e.samples.size() >= 2)
        entries.push_back(std::move(e));
    else
        logWarn("dropping input with too few valid schedules: " + e.name);
}

/** The one labeling loop behind both buildDataset overloads. */
template <typename Input>
CostDataset
labelCorpus(Algorithm alg, const std::vector<Input>& corpus,
            const MeasurementBackend& oracle, u32 schedules_per_matrix,
            u64 seed)
{
    Rng rng(seed);
    CostDataset ds;
    ds.alg = alg;
    for (const auto& x : corpus)
        keepEntry(ds.entries,
                  labelEntry(alg, x, oracle, schedules_per_matrix, rng));
    fatalIf(ds.entries.empty(), "dataset has no usable entries");
    splitTrainVal(ds, rng);
    return ds;
}

} // namespace

std::vector<SuperSchedule>
CostDataset::allSchedules() const
{
    std::vector<SuperSchedule> out;
    std::unordered_set<std::string> seen;
    for (const auto& e : entries) {
        for (const auto& s : e.samples) {
            if (seen.insert(s.schedule.key()).second)
                out.push_back(s.schedule);
        }
    }
    return out;
}

CostDataset
buildDataset(Algorithm alg, const std::vector<SparseMatrix>& corpus,
             const MeasurementBackend& oracle, u32 schedules_per_matrix,
             u64 seed)
{
    return labelCorpus(alg, corpus, oracle, schedules_per_matrix, seed);
}

CostDataset
buildDataset(Algorithm alg, const std::vector<Sparse3Tensor>& corpus,
             const MeasurementBackend& oracle, u32 schedules_per_matrix,
             u64 seed)
{
    return labelCorpus(alg, corpus, oracle, schedules_per_matrix, seed);
}

namespace {

/** splitmix64-style mixer for deriving independent per-item seeds. */
u64
mixSeed(u64 seed, u64 salt)
{
    u64 z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

u64
hashCombine(u64 h, u64 v)
{
    return mixSeed(h ^ v, v);
}

} // namespace

u64
corpusFingerprint(Algorithm alg, const std::vector<SparseMatrix>& corpus,
                  u32 schedules_per_matrix, u64 seed)
{
    u64 h = 0x5741434f; // "WACO"
    h = hashCombine(h, static_cast<u64>(alg));
    h = hashCombine(h, schedules_per_matrix);
    h = hashCombine(h, seed);
    h = hashCombine(h, corpus.size());
    for (const auto& m : corpus) {
        for (char c : m.name())
            h = hashCombine(h, static_cast<unsigned char>(c));
        h = hashCombine(h, m.rows());
        h = hashCombine(h, m.cols());
        h = hashCombine(h, m.nnz());
    }
    return h;
}

CostDataset
buildDatasetResumable(Algorithm alg, const std::vector<SparseMatrix>& corpus,
                      const MeasurementBackend& oracle,
                      const LabelingOptions& opt)
{
    fatalIf(algorithmInfo(alg).sparseOrder != 2,
            "buildDatasetResumable requires a matrix algorithm");
    fatalIf(opt.flushEvery == 0, "LabelingOptions.flushEvery must be >= 1");

    u64 fingerprint =
        corpusFingerprint(alg, corpus, opt.schedulesPerMatrix, opt.seed);
    LabelCheckpoint ckpt;
    ckpt.partial.alg = alg;
    if (!opt.checkpointPath.empty() &&
        tryLoadLabelCheckpoint(opt.checkpointPath, fingerprint, &ckpt)) {
        logInfo("resuming corpus labeling from " + opt.checkpointPath +
                " (" + std::to_string(ckpt.completed) + "/" +
                std::to_string(corpus.size()) + " items done)");
    }
    fatalIf(ckpt.completed > corpus.size(),
            "labeling checkpoint covers more items than the corpus");

    for (u32 i = ckpt.completed; i < corpus.size(); ++i) {
        // Independent per-item seed: the labels of item i do not depend on
        // how many items ran before it in this process, which is what
        // makes interrupted-and-resumed runs bit-identical.
        Rng rng(mixSeed(opt.seed, i));
        keepEntry(ckpt.partial.entries,
                  labelEntry(alg, corpus[i], oracle, opt.schedulesPerMatrix,
                             rng));
        ckpt.completed = i + 1;
        bool flush_due = (i + 1) % opt.flushEvery == 0;
        if (!opt.checkpointPath.empty() &&
            (flush_due || i + 1 == corpus.size()))
            saveLabelCheckpoint(ckpt, fingerprint, opt.checkpointPath);
    }

    CostDataset ds = std::move(ckpt.partial);
    fatalIf(ds.entries.empty(), "dataset has no usable entries");
    Rng split_rng(mixSeed(opt.seed, 0xfeedface));
    splitTrainVal(ds, split_rng);
    return ds;
}

} // namespace waco
