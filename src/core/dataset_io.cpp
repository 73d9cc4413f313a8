#include "core/dataset_io.hpp"

#include <fstream>
#include <sstream>

#include "util/hash.hpp"

namespace waco {

namespace {

constexpr u32 kMagic = 0x57444154;     // "WDAT"
constexpr u32 kCkptMagic = 0x57434b50; // "WCKP"
constexpr u32 kFooterMagic = 0x57454e44; // "WEND"
constexpr u32 kVersion = 3;

template <typename T>
void
writePod(std::ostream& out, const T& v)
{
    out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T
readPod(std::istream& in)
{
    T v{};
    in.read(reinterpret_cast<char*>(&v), sizeof(T));
    fatalIf(!in, "truncated dataset stream");
    return v;
}

void
writeString(std::ostream& out, const std::string& s)
{
    writePod<u32>(out, static_cast<u32>(s.size()));
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string
readString(std::istream& in)
{
    u32 n = readPod<u32>(in);
    fatalIf(n > (1u << 20), "implausible string length in dataset");
    std::string s(n, '\0');
    in.read(s.data(), n);
    fatalIf(!in, "truncated dataset stream");
    return s;
}

template <typename T>
void
writeVec(std::ostream& out, const std::vector<T>& v)
{
    writePod<u64>(out, v.size());
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T>
readVec(std::istream& in)
{
    u64 n = readPod<u64>(in);
    fatalIf(n > (1ull << 32), "implausible vector length in dataset");
    std::vector<T> v(n);
    in.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
    fatalIf(!in, "truncated dataset stream");
    return v;
}

void
writeEntry(std::ostream& out, const DatasetEntry& e)
{
    writeString(out, e.name);
    writePod<unsigned char>(out, e.is3d ? 1 : 0);
    if (e.is3d) {
        writePod<u32>(out, e.tensor.dimI());
        writePod<u32>(out, e.tensor.dimK());
        writePod<u32>(out, e.tensor.dimL());
        writeVec(out, e.tensor.iIndices());
        writeVec(out, e.tensor.kIndices());
        writeVec(out, e.tensor.lIndices());
        writeVec(out, e.tensor.values());
    } else {
        writePod<u32>(out, e.matrix.rows());
        writePod<u32>(out, e.matrix.cols());
        writeVec(out, e.matrix.rowIndices());
        writeVec(out, e.matrix.colIndices());
        writeVec(out, e.matrix.values());
    }
    writePod<u64>(out, e.samples.size());
    for (const auto& s : e.samples) {
        writeSchedule(out, s.schedule);
        writePod<double>(out, s.runtime);
    }
}

DatasetEntry
readEntry(std::istream& in, Algorithm alg)
{
    DatasetEntry e;
    e.name = readString(in);
    e.is3d = readPod<unsigned char>(in) != 0;
    if (e.is3d) {
        u32 di = readPod<u32>(in);
        u32 dk = readPod<u32>(in);
        u32 dl = readPod<u32>(in);
        auto is = readVec<u32>(in);
        auto ks = readVec<u32>(in);
        auto ls = readVec<u32>(in);
        auto vs = readVec<float>(in);
        std::vector<Quad> q(is.size());
        for (std::size_t x = 0; x < is.size(); ++x)
            q[x] = {is[x], ks[x], ls[x], vs[x]};
        e.tensor = Sparse3Tensor(di, dk, dl, std::move(q), e.name);
    } else {
        u32 rows = readPod<u32>(in);
        u32 cols = readPod<u32>(in);
        auto ri = readVec<u32>(in);
        auto ci = readVec<u32>(in);
        auto vs = readVec<float>(in);
        std::vector<Triplet> t(ri.size());
        for (std::size_t x = 0; x < ri.size(); ++x)
            t[x] = {ri[x], ci[x], vs[x]};
        e.matrix = SparseMatrix(rows, cols, std::move(t), e.name);
    }
    e.shape = ProblemShape::forInput(alg, e.input());
    u64 n_samples = readPod<u64>(in);
    fatalIf(n_samples > (1u << 24), "implausible sample count");
    for (u64 x = 0; x < n_samples; ++x) {
        ScheduleSample s;
        s.schedule = readSchedule(in);
        s.runtime = readPod<double>(in);
        e.samples.push_back(std::move(s));
    }
    return e;
}

constexpr std::size_t kFooterBytes = sizeof(u32) + sizeof(u64);

/** Atomically-ish write payload + checksum footer to @p path. */
void
writeChecksummed(const std::string& payload, const std::string& path)
{
    std::ofstream out(path, std::ios::binary);
    fatalIf(!out, "cannot open for writing: " + path);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    writePod(out, kFooterMagic);
    writePod(out, fnv1a64(payload.data(), payload.size()));
    fatalIf(!out, "write failed: " + path);
}

/** Read a whole checksummed file, verify the footer, return the payload. */
std::string
readChecksummed(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open for reading: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    fatalIf(!in && !in.eof(), "read failed: " + path);
    std::string all = buf.str();
    fatalIf(all.size() < kFooterBytes,
            "truncated dataset file (no footer): " + path);
    std::size_t payload_size = all.size() - kFooterBytes;
    std::istringstream foot(all.substr(payload_size));
    fatalIf(readPod<u32>(foot) != kFooterMagic,
            "truncated or corrupt dataset file (bad footer): " + path);
    u64 want = readPod<u64>(foot);
    fatalIf(fnv1a64(all.data(), payload_size) != want,
            "dataset file checksum mismatch (corrupt): " + path);
    all.resize(payload_size);
    return all;
}

/** After parsing, every payload byte must have been consumed. */
void
checkFullyConsumed(std::istream& in, std::size_t payload_size,
                   const std::string& path)
{
    auto pos = in.tellg();
    fatalIf(pos < 0 ||
                static_cast<std::size_t>(pos) != payload_size,
            "trailing bytes in dataset file: " + path);
}

} // namespace

void
writeSchedule(std::ostream& out, const SuperSchedule& s)
{
    writePod<u32>(out, static_cast<u32>(s.alg));
    for (u32 sp : s.splits)
        writePod<u32>(out, sp);
    writeVec(out, s.loopOrder);
    writePod<u32>(out, s.parallelSlot);
    writePod<u32>(out, s.numThreads);
    writePod<u32>(out, s.ompChunk);
    writeVec(out, s.sparseLevelOrder);
    std::vector<unsigned char> fmts;
    for (auto f : s.sparseLevelFormats)
        fmts.push_back(static_cast<unsigned char>(f));
    writeVec(out, fmts);
    std::vector<unsigned char> layouts;
    for (bool rm : s.denseRowMajor)
        layouts.push_back(rm ? 1 : 0);
    writeVec(out, layouts);
}

SuperSchedule
readSchedule(std::istream& in)
{
    SuperSchedule s;
    s.alg = static_cast<Algorithm>(readPod<u32>(in));
    for (auto& sp : s.splits)
        sp = readPod<u32>(in);
    s.loopOrder = readVec<u32>(in);
    s.parallelSlot = readPod<u32>(in);
    s.numThreads = readPod<u32>(in);
    s.ompChunk = readPod<u32>(in);
    s.sparseLevelOrder = readVec<u32>(in);
    auto fmts = readVec<unsigned char>(in);
    s.sparseLevelFormats.clear();
    for (unsigned char f : fmts)
        s.sparseLevelFormats.push_back(static_cast<LevelFormat>(f));
    auto layouts = readVec<unsigned char>(in);
    s.denseRowMajor.clear();
    for (unsigned char rm : layouts)
        s.denseRowMajor.push_back(rm != 0);
    return s;
}

void
saveDataset(const CostDataset& ds, const std::string& path)
{
    std::ostringstream out(std::ios::binary);
    writePod(out, kMagic);
    writePod(out, kVersion);
    writePod<u32>(out, static_cast<u32>(ds.alg));
    writePod<u64>(out, ds.entries.size());
    for (const auto& e : ds.entries)
        writeEntry(out, e);
    writeVec(out, ds.trainIds);
    writeVec(out, ds.valIds);
    writeChecksummed(out.str(), path);
}

CostDataset
loadDataset(const std::string& path)
{
    std::string payload = readChecksummed(path);
    std::istringstream in(payload, std::ios::binary);
    fatalIf(readPod<u32>(in) != kMagic, "not a WACO dataset: " + path);
    fatalIf(readPod<u32>(in) != kVersion,
            "dataset version mismatch: " + path);
    CostDataset ds;
    ds.alg = static_cast<Algorithm>(readPod<u32>(in));
    u64 n_entries = readPod<u64>(in);
    fatalIf(n_entries > (1u << 24), "implausible dataset entry count");
    for (u64 n = 0; n < n_entries; ++n)
        ds.entries.push_back(readEntry(in, ds.alg));
    ds.trainIds = readVec<u32>(in);
    ds.valIds = readVec<u32>(in);
    checkFullyConsumed(in, payload.size(), path);
    return ds;
}

void
saveLabelCheckpoint(const LabelCheckpoint& ckpt, u64 corpus_fingerprint,
                    const std::string& path)
{
    std::ostringstream out(std::ios::binary);
    writePod(out, kCkptMagic);
    writePod(out, kVersion);
    writePod<u64>(out, corpus_fingerprint);
    writePod<u32>(out, ckpt.completed);
    writePod<u32>(out, static_cast<u32>(ckpt.partial.alg));
    writePod<u64>(out, ckpt.partial.entries.size());
    for (const auto& e : ckpt.partial.entries)
        writeEntry(out, e);
    writeChecksummed(out.str(), path);
}

bool
tryLoadLabelCheckpoint(const std::string& path, u64 corpus_fingerprint,
                       LabelCheckpoint* out)
{
    {
        std::ifstream probe(path, std::ios::binary);
        if (!probe)
            return false; // no checkpoint yet: fresh start
    }
    std::string payload = readChecksummed(path);
    std::istringstream in(payload, std::ios::binary);
    fatalIf(readPod<u32>(in) != kCkptMagic,
            "not a WACO labeling checkpoint: " + path);
    fatalIf(readPod<u32>(in) != kVersion,
            "labeling checkpoint version mismatch: " + path);
    fatalIf(readPod<u64>(in) != corpus_fingerprint,
            "labeling checkpoint was written for a different corpus or "
            "options: " + path);
    LabelCheckpoint ckpt;
    ckpt.completed = readPod<u32>(in);
    ckpt.partial.alg = static_cast<Algorithm>(readPod<u32>(in));
    u64 n_entries = readPod<u64>(in);
    fatalIf(n_entries > (1u << 24), "implausible checkpoint entry count");
    for (u64 n = 0; n < n_entries; ++n)
        ckpt.partial.entries.push_back(readEntry(in, ckpt.partial.alg));
    checkFullyConsumed(in, payload.size(), path);
    fatalIf(ckpt.partial.entries.size() > ckpt.completed,
            "labeling checkpoint has more entries than completed items: " +
                path);
    *out = std::move(ckpt);
    return true;
}

} // namespace waco
