/**
 * @file
 * Cost-model inference-engine throughput: schedules/sec through the feature
 * extractor, the program embedder, the predictor head, and the end-to-end
 * generic graph walk (blocked GEMM, hoisted query feature, frontier-batched
 * scoring), one row per stage. The extractor gets two rows: over two
 * alternating patterns, whose rulebook chains are cached after the first
 * call, and over distinct patterns, each a first sighting that builds its
 * chain cold (what a tuner pays for a new input).
 *
 * `--smoke` shrinks every size for the tier-1 ctest run and hard-fails
 * (exit 1) when the batched walk's hits differ from the scalar walk's.
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "ir/schedule.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

using namespace waco;
using namespace waco::bench;

namespace {

struct ThroughputRow
{
    std::string name;
    std::string unit;
    double perSec = 0.0;
};

/** Run @p body until @p min_seconds elapse; returns units/sec. */
template <typename Body>
double
unitsPerSec(double min_seconds, Body&& body)
{
    // One warm-up call (pulls code+data into cache and primes the rulebook
    // cache — exactly the steady state being measured).
    double units = body();
    Timer t;
    double total = 0.0;
    u32 reps = 0;
    do {
        total += body();
        ++reps;
    } while (t.seconds() < min_seconds);
    (void)units;
    (void)reps;
    return total / t.seconds();
}

bool
sameHits(const std::vector<HnswHit>& a, const std::vector<HnswHit>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].id != b[i].id || a[i].dist != b[i].dist)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    argc = parseObservabilityFlags(argc, argv);
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    setLogLevel(LogLevel::Warn);
    Timer total;
    printHeader("Inference engine",
                smoke ? "Model throughput (smoke sizes)"
                      : "Model throughput: batched engine");

    // Random-init model: throughput does not depend on trained weights.
    ExtractorConfig cfg;
    cfg.channels = smoke ? 4u : 16u;
    cfg.numLayers = smoke ? 2u : 8u;
    cfg.featureDim = smoke ? 16u : 64u;
    WacoCostModel model(Algorithm::SpMM, "waconet", cfg, 42);

    // Corpus of SuperSchedules standing in for the KNN graph's nodes.
    const u32 kNodes = smoke ? 80u : 1000u;
    auto shape = ProblemShape::forMatrix(Algorithm::SpMM, 4096, 4096);
    SuperScheduleSpace space(Algorithm::SpMM, shape);
    Rng rng(7);
    std::vector<SuperSchedule> nodes;
    nodes.reserve(kNodes);
    for (u32 i = 0; i < kNodes; ++i)
        nodes.push_back(space.sample(rng));

    // Query patterns (two, so the rulebook cache is exercised across
    // alternating inputs the way alternating tuner queries exercise it).
    std::vector<SparseMatrix> patterns;
    for (u64 seed : {11ull, 12ull}) {
        Rng prng(seed);
        auto m = smoke ? genUniform(128, 128, 400, prng)
                       : genUniform(2048, 2048, 12000, prng);
        patterns.push_back(std::move(m));
    }

    const double kMinSec = smoke ? 0.02 : 0.25;
    std::vector<ThroughputRow> rows;

    // ---- Feature extractor: patterns/sec over alternating inputs. -------
    {
        ThroughputRow r{"extractor (cached)", "patterns", 0};
        u32 which = 0;
        auto once = [&]() {
            nn::Mat f = model.extractFeature(patterns[which]);
            which ^= 1u;
            return 1.0 + 0.0 * f.at(0, 0);
        };
        r.perSec = unitsPerSec(kMinSec, once);
        rows.push_back(r);
    }

    // ---- Feature extractor: patterns/sec, every pattern new. ------------
    {
        // Distinct patterns, each extracted once after a warm-up on another
        // one: every call misses the rulebook cache.
        std::vector<SparseMatrix> fresh;
        for (u64 seed = 100; seed < (smoke ? 104u : 124u); ++seed) {
            Rng prng(seed);
            fresh.push_back(smoke ? genUniform(128, 128, 400, prng)
                                  : genUniform(2048, 2048, 12000, prng));
        }
        nn::Mat warm = model.extractFeature(fresh.back());
        fresh.pop_back();
        Timer t;
        double sink = warm.at(0, 0);
        for (const auto& m : fresh)
            sink += model.extractFeature(m).at(0, 0);
        rows.push_back({"extractor (first sighting)", "patterns",
                        static_cast<double>(fresh.size()) / t.seconds() +
                            0.0 * sink});
    }

    // ---- Program embedder: schedules/sec in 256-row batches. ------------
    {
        ThroughputRow r{"embedder", "schedules", 0};
        auto once = [&]() {
            double done = 0;
            constexpr u32 kChunk = 256;
            for (u32 base = 0; base < nodes.size(); base += kChunk) {
                u32 end = std::min<u32>(static_cast<u32>(nodes.size()),
                                        base + kChunk);
                std::vector<SuperSchedule> chunk(nodes.begin() + base,
                                                 nodes.begin() + end);
                nn::Mat e = model.programEmbeddings(chunk);
                done += e.rows;
            }
            return done;
        };
        r.perSec = unitsPerSec(kMinSec, once);
        rows.push_back(r);
    }

    // Precompute the corpus embeddings once (the engine's steady state) —
    // the predictor and search rows below score against these.
    nn::Mat embeddings(kNodes, model.embeddingDim());
    {
        constexpr u32 kChunk = 256;
        for (u32 base = 0; base < kNodes; base += kChunk) {
            u32 end = std::min(kNodes, base + kChunk);
            std::vector<SuperSchedule> chunk(nodes.begin() + base,
                                             nodes.begin() + end);
            nn::Mat e = model.programEmbeddings(chunk);
            for (u32 n = 0; n < e.rows; ++n)
                std::copy(e.row(n), e.row(n) + e.cols,
                          embeddings.row(base + n));
        }
    }
    nn::Mat feature = model.extractFeature(patterns[0]);

    // ---- Predictor head: schedules/sec scoring the whole corpus. --------
    {
        ThroughputRow r{"predictor", "schedules", 0};
        auto once = [&]() {
            auto q = model.beginQuery(feature);
            nn::Mat p =
                model.scoreEmbeddings(q, embeddings, nullptr, embeddings.rows);
            return static_cast<double>(p.rows) + 0.0 * p.at(0, 0);
        };
        r.perSec = unitsPerSec(kMinSec, once);
        rows.push_back(r);
    }

    // ---- End-to-end graph walk (tuner phase 2), ef=64. ------------------
    Hnsw graph(model.embeddingDim(), 16, 60);
    for (u32 n = 0; n < embeddings.rows; ++n)
        graph.add(embeddings.row(n));
    const u32 kEf = 64, kTopK = 10;
    {
        ThroughputRow r{"search", "scored schedules", 0};
        // Hoisted query + frontier-batched scoring (what tune() runs).
        auto once = [&]() {
            u64 evals = 0;
            auto q = model.beginQuery(feature);
            auto hits = graph.searchGenericBatched(
                [&](const u32* ids, u32 count, double* out) {
                    nn::Mat p = model.scoreEmbeddings(q, embeddings, ids, count);
                    for (u32 i = 0; i < count; ++i)
                        out[i] = static_cast<double>(p.at(i, 0));
                },
                kTopK, kEf, &evals);
            return static_cast<double>(evals) + 0.0 * hits.size();
        };
        r.perSec = unitsPerSec(kMinSec, once);
        rows.push_back(r);
    }

    // ---- Batched-vs-scalar identity check (hard failure in smoke). ------
    bool identical = true;
    {
        auto q = model.beginQuery(feature);
        auto scalar = graph.searchGeneric(
            [&](u32 id) {
                nn::Mat p = model.scoreEmbeddings(q, embeddings, &id, 1);
                return static_cast<double>(p.at(0, 0));
            },
            kTopK, kEf);
        auto batched = graph.searchGenericBatched(
            [&](const u32* ids, u32 count, double* out) {
                nn::Mat p = model.scoreEmbeddings(q, embeddings, ids, count);
                for (u32 i = 0; i < count; ++i)
                    out[i] = static_cast<double>(p.at(i, 0));
            },
            kTopK, kEf);
        identical = sameHits(scalar, batched);
    }

    printRow({"Stage", "Unit", "Per sec"}, {28, 18, 14});
    for (const auto& r : rows)
        printRow({r.name, r.unit, numCell(r.perSec, 1)}, {28, 18, 14});
    std::printf("batched search hits %s scalar hits\n",
                identical ? "identical to" : "DIFFER FROM");

    writeObservabilityOutputs();
    std::printf("[bench completed in %.1fs]\n", total.seconds());
    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: batched searchGeneric returned different hits "
                     "than the scalar walk\n");
        return 1;
    }
    return 0;
}
