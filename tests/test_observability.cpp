/**
 * @file
 * Differential and invariant tests of the observability layer
 * (util/trace.hpp + util/metrics.hpp) and its integration into the tuner
 * pipeline:
 *
 *  - span-tree invariants: balanced begin/end, parent/child containment,
 *    monotone timestamps, unique ids, thread attribution across ThreadPool
 *    tasks (cross-thread parent handoff);
 *  - counter/gauge/histogram exactness against a serial reference when
 *    updated from four pool workers;
 *  - Chrome trace JSON schema round-trip: emit -> parse -> re-emit is
 *    byte-identical;
 *  - deterministic end-to-end smoke: tune() with tracing on produces the
 *    expected phase spans AND a bitwise-identical outcome to tracing off;
 *    the rulebook build shows as one nn.rulebook span under model.extract
 *    on a first sighting and not at all on a repeat, and every conv layer
 *    as one nn.conv span under model.extract on both;
 *  - RulebookCache hit/miss/eviction counters through the registry under a
 *    tight gather-pair budget.
 *
 * The ObservabilityTsan fixture is the concurrency hammer the build-tsan
 * tree runs via the `observability_tsan` ctest target (label "tsan").
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/waco_tuner.hpp"
#include "data/generators.hpp"
#include "nn/sparse_conv.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace waco {
namespace {

/** Spans indexed by id, for parent lookups. */
std::map<u64, trace::SpanRecord>
byId(const std::vector<trace::SpanRecord>& spans)
{
    std::map<u64, trace::SpanRecord> m;
    for (const auto& s : spans)
        m[s.id] = s;
    return m;
}

std::vector<trace::SpanRecord>
named(const std::vector<trace::SpanRecord>& spans, const std::string& name)
{
    std::vector<trace::SpanRecord> out;
    for (const auto& s : spans)
        if (s.name == name)
            out.push_back(s);
    return out;
}

/** Structural well-formedness every recorded span list must satisfy. */
void
checkSpanInvariants(const std::vector<trace::SpanRecord>& spans)
{
    auto ids = byId(spans);
    ASSERT_EQ(ids.size(), spans.size()) << "span ids must be unique";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        EXPECT_NE(s.id, 0u);
        EXPECT_GE(s.endNs, s.startNs) << s.name;
        if (i > 0) {
            // snapshot() contract: sorted by (startNs, id).
            EXPECT_TRUE(spans[i - 1].startNs < s.startNs ||
                        (spans[i - 1].startNs == s.startNs &&
                         spans[i - 1].id < s.id));
        }
        if (s.parent != 0) {
            auto p = ids.find(s.parent);
            ASSERT_NE(p, ids.end()) << s.name << " has a dangling parent";
            // A child runs inside its parent's lifetime, even when the
            // parent was adopted from another thread.
            EXPECT_GE(s.startNs, p->second.startNs) << s.name;
            EXPECT_LE(s.endNs, p->second.endNs) << s.name;
        }
    }
}

/** Skip a test whose assertions need the WACO_* macros compiled in. */
#if WACO_OBSERVABILITY
#define WACO_REQUIRE_MACROS() ((void)0)
#else
#define WACO_REQUIRE_MACROS() \
    GTEST_SKIP() << "observability macros compiled out"
#endif

class ObservabilityTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setLogLevel(LogLevel::Off);
        trace::setEnabled(false);
        trace::clear();
        metrics::setEnabled(false);
    }

    void
    TearDown() override
    {
        trace::setEnabled(false);
        trace::clear();
        metrics::setEnabled(false);
        setLogLevel(LogLevel::Info);
    }
};

TEST_F(ObservabilityTest, SpanTreeInvariantsSingleThread)
{
    WACO_REQUIRE_MACROS();
    trace::setEnabled(true);
    EXPECT_EQ(trace::activeSpanCount(), 0u);
    {
        WACO_SPAN("t.a");
        EXPECT_EQ(trace::activeSpanCount(), 1u);
        {
            WACO_SPAN("t.b");
            {
                WACO_SPAN("t.c");
                EXPECT_EQ(trace::activeSpanCount(), 3u);
            }
            EXPECT_EQ(trace::activeSpanCount(), 2u);
        }
        WACO_SPAN("t.b2");
    }
    EXPECT_EQ(trace::activeSpanCount(), 0u) << "begin/end must balance";
    trace::setEnabled(false);

    auto spans = trace::snapshot();
    ASSERT_EQ(spans.size(), 4u);
    checkSpanInvariants(spans);

    auto a = named(spans, "t.a"), b = named(spans, "t.b"),
         c = named(spans, "t.c"), b2 = named(spans, "t.b2");
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    ASSERT_EQ(c.size(), 1u);
    ASSERT_EQ(b2.size(), 1u);
    EXPECT_EQ(a[0].parent, 0u);
    EXPECT_EQ(b[0].parent, a[0].id);
    EXPECT_EQ(c[0].parent, b[0].id);
    EXPECT_EQ(b2[0].parent, a[0].id);
    // Single-threaded: every span carries the caller's thread id.
    for (const auto& s : spans)
        EXPECT_EQ(s.tid, trace::currentThreadId());
    // Siblings opened one after the other have monotone start times.
    EXPECT_LE(b[0].endNs, b2[0].startNs);
}

TEST_F(ObservabilityTest, DisabledRecordsNothing)
{
    ASSERT_FALSE(trace::enabled());
    {
        WACO_SPAN("t.invisible");
        EXPECT_EQ(WACO_CURRENT_SPAN(), 0u);
    }
    EXPECT_TRUE(trace::snapshot().empty());
    EXPECT_EQ(trace::activeSpanCount(), 0u);

    ASSERT_FALSE(metrics::enabled());
    WACO_COUNT("t.never_created", 5);
    auto counters = metrics::MetricsRegistry::instance().counters();
    EXPECT_EQ(counters.count("t.never_created"), 0u)
        << "a disabled WACO_COUNT must not even register the metric";

#if WACO_OBSERVABILITY
    metrics::setEnabled(true);
    WACO_COUNT("t.created_when_enabled", 5);
    counters = metrics::MetricsRegistry::instance().counters();
    ASSERT_EQ(counters.count("t.created_when_enabled"), 1u);
    EXPECT_GE(counters["t.created_when_enabled"], 5u);
#endif
}

TEST_F(ObservabilityTest, ThreadAttributionAcrossPool)
{
    WACO_REQUIRE_MACROS();
    trace::setEnabled(true);
    ThreadPool pool(4);
    const u32 caller_tid = trace::currentThreadId();
    const u64 kChunks = 64;
    std::atomic<u64> ran{0};
    {
        WACO_SPAN("t.root");
        pool.parallelFor(kChunks, 1, 5, [&](u64 b, u64 e) {
            WACO_SPAN("t.chunk");
            ran.fetch_add(e - b);
            // Enough dwell time that the four workers reliably join in.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    }
    trace::setEnabled(false);
    EXPECT_EQ(ran.load(), kChunks);

    auto spans = trace::snapshot();
    checkSpanInvariants(spans);

    auto root = named(spans, "t.root");
    auto jobs = named(spans, "pool.job");
    auto workers = named(spans, "pool.worker");
    auto chunks = named(spans, "t.chunk");
    ASSERT_EQ(root.size(), 1u);
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].parent, root[0].id);
    EXPECT_EQ(jobs[0].tid, caller_tid);

    // Cross-thread handoff: every worker span adopted the caller's
    // pool.job span as parent, from a different thread.
    ASSERT_GE(workers.size(), 1u);
    for (const auto& w : workers) {
        EXPECT_EQ(w.parent, jobs[0].id);
        EXPECT_NE(w.tid, caller_tid);
    }

    // Every chunk spans nests under either a worker span (worker thread)
    // or directly under pool.job (the caller participates too).
    EXPECT_EQ(chunks.size(), kChunks);
    std::map<u64, u32> parent_tid;
    for (const auto& w : workers)
        parent_tid[w.id] = w.tid;
    parent_tid[jobs[0].id] = jobs[0].tid;
    for (const auto& c : chunks) {
        auto it = parent_tid.find(c.parent);
        ASSERT_NE(it, parent_tid.end())
            << "chunk span must attach to pool.job or a pool.worker";
        EXPECT_EQ(c.tid, it->second)
            << "a span's thread is the thread that opened it";
    }
}

TEST_F(ObservabilityTest, CounterAndHistogramMatchSerialReference)
{
    auto& reg = metrics::MetricsRegistry::instance();
    auto& counter = reg.counter("t.exact_counter");
    auto& hist = reg.histogram("t.exact_hist");
    counter.reset();
    hist.reset();

    const u64 kN = 20000;
    auto value_of = [](u64 i) { return (i * 2654435761ull) % 100000; };

    // Serial reference.
    u64 ref_count_total = 0, ref_hist_count = 0, ref_hist_sum = 0;
    u64 ref_min = ~u64{0}, ref_max = 0;
    std::array<u64, metrics::kHistBuckets> ref_buckets{};
    for (u64 i = 0; i < kN; ++i) {
        u64 v = value_of(i);
        ref_count_total += v % 7 + 1;
        ++ref_hist_count;
        ref_hist_sum += v;
        ref_buckets[metrics::Histogram::bucketOf(v)] += 1;
        ref_min = std::min(ref_min, v);
        ref_max = std::max(ref_max, v);
    }

    ThreadPool pool(4);
    pool.parallelFor(kN, 64, 5, [&](u64 b, u64 e) {
        for (u64 i = b; i < e; ++i) {
            u64 v = value_of(i);
            counter.add(v % 7 + 1);
            hist.record(v);
        }
    });

    // parallelFor blocked until every chunk ran: writers have quiesced, so
    // the merged shard totals are exact, not approximate.
    EXPECT_EQ(counter.total(), ref_count_total);
    auto snap = hist.read();
    EXPECT_EQ(snap.count, ref_hist_count);
    EXPECT_EQ(snap.sum, ref_hist_sum);
    EXPECT_EQ(snap.min, ref_min);
    EXPECT_EQ(snap.max, ref_max);
    for (u32 bkt = 0; bkt < metrics::kHistBuckets; ++bkt)
        EXPECT_EQ(snap.buckets[bkt], ref_buckets[bkt]) << "bucket " << bkt;

    counter.reset();
    hist.reset();
    EXPECT_EQ(counter.total(), 0u);
    EXPECT_EQ(hist.read().count, 0u);
    EXPECT_EQ(hist.read().min, 0u);
}

TEST_F(ObservabilityTest, GaugeAndBucketEdges)
{
    auto& g = metrics::MetricsRegistry::instance().gauge("t.gauge");
    g.set(3.25);
    EXPECT_EQ(g.value(), 3.25);
    g.set(-1e-9);
    EXPECT_EQ(g.value(), -1e-9);
    g.reset();
    EXPECT_EQ(g.value(), 0.0);

    using metrics::Histogram;
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(u64{1} << 46), metrics::kHistBuckets - 1);
    EXPECT_EQ(Histogram::bucketOf(~u64{0}), metrics::kHistBuckets - 1);
}

TEST_F(ObservabilityTest, MetricsJsonExport)
{
    auto& reg = metrics::MetricsRegistry::instance();
    reg.counter("t.json_counter").reset();
    reg.counter("t.json_counter").add(42);
    reg.gauge("t.json_gauge").set(2.5);
    reg.histogram("t.json_hist").reset();
    reg.histogram("t.json_hist").record(9);

    std::string json = reg.exportJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"t.json_counter\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"t.json_gauge\": 2.5"), std::string::npos);
    EXPECT_NE(json.find("\"t.json_hist\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"sum\": 9"), std::string::npos);
}

TEST_F(ObservabilityTest, ChromeTraceRoundTripIsByteIdentical)
{
    WACO_REQUIRE_MACROS();
    trace::setEnabled(true);
    ThreadPool pool(2);
    {
        WACO_SPAN("t.rt_root");
        pool.parallelFor(8, 1, 3, [&](u64, u64) {
            WACO_SPAN("t.rt_chunk");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
        WACO_SPAN("t.rt_tail");
    }
    trace::setEnabled(false);

    auto spans = trace::snapshot();
    ASSERT_GE(spans.size(), 4u);
    std::string json = trace::serializeChromeTrace(spans);
    // Minimal schema: a trace_event document of complete events.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"t.rt_root\""), std::string::npos);

    auto parsed = trace::parseChromeTrace(json);
    ASSERT_EQ(parsed.size(), spans.size());
    std::string json2 = trace::serializeChromeTrace(parsed);
    EXPECT_EQ(json, json2) << "emit -> parse -> re-emit must be bytewise "
                              "stable";

    // Everything except the (rebased) absolute time base survives the trip.
    i64 base = spans.front().startNs;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(parsed[i].id, spans[i].id);
        EXPECT_EQ(parsed[i].parent, spans[i].parent);
        EXPECT_EQ(parsed[i].name, spans[i].name);
        EXPECT_EQ(parsed[i].tid, spans[i].tid);
        EXPECT_EQ(parsed[i].startNs, spans[i].startNs - base);
        EXPECT_EQ(parsed[i].endNs - parsed[i].startNs,
                  spans[i].endNs - spans[i].startNs);
    }
}

TEST_F(ObservabilityTest, ChromeTraceRoundTripHandcraftedEdgeCases)
{
    // Tied start times (sorted by id), zero-length span, large values.
    std::vector<trace::SpanRecord> spans;
    spans.push_back({1, 0, "root", 0, 1000, 5000000});
    spans.push_back({2, 1, "tie_a", 0, 2000, 2000});
    spans.push_back({3, 1, "tie_b", 1, 2000, 4999999});
    spans.push_back({4, 3, "late", 1, 4000000, 4000001});
    std::string json = trace::serializeChromeTrace(spans);
    auto parsed = trace::parseChromeTrace(json);
    ASSERT_EQ(parsed.size(), spans.size());
    EXPECT_EQ(trace::serializeChromeTrace(parsed), json);
    EXPECT_EQ(parsed[1].endNs, parsed[1].startNs);
    EXPECT_EQ(parsed[3].endNs - parsed[3].startNs, 1);
}

TEST_F(ObservabilityTest, TunePipelineTracedVsUntracedIsIdentical)
{
    // Fixed-seed tiny end-to-end run. Train once, then tune the same
    // matrix with observability off and on: the phase spans must appear,
    // and the outcome must not change in any way (tracing is passive).
    WACO_REQUIRE_MACROS();
    CorpusOptions copt;
    copt.count = 6;
    copt.minDim = 256;
    copt.maxDim = 512;
    copt.minNnz = 800;
    copt.maxNnz = 3000;
    auto corpus = makeCorpus(copt, 51);

    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 4;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = 12;
    opt.train.epochs = 3;
    opt.train.batchSchedules = 10;
    opt.topK = 5;
    opt.efSearch = 16;
    WacoTuner tuner(Algorithm::SpMM, MachineConfig::intel24(), opt);
    tuner.train(corpus);

    Rng rng(52);
    auto matrix = genDenseBlocks(384, 384, 8, 48, 0.9, rng);

    auto plain = tuner.tune(matrix);

    auto& reg = metrics::MetricsRegistry::instance();
    u64 tune_calls0 = reg.counter("tune.calls").total();
    u64 cost_evals0 = reg.counter("tune.cost_evals").total();
    u64 measure_calls0 = reg.counter("measure.calls").total();
    u64 distinct_scans0 = reg.counter("perfmodel.distinct_scans").total();
    trace::clear();
    trace::setEnabled(true);
    metrics::setEnabled(true);
    auto traced = tuner.tune(matrix);
    trace::setEnabled(false);
    metrics::setEnabled(false);

    // Differential check: identical decisions and measurements.
    EXPECT_EQ(traced.best, plain.best);
    EXPECT_EQ(traced.best.describe(), plain.best.describe());
    EXPECT_EQ(traced.bestMeasured.seconds, plain.bestMeasured.seconds);
    EXPECT_EQ(traced.bestMeasured.valid, plain.bestMeasured.valid);
    EXPECT_EQ(traced.costEvaluations, plain.costEvaluations);
    EXPECT_EQ(traced.fellBack, plain.fellBack);
    ASSERT_EQ(traced.topK.size(), plain.topK.size());
    for (std::size_t i = 0; i < plain.topK.size(); ++i) {
        EXPECT_EQ(traced.topK[i], plain.topK[i]);
        EXPECT_EQ(traced.topKMeasured[i].seconds,
                  plain.topKMeasured[i].seconds);
    }

    // The traced run must produce the documented phase tree:
    // tune -> {tune.extract, tune.search, tune.measure}, in that order.
    auto spans = trace::snapshot();
    checkSpanInvariants(spans);
    auto tune_spans = named(spans, "tune");
    auto extract = named(spans, "tune.extract");
    auto search = named(spans, "tune.search");
    auto measure = named(spans, "tune.measure");
    ASSERT_EQ(tune_spans.size(), 1u);
    ASSERT_EQ(extract.size(), 1u);
    ASSERT_EQ(search.size(), 1u);
    ASSERT_EQ(measure.size(), 1u);
    EXPECT_EQ(tune_spans[0].parent, 0u);
    EXPECT_EQ(extract[0].parent, tune_spans[0].id);
    EXPECT_EQ(search[0].parent, tune_spans[0].id);
    EXPECT_EQ(measure[0].parent, tune_spans[0].id);
    EXPECT_LE(extract[0].endNs, search[0].startNs);
    EXPECT_LE(search[0].endNs, measure[0].startNs);

    // Nested layers surfaced too: the extractor under tune.extract, the
    // robust measurer under tune.measure.
    auto model_extract = named(spans, "model.extract");
    ASSERT_EQ(model_extract.size(), 1u);
    EXPECT_EQ(model_extract[0].parent, extract[0].id);
    // The untraced tune built this matrix's rulebook chain, so the repeat
    // hits the cache and builds none.
    EXPECT_TRUE(named(spans, "nn.rulebook").empty());
    auto measure_calls = named(spans, "measure.call");
    ASSERT_GE(measure_calls.size(), 1u);
    for (const auto& mc : measure_calls)
        EXPECT_EQ(mc.parent, measure[0].id);
    // Under each measure.call, the oracle's own span.
    auto oracle_runs = named(spans, "perfmodel.oracle");
    ASSERT_GE(oracle_runs.size(), measure_calls.size());
    std::set<u64> call_ids;
    for (const auto& mc : measure_calls)
        call_ids.insert(mc.id);
    for (const auto& o : oracle_runs)
        EXPECT_EQ(call_ids.count(o.parent), 1u);

    // And the metrics registry saw exactly this one tune.
    EXPECT_EQ(reg.counter("tune.calls").total() - tune_calls0, 1u);
    EXPECT_EQ(reg.counter("tune.cost_evals").total() - cost_evals0,
              traced.costEvaluations);
    EXPECT_EQ(reg.counter("measure.calls").total() - measure_calls0,
              traced.topK.size() + (traced.fellBack ? 1u : 0u));
    EXPECT_GT(reg.counter("perfmodel.distinct_scans").total(), distinct_scans0);

    // The serialized trace of a real pipeline run must round-trip.
    std::string json = trace::serializeChromeTrace(spans);
    EXPECT_EQ(trace::serializeChromeTrace(trace::parseChromeTrace(json)),
              json);

    // A first sighting builds the rulebook chain exactly once, inside the
    // extractor; a repeat of the same matrix builds none. Both run every
    // conv layer once, each in its own span.
    auto fresh = genBanded(320, 320, 6, 0.7, rng);
    for (u64 want : {1u, 0u}) {
        trace::clear();
        trace::setEnabled(true);
        tuner.tune(fresh);
        trace::setEnabled(false);
        auto fresh_spans = trace::snapshot();
        checkSpanInvariants(fresh_spans);
        auto rulebook = named(fresh_spans, "nn.rulebook");
        auto fresh_extract = named(fresh_spans, "model.extract");
        ASSERT_EQ(rulebook.size(), want);
        ASSERT_EQ(fresh_extract.size(), 1u);
        if (want == 1) {
            EXPECT_EQ(rulebook[0].parent, fresh_extract[0].id);
        }
        auto convs = named(fresh_spans, "nn.conv");
        EXPECT_EQ(convs.size(), opt.extractorConfig.numLayers);
        for (const auto& conv : convs)
            EXPECT_EQ(conv.parent, fresh_extract[0].id);
    }
}

TEST_F(ObservabilityTest, RulebookCacheEvictionCounters)
{
    metrics::setEnabled(true);
    auto& reg = metrics::MetricsRegistry::instance();
    u64 hits0 = reg.counter("rulebook.hits").total();
    u64 misses0 = reg.counter("rulebook.misses").total();
    u64 evict0 = reg.counter("rulebook.evictions").total();

    Rng rng(5);
    std::vector<nn::SparseConv> convs;
    convs.emplace_back(2u, 3u, 1u, 1u, 4u, rng);
    convs.emplace_back(2u, 3u, 2u, 4u, 4u, rng);

    auto coords_of = [](u64 seed) {
        Rng r(seed);
        auto m = genUniform(64, 64, 200, r);
        std::vector<std::array<i32, 3>> coords;
        for (u64 n = 0; n < m.nnz(); ++n)
            coords.push_back({static_cast<i32>(m.rowIndices()[n]),
                              static_cast<i32>(m.colIndices()[n]), 0});
        return coords;
    };
    auto c0 = coords_of(1), c1 = coords_of(2);

    nn::RulebookCache cache;
    EXPECT_EQ(cache.pairBudget(), nn::RulebookCache::kMaxPairEntries);
    cache.chain(c0, convs); // miss, cached
    cache.chain(c0, convs); // hit
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);

    // A 1-pair budget can never hold two chains: each new insertion evicts
    // the resident one (but never itself — the newest entry survives).
    cache.setPairBudget(1);
    cache.chain(c1, convs); // miss, evicts c0's chain
    cache.chain(c0, convs); // miss again (was evicted), evicts c1's chain
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.evictions(), 2u);

    // The same events flowed into the process-wide registry.
#if WACO_OBSERVABILITY
    EXPECT_EQ(reg.counter("rulebook.hits").total() - hits0, cache.hits());
    EXPECT_EQ(reg.counter("rulebook.misses").total() - misses0,
              cache.misses());
    EXPECT_EQ(reg.counter("rulebook.evictions").total() - evict0,
              cache.evictions());
#else
    (void)hits0;
    (void)misses0;
    (void)evict0;
#endif
}

/**
 * Concurrency hammers for the ThreadSanitizer tree (`ctest -L tsan` in
 * build-tsan runs exactly this fixture). Four forced pool workers update
 * sharded metrics and nested spans while a reader thread concurrently
 * snapshots; after quiescence the merged totals must equal the serial sum.
 */
class ObservabilityTsan : public ObservabilityTest
{
};

TEST_F(ObservabilityTsan, MetricsHammerWithConcurrentReader)
{
    auto& reg = metrics::MetricsRegistry::instance();
    auto& counter = reg.counter("t.tsan_counter");
    auto& hist = reg.histogram("t.tsan_hist");
    auto& gauge = reg.gauge("t.tsan_gauge");
    counter.reset();
    hist.reset();

    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            auto counters = reg.counters();
            auto hsnap = hist.read();
            std::string json = reg.exportJson();
            (void)counters;
            (void)hsnap;
            (void)json;
        }
    });

    const u64 kN = 50000;
    ThreadPool pool(4);
    pool.parallelFor(kN, 16, 5, [&](u64 b, u64 e) {
        for (u64 i = b; i < e; ++i) {
            counter.add(2);
            hist.record(i % 1024);
            gauge.set(static_cast<double>(i));
        }
    });
    stop.store(true);
    reader.join();

    EXPECT_EQ(counter.total(), 2 * kN);
    auto snap = hist.read();
    EXPECT_EQ(snap.count, kN);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, 1023u);
}

TEST_F(ObservabilityTsan, NestedSpansFromPoolWorkers)
{
    WACO_REQUIRE_MACROS();
    trace::setEnabled(true);
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            auto spans = trace::snapshot();
            u64 active = trace::activeSpanCount();
            (void)spans;
            (void)active;
        }
    });

    const u64 kChunks = 256;
    ThreadPool pool(4);
    {
        WACO_SPAN("t.tsan_root");
        pool.parallelFor(kChunks, 1, 5, [&](u64, u64) {
            WACO_SPAN("t.tsan_outer");
            {
                WACO_SPAN("t.tsan_inner");
                WACO_COUNT("t.tsan_span_bodies", 1);
            }
        });
    }
    stop.store(true);
    reader.join();
    trace::setEnabled(false);

    EXPECT_EQ(trace::activeSpanCount(), 0u);
    auto spans = trace::snapshot();
    checkSpanInvariants(spans);
    EXPECT_EQ(named(spans, "t.tsan_outer").size(), kChunks);
    EXPECT_EQ(named(spans, "t.tsan_inner").size(), kChunks);
    // Every inner span is the child of an outer span on the same thread.
    auto ids = byId(spans);
    for (const auto& s : named(spans, "t.tsan_inner")) {
        ASSERT_NE(ids.count(s.parent), 0u);
        EXPECT_EQ(ids[s.parent].name, "t.tsan_outer");
        EXPECT_EQ(ids[s.parent].tid, s.tid);
    }
}

} // namespace
} // namespace waco
