/**
 * @file
 * Tests of the tuning-as-a-service layer: cooperative cancellation,
 * journal torn-write recovery, the persistent result cache, the
 * measurement circuit breaker, admission control / load shedding, the
 * degradation ladder, and a seeded fault-injection soak (ServiceTsan.*,
 * also registered under the tsan ctest label).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <utility>

#include "analysis/schedule_verifier.hpp"
#include "core/waco_tuner.hpp"
#include "data/generators.hpp"
#include "perfmodel/faulty_oracle.hpp"
#include "service/circuit_breaker.hpp"
#include "service/journal.hpp"
#include "service/result_cache.hpp"
#include "service/tuner_service.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

namespace waco::service {
namespace {

// ------------------------------------------------------------ shared tuner

WacoOptions
tinyOptions()
{
    WacoOptions opt;
    opt.extractorConfig.channels = 8;
    opt.extractorConfig.numLayers = 4;
    opt.extractorConfig.featureDim = 32;
    opt.schedulesPerMatrix = 8;
    opt.train.epochs = 3;
    opt.train.batchSchedules = 8;
    opt.topK = 4;
    opt.efSearch = 12;
    return opt;
}

/** One trained tuner shared by every service test (training is the
 *  expensive part; the service serializes tuner access anyway). Tests that
 *  swap the measurement backend MUST restore it before returning. */
WacoTuner&
sharedTuner()
{
    static WacoTuner* tuner = [] {
        setLogLevel(LogLevel::Off);
        auto* t =
            new WacoTuner(Algorithm::SpMV, MachineConfig::intel24(),
                          tinyOptions());
        CorpusOptions copt;
        copt.count = 6;
        copt.minDim = 128;
        copt.maxDim = 512;
        copt.minNnz = 500;
        copt.maxNnz = 2000;
        t->train(makeCorpus(copt, 91));
        setLogLevel(LogLevel::Info);
        return t;
    }();
    return *tuner;
}

SparseMatrix
testMatrix(u64 seed)
{
    Rng rng(seed);
    return genUniform(256, 256, 1200, rng);
}

std::string
tmpPath(const std::string& stem)
{
    return (std::filesystem::temp_directory_path() / stem).string();
}

/** A non-Shed response must always carry a parseable, verifier-clean
 *  schedule — the service's "never garbage" contract. */
void
expectValidResponse(const TuneResponse& r, const SparseMatrix& m)
{
    ASSERT_FALSE(r.scheduleKey.empty());
    SuperSchedule s = SuperSchedule::parseKey(r.scheduleKey);
    auto shape =
        ProblemShape::forMatrix(Algorithm::SpMV, m.rows(), m.cols());
    EXPECT_FALSE(analysis::verifySchedule(s, shape).hasErrors())
        << "schedule " << r.scheduleKey << " from rung " << rungName(r.rung);
}

class ServiceTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogLevel(LogLevel::Off); }
    void TearDown() override { setLogLevel(LogLevel::Info); }
};

// ------------------------------------------------------------- CancelToken

TEST(CancelToken, CancelAndDeadlineSemantics)
{
    CancelToken t;
    EXPECT_FALSE(t.stopRequested());
    EXPECT_TRUE(std::isinf(t.remainingSeconds()));

    t.setDeadline(0.0);
    EXPECT_TRUE(t.expired());
    EXPECT_TRUE(t.stopRequested());
    EXPECT_FALSE(t.cancelled()); // deadline expiry is not a client cancel
    EXPECT_LE(t.remainingSeconds(), 0.0);

    t.clearDeadline();
    EXPECT_FALSE(t.stopRequested());

    t.setDeadline(std::numeric_limits<double>::infinity()); // = no deadline
    EXPECT_FALSE(t.expired());

    t.cancel();
    EXPECT_TRUE(t.cancelled());
    EXPECT_TRUE(t.stopRequested());
}

// ----------------------------------------------------------------- Journal

TEST(Journal, RoundTripAndEmptyRecovery)
{
    std::string path = tmpPath("waco_journal_roundtrip.bin");
    std::filesystem::remove(path);

    // Missing file: clean empty recovery.
    JournalRecovery rec = recoverJournal(path);
    EXPECT_TRUE(rec.records.empty());
    EXPECT_EQ(rec.droppedBytes, 0u);

    JournalWriter w;
    w.open(path);
    w.append("alpha");
    w.append(std::string("binary\0payload", 14)); // embedded NUL survives
    w.append("");                                 // empty payload is legal
    w.close();

    rec = recoverJournal(path);
    ASSERT_EQ(rec.records.size(), 3u);
    EXPECT_EQ(rec.records[0], "alpha");
    EXPECT_EQ(rec.records[1], std::string("binary\0payload", 14));
    EXPECT_EQ(rec.records[2], "");
    EXPECT_EQ(rec.droppedBytes, 0u);
    std::filesystem::remove(path);
}

TEST(Journal, ChecksumIsFnv1a64)
{
    // Pins the on-disk checksum: journals written before and after any
    // refactor of the hash must still verify.
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("", 0), kFnv1aOffsetBasis);

    std::string path = tmpPath("waco_journal_checksum.bin");
    std::filesystem::remove(path);
    JournalWriter w;
    w.open(path);
    w.append("a");
    w.close();
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_EQ(bytes.size(), 4u + 4u + 1u + 8u);
    u64 trailer = 0;
    std::memcpy(&trailer, bytes.data() + 9, sizeof trailer);
    EXPECT_EQ(trailer, 0xaf63dc4c8601ec8cull);
    std::filesystem::remove(path);
}

TEST(Journal, TornTailRecoveryAtEveryByteOffset)
{
    // Build a clean 3-record journal and remember each record's end offset.
    std::string base = tmpPath("waco_journal_base.bin");
    std::filesystem::remove(base);
    JournalWriter w;
    w.open(base);
    const std::vector<std::string> payloads = {"alpha", "bravo-bravo", "c"};
    std::vector<u64> ends;
    for (const auto& p : payloads) {
        w.append(p);
        ends.push_back(static_cast<u64>(std::filesystem::file_size(base)));
    }
    w.close();
    std::string bytes;
    {
        std::ifstream in(base, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(bytes.size(), ends.back());

    // A writer can die at ANY byte offset; recovery must keep exactly the
    // records whose final checksum byte landed, and an append after
    // recovery must extend a clean file.
    std::string path = tmpPath("waco_journal_torn.bin");
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
        std::filesystem::remove(path);
        {
            std::ofstream out(path, std::ios::binary);
            out.write(bytes.data(), static_cast<std::streamsize>(cut));
        }
        std::size_t expect = 0;
        while (expect < ends.size() && ends[expect] <= cut)
            ++expect;

        JournalRecovery rec = recoverJournal(path);
        ASSERT_EQ(rec.records.size(), expect) << "cut at byte " << cut;
        for (std::size_t i = 0; i < expect; ++i)
            EXPECT_EQ(rec.records[i], payloads[i]);
        EXPECT_EQ(rec.validBytes, expect == 0 ? 0 : ends[expect - 1]);
        EXPECT_EQ(rec.droppedBytes, cut - rec.validBytes);

        JournalWriter w2;
        w2.open(path); // truncates the torn tail
        w2.append("appended-after-crash");
        w2.close();
        JournalRecovery after = recoverJournal(path);
        ASSERT_EQ(after.records.size(), expect + 1) << "cut at byte " << cut;
        EXPECT_EQ(after.records.back(), "appended-after-crash");
        EXPECT_EQ(after.droppedBytes, 0u);
    }
    std::filesystem::remove(base);
    std::filesystem::remove(path);
}

TEST(Journal, CorruptMiddleRecordStopsReplay)
{
    std::string path = tmpPath("waco_journal_corrupt.bin");
    std::filesystem::remove(path);
    JournalWriter w;
    w.open(path);
    w.append("first");
    w.append("second");
    w.close();

    // Flip one payload byte of record 2: its checksum no longer closes, so
    // replay keeps record 1 and drops everything from the corruption on
    // (an append-only journal has no way to resync past bad bytes).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    u64 second_start = 8 + 5 + 8;
    f.seekp(static_cast<std::streamoff>(second_start + 8));
    char c = 'X';
    f.write(&c, 1);
    f.close();

    JournalRecovery rec = recoverJournal(path);
    ASSERT_EQ(rec.records.size(), 1u);
    EXPECT_EQ(rec.records[0], "first");
    EXPECT_GT(rec.droppedBytes, 0u);
    std::filesystem::remove(path);
}

// ------------------------------------------------------------- ResultCache

TEST(ResultCache, InMemoryLookupAndOverwrite)
{
    ResultCache cache;
    EXPECT_FALSE(cache.persistent());
    CachedResult out;
    EXPECT_FALSE(cache.lookup(7, Algorithm::SpMV, &out));

    cache.put(7, Algorithm::SpMV, {"key-a", 1.0});
    ASSERT_TRUE(cache.lookup(7, Algorithm::SpMV, &out));
    EXPECT_EQ(out.scheduleKey, "key-a");

    // Same fingerprint, different algorithm: distinct entry.
    EXPECT_FALSE(cache.lookup(7, Algorithm::SpMM, &out));

    cache.put(7, Algorithm::SpMV, {"key-b", 2.0});
    ASSERT_TRUE(cache.lookup(7, Algorithm::SpMV, &out));
    EXPECT_EQ(out.scheduleKey, "key-b");
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, PersistsAcrossReopenWithLastWriterWins)
{
    std::string path = tmpPath("waco_result_cache.bin");
    std::filesystem::remove(path);
    {
        ResultCache cache(path);
        EXPECT_TRUE(cache.persistent());
        cache.put(1, Algorithm::SpMV, {"one", 0.25});
        cache.put(2, Algorithm::SpMV, {"two", 0.5});
        cache.put(1, Algorithm::SpMV, {"one-v2", 0.125}); // re-tuned
    }
    ResultCache cache(path);
    EXPECT_EQ(cache.recoveredRecords(), 3u); // journal keeps every append
    EXPECT_EQ(cache.size(), 2u);             // replay is last-writer-wins
    CachedResult out;
    ASSERT_TRUE(cache.lookup(1, Algorithm::SpMV, &out));
    EXPECT_EQ(out.scheduleKey, "one-v2");
    EXPECT_DOUBLE_EQ(out.seconds, 0.125);
    ASSERT_TRUE(cache.lookup(2, Algorithm::SpMV, &out));
    EXPECT_EQ(out.scheduleKey, "two");
    std::filesystem::remove(path);
}

TEST(ResultCache, SkipsVersion1Records)
{
    // Version-1 records were keyed by a statistics fingerprint that no
    // pattern key can match; replay must skip them, not load them.
    std::string path = tmpPath("waco_result_cache_v1.bin");
    std::filesystem::remove(path);
    {
        std::string v1;
        auto put = [&v1](const auto& v) {
            v1.append(reinterpret_cast<const char*>(&v), sizeof v);
        };
        const std::string key = "old-schedule";
        put(u32{1});
        put(u64{0x1234});
        put(static_cast<u32>(Algorithm::SpMV));
        put(0.25);
        put(static_cast<u32>(key.size()));
        v1 += key;
        JournalWriter w;
        w.open(path);
        w.append(v1);
    }
    metrics::setEnabled(true);
    u64 skipped_before = metrics::MetricsRegistry::instance()
                             .counters()["service.cache.skipped_records"];
    {
        ResultCache cache(path);
        EXPECT_EQ(cache.recoveredRecords(), 0u);
        EXPECT_EQ(cache.size(), 0u);
        EXPECT_EQ(cache.droppedBytes(), 0u); // well-formed, just stale
        CachedResult out;
        EXPECT_FALSE(cache.lookup(0x1234, Algorithm::SpMV, &out));
        cache.put(0x5678, Algorithm::SpMV, {"new-schedule", 0.5});
    }
    EXPECT_EQ(metrics::MetricsRegistry::instance()
                  .counters()["service.cache.skipped_records"],
              skipped_before + 1);
    metrics::setEnabled(false);

    // A current record appended after the stale one replays normally.
    ResultCache cache(path);
    EXPECT_EQ(cache.recoveredRecords(), 1u);
    CachedResult out;
    ASSERT_TRUE(cache.lookup(0x5678, Algorithm::SpMV, &out));
    EXPECT_EQ(out.scheduleKey, "new-schedule");
    std::filesystem::remove(path);
}

// ---------------------------------------------------------- CircuitBreaker

TEST(CircuitBreaker, OpensProbesAndCloses)
{
    CircuitBreaker b({/*failureThreshold=*/2, /*probeAfter=*/3});
    EXPECT_EQ(b.state(), BreakerState::Closed);
    EXPECT_TRUE(b.allowMeasure());

    b.recordFailure();
    EXPECT_EQ(b.state(), BreakerState::Closed); // 1 < threshold
    b.recordSuccess();
    b.recordFailure();
    EXPECT_EQ(b.state(), BreakerState::Closed); // success reset the streak
    b.recordFailure();
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.timesOpened(), 1u);

    // Two degraded requests, then the third is the half-open probe.
    EXPECT_FALSE(b.allowMeasure());
    EXPECT_FALSE(b.allowMeasure());
    EXPECT_TRUE(b.allowMeasure());
    EXPECT_EQ(b.state(), BreakerState::HalfOpen);
    EXPECT_FALSE(b.allowMeasure()); // probe in flight: still degrade

    b.recordSuccess();
    EXPECT_EQ(b.state(), BreakerState::Closed);
    EXPECT_EQ(b.timesClosed(), 1u);

    // A failed probe re-opens immediately and restarts the cooldown.
    b.recordFailure();
    b.recordFailure();
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_FALSE(b.allowMeasure());
    EXPECT_FALSE(b.allowMeasure());
    EXPECT_TRUE(b.allowMeasure());
    b.recordFailure();
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.timesOpened(), 3u);
    EXPECT_EQ(b.timesHalfOpened(), 2u);
}

// ----------------------------------------------------- TunerService ladder

TEST_F(ServiceTest, DifferentialMatchesDirectTune)
{
    WacoTuner& tuner = sharedTuner();
    SparseMatrix m = testMatrix(101);
    TuneOutcome direct = tuner.tune(m);

    TunerService service(tuner);
    auto ticket = service.submit(m);
    EXPECT_EQ(ticket->admission(), ServiceStatus::Accepted);
    const TuneResponse& r = ticket->wait();

    // With no faults, no deadline, and a closed breaker the service is a
    // pass-through: bitwise the same winner as calling the tuner directly.
    EXPECT_EQ(r.status, ServiceStatus::Ok);
    EXPECT_EQ(r.rung, DegradationRung::FullSearch);
    EXPECT_TRUE(r.measured);
    EXPECT_EQ(r.scheduleKey, direct.best.key());
    EXPECT_DOUBLE_EQ(r.expectedSeconds, direct.bestMeasured.seconds);
    EXPECT_GT(r.latencySeconds, 0.0);
    expectValidResponse(r, m);
}

TEST_F(ServiceTest, ShedsWhenQueueFull)
{
    WacoTuner& tuner = sharedTuner();
    ServiceConfig cfg;
    cfg.maxQueue = 0; // every cache-missing request sheds, deterministically
    TunerService service(tuner, cfg);
    auto ticket = service.submit(testMatrix(102));
    EXPECT_EQ(ticket->admission(), ServiceStatus::Shed);
    EXPECT_TRUE(ticket->done());
    EXPECT_EQ(ticket->wait().status, ServiceStatus::Shed);
    EXPECT_EQ(ticket->wait().detail, "queue full");
    EXPECT_EQ(service.stats().shed, 1u);
    EXPECT_EQ(service.stats().completed, 0u); // shed != served
}

TEST_F(ServiceTest, ShedsOverTenantInflightCap)
{
    WacoTuner& tuner = sharedTuner();
    ServiceConfig cfg;
    cfg.maxQueue = 16;
    cfg.maxInflightPerTenant = 1;
    TunerService service(tuner, cfg);
    service.pause(); // keep everything queued so counts are deterministic

    auto a = service.submit(testMatrix(103), "tenant-a");
    auto b = service.submit(testMatrix(104), "tenant-a"); // over the cap
    auto c = service.submit(testMatrix(105), "tenant-b"); // other tenant ok
    EXPECT_EQ(a->admission(), ServiceStatus::Accepted);
    EXPECT_EQ(b->admission(), ServiceStatus::Shed);
    EXPECT_EQ(b->wait().detail, "tenant in-flight cap");
    EXPECT_EQ(c->admission(), ServiceStatus::Accepted);
    EXPECT_EQ(service.queueDepth(), 2u);

    service.resume();
    EXPECT_EQ(a->wait().status, ServiceStatus::Ok);
    EXPECT_EQ(c->wait().status, ServiceStatus::Ok);

    // The slot freed: the same tenant is admitted again.
    auto d = service.submit(testMatrix(106), "tenant-a");
    EXPECT_EQ(d->admission(), ServiceStatus::Accepted);
    EXPECT_NE(d->wait().status, ServiceStatus::Shed);
}

TEST_F(ServiceTest, ExpiredDeadlineReturnsTypedDefault)
{
    WacoTuner& tuner = sharedTuner();
    TunerService service(tuner);
    SparseMatrix m = testMatrix(107);
    auto ticket = service.submit(m, "default", /*deadline_seconds=*/0.0);
    const TuneResponse& r = ticket->wait();
    EXPECT_EQ(r.status, ServiceStatus::DeadlineExceeded);
    EXPECT_EQ(r.rung, DegradationRung::DefaultSchedule);
    EXPECT_FALSE(r.measured);
    expectValidResponse(r, m); // the floor answer is still a real schedule
}

TEST_F(ServiceTest, CancelledTicketReturnsTypedDefault)
{
    WacoTuner& tuner = sharedTuner();
    TunerService service(tuner);
    service.pause();
    SparseMatrix m = testMatrix(108);
    auto ticket = service.submit(m);
    ticket->cancel();
    service.resume();
    const TuneResponse& r = ticket->wait();
    EXPECT_EQ(r.status, ServiceStatus::Cancelled);
    EXPECT_EQ(r.rung, DegradationRung::DefaultSchedule);
    expectValidResponse(r, m);
}

TEST(TunerService, ZeroExtentInputFailsAtAdmission)
{
    // No schedule is legal for a matrix with a zero extent, not even the
    // default floor, so the service answers it at admission: the ticket is
    // done when submit() returns, and the response carries no schedule.
    WacoTuner& tuner = sharedTuner();
    TunerService service(tuner);
    const std::pair<SparseMatrix, const char*> cases[] = {
        {SparseMatrix(0, 16, {}), "index 'i'"},
        {SparseMatrix(16, 0, {}), "index 'k'"},
    };
    for (const auto& [m, index] : cases) {
        auto ticket = service.submit(m);
        EXPECT_EQ(ticket->admission(), ServiceStatus::Failed);
        EXPECT_TRUE(ticket->done());
        const TuneResponse& r = ticket->wait();
        EXPECT_EQ(r.status, ServiceStatus::Failed);
        EXPECT_EQ(r.rung, DegradationRung::DefaultSchedule);
        EXPECT_TRUE(r.scheduleKey.empty());
        EXPECT_FALSE(r.measured);
        EXPECT_NE(r.detail.find(index), std::string::npos) << r.detail;
        EXPECT_NE(r.detail.find("extent 0"), std::string::npos) << r.detail;
    }
    EXPECT_EQ(service.queueDepth(), 0u);
    ServiceStats st = service.stats();
    EXPECT_EQ(st.submitted, 2u);
    EXPECT_EQ(st.failed, 2u);
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.rungCounts[static_cast<u32>(
                  DegradationRung::DefaultSchedule)],
              2u);
}

TEST_F(ServiceTest, ShutdownDrainsQueueAsCancelled)
{
    WacoTuner& tuner = sharedTuner();
    auto service = std::make_unique<TunerService>(tuner);
    service->pause();
    auto a = service->submit(testMatrix(109));
    auto b = service->submit(testMatrix(110));
    service->shutdown(); // queued work answered, never silently dropped
    EXPECT_EQ(a->wait().status, ServiceStatus::Cancelled);
    EXPECT_EQ(b->wait().detail, "service shutdown");
    auto late = service->submit(testMatrix(111));
    EXPECT_EQ(late->admission(), ServiceStatus::Shed);
    EXPECT_EQ(late->wait().detail, "service shutting down");
}

/**
 * Deterministic mid-tune cancellation: fire the stop predicate at exactly
 * the k-th checkpoint for every k until a run completes unstopped. Every
 * stop point must yield either a typed CancelledError (no candidate
 * existed yet) or a degraded-but-valid outcome — never garbage.
 */
TEST_F(ServiceTest, CancellationAtEveryCheckpointDegradesCleanly)
{
    WacoTuner& tuner = sharedTuner();
    SparseMatrix m = testMatrix(112);
    TuneOutcome clean = tuner.tune(m);
    auto shape =
        ProblemShape::forMatrix(Algorithm::SpMV, m.rows(), m.cols());

    u32 degraded_outcomes = 0;
    u32 cancelled_throws = 0;
    for (u64 k = 0;; ++k) {
        u64 checkpoint = 0;
        bool fired = false;
        TuneControl ctl;
        ctl.stopHook = [&] {
            if (checkpoint++ >= k) {
                fired = true;
                return true;
            }
            return false;
        };
        try {
            TuneOutcome out = tuner.tune(m, ctl);
            if (!fired) {
                // The hook never fired: this run IS the uncontrolled
                // protocol and must reproduce it bitwise.
                EXPECT_EQ(out.best.key(), clean.best.key());
                EXPECT_DOUBLE_EQ(out.bestMeasured.seconds,
                                 clean.bestMeasured.seconds);
                break;
            }
            EXPECT_TRUE(out.truncated || out.modelOnly || out.fellBack)
                << "stopped at checkpoint " << k
                << " but outcome claims the full protocol ran";
            EXPECT_FALSE(
                analysis::verifySchedule(out.best, shape).hasErrors())
                << "checkpoint " << k;
            ++degraded_outcomes;
        } catch (const CancelledError&) {
            ++cancelled_throws; // pre-candidate stop: typed, not garbage
        }
        ASSERT_LT(k, 10000u) << "stop hook never stopped firing";
    }
    EXPECT_GT(cancelled_throws, 0u);  // early checkpoints exist
    EXPECT_GT(degraded_outcomes, 2u); // and so do mid-search/measure ones
}

TEST_F(ServiceTest, BreakerOpensDegradesToModelOnlyAndHeals)
{
    WacoTuner& tuner = sharedTuner();
    FaultConfig fc;
    fc.failProb = 1.0; // the backend is dead: every measurement fails
    fc.seed = 313;
    FaultyOracle dead(tuner.oracle(), fc);
    tuner.setMeasurementBackend(dead);

    ServiceConfig cfg;
    cfg.breaker.failureThreshold = 2;
    cfg.breaker.probeAfter = 2;
    TunerService service(tuner, cfg);
    auto ask = [&](u64 seed) -> TuneResponse {
        return service.submit(testMatrix(seed))->wait();
    };

    // Two all-measurements-failed tunes trip the breaker. Each one still
    // answers with the default-schedule rung, not an error.
    for (u64 s : {200u, 201u}) {
        TuneResponse r = ask(s);
        EXPECT_EQ(r.status, ServiceStatus::Degraded);
        EXPECT_EQ(r.rung, DegradationRung::DefaultSchedule);
    }
    EXPECT_EQ(service.breaker().state(), BreakerState::Open);

    // While open: model-only ranking, zero backend traffic.
    u64 count_before = dead.measurementCount();
    TuneResponse r = ask(202);
    EXPECT_EQ(r.status, ServiceStatus::Degraded);
    EXPECT_EQ(r.rung, DegradationRung::ModelOnly);
    EXPECT_FALSE(r.measured);
    EXPECT_EQ(dead.measurementCount(), count_before);

    // The next request is the half-open probe; the backend is still dead,
    // so it fails and the breaker re-opens.
    r = ask(203);
    EXPECT_EQ(r.rung, DegradationRung::DefaultSchedule);
    EXPECT_EQ(service.breaker().state(), BreakerState::Open);

    // Heal the backend; one degraded request, then a healthy probe closes.
    tuner.setMeasurementBackend(tuner.oracle());
    r = ask(204);
    EXPECT_EQ(r.rung, DegradationRung::ModelOnly);
    r = ask(205);
    EXPECT_EQ(r.status, ServiceStatus::Ok);
    EXPECT_EQ(r.rung, DegradationRung::FullSearch);
    EXPECT_EQ(service.breaker().state(), BreakerState::Closed);

    // Fully recovered: requests measure again.
    r = ask(206);
    EXPECT_EQ(r.status, ServiceStatus::Ok);
    EXPECT_TRUE(r.measured);
    EXPECT_GE(service.breaker().timesOpened(), 2u);
    EXPECT_EQ(service.breaker().timesClosed(), 1u);
}

TEST_F(ServiceTest, CacheHitSkipsSearchAndMeasurement)
{
    WacoTuner& tuner = sharedTuner();
    TunerService service(tuner);
    SparseMatrix m = testMatrix(120);

    auto first = service.submit(m)->wait();
    ASSERT_EQ(first.status, ServiceStatus::Ok);
    ASSERT_EQ(first.rung, DegradationRung::FullSearch);

    u64 count_before = tuner.backend().measurementCount();
    metrics::setEnabled(true); // metric counters gate on the runtime switch
    u64 hits_before =
        metrics::MetricsRegistry::instance().counters()["service.cache.hits"];
    auto ticket = service.submit(m);
    EXPECT_EQ(ticket->admission(), ServiceStatus::Ok); // done inside submit
    auto second = ticket->wait();
    EXPECT_EQ(second.status, ServiceStatus::Ok);
    EXPECT_EQ(second.rung, DegradationRung::CacheHit);
    EXPECT_EQ(second.scheduleKey, first.scheduleKey);
    EXPECT_DOUBLE_EQ(second.expectedSeconds, first.expectedSeconds);
    EXPECT_EQ(tuner.backend().measurementCount(), count_before);
    EXPECT_GE(metrics::MetricsRegistry::instance()
                  .counters()["service.cache.hits"],
              hits_before + 1);
    metrics::setEnabled(false);
    EXPECT_EQ(service.stats().cacheHits, 1u);

    // A different pattern does not hit.
    auto third = service.submit(testMatrix(121))->wait();
    EXPECT_EQ(third.rung, DegradationRung::FullSearch);
}

TEST_F(ServiceTest, TransposedPatternMissesTheCache)
{
    // A block-diagonal permutation pattern and its transpose share every
    // summary statistic, but they are different patterns: the transpose
    // must be searched, not served the first matrix's cached winner.
    WacoTuner& tuner = sharedTuner();
    TunerService service(tuner);
    std::vector<Triplet> t;
    for (u32 b = 0; b < 256; b += 4)
        for (auto [r, c] : {std::pair<u32, u32>{0, 0}, {1, 2}, {2, 3},
                            {3, 1}})
            t.push_back({b + r, b + c, 1.f});
    SparseMatrix a(256, 256, std::move(t));
    SparseMatrix at = a.transposed();

    auto first = service.submit(a)->wait();
    ASSERT_EQ(first.status, ServiceStatus::Ok);
    ASSERT_EQ(first.rung, DegradationRung::FullSearch);

    auto second = service.submit(at)->wait();
    EXPECT_EQ(second.status, ServiceStatus::Ok);
    EXPECT_EQ(second.rung, DegradationRung::FullSearch);
    expectValidResponse(second, at);

    // The first answer is cached: repeating A itself hits.
    EXPECT_EQ(service.submit(a)->wait().rung, DegradationRung::CacheHit);
}

TEST_F(ServiceTest, KillAndRestartRecoversCacheFromTornJournal)
{
    WacoTuner& tuner = sharedTuner();
    std::string path = tmpPath("waco_service_journal.bin");
    std::filesystem::remove(path);
    SparseMatrix m = testMatrix(130);
    std::string first_key;
    {
        ServiceConfig cfg;
        cfg.cacheJournalPath = path;
        TunerService service(tuner, cfg);
        auto r = service.submit(m)->wait();
        ASSERT_EQ(r.status, ServiceStatus::Ok);
        first_key = r.scheduleKey;
    } // "crash": the service dies with the journal on disk

    // Simulate a torn final append: garbage bytes after the good records.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write("torn-write-garbage", 18);
    }

    ServiceConfig cfg;
    cfg.cacheJournalPath = path;
    TunerService service(tuner, cfg);
    EXPECT_GE(service.cache().recoveredRecords(), 1u);
    EXPECT_GT(service.cache().droppedBytes(), 0u);

    u64 count_before = tuner.backend().measurementCount();
    auto r = service.submit(m)->wait();
    EXPECT_EQ(r.status, ServiceStatus::Ok);
    EXPECT_EQ(r.rung, DegradationRung::CacheHit);
    EXPECT_EQ(r.scheduleKey, first_key);
    EXPECT_EQ(tuner.backend().measurementCount(), count_before)
        << "a recovered cache hit must not re-measure";
    EXPECT_GE(service.stats().cacheHits, 1u);
    std::filesystem::remove(path);
}

// ------------------------------------------------------------ soak (tsan)

/**
 * Seeded fault-injection soak, also registered under the `tsan` ctest
 * label: 4 client threads x 60 requests against a flaky backend with
 * random deadlines and random client cancellations. The service must
 * answer every request with a typed status and a verifier-clean schedule —
 * zero Failed, zero garbage.
 */
TEST(ServiceTsan, ConcurrentSoakUnderFaultsAndCancellations)
{
    setLogLevel(LogLevel::Off);
    WacoTuner& tuner = sharedTuner();
    FaultConfig fc;
    fc.failProb = 0.15;
    fc.noiseSigma = 0.1;
    fc.seed = 777;
    FaultyOracle flaky(tuner.oracle(), fc);
    tuner.setMeasurementBackend(flaky);

    ServiceConfig cfg;
    cfg.maxQueue = 2; // small on purpose: shedding is part of the soak
    cfg.maxInflightPerTenant = 8;
    cfg.breaker.failureThreshold = 3;
    cfg.breaker.probeAfter = 2;
    auto service = std::make_unique<TunerService>(tuner, cfg);

    constexpr u32 kThreads = 4;
    constexpr u32 kPerThread = 60;
    std::vector<SparseMatrix> pool;
    for (u64 s = 0; s < 6; ++s)
        pool.push_back(testMatrix(500 + s));
    const double deadlines[] = {
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::infinity(), 0.05, 0.002, 0.0};

    struct Answer
    {
        TuneResponse response;
        u32 matrix;
    };
    std::vector<std::vector<Answer>> answers(kThreads);
    std::vector<std::thread> clients;
    for (u32 c = 0; c < kThreads; ++c) {
        clients.emplace_back([&, c] {
            Rng rng(9000 + c);
            std::string tenant = "tenant-" + std::to_string(c % 2);
            for (u32 i = 0; i < kPerThread; ++i) {
                u32 mi = static_cast<u32>(rng.uniformInt(0, 5));
                double dl = deadlines[rng.uniformInt(0, 4)];
                TicketPtr t = service->submit(pool[mi], tenant, dl);
                if (rng.bernoulli(0.15))
                    t->cancel();
                answers[c].push_back({t->wait(), mi});
            }
        });
    }
    for (auto& c : clients)
        c.join();

    u64 total = 0, failed = 0, shed = 0;
    for (u32 c = 0; c < kThreads; ++c) {
        for (const Answer& a : answers[c]) {
            ++total;
            const TuneResponse& r = a.response;
            if (r.status == ServiceStatus::Failed)
                ++failed;
            if (r.status == ServiceStatus::Shed) {
                ++shed;
                continue;
            }
            // Typed, and never garbage: every served response carries a
            // parseable, verifier-clean schedule.
            EXPECT_TRUE(r.status == ServiceStatus::Ok ||
                        r.status == ServiceStatus::Degraded ||
                        r.status == ServiceStatus::Cancelled ||
                        r.status == ServiceStatus::DeadlineExceeded)
                << serviceStatusName(r.status);
            expectValidResponse(r, pool[a.matrix]);
        }
    }
    EXPECT_EQ(total, u64{kThreads} * kPerThread);
    EXPECT_GE(total, 200u);
    EXPECT_EQ(failed, 0u);

    ServiceStats stats = service->stats();
    EXPECT_EQ(stats.submitted, total);
    EXPECT_EQ(stats.completed + stats.shed, stats.submitted);
    EXPECT_EQ(stats.shed, shed);
    u64 rung_total = 0;
    for (u32 r = 0; r < 4; ++r)
        rung_total += stats.rungCounts[r];
    EXPECT_EQ(rung_total, stats.completed);
    EXPECT_EQ(stats.failed, 0u);

    service.reset(); // join the worker before restoring the backend
    tuner.setMeasurementBackend(tuner.oracle());
    setLogLevel(LogLevel::Info);
}

} // namespace
} // namespace waco::service
