/**
 * @file
 * Cross-request tuning result cache with optional crash-safe persistence.
 *
 * Keyed by (patternKey, algorithm), where patternKey (tensor/coo.hpp) is an
 * exact hash of the dimensions and every stored (row, col) pair: a repeated
 * matrix — exactly the same sparsity pattern, whatever its values — skips
 * extraction, search, and every oracle measurement, and is served the
 * previously co-optimized schedule immediately. Entries store the winning
 * schedule's key() string (compact, parseable, verifier-checkable) plus its
 * measured runtime.
 *
 * Persistence is an append-only checksummed journal (service/journal.hpp):
 * every put() appends one record, recovery replays all complete records
 * and drops a torn tail, so a restarted server keeps its learned answers
 * without any save/flush protocol beyond the per-record flush. Duplicate
 * keys in the journal are legal — a re-tuned pattern appends a fresh
 * record and last-writer-wins on replay, keeping appends O(1). Records of
 * another record version (version 1 was keyed by a statistics fingerprint
 * that can never match a patternKey) are skipped on replay and counted by
 * the service.cache.skipped_records metric.
 */
#pragma once

#include <mutex>
#include <string>
#include <unordered_map>

#include "ir/algorithm.hpp"
#include "service/journal.hpp"
#include "util/common.hpp"

namespace waco::service {

/** One cached co-optimization result. */
struct CachedResult
{
    std::string scheduleKey; ///< SuperSchedule::key() of the winner.
    double seconds = 0.0;    ///< Its measured runtime when cached.
};

/** Thread-safe (patternKey, algorithm) -> best-schedule cache. */
class ResultCache
{
  public:
    /** @param journal_path persistence journal; empty = in-memory only.
     *  Opening recovers every complete record and truncates a torn tail. */
    explicit ResultCache(const std::string& journal_path = "");

    /** True when a persistence journal is attached. */
    bool persistent() const { return writer_.isOpen(); }

    /** Entries currently cached. */
    u64 size() const;

    /** Records replayed from the journal at construction. */
    u64 recoveredRecords() const { return recovered_; }
    /** Torn tail bytes dropped at construction. */
    u64 droppedBytes() const { return dropped_; }

    /** Look up a pattern key; true and fills @p out on a hit. */
    bool lookup(u64 pattern_key, Algorithm alg, CachedResult* out) const;

    /** Insert/overwrite and (when persistent) append to the journal. */
    void put(u64 pattern_key, Algorithm alg, const CachedResult& result);

  private:
    static std::string packRecord(u64 pattern_key, Algorithm alg,
                                  const CachedResult& r);
    /** Parse one journal payload; false on a malformed (yet checksummed —
     *  i.e. foreign or version-skewed) record, which is skipped. */
    static bool unpackRecord(const std::string& payload, u64* pattern_key,
                             Algorithm* alg, CachedResult* r);

    static u64
    keyOf(u64 pattern_key, Algorithm alg)
    {
        // Splittable mix of the pattern key and the algorithm id.
        return pattern_key ^ (0x9e3779b97f4a7c15ull *
                              (static_cast<u64>(alg) + 1));
    }

    mutable std::mutex mutex_;
    std::unordered_map<u64, CachedResult> map_;
    JournalWriter writer_;
    u64 recovered_ = 0;
    u64 dropped_ = 0;
};

} // namespace waco::service
