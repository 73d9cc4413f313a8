#include "service/result_cache.hpp"

#include <cstring>
#include <sstream>

#include "util/metrics.hpp"

namespace waco::service {

namespace {

/** Version 2: records are keyed by patternKey. Version-1 records carried a
 *  statistics fingerprint and are skipped on replay. */
constexpr u32 kRecordVersion = 2;

template <typename T>
void
putPod(std::string& out, const T& v)
{
    const char* p = reinterpret_cast<const char*>(&v);
    out.append(p, sizeof(T));
}

template <typename T>
bool
getPod(const std::string& in, std::size_t* pos, T* v)
{
    if (*pos + sizeof(T) > in.size())
        return false;
    std::memcpy(v, in.data() + *pos, sizeof(T));
    *pos += sizeof(T);
    return true;
}

} // namespace

std::string
ResultCache::packRecord(u64 pattern_key, Algorithm alg, const CachedResult& r)
{
    std::string out;
    putPod<u32>(out, kRecordVersion);
    putPod<u64>(out, pattern_key);
    putPod<u32>(out, static_cast<u32>(alg));
    putPod<double>(out, r.seconds);
    putPod<u32>(out, static_cast<u32>(r.scheduleKey.size()));
    out.append(r.scheduleKey);
    return out;
}

bool
ResultCache::unpackRecord(const std::string& payload, u64* pattern_key,
                          Algorithm* alg, CachedResult* r)
{
    std::size_t pos = 0;
    u32 version = 0, alg_raw = 0, key_len = 0;
    if (!getPod(payload, &pos, &version) || version != kRecordVersion)
        return false;
    if (!getPod(payload, &pos, pattern_key) ||
        !getPod(payload, &pos, &alg_raw) ||
        !getPod(payload, &pos, &r->seconds) ||
        !getPod(payload, &pos, &key_len))
        return false;
    if (pos + key_len != payload.size())
        return false;
    *alg = static_cast<Algorithm>(alg_raw);
    r->scheduleKey.assign(payload, pos, key_len);
    return true;
}

ResultCache::ResultCache(const std::string& journal_path)
{
    if (journal_path.empty())
        return;
    JournalRecovery rec = writer_.open(journal_path);
    dropped_ = rec.droppedBytes;
    for (const std::string& payload : rec.records) {
        u64 fp = 0;
        Algorithm alg{};
        CachedResult r;
        if (!unpackRecord(payload, &fp, &alg, &r)) {
            // Checksummed but unparseable: a record from a different
            // version. Skip it rather than poison the cache.
            WACO_COUNT("service.cache.skipped_records", 1);
            continue;
        }
        map_[keyOf(fp, alg)] = std::move(r); // last writer wins on replay
        ++recovered_;
    }
    WACO_COUNT("service.cache.recovered", recovered_);
}

u64
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

bool
ResultCache::lookup(u64 pattern_key, Algorithm alg, CachedResult* out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(keyOf(pattern_key, alg));
    if (it == map_.end())
        return false;
    *out = it->second;
    return true;
}

void
ResultCache::put(u64 pattern_key, Algorithm alg, const CachedResult& result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_[keyOf(pattern_key, alg)] = result;
    if (writer_.isOpen())
        writer_.append(packRecord(pattern_key, alg, result));
}

} // namespace waco::service
