#include "service/journal.hpp"

#include <cstring>
#include <filesystem>
#include <iterator>

#include "util/hash.hpp"

namespace waco::service {

namespace {

constexpr u32 kRecordMagic = 0x574a5231; // "WJR1"
constexpr std::size_t kHeaderBytes = sizeof(u32) + sizeof(u32);
constexpr std::size_t kTrailerBytes = sizeof(u64);
/** Sanity cap on one record; a cache entry is a few hundred bytes. */
constexpr u32 kMaxPayloadBytes = 1u << 24;

template <typename T>
T
loadPod(const char* p)
{
    T v{};
    std::memcpy(&v, p, sizeof(T));
    return v;
}

} // namespace

JournalRecovery
recoverJournal(const std::string& path, bool truncate_torn_tail)
{
    JournalRecovery rec;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return rec; // no journal yet: empty recovery
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    std::size_t pos = 0;
    while (pos + kHeaderBytes <= all.size()) {
        u32 magic = loadPod<u32>(all.data() + pos);
        if (magic != kRecordMagic)
            break; // garbage where a header should be: torn tail
        u32 len = loadPod<u32>(all.data() + pos + sizeof(u32));
        if (len > kMaxPayloadBytes)
            break;
        std::size_t end = pos + kHeaderBytes + len + kTrailerBytes;
        if (end > all.size())
            break; // record body or checksum did not finish writing
        const char* payload = all.data() + pos + kHeaderBytes;
        u64 want = loadPod<u64>(all.data() + pos + kHeaderBytes + len);
        if (fnv1a64(payload, len) != want)
            break; // payload bytes landed but are corrupt
        rec.records.emplace_back(payload, len);
        pos = end;
    }
    rec.validBytes = pos;
    rec.droppedBytes = all.size() - pos;
    if (truncate_torn_tail && rec.droppedBytes > 0) {
        in.close();
        std::error_code ec;
        std::filesystem::resize_file(path, rec.validBytes, ec);
        fatalIf(static_cast<bool>(ec),
                "cannot truncate torn journal tail: " + path);
    }
    return rec;
}

JournalRecovery
JournalWriter::open(const std::string& path)
{
    close();
    JournalRecovery rec = recoverJournal(path, /*truncate_torn_tail=*/true);
    out_.open(path, std::ios::binary | std::ios::app);
    fatalIf(!out_, "cannot open journal for append: " + path);
    path_ = path;
    appended_ = 0;
    return rec;
}

void
JournalWriter::append(const std::string& payload)
{
    fatalIf(!out_.is_open(), "JournalWriter::append before open()");
    fatalIf(payload.size() > kMaxPayloadBytes, "journal record too large");
    u32 magic = kRecordMagic;
    u32 len = static_cast<u32>(payload.size());
    u64 sum = fnv1a64(payload.data(), payload.size());
    out_.write(reinterpret_cast<const char*>(&magic), sizeof magic);
    out_.write(reinterpret_cast<const char*>(&len), sizeof len);
    out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out_.write(reinterpret_cast<const char*>(&sum), sizeof sum);
    // Flush to the OS per record: a crashed *process* loses at most the
    // torn tail of the final append, which recovery drops by design.
    out_.flush();
    fatalIf(!out_, "journal append failed: " + path_);
    ++appended_;
}

void
JournalWriter::close()
{
    if (out_.is_open())
        out_.close();
    path_.clear();
}

} // namespace waco::service
