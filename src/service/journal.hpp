/**
 * @file
 * Crash-safe append-only journal: the persistence primitive under the
 * service's cross-request result cache.
 *
 * Layout is a sequence of self-delimiting records
 *
 *   u32 magic "WJR1" | u32 payloadBytes | payload | u64 fnv1a64(payload)
 *
 * with no global header or footer, so a writer can die at ANY byte offset
 * (power loss mid-append, SIGKILL between write and flush) and recovery
 * still keeps every record whose checksum closes: recoverJournal() scans
 * from the front, stops at the first record that is short, has a bad
 * magic, or fails its checksum, and truncates the file back to the last
 * complete record so subsequent appends extend a clean prefix instead of
 * garbage. This is the same checksummed-file idiom as the dataset
 * checkpoint (core/dataset_io), adapted from whole-file-atomic to
 * per-record-atomic because a long-lived server appends continuously.
 */
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace waco::service {

/** Outcome of scanning a journal file. */
struct JournalRecovery
{
    /** Payloads of every complete record, in append order. */
    std::vector<std::string> records;
    /** File size consumed by complete records. */
    u64 validBytes = 0;
    /** Torn/corrupt tail bytes dropped (0 = file was clean). */
    u64 droppedBytes = 0;
};

/**
 * Scan @p path and return every complete record. A missing file recovers
 * to zero records. When @p truncate_torn_tail is set (the writer's mode),
 * the file is truncated back to validBytes so future appends are clean.
 */
JournalRecovery recoverJournal(const std::string& path,
                               bool truncate_torn_tail = false);

/** Appending writer; open() recovers first, so the tail is always clean. */
class JournalWriter
{
  public:
    JournalWriter() = default;

    /** Recover @p path (truncating any torn tail), then open for append.
     *  Returns the recovery result so the owner can replay records. */
    JournalRecovery open(const std::string& path);

    bool isOpen() const { return out_.is_open(); }
    const std::string& path() const { return path_; }
    u64 appended() const { return appended_; }

    /** Append one record and flush it to the OS. FatalError on I/O error. */
    void append(const std::string& payload);

    void close();

  private:
    std::string path_;
    std::ofstream out_;
    u64 appended_ = 0;
};

} // namespace waco::service
