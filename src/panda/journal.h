// Write-ahead chunk journal: per-server commit records.
//
// With `ServerOptions::journal` on, each segment stream `F` gains a journal
// `F.wal` that records every sub-chunk the server has durably written.
// One fixed-size record per sub-chunk, in the deterministic work-list
// order all participants share (original chunks then adopted chunks,
// see panda/failover.h):
//
//   record k = [ i32 array_index | i32 chunk_id | i32 sub_index |
//                i32 reserved    | i64 seq      | i64 file_offset |
//                i64 bytes       | u32 data_crc | u32 record_crc ]
//   (48 bytes; record_crc = CRC32C of the first 44)
//
// where k is the sub-chunk's record ordinal within the segment and
// timestep segment `seq` starts at record `seq * records_per_segment`.
// The journal is appended after the sub-chunk's data write and fsynced
// when its chunk completes, so after a crash the journal names exactly
// the chunks whose data is durable (modulo one possibly-torn trailing
// record, which verification tolerates by design).
//
// The journal is what makes degraded-mode recovery *incremental* in
// principle and *verifiable* in practice: `panda_fsck --verify_journal`
// replays every record against the plan (framing) and the segment data
// (CRC), and flags chunks the journal never committed. Offsets are
// logical: `seq * segment_bytes + offset within the segment`, whatever
// shard files hold the bytes. Checkpoint journals ride the same
// tmp+rename publication as checkpoint data.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "iosim/file_system.h"
#include "panda/failover.h"
#include "panda/plan.h"
#include "panda/protocol.h"
#include "panda/schema_io.h"

namespace panda {

inline constexpr std::int64_t kJournalRecordBytes = 48;

// `F` -> `F.wal`.
std::string JournalFileName(const std::string& data_file);

// Optional journal header, one record-sized slot at offset 0:
//
//   [ u32 magic | u32 version | i64 base_record | i64 epoch |
//     20 bytes reserved (zero) | u32 header_crc(first 44) ]
//
// A headerless journal (every journal before GC ever ran on it) is
// base 0, epoch 0, records at offset `index * 48`. With a header,
// records below `base_record` were garbage-collected — a committed
// checkpoint supersedes them — and record `index` lives at offset
// `48 + (index - base_record) * 48`. The magic cannot collide with a
// record: a record's first field is a small non-negative array index.
// `epoch` is the layout epoch (`__panda.layout_epoch`) the journal was
// last compacted or rebuilt under; `panda_fsck --verify_journal` flags
// a journal *ahead* of the committed metadata's epoch (the torn window
// of a rejoin repair's rename + metadata commit).
inline constexpr std::uint32_t kJournalHeaderMagic = 0x4c414a50;  // "PJAL"
inline constexpr std::uint32_t kJournalHeaderVersion = 1;
inline constexpr std::int64_t kJournalHeaderBytes = kJournalRecordBytes;

struct JournalHeader {
  std::int64_t base_record = 0;  // records below this were GC'd
  std::int64_t epoch = 0;        // layout epoch at (re)build time
};

// Writes the header slot at offset 0 (the caller owns slot shifting:
// headers are written only into journals built header-aware).
void WriteJournalHeader(File& journal, const JournalHeader& hdr);

// Probes the first slot. nullopt = headerless (legacy layout) or the
// journal is shorter than one slot.
std::optional<JournalHeader> ReadJournalHeader(File& journal);

// Byte offset of record `record_index` under an optional header.
std::int64_t JournalRecordOffset(const std::optional<JournalHeader>& hdr,
                                 std::int64_t record_index);

// Result of one journal garbage collection.
struct JournalGcResult {
  bool truncated = false;           // anything actually dropped
  std::int64_t records_dropped = 0; // record slots removed
};

// Garbage-collects `journal_name`: drops every record below `new_base`
// (they are superseded by a committed checkpoint) by rewriting the
// surviving tail — torn trailing bytes preserved verbatim — behind a
// header, then renaming over the original. No-op when the journal is
// already at or past `new_base`. A pre-existing header's epoch is
// preserved; a first-time header records `fallback_epoch`.
JournalGcResult GcJournal(FileSystem& fs, const std::string& journal_name,
                          std::int64_t new_base, std::int64_t fallback_epoch);

struct JournalRecord {
  std::int32_t array_index = 0;
  std::int32_t chunk_id = 0;
  std::int32_t sub_index = 0;
  std::int64_t seq = 0;           // timestep segment (0 otherwise)
  std::int64_t file_offset = 0;   // absolute sub-chunk offset in F
  std::int64_t bytes = 0;
  std::uint32_t data_crc = 0;     // CRC32C of the sub-chunk payload
};

// Writes record `record_index` (its slot; 48*index bytes into F.wal —
// the headerless layout).
void WriteJournalRecord(File& journal, std::int64_t record_index,
                        const JournalRecord& rec);

// Header-aware variant: the slot position honors `hdr` (base shift +
// header slot). Dies if the record was GC'd away (index below the base).
void WriteJournalRecord(File& journal,
                        const std::optional<JournalHeader>& hdr,
                        std::int64_t record_index, const JournalRecord& rec);

// Reads and validates record `record_index`. Returns nullopt when the
// record's own CRC fails — a torn record, the expected signature of a
// crash mid-append.
std::optional<JournalRecord> ReadJournalRecord(File& journal,
                                               std::int64_t record_index);

// Header-aware variant; nullopt also when the record was GC'd away.
std::optional<JournalRecord> ReadJournalRecord(
    File& journal, const std::optional<JournalHeader>& hdr,
    std::int64_t record_index);

// Aggregate result of an offline journal verification pass.
struct JournalReport {
  std::int64_t files_checked = 0;
  std::int64_t files_without_journal = 0;  // skipped (journaling off)
  std::int64_t records_checked = 0;
  std::int64_t records_missing = 0;   // plan slot past the journal's end
  std::int64_t torn_records = 0;      // record_crc failed
  std::int64_t framing_mismatches = 0;  // record vs. plan disagreement
  std::int64_t data_mismatches = 0;   // journaled CRC vs. data re-read
  std::int64_t records_gced = 0;      // below the header's base (benign)
  std::int64_t epoch_mismatches = 0;  // journal epoch ahead of metadata

  bool Clean() const {
    return records_missing == 0 && torn_records == 0 &&
           framing_mismatches == 0 && data_mismatches == 0 &&
           epoch_mismatches == 0;
  }
  void Merge(const JournalReport& other);
};

// Verifies one array's per-server journals against the plan (under the
// degraded layout implied by `dead_servers`) and the data files.
// `array_index` is the array's position in its collective (journal
// records carry it). A journal whose final record is torn and which is
// exactly one record short is reported via torn_records only (crash
// tolerance); any other shortfall counts records_missing. Records below
// a GC header's base are counted records_gced and skipped (the
// checkpoint supersedes them). When `expected_epoch` is non-negative, a
// header whose epoch is *greater* counts epoch_mismatches: the journal
// claims a layout generation the committed metadata never recorded (a
// torn rejoin-repair commit). A smaller epoch is fine — failovers bump
// the metadata epoch without rewriting survivor journals. Data is
// re-read through the shard store at `shard_bytes` granularity (the
// group's `__panda.shard_bytes` attribute; 0 = one shard per segment).
JournalReport VerifyArrayJournal(std::span<FileSystem* const> fs,
                                 const ArrayMeta& meta, std::int32_t array_index,
                                 std::int64_t subchunk_bytes, Purpose purpose,
                                 std::int64_t num_segments,
                                 const std::string& group,
                                 const std::vector<int>& dead_servers,
                                 std::string* log = nullptr,
                                 std::int64_t expected_epoch = -1,
                                 std::int64_t shard_bytes = 0);

// Group-level sweep driven by the group's schema metadata (mirrors
// VerifyGroupSegments); the dead-server set is read from the group's
// `__panda.dead_servers` attribute.
JournalReport VerifyGroupJournal(std::span<FileSystem* const> fs,
                                 const GroupMeta& meta,
                                 std::int64_t subchunk_bytes,
                                 std::string* log = nullptr);

}  // namespace panda
