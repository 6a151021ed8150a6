// Plan-aware glue between the panda protocol layer and src/store/: the
// one on-disk layout every segment uses.
//
// A segment (one server's share of one array for one collective: the
// general file, a timestep, the checkpoint) is stored as shard files
// `ShardFileName(F, seg * shards_per_segment + local)` under the stream
// name F = DataFileName(...). `ServerOptions::shard_bytes = 0` is the
// unbounded case: one shard per segment, `F.shard.<seg>`, whose data
// region is exactly the classic flat per-server file. A shard carries a
// table of its sub-chunks only when the array is framed (codec != none)
// or checksummed (docs/PROTOCOL.md "On-disk layout"); the journal
// (`F.wal`, panda/journal.h) stays one file per stream with logical
// offsets.
//
// The shard map is never stored: every party (server write/read paths,
// rejoin repair, fsck) derives the identical ShardLayout from the i/o
// plan — the full per-server record list under the committed degraded
// layout, packed at `shard_bytes` granularity (recorded in group
// metadata as `__panda.shard_bytes` when positive).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "codec/frame.h"
#include "iosim/file_system.h"
#include "msg/virtual_clock.h"
#include "panda/failover.h"
#include "panda/journal.h"
#include "panda/plan.h"
#include "panda/schema_io.h"
#include "panda/server.h"
#include "store/shard_store.h"

namespace panda {

// The shard layout of a server's full work list (BuildServerWork kFull
// under the committed layout, whatever phase the caller is executing).
store::ShardLayout PackWork(const IoPlan& plan,
                            const std::vector<WorkItem>& full_work,
                            std::int64_t shard_bytes);

// Records a bounded shard size in group-metadata attributes
// (`__panda.shard_bytes`); the unbounded default needs no attribute.
void RecordShardBytes(const ServerOptions& options,
                      std::map<std::string, std::string>& attributes);

// The store configuration a server's options imply for one array.
store::StoreOptions StoreOptionsFor(const ServerOptions& options,
                                    const ArrayMeta& meta, bool timing);

// A reader for offline verification: single attempt, no clock, no
// robustness accounting, posix-style windowed reads, and CRCs checked
// wherever a table carries them.
store::ShardReader OfflineShardReader(FileSystem& fs,
                                      const std::string& data_file,
                                      const store::ShardLayout* layout,
                                      const ArrayMeta& meta);

// The files of stream F on one disk: its shard files (contiguous from
// id 0 by construction) and its journal.
struct StreamFiles {
  std::vector<std::string> shards;
  std::string journal;  // empty when F has no journal
};
StreamFiles ListStreamFiles(FileSystem& fs, const std::string& data_file);

// The files of stream F a write leaves stale: shard files from
// `keep_shards` on, and the journal unless `keep_journal`.
std::vector<std::string> StaleStreamFiles(FileSystem& fs,
                                          const std::string& data_file,
                                          std::int64_t keep_shards,
                                          bool keep_journal);

// Stages the publication of a staged stream (`from`: its first `shards`
// shard files, plus its journal when `journal`) over stream `to`, and
// the removal of every other file of `to`'s stream — entries for a
// commit-point loop where an empty `from` means "remove `to`".
void StageStreamPublication(
    FileSystem& fs, const std::string& from, const std::string& to,
    std::int64_t shards, bool journal,
    std::vector<std::pair<std::string, std::string>>& staged);

// Runs a commit-point loop built by StageStreamPublication.
void CommitStaged(
    FileSystem& fs, const RetryPolicy& retry, VirtualClock* clock,
    RobustnessStats* stats,
    const std::vector<std::pair<std::string, std::string>>& staged);

// The store stage of a segment write: every sub-chunk of an (array,
// server) stream reaches disk here — data and table through a
// ShardWriter, then the journal's commit record. Collective writes and
// the rejoin repair share it. The CRC32C of each sub-chunk is computed
// once and feeds both the table record and the journal.
class SegmentWriter {
 public:
  // `write_name` is the stream (or its ".tmp"/".repair" staging name);
  // `mode` applies to the shard files. The journal opens with
  // `journal_mode` (kReadWrite honors an existing header), or fresh
  // under `fresh_journal` when one is given.
  SegmentWriter(FileSystem& fs, VirtualClock* clock,
                const ServerOptions& options, const ArrayMeta& meta,
                bool timing, std::string write_name,
                const store::ShardLayout* layout, OpenMode mode,
                OpenMode journal_mode,
                std::optional<JournalHeader> fresh_journal = std::nullopt);

  // The disk representation of one sub-chunk: a frame under the array's
  // codec, or stored-raw (empty frame) when the array is not framed.
  SubchunkFrame Encode(std::span<const std::byte> raw) const;

  // Stores sub-chunk `item` of segment `seg` (`raw`: its decoded bytes,
  // empty in timing mode; `frame`: from Encode) and appends its journal
  // record; `chunk_done` syncs the journal at the end of a chunk.
  void Put(std::int64_t seg, const WorkItem& item, std::int32_t array_index,
           std::int32_t chunk_id, std::span<const std::byte> raw,
           const SubchunkFrame& frame, bool chunk_done);

  // Flushes tables and makes data and journal durable.
  void Finish();

 private:
  VirtualClock* clock_;
  const ServerOptions& options_;
  const ArrayMeta& meta_;
  const store::ShardLayout* layout_;
  store::StoreOptions store_;
  store::ShardWriter writer_;
  std::unique_ptr<File> journal_;
  std::optional<JournalHeader> journal_header_;
};

// Aggregate result of the offline segment walk (`panda_fsck`).
struct SegmentReport {
  std::int64_t files_checked = 0;    // shard files the layout expects
  std::int64_t files_missing = 0;
  std::int64_t size_mismatches = 0;  // file cannot hold data (+ table)
  std::int64_t tables_torn = 0;      // footer unreadable: plan-located
  std::int64_t entries_invalid = 0;  // table records torn or lying
  std::int64_t subchunks_checked = 0;
  std::int64_t subchunks_verified = 0;  // decoded bytes matched a CRC
  std::int64_t subchunks_encoded = 0;   // stored as codec frames
  std::int64_t healed_slots = 0;     // recovered via self-describing frames
  std::int64_t decode_failures = 0;  // unrecoverable slots
  std::int64_t checksum_mismatches = 0;   // decoded bytes vs. the record's CRC

  // Torn footers / invalid entries / healed slots are tolerated damage
  // (the data still proved out); missing or wrong bytes are not.
  bool Clean() const {
    return files_missing + size_mismatches + decode_failures +
               checksum_mismatches ==
           0;
  }
  void Merge(const SegmentReport& other);
};

// Walks one array's segments on every live server: every expected shard
// file exists with room for its data region (and table, when it has
// one), every table record agrees with the plan, and — with
// `read_data` — every sub-chunk decodes to its plan size and matches
// its record's CRC when the table carries one. `num_segments` is the
// timestep count for Purpose::kTimestep and 1 otherwise; `dead_servers`
// selects the degraded layout the data was committed under (dead
// servers' files are skipped as lost, survivors are checked including
// adopted chunks). Findings append to `log` when non-null.
SegmentReport VerifyArraySegments(std::span<FileSystem* const> fs,
                                  const ArrayMeta& meta,
                                  std::int64_t subchunk_bytes, Purpose purpose,
                                  std::int64_t num_segments,
                                  const std::string& group,
                                  std::int64_t shard_bytes, bool read_data,
                                  std::string* log = nullptr,
                                  const std::vector<int>& dead_servers = {});

// Group sweep driven by the schema metadata: timestep streams and the
// checkpoint (if present) of every array, with shard size and dead set
// taken from the group's attributes.
SegmentReport VerifyGroupSegments(std::span<FileSystem* const> fs,
                                  const GroupMeta& meta,
                                  std::int64_t subchunk_bytes, bool read_data,
                                  std::string* log = nullptr);

}  // namespace panda
