// ShardStore: write/read one server segment through shard files.
//
// ShardWriter and ShardReader are the per-collective engines behind
// every (array, server) segment — the only way a segment reaches disk.
// Both derive every placement from a ShardLayout (a pure function of
// the i/o plan), move bytes through a bounded FileHandlePool, and run
// every FileSystem touch under the server's RetryPolicy so transient
// disk faults heal.
//
// Backends change the flush shape, not the format:
//   kPosix        sub-chunks are written in place as they arrive
//                 (positioned WriteAt), the table tail is flushed once
//                 per touched shard at Finish.
//   kObjectStore  shards buffer in memory and flush as one whole-object
//                 PUT (data [+ table + footer]) — object stores have no
//                 partial overwrite. Reads GET whole shards and slice
//                 from a small in-memory cache.
//
// A shard carries a table only when its records say something the plan
// cannot (StoreOptions::tables): a table-free shard is its data region
// alone, written with one WriteAt per sub-chunk plus one Sync and read
// with one ReadAt per sub-chunk — exactly the flat per-server file.
//
// Timing-only machines are supported end to end: payloads stay elided
// (empty spans, virtual byte counts drive the clock) and no table is
// ever written or read.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "iosim/file_system.h"
#include "iosim/retry.h"
#include "msg/virtual_clock.h"
#include "store/handle_pool.h"
#include "store/shard_layout.h"
#include "store/shard_table.h"

namespace panda {
namespace store {

enum class StoreBackend : std::uint8_t {
  kPosix = 0,        // in-place positioned writes (disk file systems)
  kObjectStore = 1,  // whole-object PUT/GET, no partial overwrite
};

// The shard geometry (how many shards, which records each holds) comes
// from the ShardLayout; these settle how shards are written and read.
struct StoreOptions {
  StoreBackend backend = StoreBackend::kPosix;
  int handle_pool_capacity = 16;
  // How many whole-shard images the object-store read path caches.
  int object_cache_shards = 2;
  // Timing-only run: spans are empty, vbytes drive the clock.
  bool timing = false;
  // The array negotiated a codec: slots may hold frames, so the table
  // is what tells a reader how each slot is represented.
  bool framed = false;
  // Sub-chunk checksums: writers store each slot's CRC32C in its table
  // record; readers verify slots whose record carries one (one re-read
  // of record and slot before reporting a failure).
  bool checksums = false;

  // Whether writers give each shard a table (readers expect one for
  // framed segments, and for checksummed ones when it is there).
  bool tables() const { return !timing && (framed || checksums); }
};

class ShardWriter {
 public:
  // `data_file` is the stream name shard names derive from (possibly a
  // ".tmp"/".repair" staging name). `mode` applies per shard file:
  // kWrite truncates, kReadWrite keeps existing content — and merges
  // the existing shard table at first touch, so a failover adoption
  // pass extends a shard without forgetting the survivor records
  // already in it.
  ShardWriter(FileSystem* fs, std::string data_file, const ShardLayout* layout,
              StoreOptions options, OpenMode mode, RetryPolicy retry,
              VirtualClock* clock, RobustnessStats* stats);

  // Stores one sub-chunk. `record` is the segment-relative record
  // ordinal; `stored` is the on-disk representation (frame or raw;
  // empty in timing mode with `stored_vbytes` carrying the size);
  // `data_crc` the CRC32C of the decoded bytes, recorded when the
  // store keeps checksums.
  void Put(std::int64_t seg, std::int64_t record, std::int32_t array_index,
           std::int32_t chunk_id, std::int32_t sub_index, CodecId codec,
           std::span<const std::byte> stored, std::int64_t stored_vbytes,
           std::uint32_t data_crc = 0);

  // Flushes every touched shard (tables on posix, whole objects on the
  // object store) and makes them durable. Call exactly once.
  void Finish();

  const FileHandlePool& pool() const { return pool_; }

 private:
  struct ShardState {
    std::int64_t local = 0;
    std::string name;
    std::int64_t prior_bytes = 0;  // file size found at first touch
    // Table entries by in-shard record index; merged-from-disk entries
    // are overwritten by fresh Puts.
    std::map<std::int64_t, ShardTableEntry> entries;
    std::vector<std::byte> image;  // object backend: whole-object buffer
  };

  ShardState& Touch(std::int64_t seg, std::int64_t local);
  void Flush(ShardState& shard);

  FileSystem* fs_;
  std::string data_file_;
  const ShardLayout* layout_;
  StoreOptions options_;
  OpenMode mode_;
  RetryPolicy retry_;
  VirtualClock* clock_;
  RobustnessStats* stats_;
  FileHandlePool pool_;
  std::map<std::int64_t, ShardState> shards_;  // by global shard id
  std::int64_t last_gid_ = -1;                 // Put's shard, cached
  ShardState* last_ = nullptr;
  bool finished_ = false;
};

struct ShardRead {
  std::vector<std::byte> raw;  // decoded payload (empty in timing mode)
  CodecId codec = CodecId::kNone;  // representation found on disk
  // Table record was torn, missing or lying; the slot's self-describing
  // frame header recovered the data.
  bool healed = false;
  // Checksums on: the decoded bytes matched their record's CRC.
  bool verified = false;
  // Checksums on: after one re-read of record and slot the bytes still
  // disagree with (or lack) the CRC their checksummed table promised.
  bool checksum_failed = false;
};

class ShardReader {
 public:
  ShardReader(FileSystem* fs, std::string data_file, const ShardLayout* layout,
              StoreOptions options, RetryPolicy retry, VirtualClock* clock,
              RobustnessStats* stats);

  // Fetches and decodes one sub-chunk; `buffer` lends its storage to a
  // table-free read. Throws PandaError when the slot is unrecoverable
  // (neither table nor probe yields a frame and the slot is not
  // stored-raw).
  ShardRead Get(std::int64_t seg, std::int64_t record, std::int64_t elem_size,
                std::vector<std::byte> buffer = {});

 private:
  struct ShardState {
    std::string name;
    bool loaded = false;
    bool has_table = false;  // framed, or a checksummed tail is present
    bool checksummed = false;  // the table promised CRCs
    std::int64_t table_offset = -1;  // where records live (-1: unknown)
    std::optional<std::vector<ShardTableEntry>> table;
    bool image_loaded = false;
    std::vector<std::byte> image;  // object backend whole-object cache
  };

  ShardState& Load(std::int64_t seg, std::int64_t local);
  void FetchImage(ShardState& shard);
  void LoadTable(ShardState& shard, const ShardSpec& spec);
  std::vector<std::byte> ReadWindow(ShardState& shard, std::int64_t offset,
                                    std::int64_t n, std::vector<std::byte> buf);

  std::string data_file_;
  const ShardLayout* layout_;
  StoreOptions options_;
  RetryPolicy retry_;
  VirtualClock* clock_;
  RobustnessStats* stats_;
  FileHandlePool pool_;
  std::map<std::int64_t, ShardState> shards_;  // by global shard id
  std::int64_t last_gid_ = -1;                 // Get's shard, cached
  ShardState* last_ = nullptr;
  std::list<std::int64_t> image_lru_;          // global ids holding images
};

}  // namespace store
}  // namespace panda
