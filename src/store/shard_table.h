// On-disk shard format: data region + indexed table + EOF footer.
//
// A shard file is a self-describing index carried *inside* the shard:
//
//   [ data region: sub-chunk slots at their segment-relative offsets ]
//   [ table: one 48-byte record per slot, in record order            ]
//   [ zero padding (only after an in-place table rewrite)            ]
//   [ 32-byte footer at EOF: magic "PSH1", record count, data size   ]
//
// The table starts right after the last stored byte of the data region
// (the footer's "data size"): at the layout's data-region size when the
// slots hold raw bytes, earlier when the last slots hold frames shorter
// than their extent — a compressed shard stores no trailing hole. Any
// reader locates the footer at Size()-32, validates its CRC, then reads
// the table at footer.data_bytes — no writer plan needed (the
// scda-style serial-equivalence property). A reader that knows the plan
// of a raw shard also knows where its table starts, so a torn footer
// loses only the locator, not the records. Each record carries its own
// CRC, so torn tables degrade per entry: an invalid record falls back
// to the slot's self-describing frame header.
//
// Only segments whose records say something the plan cannot carry a
// table: framed slots (codec != none) or sub-chunk checksums. Without
// either, the shard is its data region alone.
//
// Records are 48 bytes:
//   [i32 array_index | i32 chunk_id | i32 sub_index | u32 codec word |
//    i64 slot_offset | i64 raw_bytes | i64 frame_bytes |
//    u32 data_crc | u32 crc over the first 44]
// where the codec word is the codec id in its low byte plus
// kEntryHasCrc when `data_crc` holds the CRC32C of the slot's *decoded*
// bytes (written with disk checksums on), and the footer is 32:
//   [u32 magic | u32 version | i64 num_records | i64 data_bytes |
//    u32 flags | u32 crc over the first 28]
// where flags carries kFooterHasCrcs when the table's records carry
// CRCs — so a reader can tell a checksummed table from one written
// with checksums off even when individual records are torn.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "codec/codec.h"
#include "iosim/file_system.h"

namespace panda {
namespace store {

inline constexpr std::uint32_t kShardMagic = 0x31485350;  // "PSH1"
inline constexpr std::uint32_t kShardVersion = 1;
inline constexpr std::int64_t kShardTableEntryBytes = 48;
inline constexpr std::int64_t kShardFooterBytes = 32;
// Codec-word flag: the record's data_crc field is valid.
inline constexpr std::uint32_t kEntryHasCrc = 1u << 8;
// Footer flag: the table was written with checksums.
inline constexpr std::uint32_t kFooterHasCrcs = 1u;

struct ShardTableEntry {
  std::int32_t array_index = -1;
  std::int32_t chunk_id = -1;
  std::int32_t sub_index = -1;
  CodecId codec = CodecId::kNone;
  std::int64_t slot_offset = 0;  // within this shard's data region
  std::int64_t raw_bytes = 0;
  std::int64_t frame_bytes = 0;
  // CRC32C of the decoded slot bytes; meaningful only when has_crc.
  bool has_crc = false;
  std::uint32_t data_crc = 0;
  // Decode-side only (never serialized): false for a record whose CRC
  // or framing failed — the reader probes that slot instead.
  bool valid = false;
};

struct ShardFooter {
  std::int64_t num_records = 0;
  std::int64_t data_bytes = 0;  // stored data region: where the table starts
  bool has_crcs = false;
};

// The byte size of a shard whose table starts at `data_bytes`.
inline std::int64_t ShardFileBytes(std::int64_t data_bytes,
                                   std::int64_t num_records) {
  return data_bytes + num_records * kShardTableEntryBytes + kShardFooterBytes;
}

void AppendShardTableEntry(std::vector<std::byte>& out,
                           const ShardTableEntry& entry);
// Returns an entry with valid=false (never throws) when the record's
// CRC or codec id does not check out.
ShardTableEntry DecodeShardTableEntry(std::span<const std::byte> bytes);

void AppendShardFooter(std::vector<std::byte>& out, const ShardFooter& footer);
std::optional<ShardFooter> DecodeShardFooter(std::span<const std::byte> bytes);

// The full tail to write at offset `data_bytes`: table records, zero
// padding, footer (flagged kFooterHasCrcs when any record carries a
// CRC) — sized so the file ends at
// max(ShardFileBytes(...), min_file_bytes). The padding matters when a
// table is rewritten in place over a longer previous tail (failover
// adoption extends a shard): the footer must land at the new EOF and
// every stale byte of the old tail must be overwritten.
std::vector<std::byte> BuildShardTail(std::span<const ShardTableEntry> entries,
                                      std::int64_t data_bytes,
                                      std::int64_t min_file_bytes);

// Where a caller's plan says the table must be: the data-region size
// and record count of a raw shard (ShardSpec). A negative data_bytes
// means "unknown" (framed shards): only the footer can locate the table.
struct TableLocation {
  std::int64_t data_bytes = -1;
  std::int64_t num_records = 0;
};

// Reads and validates the table of an open shard file. When the footer
// is missing or torn, a known `where` reads the records from the plan's
// table position instead. nullopt when neither locates a table (reader
// falls back to probing slots); individual entries may still come back
// valid=false. `footer`, when non-null, receives the footer if it
// decoded (nullopt when torn).
std::optional<std::vector<ShardTableEntry>> ReadShardTable(
    File& shard, TableLocation where = {},
    std::optional<ShardFooter>* footer = nullptr);

// Same, from a whole-shard byte image (the object-store GET path).
std::optional<std::vector<ShardTableEntry>> ParseShardTable(
    std::span<const std::byte> image, TableLocation where = {},
    std::optional<ShardFooter>* footer = nullptr);

// Reads record `index` of a table known to start at `data_bytes` (one
// 48-byte positioned read); valid=false when it is out of the file or
// fails its CRC.
ShardTableEntry ReadShardTableEntry(File& shard, std::int64_t data_bytes,
                                    std::int64_t index);

}  // namespace store
}  // namespace panda
