#include "store/shard_table.h"

#include <algorithm>

#include "util/codec.h"
#include "util/crc32c.h"
#include "util/error.h"

namespace panda {
namespace store {

void AppendShardTableEntry(std::vector<std::byte>& out,
                           const ShardTableEntry& entry) {
  const size_t start = out.size();
  Encoder enc(out);
  enc.Put<std::int32_t>(entry.array_index);
  enc.Put<std::int32_t>(entry.chunk_id);
  enc.Put<std::int32_t>(entry.sub_index);
  enc.Put<std::uint32_t>(static_cast<std::uint32_t>(entry.codec) |
                         (entry.has_crc ? kEntryHasCrc : 0));
  enc.Put<std::int64_t>(entry.slot_offset);
  enc.Put<std::int64_t>(entry.raw_bytes);
  enc.Put<std::int64_t>(entry.frame_bytes);
  enc.Put<std::uint32_t>(entry.has_crc ? entry.data_crc : 0);
  enc.Put<std::uint32_t>(Crc32c(out.data() + start, 44));
  PANDA_CHECK(out.size() - start ==
              static_cast<size_t>(kShardTableEntryBytes));
}

ShardTableEntry DecodeShardTableEntry(std::span<const std::byte> bytes) {
  ShardTableEntry entry;
  if (bytes.size() < static_cast<size_t>(kShardTableEntryBytes)) return entry;
  Decoder dec(bytes.first(static_cast<size_t>(kShardTableEntryBytes)));
  entry.array_index = dec.Get<std::int32_t>();
  entry.chunk_id = dec.Get<std::int32_t>();
  entry.sub_index = dec.Get<std::int32_t>();
  const std::uint32_t word = dec.Get<std::uint32_t>();
  entry.slot_offset = dec.Get<std::int64_t>();
  entry.raw_bytes = dec.Get<std::int64_t>();
  entry.frame_bytes = dec.Get<std::int64_t>();
  entry.data_crc = dec.Get<std::uint32_t>();
  const std::uint32_t stored_crc = dec.Get<std::uint32_t>();
  if (stored_crc != Crc32c(bytes.data(), 44)) return entry;
  const std::uint32_t codec = word & ~kEntryHasCrc;
  if (codec > 0xff || !IsValidCodecId(static_cast<std::uint8_t>(codec))) {
    return entry;
  }
  entry.has_crc = (word & kEntryHasCrc) != 0;
  if (entry.slot_offset < 0 || entry.raw_bytes < 0 || entry.frame_bytes < 0 ||
      entry.frame_bytes > entry.raw_bytes) {
    return entry;
  }
  entry.codec = static_cast<CodecId>(codec);
  entry.valid = true;
  return entry;
}

void AppendShardFooter(std::vector<std::byte>& out,
                       const ShardFooter& footer) {
  const size_t start = out.size();
  Encoder enc(out);
  enc.Put<std::uint32_t>(kShardMagic);
  enc.Put<std::uint32_t>(kShardVersion);
  enc.Put<std::int64_t>(footer.num_records);
  enc.Put<std::int64_t>(footer.data_bytes);
  enc.Put<std::uint32_t>(footer.has_crcs ? kFooterHasCrcs : 0);
  enc.Put<std::uint32_t>(Crc32c(out.data() + start, 28));
  PANDA_CHECK(out.size() - start == static_cast<size_t>(kShardFooterBytes));
}

std::optional<ShardFooter> DecodeShardFooter(std::span<const std::byte> bytes) {
  if (bytes.size() < static_cast<size_t>(kShardFooterBytes)) {
    return std::nullopt;
  }
  Decoder dec(bytes.first(static_cast<size_t>(kShardFooterBytes)));
  const std::uint32_t magic = dec.Get<std::uint32_t>();
  const std::uint32_t version = dec.Get<std::uint32_t>();
  ShardFooter footer;
  footer.num_records = dec.Get<std::int64_t>();
  footer.data_bytes = dec.Get<std::int64_t>();
  const std::uint32_t flags = dec.Get<std::uint32_t>();
  const std::uint32_t stored_crc = dec.Get<std::uint32_t>();
  if (stored_crc != Crc32c(bytes.data(), 28)) return std::nullopt;
  if (magic != kShardMagic || version != kShardVersion) return std::nullopt;
  if ((flags & ~kFooterHasCrcs) != 0) return std::nullopt;
  footer.has_crcs = (flags & kFooterHasCrcs) != 0;
  if (footer.num_records < 0 || footer.data_bytes < 0) return std::nullopt;
  return footer;
}

std::vector<std::byte> BuildShardTail(std::span<const ShardTableEntry> entries,
                                      std::int64_t data_bytes,
                                      std::int64_t min_file_bytes) {
  const std::int64_t natural =
      ShardFileBytes(data_bytes, static_cast<std::int64_t>(entries.size()));
  const std::int64_t end = std::max(natural, min_file_bytes);
  std::vector<std::byte> tail;
  tail.reserve(static_cast<size_t>(end - data_bytes));
  for (const ShardTableEntry& entry : entries) {
    AppendShardTableEntry(tail, entry);
  }
  tail.resize(static_cast<size_t>(end - data_bytes - kShardFooterBytes),
              std::byte{0});
  AppendShardFooter(
      tail, ShardFooter{static_cast<std::int64_t>(entries.size()), data_bytes,
                        std::any_of(entries.begin(), entries.end(),
                                    [](const ShardTableEntry& e) {
                                      return e.has_crc;
                                    })});
  return tail;
}

namespace {

std::optional<std::vector<ShardTableEntry>> DecodeTable(
    const ShardFooter& footer, std::span<const std::byte> records,
    std::int64_t file_bytes) {
  if (footer.data_bytes + footer.num_records * kShardTableEntryBytes +
          kShardFooterBytes >
      file_bytes) {
    return std::nullopt;  // footer claims a table the file cannot hold
  }
  std::vector<ShardTableEntry> entries;
  entries.reserve(static_cast<size_t>(footer.num_records));
  for (std::int64_t i = 0; i < footer.num_records; ++i) {
    entries.push_back(DecodeShardTableEntry(
        records.subspan(static_cast<size_t>(i * kShardTableEntryBytes))));
  }
  return entries;
}

// The footer a plan-located table would have, when the file can hold
// one there (the torn-footer fallback).
std::optional<ShardFooter> LocatedFooter(TableLocation where,
                                         std::int64_t file_bytes) {
  if (where.data_bytes < 0 ||
      ShardFileBytes(where.data_bytes, where.num_records) > file_bytes) {
    return std::nullopt;
  }
  return ShardFooter{where.num_records, where.data_bytes};
}

}  // namespace

std::optional<std::vector<ShardTableEntry>> ReadShardTable(
    File& shard, TableLocation where,
    std::optional<ShardFooter>* footer_out) {
  const std::int64_t size = shard.Size();
  if (size < kShardFooterBytes) return std::nullopt;
  std::vector<std::byte> fbuf(static_cast<size_t>(kShardFooterBytes));
  shard.ReadAt(size - kShardFooterBytes, fbuf, kShardFooterBytes);
  std::optional<ShardFooter> footer = DecodeShardFooter(fbuf);
  if (footer.has_value() &&
      ShardFileBytes(footer->data_bytes, footer->num_records) > size) {
    footer.reset();  // claims a table the file cannot hold
  }
  if (footer_out != nullptr) *footer_out = footer;
  if (!footer.has_value()) footer = LocatedFooter(where, size);
  if (!footer.has_value()) return std::nullopt;
  const std::int64_t table_bytes =
      footer->num_records * kShardTableEntryBytes;
  std::vector<std::byte> rbuf(static_cast<size_t>(table_bytes));
  if (table_bytes > 0) shard.ReadAt(footer->data_bytes, rbuf, table_bytes);
  return DecodeTable(*footer, rbuf, size);
}

std::optional<std::vector<ShardTableEntry>> ParseShardTable(
    std::span<const std::byte> image, TableLocation where,
    std::optional<ShardFooter>* footer_out) {
  const auto size = static_cast<std::int64_t>(image.size());
  if (size < kShardFooterBytes) return std::nullopt;
  std::optional<ShardFooter> footer = DecodeShardFooter(
      image.subspan(static_cast<size_t>(size - kShardFooterBytes)));
  if (footer.has_value() &&
      ShardFileBytes(footer->data_bytes, footer->num_records) > size) {
    footer.reset();  // claims a table the file cannot hold
  }
  if (footer_out != nullptr) *footer_out = footer;
  if (!footer.has_value()) footer = LocatedFooter(where, size);
  if (!footer.has_value()) return std::nullopt;
  return DecodeTable(*footer,
                     image.subspan(static_cast<size_t>(footer->data_bytes)),
                     size);
}

ShardTableEntry ReadShardTableEntry(File& shard, std::int64_t data_bytes,
                                    std::int64_t index) {
  const std::int64_t at = data_bytes + index * kShardTableEntryBytes;
  if (at + kShardTableEntryBytes > shard.Size()) return ShardTableEntry{};
  std::vector<std::byte> buf(static_cast<size_t>(kShardTableEntryBytes));
  shard.ReadAt(at, buf, kShardTableEntryBytes);
  return DecodeShardTableEntry(buf);
}

}  // namespace store
}  // namespace panda
