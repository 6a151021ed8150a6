#include "store/shard_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "codec/frame.h"
#include "trace/trace.h"
#include "util/crc32c.h"
#include "util/error.h"

namespace panda {
namespace store {

ShardWriter::ShardWriter(FileSystem* fs, std::string data_file,
                         const ShardLayout* layout, StoreOptions options,
                         OpenMode mode, RetryPolicy retry, VirtualClock* clock,
                         RobustnessStats* stats)
    : fs_(fs),
      data_file_(std::move(data_file)),
      layout_(layout),
      options_(options),
      mode_(mode),
      retry_(retry),
      clock_(clock),
      stats_(stats),
      pool_(fs, options.handle_pool_capacity) {
  PANDA_REQUIRE(mode_ != OpenMode::kRead, "ShardWriter needs write access");
}

ShardWriter::ShardState& ShardWriter::Touch(std::int64_t seg,
                                            std::int64_t local) {
  const std::int64_t gid = seg * layout_->shards_per_segment() + local;
  if (gid == last_gid_) return *last_;
  const auto [it, fresh] = shards_.try_emplace(gid);
  ShardState& shard = it->second;
  last_gid_ = gid;
  last_ = &shard;
  if (!fresh) return shard;
  shard.local = local;
  shard.name = ShardFileName(data_file_, gid);
  // kReadWrite keeps what the shard already holds: the object backend
  // pulls the whole object (unwritten slots must survive the eventual
  // whole-object PUT) and a table-keeping store merges the old table.
  const bool keep = mode_ == OpenMode::kReadWrite && !options_.timing &&
                    fs_->Exists(shard.name);
  retry_.Run(clock_, stats_, [&] {
    File* file = pool_.Acquire(shard.name, mode_);
    shard.prior_bytes = file->Size();
    if (keep && options_.backend == StoreBackend::kObjectStore) {
      shard.image.resize(static_cast<size_t>(shard.prior_bytes));
      file->ReadAt(0, shard.image, shard.prior_bytes);
    }
  });
  if (keep && options_.tables()) {
    // Seed the table from what is already in the shard, so this pass
    // (a failover adoption over kReadWrite) only overrides the records
    // it actually rewrites.
    std::optional<std::vector<ShardTableEntry>> old;
    if (options_.backend == StoreBackend::kObjectStore) {
      old = ParseShardTable(shard.image);
    } else {
      retry_.Run(clock_, stats_, [&] {
        old = ReadShardTable(*pool_.Acquire(shard.name, OpenMode::kReadWrite));
      });
    }
    if (old.has_value()) {
      for (size_t i = 0; i < old->size(); ++i) {
        if ((*old)[i].valid) {
          shard.entries.emplace(static_cast<std::int64_t>(i), (*old)[i]);
        }
      }
    }
  }
  return shard;
}

void ShardWriter::Put(std::int64_t seg, std::int64_t record,
                      std::int32_t array_index, std::int32_t chunk_id,
                      std::int32_t sub_index, CodecId codec,
                      std::span<const std::byte> stored,
                      std::int64_t stored_vbytes, std::uint32_t data_crc) {
  PANDA_CHECK(!finished_);
  const std::int64_t local = layout_->ShardOfRecord(record);
  const ShardSpec& spec = layout_->shard(local);
  const ShardSlot& slot = layout_->slot(record);
  const std::int64_t slot_offset = slot.offset - spec.base_offset;
  PANDA_REQUIRE(stored_vbytes <= slot.bytes,
                "stored sub-chunk (%lld bytes) exceeds its slot (%lld)",
                static_cast<long long>(stored_vbytes),
                static_cast<long long>(slot.bytes));
  ShardState& shard = Touch(seg, local);

  if (options_.tables()) {
    ShardTableEntry entry;
    entry.array_index = array_index;
    entry.chunk_id = chunk_id;
    entry.sub_index = sub_index;
    entry.codec = codec;
    entry.slot_offset = slot_offset;
    entry.raw_bytes = slot.bytes;
    entry.frame_bytes = stored_vbytes;
    entry.has_crc = options_.checksums;
    entry.data_crc = data_crc;
    entry.valid = true;
    shard.entries[record - spec.first_record] = entry;
  }

  if (options_.backend == StoreBackend::kObjectStore) {
    // Buffer now, PUT whole objects at Finish. Timing runs track only
    // the virtual footprint (spec sizes), so nothing to do here.
    if (!options_.timing && !stored.empty()) {
      const auto end = static_cast<size_t>(slot_offset + slot.bytes);
      if (shard.image.size() < end) shard.image.resize(end);
      std::memcpy(shard.image.data() + slot_offset, stored.data(),
                  stored.size());
    }
    return;
  }
  retry_.Run(clock_, stats_, [&] {
    pool_.Acquire(shard.name, OpenMode::kReadWrite)
        ->WriteAt(slot_offset, stored, stored_vbytes);
  });
}

void ShardWriter::Flush(ShardState& shard) {
  const ShardSpec& spec = layout_->shard(shard.local);
  PANDA_SPAN(flush_span, trace::SpanKind::kStoreFlush, spec.data_bytes);

  // Ordered table covering every record of the shard; records this pass
  // never wrote and no merged table vouched for are emitted invalid
  // (zeroed), so readers probe those slots instead of trusting them.
  // The table starts where the stored bytes end. The tail must reach at
  // least the pre-existing EOF: a shorter rewrite would leave the old
  // footer dangling at the real EOF and resurrect the stale table. A
  // table-free shard has no tail at all — not even an empty write,
  // which would still cost a disk request.
  std::int64_t stored = spec.data_bytes;
  std::vector<std::byte> tail;
  if (options_.tables()) {
    std::vector<ShardTableEntry> entries(
        static_cast<size_t>(spec.num_records));
    stored = 0;
    for (const auto& [index, entry] : shard.entries) {
      if (index >= 0 && index < spec.num_records) {
        entries[static_cast<size_t>(index)] = entry;
        stored = std::max(stored, entry.slot_offset + entry.frame_bytes);
      }
    }
    tail = BuildShardTail(entries, stored, shard.prior_bytes);
  }
  const auto tail_bytes = static_cast<std::int64_t>(tail.size());

  if (options_.backend == StoreBackend::kObjectStore) {
    const std::int64_t total = stored + tail_bytes;
    if (!options_.timing) {
      shard.image.resize(static_cast<size_t>(stored));
      shard.image.insert(shard.image.end(), tail.begin(), tail.end());
    }
    retry_.Run(clock_, stats_, [&] {
      // One whole-object PUT per shard. The backend issues it to a
      // parallel channel; durability waits for the Sync in Finish.
      pool_.Acquire(shard.name, mode_)->WriteAt(0, shard.image, total);
    });
    shard.image.clear();
    shard.image.shrink_to_fit();
    return;
  }
  retry_.Run(clock_, stats_, [&] {
    File* file = pool_.Acquire(shard.name, OpenMode::kReadWrite);
    if (tail_bytes > 0) file->WriteAt(stored, tail, tail_bytes);
    file->Sync();
  });
}

void ShardWriter::Finish() {
  PANDA_CHECK(!finished_);
  finished_ = true;
  for (auto& [gid, shard] : shards_) Flush(shard);
  if (options_.backend == StoreBackend::kObjectStore && !shards_.empty()) {
    // One barrier for all the PUTs issued above (drains the backend's
    // parallel channels) instead of a serializing per-object wait.
    retry_.Run(clock_, stats_, [&] {
      pool_.Acquire(shards_.begin()->second.name, OpenMode::kReadWrite)
          ->Sync();
    });
  }
}

ShardReader::ShardReader(FileSystem* fs, std::string data_file,
                         const ShardLayout* layout, StoreOptions options,
                         RetryPolicy retry, VirtualClock* clock,
                         RobustnessStats* stats)
    : data_file_(std::move(data_file)),
      layout_(layout),
      options_(options),
      retry_(retry),
      clock_(clock),
      stats_(stats),
      pool_(fs, options.handle_pool_capacity) {}

void ShardReader::FetchImage(ShardState& shard) {
  retry_.Run(clock_, stats_, [&] {
    File* file = pool_.Acquire(shard.name, OpenMode::kRead);
    const std::int64_t size = file->Size();
    shard.image.resize(static_cast<size_t>(size));
    file->ReadAt(0, shard.image, size);
  });
}

void ShardReader::LoadTable(ShardState& shard, const ShardSpec& spec) {
  // Only a raw shard's table position is known from the plan.
  const TableLocation where =
      options_.framed ? TableLocation{}
                      : TableLocation{spec.data_bytes, spec.num_records};
  std::optional<ShardFooter> footer;
  const auto read = [&] {
    if (options_.backend == StoreBackend::kObjectStore) {
      const auto size = static_cast<std::int64_t>(shard.image.size());
      shard.has_table = options_.framed ||
                        (options_.checksums && size > spec.data_bytes);
      if (shard.has_table) {
        shard.table = ParseShardTable(shard.image, where, &footer);
      }
      return;
    }
    retry_.Run(clock_, stats_, [&] {
      File* file = pool_.Acquire(shard.name, OpenMode::kRead);
      // A codec=none shard has a tail only when it was written with
      // checksums; without one it reads exactly like a flat file.
      shard.has_table = options_.framed ||
                        (options_.checksums && file->Size() > spec.data_bytes);
      if (shard.has_table) shard.table = ReadShardTable(*file, where, &footer);
    });
  };
  read();
  if (!options_.checksums || !shard.has_table) return;
  const bool whole =
      shard.table.has_value() &&
      static_cast<std::int64_t>(shard.table->size()) == spec.num_records &&
      std::all_of(shard.table->begin(), shard.table->end(),
                  [](const ShardTableEntry& e) { return e.valid; });
  if (!whole) {
    // A silently corrupted read of the table heals on one re-read,
    // before any sub-chunk's verification depends on it.
    if (stats_ != nullptr) stats_->disk_checksum_rereads.fetch_add(1);
    if (options_.backend == StoreBackend::kObjectStore) FetchImage(shard);
    read();
  }
  shard.table_offset = footer.has_value() ? footer->data_bytes
                                           : where.data_bytes;
  // Whether the table promised CRCs: its footer says so; with the
  // footer torn, a codec=none tail exists only because checksums were
  // on, and a framed table's surviving records tell.
  if (footer.has_value()) {
    shard.checksummed = footer->has_crcs;
  } else {
    shard.checksummed =
        !options_.framed ||
        (shard.table.has_value() &&
         std::any_of(shard.table->begin(), shard.table->end(),
                     [](const ShardTableEntry& e) {
                       return e.valid && e.has_crc;
                     }));
  }
}

ShardReader::ShardState& ShardReader::Load(std::int64_t seg,
                                           std::int64_t local) {
  const std::int64_t gid = seg * layout_->shards_per_segment() + local;
  if (gid == last_gid_) return *last_;
  const auto [it, fresh] = shards_.try_emplace(gid);
  ShardState& shard = it->second;
  last_gid_ = gid;
  last_ = &shard;
  if (fresh) shard.name = ShardFileName(data_file_, gid);
  if (options_.timing) {
    if (options_.backend == StoreBackend::kObjectStore && !shard.loaded) {
      // Whole-object GET, charged once per shard; records served from
      // the fetched image afterwards.
      retry_.Run(clock_, stats_, [&] {
        File* file = pool_.Acquire(shard.name, OpenMode::kRead);
        file->ReadAt(0, {}, file->Size());
      });
    }
    shard.loaded = true;
    return shard;
  }
  if (options_.backend == StoreBackend::kObjectStore) {
    if (!shard.image_loaded) {
      FetchImage(shard);
      shard.image_loaded = true;
      image_lru_.push_front(gid);
      while (static_cast<int>(image_lru_.size()) >
             std::max(1, options_.object_cache_shards)) {
        ShardState& victim = shards_[image_lru_.back()];
        victim.image.clear();
        victim.image.shrink_to_fit();
        victim.image_loaded = false;  // the table survives the eviction
        image_lru_.pop_back();
      }
    } else if (image_lru_.front() != gid) {
      image_lru_.remove(gid);
      image_lru_.push_front(gid);
    }
  }
  if (!shard.loaded) {
    shard.loaded = true;
    LoadTable(shard, layout_->shard(local));
  }
  return shard;
}

std::vector<std::byte> ShardReader::ReadWindow(ShardState& shard,
                                               std::int64_t offset,
                                               std::int64_t n,
                                               std::vector<std::byte> buf) {
  buf.resize(static_cast<size_t>(n));
  if (options_.backend == StoreBackend::kObjectStore) {
    PANDA_REQUIRE(
        static_cast<std::int64_t>(shard.image.size()) >= offset + n,
        "shard %s is truncated at %zu bytes (slot needs %lld)",
        shard.name.c_str(), shard.image.size(),
        static_cast<long long>(offset + n));
    std::memcpy(buf.data(), shard.image.data() + offset,
                static_cast<size_t>(n));
    return buf;
  }
  retry_.Run(clock_, stats_, [&] {
    pool_.Acquire(shard.name, OpenMode::kRead)->ReadAt(offset, buf, n);
  });
  return buf;
}

ShardRead ShardReader::Get(std::int64_t seg, std::int64_t record,
                           std::int64_t elem_size,
                           std::vector<std::byte> buffer) {
  const std::int64_t local = layout_->ShardOfRecord(record);
  const ShardSpec& spec = layout_->shard(local);
  const ShardSlot& slot = layout_->slot(record);
  const std::int64_t slot_offset = slot.offset - spec.base_offset;
  const std::int64_t index = record - spec.first_record;
  ShardState& shard = Load(seg, local);

  ShardRead out;
  if (options_.timing) {
    if (options_.backend != StoreBackend::kObjectStore) {
      retry_.Run(clock_, stats_, [&] {
        pool_.Acquire(shard.name, OpenMode::kRead)
            ->ReadAt(slot_offset, {}, slot.bytes);
      });
    }
    return out;
  }
  PANDA_SPAN(get_span, trace::SpanKind::kStoreGet, slot.bytes);
  if (!shard.has_table) {
    // Table-free: the slot holds exactly its raw bytes.
    out.raw = ReadWindow(shard, slot_offset, slot.bytes, std::move(buffer));
    return out;
  }

  // Trust a record only when it agrees with the layout about where and
  // how big the slot is.
  const auto usable = [&](const ShardTableEntry& e) {
    return e.valid && e.slot_offset == slot_offset &&
           e.raw_bytes == slot.bytes && e.frame_bytes <= slot.bytes;
  };
  const auto decode = [&](const ShardTableEntry* entry) {
    ShardRead got;
    if (entry != nullptr && entry->codec == CodecId::kNone &&
        entry->frame_bytes == slot.bytes) {
      // Stored raw: the window is the payload.
      got.raw = ReadWindow(shard, slot_offset, slot.bytes, std::move(buffer));
      return got;
    }
    if (entry != nullptr) {
      try {
        got.raw = DecodeSubchunkFrame(
            ReadWindow(shard, slot_offset, entry->frame_bytes, {}),
            entry->codec, slot.bytes, elem_size);
        got.codec = entry->codec;
        return got;
      } catch (const PandaError&) {
        // Fall through to the probe: a lying record is healable.
      }
    }
    // The slot's self-describing frame header (or stored-raw); a slot
    // that is neither is unrecoverable. A framed shard may end inside
    // its last slot (the table follows the stored bytes), so the probe
    // window stops at EOF.
    const std::int64_t file_bytes =
        options_.backend == StoreBackend::kObjectStore
            ? static_cast<std::int64_t>(shard.image.size())
            : pool_.Acquire(shard.name, OpenMode::kRead)->Size();
    const std::int64_t window = std::max<std::int64_t>(
        0, std::min(slot.bytes, file_bytes - slot_offset));
    try {
      got.raw = ProbeDecodeSubchunk(
          ReadWindow(shard, slot_offset, window, {}), slot.bytes, elem_size,
          &got.codec);
    } catch (const PandaError&) {
      if (stats_ != nullptr) stats_->frame_decode_failures.fetch_add(1);
      throw;
    }
    got.healed = true;
    if (stats_ != nullptr) stats_->frame_rereads.fetch_add(1);
    return got;
  };
  // Verification settles on a record that carries no CRC (written with
  // checksums off: unverified, not failed) or whose CRC matches.
  const auto settled = [&](const ShardTableEntry* entry, ShardRead& got) {
    if (entry == nullptr) return false;
    got.verified =
        entry->has_crc && Crc32c({got.raw.data(), got.raw.size()}) ==
                              entry->data_crc;
    return !entry->has_crc || got.verified;
  };

  const ShardTableEntry* entry = nullptr;
  if (shard.table.has_value() &&
      index < static_cast<std::int64_t>(shard.table->size()) &&
      usable((*shard.table)[static_cast<size_t>(index)])) {
    entry = &(*shard.table)[static_cast<size_t>(index)];
  }
  out = decode(entry);
  if (!shard.checksummed || settled(entry, out)) return out;

  // A silently corrupted *read* — of the slot or of its record — heals
  // on one re-read of both; persistent disagreement means the bytes on
  // disk are wrong and the caller escalates.
  if (stats_ != nullptr) stats_->disk_checksum_rereads.fetch_add(1);
  // The object backend re-GETs the whole object: record and slot at
  // once. A framed shard whose footer is torn has no locator for the
  // record, which then stays invalid.
  if (options_.backend == StoreBackend::kObjectStore) FetchImage(shard);
  ShardTableEntry fresh;
  const std::int64_t at = shard.table_offset + index * kShardTableEntryBytes;
  if (shard.table_offset >= 0 &&
      options_.backend == StoreBackend::kObjectStore) {
    if (at + kShardTableEntryBytes <=
        static_cast<std::int64_t>(shard.image.size())) {
      fresh = DecodeShardTableEntry(
          std::span<const std::byte>(shard.image).subspan(
              static_cast<size_t>(at)));
    }
  } else if (shard.table_offset >= 0) {
    retry_.Run(clock_, stats_, [&] {
      fresh = ReadShardTableEntry(*pool_.Acquire(shard.name, OpenMode::kRead),
                                  shard.table_offset, index);
    });
  }
  entry = usable(fresh) ? &fresh : nullptr;
  out = decode(entry);
  if (entry != nullptr && shard.table.has_value() &&
      index < static_cast<std::int64_t>(shard.table->size())) {
    (*shard.table)[static_cast<size_t>(index)] = fresh;
  }
  out.checksum_failed = !settled(entry, out);
  return out;
}

}  // namespace store
}  // namespace panda
