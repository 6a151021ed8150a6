// Shard layout: how one server's segment of an array maps onto shard
// files — the only way a segment reaches disk.
//
// A segment is cut into shards of at most `shard_bytes` each (greedy,
// in plan order, at sub-chunk boundaries), Zarr-style: many sub-chunks
// per shard file, each at its segment-relative offset within the
// shard's data region (shard_table.h). `shard_bytes = 0` is the
// unbounded case: one shard per segment, whose data region is exactly
// the classic flat per-server file.
//
// The mapping is a pure function of the plan's slot list — writer,
// reader, fsck and repair all derive the identical layout from the
// same `BuildServerWork` ordering, so no shard map ever needs to be
// stored or exchanged. Timestep streams reuse the per-segment layout:
// segment `seg`'s shard `local` lands in file `seg * shards_per_segment
// + local`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace panda {
namespace store {

// One sub-chunk slot of a segment, in record-ordinal order. Offsets are
// segment-relative, contiguous and ascending (exactly what the i/o plan
// produces).
struct ShardSlot {
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
};

// One shard of a segment: records [first_record, first_record +
// num_records) at segment offsets [base_offset, base_offset +
// data_bytes).
struct ShardSpec {
  std::int64_t first_record = 0;
  std::int64_t num_records = 0;
  std::int64_t base_offset = 0;
  std::int64_t data_bytes = 0;
};

class ShardLayout {
 public:
  ShardLayout() = default;

  // Greedy packing: accumulate slots while the shard stays within
  // `shard_bytes`; a slot larger than `shard_bytes` gets a shard of its
  // own (every shard holds at least one slot). `shard_bytes <= 0` packs
  // every slot into one shard. Slots must be ascending and contiguous
  // from offset 0.
  static ShardLayout Pack(std::span<const ShardSlot> slots,
                          std::int64_t shard_bytes);

  std::int64_t shards_per_segment() const {
    return static_cast<std::int64_t>(shards_.size());
  }
  std::int64_t records_per_segment() const {
    return static_cast<std::int64_t>(slots_.size());
  }
  std::int64_t segment_bytes() const { return segment_bytes_; }

  const ShardSpec& shard(std::int64_t local) const {
    return shards_[static_cast<size_t>(local)];
  }
  const ShardSlot& slot(std::int64_t record) const {
    return slots_[static_cast<size_t>(record)];
  }
  // The shard (segment-local index) holding `record`.
  std::int64_t ShardOfRecord(std::int64_t record) const {
    return shard_of_record_[static_cast<size_t>(record)];
  }

 private:
  std::vector<ShardSpec> shards_;
  std::vector<ShardSlot> slots_;
  std::vector<std::int64_t> shard_of_record_;
  std::int64_t segment_bytes_ = 0;
};

// "F" + shard 3 -> "F.shard.3". Applies equally to staging names
// ("F.tmp.shard.3", "F.repair.shard.3"), which is what routes staged
// shard writes to the same backend as their final homes.
std::string ShardFileName(const std::string& data_file, std::int64_t shard_id);

}  // namespace store
}  // namespace panda
