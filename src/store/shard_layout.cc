#include "store/shard_layout.h"

#include "util/error.h"

namespace panda {
namespace store {

ShardLayout ShardLayout::Pack(std::span<const ShardSlot> slots,
                              std::int64_t shard_bytes) {
  ShardLayout layout;
  layout.slots_.assign(slots.begin(), slots.end());
  layout.shard_of_record_.resize(slots.size());
  std::int64_t expected = 0;
  ShardSpec cur;
  for (size_t i = 0; i < slots.size(); ++i) {
    const ShardSlot& slot = slots[i];
    PANDA_REQUIRE(slot.offset == expected && slot.bytes > 0,
                  "shard slots must be contiguous ascending from 0");
    expected += slot.bytes;
    if (shard_bytes > 0 && cur.num_records > 0 &&
        cur.data_bytes + slot.bytes > shard_bytes) {
      layout.shards_.push_back(cur);
      cur = ShardSpec{static_cast<std::int64_t>(i), 0, slot.offset, 0};
    }
    cur.num_records += 1;
    cur.data_bytes += slot.bytes;
    layout.shard_of_record_[i] =
        static_cast<std::int64_t>(layout.shards_.size());
  }
  if (cur.num_records > 0) layout.shards_.push_back(cur);
  layout.segment_bytes_ = expected;
  return layout;
}

std::string ShardFileName(const std::string& data_file,
                          std::int64_t shard_id) {
  return data_file + ".shard." + std::to_string(shard_id);
}

}  // namespace store
}  // namespace panda
