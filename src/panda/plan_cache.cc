#include "panda/plan_cache.h"

#include <algorithm>

#include "panda/protocol.h"

namespace panda {

std::string PlanCache::KeyOf(const ArrayMeta& meta, int num_servers,
                             std::int64_t subchunk_bytes,
                             const Region* active, int client) {
  std::vector<std::byte> bytes;
  Encoder enc(bytes);
  meta.EncodeTo(enc);
  enc.Put<std::int32_t>(num_servers);
  enc.Put<std::int64_t>(subchunk_bytes);
  enc.Put<std::uint8_t>(active != nullptr ? 1 : 0);
  if (active != nullptr) EncodeRegion(enc, *active);
  enc.Put<std::int32_t>(client);
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

template <typename T, typename Build>
std::shared_ptr<const T> PlanCache::Memo(const std::string& key,
                                         Build&& build) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    lru_.erase(std::find(lru_.begin(), lru_.end(), key));
    lru_.push_front(key);
    return std::get<std::shared_ptr<const T>>(it->second);
  }
  ++misses_;
  std::shared_ptr<const T> built = build();
  if (entries_.size() >= capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  entries_.emplace(key, built);
  lru_.push_front(key);
  return built;
}

std::shared_ptr<const IoPlan> PlanCache::Get(const ArrayMeta& meta,
                                             int num_servers,
                                             std::int64_t subchunk_bytes,
                                             const Region* active) {
  return Memo<IoPlan>(
      KeyOf(meta, num_servers, subchunk_bytes, active, -1), [&] {
        return active != nullptr
                   ? std::make_shared<const IoPlan>(meta, num_servers,
                                                    subchunk_bytes, *active)
                   : std::make_shared<const IoPlan>(meta, num_servers,
                                                    subchunk_bytes);
      });
}

std::shared_ptr<const ClientView> PlanCache::GetClientView(
    const ArrayMeta& meta, int num_servers, std::int64_t subchunk_bytes,
    const Region* active, int client) {
  return Memo<ClientView>(
      KeyOf(meta, num_servers, subchunk_bytes, active, client), [&] {
        return std::make_shared<const ClientView>(
            meta, num_servers, subchunk_bytes,
            active != nullptr ? *active
                              : Region::Whole(meta.memory.array_shape()),
            client);
      });
}

}  // namespace panda
