#include "store/handle_pool.h"

#include "util/error.h"

namespace panda {
namespace store {

FileHandlePool::FileHandlePool(FileSystem* fs, int capacity)
    : fs_(fs), capacity_(capacity) {
  PANDA_REQUIRE(capacity_ >= 1, "handle pool capacity must be >= 1");
}

File* FileHandlePool::Acquire(const std::string& path, OpenMode mode) {
  const auto it = index_.find(path);
  if (it != index_.end()) {
    Entry& entry = *it->second;
    // A kRead handle cannot serve writes; kWrite must re-truncate.
    const bool compatible =
        mode != OpenMode::kWrite &&
        (entry.mode != OpenMode::kRead || mode == OpenMode::kRead);
    if (compatible) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return entry.file.get();
    }
    lru_.erase(it->second);
    index_.erase(it);
  }
  ++misses_;
  while (static_cast<int>(lru_.size()) >= capacity_) {
    index_.erase(lru_.back().path);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(Entry{path, mode, fs_->Open(path, mode)});
  index_[path] = lru_.begin();
  return lru_.front().file.get();
}

void FileHandlePool::Clear() {
  lru_.clear();
  index_.clear();
}

}  // namespace store
}  // namespace panda
