// Bounded LRU pool of open file handles.
//
// A sharded layout multiplies files: a timestep stream over s shards
// per segment holds timesteps x s shard files per (array, server). The
// pool keeps at most `capacity` handles open and evicts least-recently
// used, so server file-descriptor usage stays O(capacity) at any shard
// count (the acquire-zarr `FileHandlePool` shape). Eviction is safe
// mid-write: positional WriteAt needs no stream state, and durability
// is a property of the file, not the handle — Sync through a reopened
// handle flushes everything earlier handles wrote.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "iosim/file_system.h"

namespace panda {
namespace store {

class FileHandlePool {
 public:
  FileHandlePool(FileSystem* fs, int capacity);

  // Returns a live handle for `path`, opening (and possibly evicting)
  // as needed. The handle stays valid until the next Acquire / Clear.
  // kWrite always reopens (truncation is the point of kWrite; a cached
  // handle would silently skip it); a cached kRead handle is upgraded by
  // reopening when write access is requested.
  File* Acquire(const std::string& path, OpenMode mode);

  void Clear();

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::int64_t evictions() const { return evictions_; }
  std::int64_t open_handles() const {
    return static_cast<std::int64_t>(lru_.size());
  }

 private:
  struct Entry {
    std::string path;
    OpenMode mode = OpenMode::kRead;
    std::unique_ptr<File> file;
  };

  FileSystem* fs_;
  int capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<std::string, std::list<Entry>::iterator> index_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace store
}  // namespace panda
