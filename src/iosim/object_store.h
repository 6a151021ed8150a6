// Simulated object-store backend for i/o nodes.
//
// Models a modern disaggregated store next to the 1995 AIX disk model:
// objects move whole (PUT/GET), every request pays a fixed round-trip
// latency that dwarfs the per-byte cost, and the store accepts many
// requests in parallel (`channels` concurrent connections per node) —
// the exact inverse of the local disk's profile (cheap ops, one
// spindle). There is no partial overwrite: updating part of an object
// costs a whole-object read-modify-write.
//
// Shard files (any path containing ".shard.", including ".tmp"/".repair"
// staging names) are objects. Everything else — journals, schema
// metadata, files of other programs — lives on the node-local
// disk and is charged through the classic DiskModel, which is how real
// burst-buffer deployments split small hot metadata from bulk data.
//
// Timing semantics:
//   * PUT (whole-object write) is asynchronous: the caller pays a small
//     issue cost and the transfer occupies the least-busy channel;
//     File::Sync() drains all channels (durability barrier). This is
//     what lets N shards flush in ~N/channels waves.
//   * GET (any object read) is synchronous — the caller needs the bytes
//     — and always moves the whole object, whatever window was asked.
//   * A partial/overlapping object write is a synchronous RMW:
//     GET(old) + PUT(new) on one channel.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "iosim/disk_model.h"
#include "iosim/file_system.h"
#include "msg/virtual_clock.h"

namespace panda {

struct ObjectStoreModel {
  double put_latency_s = 0.030;   // per-PUT round trip
  double get_latency_s = 0.020;   // per-GET round trip
  double put_Bps = 200.0e6;       // per-channel streaming bandwidth
  double get_Bps = 400.0e6;
  double issue_s = 0.0002;        // client cost to hand a request off
  int channels = 8;               // concurrent connections per node
  DiskModel local = DiskModel::NasSp2Aix();  // non-object files
};

class ObjectStoreFileSystem : public FileSystem {
 public:
  struct Options {
    ObjectStoreModel model;
    bool store_data = true;
    VirtualClock* clock = nullptr;  // may be null (no time accounting)
  };

  explicit ObjectStoreFileSystem(Options options);

  std::unique_ptr<File> Open(const std::string& path, OpenMode mode) override;
  bool Exists(const std::string& path) override;
  void Remove(const std::string& path) override;
  void Rename(const std::string& from, const std::string& to) override;

  const FsStats& stats() const override { return stats_; }
  void ResetStats() override { stats_ = FsStats{}; }

  void set_clock(VirtualClock* clock) { options_.clock = clock; }
  const ObjectStoreModel& model() const { return options_.model; }
  bool store_data() const { return options_.store_data; }

  // True when `path` names an object (vs. a node-local file).
  static bool IsObjectPath(const std::string& path);

 private:
  friend class ObjectStoreFile;

  struct Inode {
    std::vector<std::byte> data;  // only when store_data
    std::int64_t size = 0;
    bool object = false;
  };

  // Async PUT of `bytes`: issue cost now, transfer on the least-busy
  // channel; returns without waiting for completion.
  void ChargePut(std::int64_t bytes);
  // Sync GET of a `bytes`-sized object (plus `extra_s` service time for
  // the RMW write-back); blocks until done.
  void ChargeGet(std::int64_t bytes, double extra_s);
  // Node-local disk op (SimFileSystem-style sequential tracking).
  void ChargeLocal(std::int64_t inode_id, std::int64_t offset, std::int64_t n,
                   bool write);
  void DrainChannels();

  Options options_;
  FsStats stats_;
  std::map<std::string, Inode> inodes_;
  std::map<std::string, std::int64_t> inode_ids_;
  std::int64_t next_inode_id_ = 1;
  std::vector<double> channel_busy_until_;
  std::int64_t head_inode_ = -1;   // local-disk head position
  std::int64_t head_offset_ = -1;
};

}  // namespace panda
