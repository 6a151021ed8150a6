#include "panda/failover.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace panda {

ChunkOwners::ChunkOwners(int num_servers,
                         const std::vector<int>& dead_servers)
    : alive_(static_cast<size_t>(num_servers), true) {
  for (int d : dead_servers) {
    PANDA_CHECK(d >= 0 && d < num_servers);
    alive_[static_cast<size_t>(d)] = false;
  }
  PANDA_REQUIRE(alive_[0], "master server (index 0) is dead: cannot re-plan");
  int dead = 0;
  for (int s = 0; s < num_servers; ++s) {
    dead_below_.push_back(dead);
    if (alive_[static_cast<size_t>(s)]) {
      survivors_.push_back(s);
    } else {
      ++dead;
    }
  }
}

int ChunkOwners::OwnerOf(int chunk_index) const {
  const int num_servers = static_cast<int>(alive_.size());
  const int server = chunk_index % num_servers;
  if (alive_[static_cast<size_t>(server)]) return server;
  // Dead-owned chunks are dealt round-robin over the ascending
  // survivors in ascending chunk order; count the ones before this.
  const std::int64_t num_dead =
      num_servers - static_cast<std::int64_t>(survivors_.size());
  const std::int64_t dealt =
      static_cast<std::int64_t>(chunk_index / num_servers) * num_dead +
      dead_below_[static_cast<size_t>(server)];
  return survivors_[static_cast<size_t>(
      dealt % static_cast<std::int64_t>(survivors_.size()))];
}

DegradedLayout DegradedLayout::Compute(const IoPlan& plan,
                                       const std::vector<int>& dead_servers) {
  const int S = plan.num_servers();
  const ChunkOwners owners(S, dead_servers);
  DegradedLayout layout;
  layout.alive = owners.alive();
  layout.degraded = !dead_servers.empty();

  const auto& chunks = plan.chunks();
  layout.owner.resize(chunks.size());
  layout.chunk_offset.resize(chunks.size());
  layout.adopted.assign(static_cast<size_t>(S), {});
  layout.segment_bytes.assign(static_cast<size_t>(S), 0);

  // Survivor-owned chunks keep their original owner and offset; their
  // segments initially retain their original size.
  for (int s = 0; s < S; ++s) {
    if (layout.alive[static_cast<size_t>(s)]) {
      layout.segment_bytes[static_cast<size_t>(s)] = plan.SegmentBytes(s);
    }
  }

  // Adopted chunks are appended past the adopter's current segment end,
  // in ascending chunk order. Every rank computes this identically.
  for (size_t ci = 0; ci < chunks.size(); ++ci) {
    const ChunkPlan& cp = chunks[ci];
    const int owner = owners.OwnerOf(static_cast<int>(ci));
    layout.owner[ci] = owner;
    if (owner == cp.server) {
      layout.chunk_offset[ci] = cp.file_offset;
      continue;
    }
    layout.chunk_offset[ci] = layout.segment_bytes[static_cast<size_t>(owner)];
    layout.segment_bytes[static_cast<size_t>(owner)] += cp.bytes;
    layout.adopted[static_cast<size_t>(owner)].push_back(static_cast<int>(ci));
  }
  return layout;
}

std::vector<WorkItem> BuildServerWork(const IoPlan& plan,
                                      const DegradedLayout& layout, int s,
                                      WorkPhase phase) {
  std::vector<WorkItem> work;
  std::int64_t ordinal = 0;
  const auto push_chunk = [&](int ci, bool emit) {
    const ChunkPlan& cp = plan.chunks()[static_cast<size_t>(ci)];
    const std::int64_t base = layout.chunk_offset[static_cast<size_t>(ci)];
    for (size_t sub = 0; sub < cp.subchunks.size(); ++sub) {
      const SubchunkPlan& sp = cp.subchunks[sub];
      if (emit) {
        WorkItem item;
        item.chunk_index = ci;
        item.sub_index = static_cast<int>(sub);
        // The plan's sub-chunk offset is relative to the chunk's
        // *original* position; rebase onto the layout's chunk offset.
        item.file_offset = base + (sp.file_offset - cp.file_offset);
        item.record_ordinal = ordinal;
        work.push_back(item);
      }
      ++ordinal;
    }
  };
  // Original chunks first (their ordinals come first in the table and
  // journal record layout), then adopted chunks.
  for (int ci : plan.ChunksOfServer(s)) {
    if (layout.alive[static_cast<size_t>(s)]) {
      push_chunk(ci, phase == WorkPhase::kFull);
    }
  }
  for (int ci : layout.adopted[static_cast<size_t>(s)]) {
    push_chunk(ci, true);
  }
  return work;
}

std::int64_t RecordsPerSegment(const IoPlan& plan, const DegradedLayout& layout,
                               int s) {
  std::int64_t n = 0;
  if (layout.alive[static_cast<size_t>(s)]) {
    for (int ci : plan.ChunksOfServer(s)) {
      n += static_cast<std::int64_t>(
          plan.chunks()[static_cast<size_t>(ci)].subchunks.size());
    }
  }
  for (int ci : layout.adopted[static_cast<size_t>(s)]) {
    n += static_cast<std::int64_t>(
        plan.chunks()[static_cast<size_t>(ci)].subchunks.size());
  }
  return n;
}

std::vector<int> DeadServerIndices(Endpoint& ep, const World& world) {
  std::vector<int> dead;
  for (int s = 0; s < world.num_servers; ++s) {
    if (!ep.peer_alive(world.server_rank(s))) dead.push_back(s);
  }
  return dead;
}

std::string EncodeDeadServersAttr(const std::vector<int>& dead_servers) {
  std::vector<int> sorted = dead_servers;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::ostringstream out;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out << ',';
    out << sorted[i];
  }
  return out.str();
}

std::vector<int> ParseDeadServersAttr(
    const std::map<std::string, std::string>& attributes) {
  std::vector<int> dead;
  const auto it = attributes.find(kDeadServersAttr);
  if (it == attributes.end() || it->second.empty()) return dead;
  std::istringstream in(it->second);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    dead.push_back(std::stoi(tok));
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  return dead;
}

std::int64_t ParseLayoutEpochAttr(
    const std::map<std::string, std::string>& attributes) {
  const auto it = attributes.find(kLayoutEpochAttr);
  if (it == attributes.end() || it->second.empty()) return 0;
  return static_cast<std::int64_t>(std::stoll(it->second));
}

std::int64_t ParseShardBytesAttr(
    const std::map<std::string, std::string>& attributes) {
  const auto it = attributes.find(kShardBytesAttr);
  if (it == attributes.end() || it->second.empty()) return 0;
  return static_cast<std::int64_t>(std::stoll(it->second));
}

std::vector<RepairItem> BuildRepairPlan(const IoPlan& plan,
                                        const DegradedLayout& degraded) {
  std::vector<RepairItem> items;
  const auto& chunks = plan.chunks();
  for (size_t ci = 0; ci < chunks.size(); ++ci) {
    const int identity_owner = chunks[ci].server;
    const int adopter = degraded.owner[ci];
    if (adopter == identity_owner) continue;
    RepairItem item;
    item.chunk_index = static_cast<int>(ci);
    item.from_server = adopter;
    item.to_server = identity_owner;
    items.push_back(item);
  }
  return items;
}

}  // namespace panda
