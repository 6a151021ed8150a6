// Group metadata ("schema") files.
//
// Figure 2's ArrayGroup names a schema file; Panda's master server keeps
// it up to date on its local file system. The file records each array's
// name, shape, element size and both schemas, plus how many timesteps
// and whether a checkpoint exist — everything a data consumer (e.g. a
// sequential visualizer, or the schema_migration example) needs to
// interpret the per-server data files without the original application.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "iosim/file_system.h"
#include "panda/protocol.h"

namespace panda {

struct GroupMeta {
  // Version 2 adds a per-array codec byte (docs/PROTOCOL.md "Codec
  // negotiation and frame format"). Version-1 files still decode; their
  // arrays default to CodecId::kNone.
  std::uint32_t version = 2;
  std::string group;
  std::int64_t timesteps = 0;       // number of timestep segments present
  bool has_checkpoint = false;
  std::int64_t checkpoint_seq = -1; // timestep at which it was taken (-1: n/a)
  // User attributes (iteration counters, dt, provenance, ...): carried
  // with write collectives and restored on Resume so an application can
  // pick up exactly where it checkpointed.
  std::map<std::string, std::string> attributes;
  std::vector<ArrayMeta> arrays;

  std::vector<std::byte> Encode() const;
  static GroupMeta Decode(std::span<const std::byte> bytes);
};

// Calls `visit(array_index, array, purpose, num_segments)` for every
// stream a group's metadata can promise: each array's general stream,
// its timestep stream (when timesteps were written) and its checkpoint
// (when one was taken). Offline verifiers sweep groups with it.
template <typename Visit>
void ForEachGroupStream(const GroupMeta& meta, Visit&& visit) {
  for (size_t a = 0; a < meta.arrays.size(); ++a) {
    const auto index = static_cast<std::int32_t>(a);
    visit(index, meta.arrays[a], Purpose::kGeneral, std::int64_t{1});
    if (meta.timesteps > 0) {
      visit(index, meta.arrays[a], Purpose::kTimestep, meta.timesteps);
    }
    if (meta.has_checkpoint) {
      visit(index, meta.arrays[a], Purpose::kCheckpoint, std::int64_t{1});
    }
  }
}

// Writes `meta` to `path` on `fs` (overwrites).
void WriteGroupMeta(FileSystem& fs, const std::string& path,
                    const GroupMeta& meta);

// Reads a group metadata file; throws PandaError if missing or corrupt.
GroupMeta ReadGroupMeta(FileSystem& fs, const std::string& path);

// Merges the effects of a completed write collective into the group's
// metadata file (creating it if needed): refreshes the array list and
// advances the timestep / checkpoint bookkeeping.
void UpdateGroupMeta(FileSystem& fs, const CollectiveRequest& req);

}  // namespace panda
