// Degraded-mode re-planning after crash-stop server failures.
//
// When an i/o node crash-stops mid-collective, the survivors must agree
// on a new chunk -> server assignment and finish the collective without
// touching the dead rank. Every server derives the same DegradedLayout
// from its IoPlan plus the (agreed) dead-server set, and every client
// the same owners from ChunkOwners, exactly like the plan itself: no
// negotiation, no wire format for assignments.
//
// The layout preserves completed work. Survivor-owned chunks keep their
// original owner and file offset — data already on a survivor's disk
// stays where it is. Chunks owned by dead servers are *adopted*: they
// are dealt round-robin over the ascending survivors and appended past
// the adopter's original segment, in ascending chunk order, so adopted
// data is still written sequentially (server-directed i/o survives the
// failure).
//
// Scope (documented in docs/PROTOCOL.md): the master server (index 0)
// is the coordinator and its death aborts the collective; clients never
// die; a server death during a *read* collective aborts (the data on
// its disk is unrecoverable by re-planning). Write collectives and
// their later reads/restarts are the failover path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "msg/transport.h"
#include "panda/plan.h"
#include "panda/runtime.h"

namespace panda {

// The adoption rule of DegradedLayout without a plan. Chunk ids are
// dense and chunk i's identity owner is i % num_servers, so how many
// dead-owned chunks precede chunk i — and with that the survivor it is
// dealt to — follows from i, num_servers and the dead set alone.
// Clients check piece owners with this (they hold only their own
// pieces, not a plan); DegradedLayout::Compute deals chunks with it.
class ChunkOwners {
 public:
  // `dead_servers` are server indices. Dies if the master server (index
  // 0) is among them: it coordinates the re-plan.
  ChunkOwners(int num_servers, const std::vector<int>& dead_servers);

  // The server that owns chunk `chunk_index` under this dead set.
  int OwnerOf(int chunk_index) const;

  const std::vector<bool>& alive() const { return alive_; }

 private:
  std::vector<bool> alive_;
  std::vector<int> survivors_;   // ascending
  std::vector<int> dead_below_;  // per server: dead servers of lower index
};

// The chunk -> server assignment and file framing after removing a set
// of dead servers from an IoPlan. With an empty dead set this is the
// identity layout: owners, offsets and segment sizes equal the plan's.
struct DegradedLayout {
  // Per chunk (parallel to plan.chunks()): owning server index and byte
  // offset of the chunk inside the owner's segment.
  std::vector<int> owner;
  std::vector<std::int64_t> chunk_offset;
  // Per server: chunk indices adopted from dead servers, ascending
  // (empty for dead servers and in the identity layout).
  std::vector<std::vector<int>> adopted;
  // Per server: total segment bytes under this layout (original bytes
  // plus adopted chunks; 0 for dead servers).
  std::vector<std::int64_t> segment_bytes;
  // Per server: liveness under this layout.
  std::vector<bool> alive;
  // True when the dead set was non-empty.
  bool degraded = false;

  std::int64_t SegmentBytes(int server) const {
    return segment_bytes[static_cast<size_t>(server)];
  }

  // Derives the layout for `plan` with `dead_servers` (server *indices*,
  // not ranks) removed. Deterministic: every rank that agrees on the
  // dead set computes byte-identical layouts, and owner[i] is
  // ChunkOwners(...).OwnerOf(i). Dies if the master server (index 0) is
  // dead.
  static DegradedLayout Compute(const IoPlan& plan,
                                const std::vector<int>& dead_servers);
};

// One unit of server-side work under a DegradedLayout: a sub-chunk to
// gather (write) or scatter (read), with its absolute position within
// the owner's segment and its ordinal in the owner's work list (the
// shard-table / journal record index within one segment).
struct WorkItem {
  int chunk_index = 0;            // index into plan.chunks()
  int sub_index = 0;              // index into chunk.subchunks
  std::int64_t file_offset = 0;   // sub-chunk offset inside the segment
  std::int64_t record_ordinal = 0;  // table/journal record slot
};

// Which slice of a server's work list a phase covers.
enum class WorkPhase {
  kFull,         // original chunks then adopted chunks (whole collective)
  kAdoptedOnly,  // only chunks adopted in a failover (recovery phase)
};

// Server `s`'s work list under `layout`: its original chunks (ascending
// id, original offsets) followed by its adopted chunks (ascending id,
// appended offsets), record ordinals running 0.. across both. With the
// identity layout and kFull this reproduces the pre-failover work list
// exactly.
std::vector<WorkItem> BuildServerWork(const IoPlan& plan,
                                      const DegradedLayout& layout, int s,
                                      WorkPhase phase);

// Sub-chunk records per segment for server `s` under `layout` (original
// plus adopted) — the journal's record stride between timestep segments.
std::int64_t RecordsPerSegment(const IoPlan& plan,
                               const DegradedLayout& layout, int s);

// Probes the transport's liveness view for dead i/o-node ranks and
// returns their server *indices*, ascending. This is how participants
// seed their dead set at collective start; deaths mid-collective are
// propagated by the failover protocol instead.
std::vector<int> DeadServerIndices(Endpoint& ep, const World& world);

// The group-metadata attribute recording which server indices were dead
// when a collective committed, so offline tools (panda_fsck) can verify
// against the degraded layout. Value: ascending CSV, e.g. "1,3".
inline constexpr const char* kDeadServersAttr = "__panda.dead_servers";

std::string EncodeDeadServersAttr(const std::vector<int>& dead_servers);
std::vector<int> ParseDeadServersAttr(
    const std::map<std::string, std::string>& attributes);

// The group-metadata attribute versioning the chunk->server layout.
// Bumped whenever a committed collective changes the recorded dead set
// — a failover (servers adopted chunks) or a rejoin repair (chunks
// migrated back) — so clients and offline tools can tell *which*
// layout a group's files are under without diffing dead sets. Absent
// (0) means the identity layout has never changed.
inline constexpr const char* kLayoutEpochAttr = "__panda.layout_epoch";

std::int64_t ParseLayoutEpochAttr(
    const std::map<std::string, std::string>& attributes);

// The group-metadata attribute recording the shard granularity the
// group's segments were written with (ServerOptions::shard_bytes).
// Absent (0) means one unbounded shard per segment; positive means
// segments were cut into shards of about that many bytes (see
// panda/store_io.h). Offline tools derive the whole shard map from this
// one number plus the plan.
inline constexpr const char* kShardBytesAttr = "__panda.shard_bytes";

std::int64_t ParseShardBytesAttr(
    const std::map<std::string, std::string>& attributes);

// One chunk the degraded layout moved off its identity owner: who holds
// it now and who must get it back when the owner rejoins. The offsets
// on both sides are derivable from the two layouts (degraded
// chunk_offset on the adopter, plan file_offset on the owner).
struct RepairItem {
  int chunk_index = 0;
  int from_server = 0;  // adopter under the degraded layout
  int to_server = 0;    // identity owner (the rejoined server)
};

// The inverse of DegradedLayout adoption: every adopted chunk of
// `degraded`, ascending chunk order — the migration list of the repair
// collective (panda/rejoin.h). Deterministic for the same reason the
// layout is.
std::vector<RepairItem> BuildRepairPlan(const IoPlan& plan,
                                        const DegradedLayout& degraded);

}  // namespace panda
