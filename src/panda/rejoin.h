// Server rejoin: repair-on-restart and the rebalance-back collective.
//
// Failover (panda/failover.h) re-homes a dead server's chunks onto the
// survivors and records the dead set in the group metadata. This header
// holds the inverse: when every recorded-dead server is alive again (a
// restarted process announced itself through the kTagRejoin handshake,
// docs/PROTOCOL.md "Rejoin and incarnation fencing"), the master server
// broadcasts a synthetic IoOp::kRepair collective and all servers run
// RepairCollective, which migrates the adopted chunks back and rebuilds
// every segment stream under the identity layout, through the same
// store stage collective writes use (SegmentWriter, panda/store_io.h):
//
//   * A *rejoinee* (a server the committed metadata records dead) first
//     replays its stale write-ahead journal as a diagnostic (records
//     that still parse clean count journal_records_salvaged), then
//     cedes its pre-crash files — the cluster adopted those chunks and
//     has since rewritten them, so the disk contents are stale by
//     definition — and rebuilds its identity-layout files from chunk
//     transfers sent by the adopters. Rebuilt files take their *final*
//     names directly: until the master commits the repaired metadata,
//     the group still records this server dead, so a crash mid-repair
//     leaves nothing that an offline verifier would trust.
//   * An *adopter* (a survivor holding adopted chunks) streams each
//     adopted sub-chunk to its identity owner over kTagRejoin and
//     rewrites its own chunks — whose offsets shift when the segment
//     stride changes back — into a `.repair` staging stream, published
//     over the degraded one only after the closing barrier. Survivors
//     with no adopted chunks already hold identity-layout files and are
//     not touched at all.
//
// The repair is all-or-nothing: a *partial* rejoin (some recorded-dead
// server still down) cannot be re-admitted soundly — the degraded data
// on the survivors and the rejoinee's rebuilt files would disagree
// about the layout — so the master aborts the collective (structured
// abort, never a hang) rather than guess. The torn window between the
// survivors' staged renames and the master's metadata commit is
// detectable offline: repaired journals carry the new layout epoch in
// their headers, and `panda_fsck --verify_journal` flags a journal
// whose epoch is ahead of the committed metadata's.
//
// Transfer order is canonical on both sides — array ascending, purpose
// in [general, timestep, checkpoint], segment ascending, chunk
// ascending, sub-chunk ascending — so each (adopter, rejoinee) pair's
// traffic is a FIFO subsequence of a shared global order and the
// directed receives cannot deadlock (adopters only send, rejoinees
// only receive).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "iosim/file_system.h"
#include "panda/plan_cache.h"
#include "panda/protocol.h"
#include "panda/runtime.h"
#include "panda/schema_io.h"
#include "panda/server.h"
#include "sp2/params.h"

namespace panda {

// Attributes of a synthetic kRepair request (set by BuildRepairRequest,
// consumed by RepairCollective on every server).
//
// The dead-server set the data currently on disk was committed under
// (ascending CSV of server indices) — the layout being repaired *from*.
inline constexpr const char* kRepairPrevDeadAttr = "__panda.repair_prev_dead";
// The layout epoch the repaired files belong to (the committed epoch
// plus one); rebuilt journals carry it in their headers.
inline constexpr const char* kRepairEpochAttr = "__panda.repair_epoch";
// CSV of array indices (into the request's array list) that have
// general-purpose data files to repair. Derived from the master's own
// disk — every general collective creates a (possibly empty) file on
// each live server, so existence on the master is the global truth.
inline constexpr const char* kRepairGeneralAttr = "__panda.repair_general";
// The committed checkpoint's timestep (-1: no checkpoint). Selects
// whether checkpoint files are repaired and the GC base of rebuilt
// timestep journals (records below checkpoint_seq * records_per_segment
// stay garbage-collected).
inline constexpr const char* kRepairCheckpointSeqAttr =
    "__panda.repair_checkpoint_seq";

// Builds the synthetic repair request from the committed group
// metadata. `prev_dead` is the recorded dead set (server indices) and
// `new_epoch` the epoch the repair commits; `master_fs` is probed for
// general-purpose files. The client window is carried through from the
// triggering request so abort relays reach the right application.
CollectiveRequest BuildRepairRequest(FileSystem& master_fs,
                                     const GroupMeta& meta,
                                     const std::string& meta_file,
                                     const std::vector<int>& prev_dead,
                                     std::int64_t new_epoch, int first_client,
                                     int num_clients);

// Runs one server's share of the repair collective (every live server
// must call with the same request; the master additionally rewrites the
// group metadata afterwards — see server.cc). Requires real data
// (timing-only runs cannot move bytes back).
void RepairCollective(Endpoint& ep, FileSystem& fs, const World& world,
                      const Sp2Params& params, const CollectiveRequest& req,
                      const ServerOptions& options, PlanCache* plan_cache);

}  // namespace panda
