// The Panda server: one per i/o node.
//
// A server loops on collective requests. For each write collective it
// assembles its round-robin-assigned chunks sub-chunk by sub-chunk,
// *pulling* pieces from the clients that hold them, and writes each
// assembled sub-chunk sequentially to its local file system — this is
// server-directed i/o. Reads run the mirror protocol: sequential reads
// from disk, pieces pushed to clients.
#pragma once

#include "iosim/file_system.h"
#include "iosim/retry.h"
#include "msg/transport.h"
#include "panda/plan.h"
#include "panda/plan_cache.h"
#include "panda/protocol.h"
#include "panda/runtime.h"
#include "sp2/params.h"
#include "store/shard_store.h"

namespace panda {

struct ServerOptions {
  // When true, disk writes are overlapped with gathering the next
  // sub-chunk (write-behind). The paper's Figure 9 discussion names
  // non-blocking rearrangement as future work; this implements the
  // disk half of that overlap as an ablation toggle.
  bool overlap_io = false;
  // When true, the server requests sub-chunk n+1's pieces before
  // receiving sub-chunk n's data (one sub-chunk of lookahead, one extra
  // buffer), overlapping the clients' packing and the request round
  // trip with the current gather/write — the communication half of the
  // paper's "non-blocking communication" suggestion. Write path only.
  bool pipeline_requests = false;
  // Number of applications sharing these i/o nodes (mixed workloads,
  // paper §5). The server loop exits after this many shutdown requests.
  int num_applications = 1;
  // Bounded retry of *transient* disk faults (EIO, torn writes — see
  // iosim/faulty_fs.h). Every disk operation the server issues (open,
  // per-sub-chunk read/write, fsync, checkpoint rename) runs under this
  // policy; backoff is charged to the rank's virtual clock. Permanent
  // faults (or an exhausted budget) escape into the structured abort
  // protocol (docs/PROTOCOL.md).
  RetryPolicy retry;
  // End-to-end on-disk checksums: every sub-chunk's CRC32C (over its
  // decoded bytes) goes into its shard-table record, and read
  // collectives verify sub-chunks whose record carries one (one re-read
  // of record and slot before declaring corruption; docs/PROTOCOL.md
  // "On-disk layout"). Opt-in: the table costs one extra write per shard
  // on write and two extra reads per shard on read, which the timing
  // studies do not pay. Requires real data (ignored in timing-only
  // runs); segments written without checksums read back unverified.
  bool disk_checksums = false;
  // Maintain a write-ahead chunk journal (`F.wal`, see panda/journal.h):
  // one commit record per sub-chunk, appended after its data write and
  // fsynced at chunk completion, so after a crash the journal names
  // exactly the durable chunks. Opt-in for the same reason as
  // disk_checksums; requires real data (ignored in timing-only runs).
  bool journal = false;
  // Crash-stop failover (docs/PROTOCOL.md "Failover and degraded
  // mode"): the master server runs the linear gather/decision protocol
  // instead of tree collectives, detects crash-stopped servers at the
  // completion gather, and re-plans their chunks over the survivors
  // (panda/failover.h). Requires failover-mode clients
  // (PandaClient::set_failover). Opt-in: the linear protocol changes
  // the message counts and timing of clean runs.
  bool failover = false;
  // Robustness accounting sink (may be null: counting is skipped).
  RobustnessStats* robustness = nullptr;
  // Shard granularity of the on-disk layout (src/store/, panda/
  // store_io.h): each segment is cut into `F.shard.N` files of about
  // this many data bytes. 0 is the unbounded case — one shard per
  // segment, whose data region is the classic flat per-server file.
  // A positive value is recorded in the group metadata
  // (`__panda.shard_bytes`) so readers, fsck and repair re-derive the
  // identical shard map. AdviseShardSize (panda/advisor.h) picks a
  // value from the backend's cost model.
  std::int64_t shard_bytes = 0;
  // Which storage device shard traffic is shaped for: kPosix writes
  // sub-chunks in place, kObjectStore buffers whole shards and PUTs
  // them once (no partial overwrite on an object store).
  store::StoreBackend backend = store::StoreBackend::kPosix;
};

// Runs the server loop on an i/o-node rank until a shutdown request
// arrives. `fs` is this node's local file system.
void ServerMain(Endpoint& ep, FileSystem& fs, const World& world,
                const Sp2Params& params, ServerOptions options = {});

// Executes a single collective on the server side (exposed for tests
// that drive one operation without the loop). `plan_cache` may be null.
void ServerExecute(Endpoint& ep, FileSystem& fs, const World& world,
                   const Sp2Params& params, const CollectiveRequest& req,
                   ServerOptions options = {}, PlanCache* plan_cache = nullptr);

}  // namespace panda
