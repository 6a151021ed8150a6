// Failover demo: kill one i/o node mid-write under a lossy wire.
//
// Four compute nodes stream two timesteps of a 128x128 double array to
// three i/o nodes, checkpoint, and restart — while the wire drops,
// duplicates and reorders messages, and i/o node 1 is crash-stopped a
// few sends into the first collective. The survivors detect the death
// via expired heartbeat leases, adopt the dead node's chunks (appended
// past their own file segments), and finish the write in degraded
// mode; every later collective runs on the two survivors. All reads
// are verified bit-exact against what was written.
//
// The output directory is real (PosixFileSystem), so the offline
// checker can audit the degraded group afterwards:
//
//   ./examples/failover_demo [--dir=PATH] [--backend=posix|objectstore]
//   ./examples/panda_fsck --root=PATH --io_nodes=3 --schema=demo.schema
//       --subchunk_bytes=8192 --verify --verify_journal
//
// fsck reads the `__panda.dead_servers` attribute from demo.schema,
// skips the dead node's stale files as lost, and verifies the
// survivors' files — adopted chunks included — against the CRC32C
// records in their shard tables and their write-ahead journals.
//
// --backend=objectstore reruns the same fault script against simulated
// i/o nodes fronting an object store (src/iosim/object_store.h): data
// moves through the sharded chunk store (src/store/) as whole-object
// PUT/GET shards, sized by AdviseShardSize, and the degraded group is
// audited in-process with VerifyGroupSegments instead of offline fsck.
#include <cstdio>
#include <cstring>

#include "panda/panda.h"
#include "trace/export.h"
#include "util/options.h"
#include "util/units.h"

using namespace panda;

namespace {

// Row-major global offset of index `idx` in an array of shape `shape`.
std::int64_t OffsetOf(const Shape& shape, const Index& idx) {
  std::int64_t offset = 0;
  for (int d = 0; d < shape.rank(); ++d) {
    offset = offset * shape[d] + idx[d];
  }
  return offset;
}

// Coordinate-derived fill so every element's value is independent of
// which rank held it or which i/o node stored it.
void Fill(Array& array, double salt) {
  auto data = array.local_as<double>();
  const Region& cell = array.local_region();
  Index off = Index::Zeros(cell.rank());
  Shape ext = cell.extent();
  size_t n = 0;
  do {
    Index g = cell.lo();
    for (int d = 0; d < cell.rank(); ++d) g[d] += off[d];
    data[n++] = salt * 1e6 + static_cast<double>(OffsetOf(array.shape(), g));
  } while (NextIndexRowMajor(ext, off));
}

std::int64_t Mismatches(Array& array, double salt) {
  auto data = array.local_as<double>();
  const Region& cell = array.local_region();
  Index off = Index::Zeros(cell.rank());
  Shape ext = cell.extent();
  size_t n = 0;
  std::int64_t bad = 0;
  do {
    Index g = cell.lo();
    for (int d = 0; d < cell.rank(); ++d) g[d] += off[d];
    const double want =
        salt * 1e6 + static_cast<double>(OffsetOf(array.shape(), g));
    if (data[n++] != want) ++bad;
  } while (NextIndexRowMajor(ext, off));
  return bad;
}

int Run(int argc, char** argv) {
  Options opts(argc, argv);
  const std::string dir = opts.GetString("dir", "panda_failover_data");
  // Observability outputs (docs/OBSERVABILITY.md): Chrome trace_event
  // JSON and merged metrics JSON of the whole faulty run.
  const std::string trace_out = opts.GetString("trace_out", "");
  const std::string metrics_out = opts.GetString("metrics_out", "");
  const std::string backend = opts.GetString("backend", "posix");
  opts.CheckAllConsumed();
  PANDA_REQUIRE(backend == "posix" || backend == "objectstore",
                "--backend must be posix or objectstore, got '%s'",
                backend.c_str());
  const bool object_store = backend == "objectstore";

  const int kClients = 4;
  const int kServers = 3;
  const World world{kClients, kServers};

  Sp2Params params = Sp2Params::Nas();
  params.subchunk_bytes = 8192;  // several piece rounds per chunk
  Machine machine =
      object_store
          ? Machine::SimulatedObjectStore(kClients, kServers, params,
                                          ObjectStoreModel{},
                                          /*store_data=*/true,
                                          /*timing_only=*/false)
          : Machine::WithPosixFs(kClients, kServers, params, dir);

  // A bounded adversary on every link: 5% of messages dropped, 5%
  // duplicated, 5% delivered out of order. The reliable-delivery layer
  // (sequence numbers + receiver-driven retransmission) hides all of it.
  LossSpec loss;
  loss.seed = 2026;
  loss.drop_prob = 0.05;
  loss.dup_prob = 0.05;
  loss.reorder_prob = 0.05;
  machine.SetLoss(loss);

  // Heartbeat leases: a peer that misses 3 beats at 10 ms is declared
  // dead, and every rank blocked on it unwinds with PeerDeadError.
  machine.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});

  // The fault: i/o node 1 crash-stops at its 4th send after arming —
  // mid-gather of its first chunk of timestep 0.
  machine.KillServerAfterSends(/*server_index=*/1, /*after_more_sends=*/3);

  if (!trace_out.empty() || !metrics_out.empty()) machine.EnableTrace();

  ServerOptions options;
  options.failover = true;        // degraded-mode re-planning armed
  options.disk_checksums = true;  // CRC32C in every shard-table record
  options.journal = true;         // write-ahead chunk journal (F.wal)
  options.robustness = &machine.robustness();
  if (object_store) {
    // 128x128 doubles over 3 i/o nodes: size shards for whole-object
    // PUT round trips rather than the posix default flat layout.
    const std::int64_t segment_est = 128 * 128 * 8 / kServers;
    options.backend = store::StoreBackend::kObjectStore;
    options.shard_bytes = AdviseShardSize(store::StoreBackend::kObjectStore,
                                          segment_est, params.subchunk_bytes);
  }

  std::int64_t mismatches = 0;
  machine.Run(
      [&](Endpoint& ep, int client_index) {
        ArrayLayout memory("m", {2, 2});
        Array state("state", {128, 128}, sizeof(double), memory,
                    {BLOCK, BLOCK}, memory, {BLOCK, BLOCK});
        state.BindClient(client_index);
        PandaClient client(ep, world, machine.params());
        client.set_robustness(&machine.robustness());
        client.set_failover(true);
        ArrayGroup group("demo", "demo.schema");
        group.Include(&state);

        Fill(state, 1);
        group.Timestep(client);  // i/o node 1 dies inside this one
        Fill(state, 2);
        group.Timestep(client);  // degraded from the start
        Fill(state, 7);
        group.Checkpoint(client);

        Fill(state, 999);  // scribble, then restore from the checkpoint
        group.Restart(client);
        mismatches += Mismatches(state, 7);
        group.ReadTimestep(client, 0);
        mismatches += Mismatches(state, 1);
        group.ReadTimestep(client, 1);
        mismatches += Mismatches(state, 2);

        if (client_index == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int server_index) {
        ServerMain(ep, machine.server_fs(server_index), world,
                   machine.params(), options);
      });

  const MachineReport report = Snapshot(machine);
  if (!trace_out.empty()) {
    PANDA_REQUIRE(trace::WriteTextFile(trace_out, MachineTraceJson(machine)),
                  "cannot write trace '%s'", trace_out.c_str());
    std::printf("# wrote %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    PANDA_REQUIRE(
        trace::WriteTextFile(metrics_out, trace::MetricsJson(report.metrics)),
        "cannot write metrics '%s'", metrics_out.c_str());
    std::printf("# wrote %s\n", metrics_out.c_str());
  }
  const GroupMeta meta = ReadGroupMeta(machine.server_fs(0), "demo.schema");
  const std::vector<int> dead = ParseDeadServersAttr(meta.attributes);
  std::string dead_csv;
  for (const int s : dead) {
    if (!dead_csv.empty()) dead_csv += ",";
    dead_csv += std::to_string(s);
  }

  std::printf("failover demo: %d compute nodes, %d i/o nodes, lossy wire\n",
              kClients, kServers);
  std::printf(
      "  wire faults injected: %lld drops, %lld dups, %lld reorders "
      "(all healed: %lld retransmits, %lld dups suppressed)\n",
      static_cast<long long>(report.transport.drops_injected),
      static_cast<long long>(report.transport.dups_injected),
      static_cast<long long>(report.transport.reorders_injected),
      static_cast<long long>(report.transport.retransmits),
      static_cast<long long>(report.transport.dups_suppressed));
  std::printf(
      "  crash-stop: %lld i/o node(s) killed, %lld peer(s) declared dead "
      "by heartbeat lease\n",
      static_cast<long long>(report.transport.ranks_killed),
      static_cast<long long>(report.transport.peers_declared_dead));
  std::printf(
      "  failover: %lld re-plan(s) committed, %lld chunk(s) adopted by "
      "survivors, %lld journal records written\n",
      static_cast<long long>(report.robustness.failovers_completed),
      static_cast<long long>(report.robustness.chunks_adopted),
      static_cast<long long>(report.robustness.journal_records_written));
  std::printf("  demo.schema records dead i/o node(s): {%s}\n",
              dead_csv.c_str());
  std::printf("  restart + 2 timestep reads: %s\n",
              mismatches == 0 ? "bit-exact" : "MISMATCH");

  bool shards_clean = true;
  if (object_store) {
    // The object store is simulated in-memory, so the shard audit runs
    // in-process instead of via offline fsck.
    std::vector<FileSystem*> fs_ptrs;
    for (int s = 0; s < kServers; ++s) fs_ptrs.push_back(&machine.server_fs(s));
    std::string log;
    const SegmentReport shard_report = VerifyGroupSegments(
        fs_ptrs, meta, params.subchunk_bytes, /*read_data=*/true, &log);
    if (!log.empty()) std::printf("%s", log.c_str());
    std::printf(
        "  shard audit (object store, %s shards): %lld shard files, %lld "
        "sub-chunks, %s\n",
        FormatBytes(ParseShardBytesAttr(meta.attributes)).c_str(),
        static_cast<long long>(shard_report.files_checked),
        static_cast<long long>(shard_report.subchunks_checked),
        shard_report.Clean() ? "clean" : "CORRUPT");
    shards_clean = shard_report.Clean() && shard_report.subchunks_checked > 0;
  } else {
    std::printf(
        "audit the degraded directory offline with:\n"
        "  ./examples/panda_fsck --root=%s --io_nodes=%d --schema=demo.schema "
        "--subchunk_bytes=%lld --verify --verify_journal\n",
        dir.c_str(), kServers,
        static_cast<long long>(params.subchunk_bytes));
  }

  const bool ok = mismatches == 0 && dead == std::vector<int>{1} &&
                  report.robustness.failovers_completed >= 1 &&
                  report.robustness.chunks_adopted > 0 &&
                  report.robustness.collectives_aborted == 0 &&
                  report.transport.ranks_killed == 1 && shards_clean;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
