// Crash-stop server failover: degraded-layout unit tests, then cluster
// soaks — kill one i/o node mid-write (with and without a lossy wire)
// and require the collective to complete on the survivors, read back
// bit-exactly, restart from its checkpoint, and verify offline against
// table CRCs and journals under the recorded dead-server set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "test_harness.h"
#include "util/random.h"

namespace panda {
namespace {

using test::FillPattern;
using test::VerifyPattern;

ArrayMeta SmallMeta() {
  ArrayMeta meta;
  meta.name = "field";
  meta.elem_size = 8;
  meta.memory = Schema({32, 32}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = meta.memory;
  return meta;
}

// ---------------------------------------------------------------------
// DegradedLayout

TEST(DegradedLayoutTest, EmptyDeadSetIsTheIdentityLayout) {
  const IoPlan plan(SmallMeta(), 3, 256);
  const DegradedLayout layout = DegradedLayout::Compute(plan, {});
  EXPECT_FALSE(layout.degraded);
  for (int s = 0; s < 3; ++s) {
    EXPECT_TRUE(layout.alive[static_cast<size_t>(s)]);
    EXPECT_EQ(layout.SegmentBytes(s), plan.SegmentBytes(s));
    EXPECT_TRUE(layout.adopted[static_cast<size_t>(s)].empty());
  }
  for (size_t ci = 0; ci < plan.chunks().size(); ++ci) {
    EXPECT_EQ(layout.owner[ci], plan.chunks()[ci].server);
    EXPECT_EQ(layout.chunk_offset[ci], plan.chunks()[ci].file_offset);
  }
}

TEST(DegradedLayoutTest, DeadChunksAppendPastSurvivorSegments) {
  const IoPlan plan(SmallMeta(), 3, 256);
  const DegradedLayout layout = DegradedLayout::Compute(plan, {1});
  EXPECT_TRUE(layout.degraded);
  EXPECT_FALSE(layout.alive[1]);
  EXPECT_EQ(layout.SegmentBytes(1), 0);

  std::int64_t adopted_total = 0;
  for (size_t ci = 0; ci < plan.chunks().size(); ++ci) {
    const ChunkPlan& cp = plan.chunks()[ci];
    if (cp.server != 1) {
      // Survivor chunks keep their owner and their file offset: data
      // already on a survivor's disk stays where it is.
      EXPECT_EQ(layout.owner[ci], cp.server);
      EXPECT_EQ(layout.chunk_offset[ci], cp.file_offset);
    } else {
      // Dead-owned chunks move to a survivor, appended past its
      // original segment.
      const int adopter = layout.owner[ci];
      EXPECT_NE(adopter, 1);
      EXPECT_TRUE(layout.alive[static_cast<size_t>(adopter)]);
      EXPECT_GE(layout.chunk_offset[ci], plan.SegmentBytes(adopter));
      adopted_total += cp.bytes;
    }
  }
  EXPECT_EQ(adopted_total, plan.SegmentBytes(1));
  // No bytes are lost: survivor segments grew by exactly the dead
  // server's segment.
  std::int64_t grown = 0;
  for (const int s : {0, 2}) grown += layout.SegmentBytes(s);
  EXPECT_EQ(grown, plan.SegmentBytes(0) + plan.SegmentBytes(1) +
                       plan.SegmentBytes(2));
}

TEST(DegradedLayoutTest, WorkListSplitsIntoOwnThenAdopted) {
  const IoPlan plan(SmallMeta(), 3, 256);
  const DegradedLayout layout = DegradedLayout::Compute(plan, {1});
  for (const int s : {0, 2}) {
    const auto full = BuildServerWork(plan, layout, s, WorkPhase::kFull);
    const auto adopted =
        BuildServerWork(plan, layout, s, WorkPhase::kAdoptedOnly);
    ASSERT_LE(adopted.size(), full.size());
    // The adopted slice is exactly the tail of the full list — record
    // ordinals included, so table/journal slots agree across phases.
    const size_t own = full.size() - adopted.size();
    for (size_t k = 0; k < adopted.size(); ++k) {
      EXPECT_EQ(adopted[k].chunk_index, full[own + k].chunk_index);
      EXPECT_EQ(adopted[k].sub_index, full[own + k].sub_index);
      EXPECT_EQ(adopted[k].file_offset, full[own + k].file_offset);
      EXPECT_EQ(adopted[k].record_ordinal, full[own + k].record_ordinal);
    }
    // Ordinals are dense 0..n-1 and offsets stay within the segment.
    for (size_t k = 0; k < full.size(); ++k) {
      EXPECT_EQ(full[k].record_ordinal, static_cast<std::int64_t>(k));
      EXPECT_LT(full[k].file_offset, layout.SegmentBytes(s));
    }
    EXPECT_EQ(RecordsPerSegment(plan, layout, s),
              static_cast<std::int64_t>(full.size()));
  }
  EXPECT_TRUE(BuildServerWork(plan, layout, 1, WorkPhase::kFull).empty());
}

TEST(DegradedLayoutTest, MasterServerDeathIsFatal) {
  const IoPlan plan(SmallMeta(), 3, 256);
  EXPECT_THROW((void)DegradedLayout::Compute(plan, {0}), PandaError);
}

TEST(DegradedLayoutTest, PlanFreeOwnersMatchTheLayout) {
  // Clients check piece owners without a plan. Their rule must deal
  // dead-owned chunks exactly as the layout does: round-robin over the
  // ascending survivors, in ascending chunk order.
  Rng rng(0x0A1E);
  for (int iter = 0; iter < 200; ++iter) {
    const int num_servers = 1 + static_cast<int>(rng.NextBelow(6));
    std::vector<int> dead;
    for (int s = 1; s < num_servers; ++s) {
      if (rng.NextBelow(3) == 0) dead.push_back(s);
    }
    ArrayMeta meta = SmallMeta();
    const std::int64_t rows = 1 + static_cast<std::int64_t>(rng.NextBelow(9));
    meta.disk = Schema({32, 32}, Mesh(Shape{rows, 2}), {BLOCK, CYCLIC(3)});
    const IoPlan plan(meta, num_servers, 256);
    const DegradedLayout layout = DegradedLayout::Compute(plan, dead);
    const ChunkOwners owners(num_servers, dead);

    std::vector<int> survivors;
    for (int s = 0; s < num_servers; ++s) {
      if (std::find(dead.begin(), dead.end(), s) == dead.end()) {
        survivors.push_back(s);
      }
    }
    size_t dealt = 0;
    for (size_t ci = 0; ci < plan.chunks().size(); ++ci) {
      const int identity = plan.chunks()[ci].server;
      const bool lost =
          std::find(dead.begin(), dead.end(), identity) != dead.end();
      const int want = lost ? survivors[dealt++ % survivors.size()] : identity;
      ASSERT_EQ(owners.OwnerOf(static_cast<int>(ci)), want)
          << "chunk " << ci << " of " << num_servers << " servers";
      ASSERT_EQ(layout.owner[ci], want);
    }
  }
  EXPECT_THROW(ChunkOwners(3, {2, 0}), PandaError);
}

TEST(DegradedLayoutTest, DeadServersAttrRoundTrips) {
  EXPECT_EQ(EncodeDeadServersAttr({2, 1}), "1,2");
  std::map<std::string, std::string> attrs;
  EXPECT_TRUE(ParseDeadServersAttr(attrs).empty());
  attrs[kDeadServersAttr] = "1,2";
  EXPECT_EQ(ParseDeadServersAttr(attrs), (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------
// Cluster failover

// Runs a failover-mode cluster: every client in failover mode, every
// server with the failover/journal/checksum options on.
void RunFailoverCluster(Machine& machine,
                        const std::function<void(PandaClient&, int)>& app) {
  const World world{machine.num_clients(), machine.num_servers()};
  ServerOptions options;
  options.failover = true;
  options.disk_checksums = true;
  options.journal = true;
  options.robustness = &machine.robustness();
  machine.Run(
      [&](Endpoint& ep, int client_index) {
        PandaClient client(ep, world, machine.params());
        client.set_robustness(&machine.robustness());
        client.set_failover(true);
        app(client, client_index);
        if (client_index == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int server_index) {
        ServerMain(ep, machine.server_fs(server_index), world,
                   machine.params(), options);
      });
}

Machine SmallMachine(int clients, int servers) {
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 256;
  return Machine::Simulated(clients, servers, params, /*store_data=*/true,
                            /*timing_only=*/false);
}

TEST(FailoverTest, CleanRunLeavesEveryFaultCounterZero) {
  // Failover mode armed, nothing killed: the collective completes with
  // no failovers, no adopted chunks, no transport faults — the
  // machinery must be invisible until it is needed.
  Machine machine = SmallMachine(4, 3);
  machine.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
  ArrayLayout memory("m", {2, 2});
  RunFailoverCluster(machine, [&](PandaClient& client, int idx) {
    Array a("field", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
            {BLOCK, BLOCK});
    a.BindClient(idx);
    FillPattern(a, 5);
    client.WriteArray(a);
    std::memset(a.local_data().data(), 0, a.local_data().size());
    client.ReadArray(a);
    VerifyPattern(a, 5);
  });
  const RobustnessCounters counters = machine.robustness().Snapshot();
  EXPECT_EQ(counters.failovers_completed, 0);
  EXPECT_EQ(counters.chunks_adopted, 0);
  EXPECT_EQ(counters.collectives_aborted, 0);
  EXPECT_GT(counters.journal_records_written, 0);  // journaling was on
  EXPECT_TRUE(machine.fault_stats().Snapshot().AllZero());
}

TEST(FailoverTest, KilledServerMidWriteFailsOverAndReadsBackExact) {
  Machine machine = SmallMachine(4, 3);
  machine.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
  // Server 1 crash-stops at its 4th send: mid-gather of its first chunk.
  machine.KillServerAfterSends(/*server_index=*/1, /*after_more_sends=*/3);
  ArrayLayout memory("m", {2, 2});
  RunFailoverCluster(machine, [&](PandaClient& client, int idx) {
    Array a("field", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
            {BLOCK, BLOCK});
    a.BindClient(idx);
    FillPattern(a, 77);
    client.WriteArray(a);
    // The dead set is now {1}; the degraded read must reassemble the
    // full array from the two survivors, adopted chunks included.
    std::memset(a.local_data().data(), 0, a.local_data().size());
    client.ReadArray(a);
    VerifyPattern(a, 77);
  });

  const RobustnessCounters counters = machine.robustness().Snapshot();
  EXPECT_GE(counters.failovers_completed, 1);
  EXPECT_GT(counters.chunks_adopted, 0);
  EXPECT_EQ(counters.collectives_aborted, 0);
  const TransportFaultCounters faults = machine.fault_stats().Snapshot();
  EXPECT_EQ(faults.ranks_killed, 1);
  EXPECT_GE(faults.peers_declared_dead, 1);

  // Offline verification under the degraded layout: the survivors'
  // table CRCs and journals are complete and correct; server 1's stale
  // file is skipped as lost.
  FileSystem* fs[] = {&machine.server_fs(0), &machine.server_fs(1),
                      &machine.server_fs(2)};
  const ArrayMeta meta = SmallMeta();
  std::string log;
  const SegmentReport crcs = VerifyArraySegments(
      fs, meta, 256, Purpose::kGeneral, 1, "", /*shard_bytes=*/0,
      /*read_data=*/true, &log, /*dead_servers=*/{1});
  EXPECT_TRUE(crcs.Clean()) << log;
  EXPECT_GT(crcs.subchunks_checked, 0);
  log.clear();
  const JournalReport wal =
      VerifyArrayJournal(fs, meta, /*array_index=*/0, 256, Purpose::kGeneral,
                         1, "", /*dead_servers=*/{1}, &log);
  EXPECT_TRUE(wal.Clean()) << log;
  EXPECT_GT(wal.records_checked, 0);
}

TEST(FailoverTest, SoakKillUnderLossyWireWithCheckpointRestart) {
  // The issue's acceptance scenario: one of three i/o nodes is killed
  // mid-write while the wire drops/duplicates/reorders messages. The
  // timestep stream, the checkpoint and the restart must all complete
  // on the survivors; every read must be bit-exact; offline checksum and
  // journal verification must pass under the recorded dead-server set.
  Machine machine = SmallMachine(4, 3);
  LossSpec loss;
  loss.seed = 42;
  loss.drop_prob = 0.05;
  loss.dup_prob = 0.05;
  loss.reorder_prob = 0.05;
  machine.SetLoss(loss);
  machine.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
  machine.KillServerAfterSends(/*server_index=*/2, /*after_more_sends=*/5);

  ArrayLayout memory("m", {2, 2});
  RunFailoverCluster(machine, [&](PandaClient& client, int idx) {
    Array a("state", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
            {BLOCK, BLOCK});
    a.BindClient(idx);
    ArrayGroup group("soak", "soak.schema");
    group.Include(&a);

    FillPattern(a, 100);
    group.Timestep(client);  // server 2 dies inside this collective
    FillPattern(a, 101);
    group.Timestep(client);  // degraded from the start
    FillPattern(a, 500);
    group.Checkpoint(client);
    FillPattern(a, 999);  // scribble, then restore
    group.Restart(client);
    VerifyPattern(a, 500);
    group.ReadTimestep(client, 0);
    VerifyPattern(a, 100);
    group.ReadTimestep(client, 1);
    VerifyPattern(a, 101);
  });

  const RobustnessCounters counters = machine.robustness().Snapshot();
  EXPECT_GE(counters.failovers_completed, 1);
  EXPECT_GT(counters.chunks_adopted, 0);
  EXPECT_EQ(counters.collectives_aborted, 0);
  EXPECT_GT(counters.journal_records_written, 0);
  const TransportFaultCounters faults = machine.fault_stats().Snapshot();
  EXPECT_EQ(faults.ranks_killed, 1);
  EXPECT_GT(faults.drops_injected, 0);
  EXPECT_EQ(faults.retransmits, faults.drops_injected);

  // The committed metadata records the dead set...
  const GroupMeta meta = ReadGroupMeta(machine.server_fs(0), "soak.schema");
  ASSERT_EQ(ParseDeadServersAttr(meta.attributes), (std::vector<int>{2}));

  // ...and offline verification under it is clean: table CRCs,
  // journals, and the degraded segment framing all agree.
  FileSystem* fs[] = {&machine.server_fs(0), &machine.server_fs(1),
                      &machine.server_fs(2)};
  std::string log;
  const SegmentReport crcs =
      VerifyGroupSegments(fs, meta, 256, /*read_data=*/true, &log);
  EXPECT_TRUE(crcs.Clean()) << log;
  EXPECT_GT(crcs.subchunks_checked, 0);
  EXPECT_EQ(crcs.subchunks_verified, crcs.subchunks_checked);
  log.clear();
  const JournalReport wal = VerifyGroupJournal(fs, meta, 256, &log);
  EXPECT_TRUE(wal.Clean()) << log;
  EXPECT_GT(wal.records_checked, 0);
  EXPECT_EQ(wal.files_without_journal, 0);
}

// ---------------------------------------------------------------------
// Rejoin: restart the dead node, repair, and serve full-set collectives

std::vector<std::byte> ReadAllBytes(FileSystem& fs, const std::string& name) {
  std::unique_ptr<File> file = fs.Open(name, OpenMode::kRead);
  std::vector<std::byte> bytes(static_cast<size_t>(file->Size()));
  file->ReadAt(0, bytes, static_cast<std::int64_t>(bytes.size()));
  return bytes;
}

TEST(FailoverTest, RejoinRestoresIdentityLayoutBitExact) {
  // The issue's end-to-end acceptance scenario. Machine A: kill server 1
  // mid-write, commit a degraded timestep + checkpoint, restart the
  // cluster with server 1 revived, and run one more timestep +
  // checkpoint over the repaired full server set. Machine B: the same
  // history with no failure at all. The committed segment files must be
  // BYTE-identical between the two — repair put every chunk back where
  // the identity layout wants it, checksums included.
  const auto app_run1 = [](PandaClient& client, int idx) {
    ArrayLayout memory("m", {2, 2});
    Array a("state", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
            {BLOCK, BLOCK});
    a.BindClient(idx);
    ArrayGroup group("rejoin", "rejoin.schema");
    group.Include(&a);
    FillPattern(a, 100);
    group.Timestep(client);
    FillPattern(a, 500);
    group.Checkpoint(client);
  };
  const auto app_run2 = [](PandaClient& client, int idx) {
    ArrayLayout memory("m", {2, 2});
    Array a("state", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
            {BLOCK, BLOCK});
    a.BindClient(idx);
    ArrayGroup group("rejoin", "rejoin.schema");
    group.Include(&a);
    ASSERT_TRUE(group.Resume(client));
    FillPattern(a, 101);
    group.Timestep(client);
    FillPattern(a, 501);
    group.Checkpoint(client);
    // Full round trip over the restored layout: the checkpoint and both
    // timesteps read back bit-exactly on the full server set.
    FillPattern(a, 999);
    group.Restart(client);
    VerifyPattern(a, 501);
    group.ReadTimestep(client, 0);
    VerifyPattern(a, 100);
    group.ReadTimestep(client, 1);
    VerifyPattern(a, 101);
  };

  Machine failed = SmallMachine(4, 3);
  failed.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
  failed.KillServerAfterSends(/*server_index=*/1, /*after_more_sends=*/3);
  RunFailoverCluster(failed, app_run1);
  {
    const GroupMeta meta = ReadGroupMeta(failed.server_fs(0), "rejoin.schema");
    ASSERT_EQ(ParseDeadServersAttr(meta.attributes), (std::vector<int>{1}));
    EXPECT_EQ(ParseLayoutEpochAttr(meta.attributes), 1);
  }
  failed.ResetForRecovery();
  failed.RestartServer(1);
  RunFailoverCluster(failed, app_run2);

  Machine reference = SmallMachine(4, 3);
  reference.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
  RunFailoverCluster(reference, app_run1);
  reference.ResetForRecovery();
  RunFailoverCluster(reference, app_run2);

  // The repair ran exactly once and moved data back.
  const RobustnessCounters counters = failed.robustness().Snapshot();
  EXPECT_EQ(counters.rejoins_completed, 1);
  EXPECT_GT(counters.chunks_restored, 0);
  EXPECT_GE(counters.failovers_completed, 1);
  EXPECT_EQ(counters.collectives_aborted, 0);
  EXPECT_GE(counters.journal_gc_truncations, 1);  // checkpoint-time GC
  EXPECT_EQ(failed.fault_stats().Snapshot().ranks_revived, 1);

  // Membership: the dead set is cleared and the layout epoch counts
  // both generation changes (failover, then repair).
  const GroupMeta meta = ReadGroupMeta(failed.server_fs(0), "rejoin.schema");
  EXPECT_TRUE(ParseDeadServersAttr(meta.attributes).empty());
  EXPECT_EQ(ParseLayoutEpochAttr(meta.attributes), 2);

  // Byte identity with the never-failed run: every segment file (data
  // plus the table carrying its CRCs), every server, both purposes.
  // (Journals record different histories by design; they are verified
  // semantically below.)
  for (int s = 0; s < 3; ++s) {
    for (const Purpose purpose : {Purpose::kTimestep, Purpose::kCheckpoint}) {
      const std::string data = DataFileName("rejoin", "state", purpose, s);
      const StreamFiles want = ListStreamFiles(reference.server_fs(s), data);
      ASSERT_FALSE(want.shards.empty()) << data;
      ASSERT_EQ(ListStreamFiles(failed.server_fs(s), data).shards,
                want.shards)
          << data;
      for (const std::string& shard : want.shards) {
        EXPECT_EQ(ReadAllBytes(failed.server_fs(s), shard),
                  ReadAllBytes(reference.server_fs(s), shard))
            << "server " << s << " " << shard;
      }
    }
  }

  // Offline verification under the repaired (identity) layout.
  FileSystem* fs[] = {&failed.server_fs(0), &failed.server_fs(1),
                      &failed.server_fs(2)};
  std::string log;
  const SegmentReport crcs =
      VerifyGroupSegments(fs, meta, 256, /*read_data=*/true, &log);
  EXPECT_TRUE(crcs.Clean()) << log;
  EXPECT_GT(crcs.subchunks_checked, 0);
  log.clear();
  const JournalReport wal = VerifyGroupJournal(fs, meta, 256, &log);
  EXPECT_TRUE(wal.Clean()) << log;

  // Epoch fencing in the offline verifier: forge one journal header to
  // claim a layout generation AHEAD of the committed metadata (the torn
  // window of a repair commit) and fsck's journal pass must flag it.
  {
    const std::string wal_name = JournalFileName(
        DataFileName("rejoin", "state", Purpose::kTimestep, 1));
    auto f = failed.server_fs(1).Open(wal_name, OpenMode::kReadWrite);
    const std::optional<JournalHeader> hdr = ReadJournalHeader(*f);
    ASSERT_TRUE(hdr.has_value());  // checkpoint-time GC stamped a header
    WriteJournalHeader(
        *f, JournalHeader{hdr->base_record,
                          ParseLayoutEpochAttr(meta.attributes) + 1});
  }
  log.clear();
  const JournalReport forged = VerifyGroupJournal(fs, meta, 256, &log);
  EXPECT_FALSE(forged.Clean());
  EXPECT_GT(forged.epoch_mismatches, 0) << log;
}

TEST(FailoverTest, IdleIoNodeCheckpointCommitsCleanly) {
  // Disk mesh narrower than the server set: server 2 owns no chunks.
  // Its checkpoint share is empty, but the staged two-phase renames
  // still cover its (empty) segment file — a commit must not abort
  // renaming files that were never created, and a restart must read the
  // group back as if the idle node were not there.
  Machine machine = SmallMachine(2, 3);
  machine.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
  ArrayLayout memory("m", {2});
  const std::uint64_t seed = 21;
  RunFailoverCluster(machine, [&](PandaClient& client, int idx) {
    Array a("field", {16, 16}, 8, memory, {BLOCK, NONE}, memory,
            {BLOCK, NONE});
    a.BindClient(idx);
    ArrayGroup group("idle", "idle.schema");
    group.Include(&a);
    FillPattern(a, seed);
    group.Timestep(client);
    FillPattern(a, seed + 1);
    group.Checkpoint(client);
  });
  EXPECT_EQ(machine.robustness().Snapshot().collectives_aborted, 0);
  EXPECT_EQ(machine.robustness().Snapshot().failovers_completed, 0);

  machine.ResetForRecovery();
  RunFailoverCluster(machine, [&](PandaClient& client, int idx) {
    Array a("field", {16, 16}, 8, memory, {BLOCK, NONE}, memory,
            {BLOCK, NONE});
    a.BindClient(idx);
    ArrayGroup group("idle", "idle.schema");
    group.Include(&a);
    ASSERT_TRUE(group.Resume(client));
    group.ReadTimestep(client, 0);
    VerifyPattern(a, seed);
    FillPattern(a, 999);
    group.Restart(client);
    VerifyPattern(a, seed + 1);
  });
}

TEST(FailoverTest, RejoinSoakLossySeedsAndKillPoints) {
  // Seeded loss in the failed run, kill point swept across the write:
  // every schedule must rejoin and serve a bit-exact full-set read.
  for (const std::int64_t kill_after : {2, 5}) {
    for (const std::uint64_t seed : {11ull, 12ull}) {
      Machine machine = SmallMachine(2, 3);
      LossSpec loss;
      loss.seed = seed;
      loss.drop_prob = 0.08;
      loss.dup_prob = 0.04;
      machine.SetLoss(loss);
      machine.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
      machine.KillServerAfterSends(/*server_index=*/2, kill_after);
      ArrayLayout memory("m", {2});
      // Disk mesh {3}: one chunk per i/o node, so the killed server owns
      // data and its death forces a real failover + rejoin. 32 rows give
      // it 5 sub-chunk pulls before the first commit, so every swept
      // kill point lands inside the timestep write — the stable-dead-set
      // histories the repair contract covers (docs/PROTOCOL.md).
      ArrayLayout disk("d", {3});
      RunFailoverCluster(machine, [&](PandaClient& client, int idx) {
        Array a("field", {32, 16}, 8, memory, {BLOCK, NONE}, disk,
                {BLOCK, NONE});
        a.BindClient(idx);
        ArrayGroup group("soak", "soak.schema");
        group.Include(&a);
        FillPattern(a, seed);
        group.Timestep(client);
        FillPattern(a, seed + 1);
        group.Checkpoint(client);
      });
      ASSERT_EQ(machine.fault_stats().Snapshot().ranks_killed, 1)
          << "kill_after " << kill_after << " seed " << seed;

      machine.SetLoss(LossSpec{});
      machine.ResetForRecovery();
      machine.RestartServer(2);
      RunFailoverCluster(machine, [&](PandaClient& client, int idx) {
        Array a("field", {32, 16}, 8, memory, {BLOCK, NONE}, disk,
                {BLOCK, NONE});
        a.BindClient(idx);
        ArrayGroup group("soak", "soak.schema");
        group.Include(&a);
        ASSERT_TRUE(group.Resume(client));
        group.ReadTimestep(client, 0);
        VerifyPattern(a, seed);
        FillPattern(a, 999);
        group.Restart(client);
        VerifyPattern(a, seed + 1);
      });
      EXPECT_EQ(machine.robustness().Snapshot().rejoins_completed, 1)
          << "kill_after " << kill_after << " seed " << seed;
      const GroupMeta meta =
          ReadGroupMeta(machine.server_fs(0), "soak.schema");
      EXPECT_TRUE(ParseDeadServersAttr(meta.attributes).empty())
          << "kill_after " << kill_after << " seed " << seed;
    }
  }
}

TEST(FailoverTest, SoakManySeedsKillAtVaryingPoints) {
  // Sweep the kill point across the collective (different send budgets)
  // and several loss seeds: every schedule must converge to the same
  // bit-exact degraded result.
  for (const std::int64_t kill_after : {1, 2, 4}) {
    for (const std::uint64_t seed : {9ull, 10ull}) {
      Machine machine = SmallMachine(2, 3);
      LossSpec loss;
      loss.seed = seed;
      loss.drop_prob = 0.08;
      loss.dup_prob = 0.04;
      machine.SetLoss(loss);
      machine.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
      machine.KillServerAfterSends(1, kill_after);
      ArrayLayout memory("m", {2});
      RunFailoverCluster(machine, [&](PandaClient& client, int idx) {
        Array a("field", {16, 16}, 8, memory, {BLOCK, NONE}, memory,
                {BLOCK, NONE});
        a.BindClient(idx);
        FillPattern(a, seed);
        client.WriteArray(a);
        std::memset(a.local_data().data(), 0, a.local_data().size());
        client.ReadArray(a);
        VerifyPattern(a, seed);
      });
      EXPECT_EQ(machine.fault_stats().Snapshot().ranks_killed, 1)
          << "kill_after " << kill_after << " seed " << seed;
      EXPECT_GE(machine.robustness().Snapshot().failovers_completed, 1)
          << "kill_after " << kill_after << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace panda
