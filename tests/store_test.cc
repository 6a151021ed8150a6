// The shard store (src/store/): shard table round trips and torn-table
// degradation, greedy layout packing, LRU handle-pool bounds,
// writer/reader round trips under seeded transient faults on both
// backends, a posix sharded cluster round trip audited by
// VerifyGroupSegments, torn-table healing through the frame-probe path,
// the full kill-mid-write -> rejoin soak on the simulated object store
// with byte identity against a never-failed run, the disk-op cost of
// each segment kind, and mixed checksum settings between writer and
// reader.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "iosim/faulty_fs.h"
#include "iosim/object_store.h"
#include "iosim/retry.h"
#include "store/handle_pool.h"
#include "store/shard_layout.h"
#include "store/shard_store.h"
#include "store/shard_table.h"
#include "test_harness.h"
#include "util/crc32c.h"

namespace panda {
namespace {

using test::FillPattern;
using test::VerifyPattern;

SimFileSystem MakeBase() {
  return SimFileSystem(SimFileSystem::Options{DiskModel::Instant(), true,
                                              nullptr});
}

std::vector<std::byte> ReadAllBytes(FileSystem& fs, const std::string& name) {
  std::unique_ptr<File> file = fs.Open(name, OpenMode::kRead);
  std::vector<std::byte> bytes(static_cast<size_t>(file->Size()));
  file->ReadAt(0, bytes, static_cast<std::int64_t>(bytes.size()));
  return bytes;
}

// ---------------------------------------------------------------------
// ShardLayout

TEST(ShardLayoutTest, PackIsGreedyBoundedAndInvertible) {
  // Mixed slot sizes, one larger than the shard budget.
  const std::vector<std::int64_t> sizes{300, 300, 300, 1000, 100, 100};
  std::vector<store::ShardSlot> slots;
  std::int64_t offset = 0;
  for (const std::int64_t n : sizes) {
    slots.push_back({offset, n});
    offset += n;
  }
  const store::ShardLayout layout =
      store::ShardLayout::Pack(slots, /*shard_bytes=*/600);

  EXPECT_EQ(layout.records_per_segment(), 6);
  EXPECT_EQ(layout.segment_bytes(), offset);

  // Shards partition the segment: contiguous, ascending, every shard
  // holds at least one slot, and only a single oversized slot may push
  // a shard past the budget.
  std::int64_t covered = 0;
  for (std::int64_t s = 0; s < layout.shards_per_segment(); ++s) {
    const store::ShardSpec& spec = layout.shard(s);
    EXPECT_GE(spec.num_records, 1);
    EXPECT_EQ(spec.base_offset, covered);
    if (spec.num_records > 1) {
      EXPECT_LE(spec.data_bytes, 600);
    }
    covered += spec.data_bytes;
    for (std::int64_t r = spec.first_record;
         r < spec.first_record + spec.num_records; ++r) {
      EXPECT_EQ(layout.ShardOfRecord(r), s);
      EXPECT_GE(layout.slot(r).offset, spec.base_offset);
      EXPECT_LE(layout.slot(r).offset + layout.slot(r).bytes,
                spec.base_offset + spec.data_bytes);
    }
  }
  EXPECT_EQ(covered, layout.segment_bytes());
  // The 1000-byte slot got a shard of its own.
  const std::int64_t big = layout.ShardOfRecord(3);
  EXPECT_EQ(layout.shard(big).num_records, 1);
  EXPECT_EQ(layout.shard(big).data_bytes, 1000);
}

TEST(ShardLayoutTest, ShardFileNamesDeriveFromAnyDataName) {
  EXPECT_EQ(store::ShardFileName("F", 3), "F.shard.3");
  // Staging names shard the same way — that is what routes a staged
  // write to the same (object) backend as its final home.
  EXPECT_EQ(store::ShardFileName("F.tmp", 0), "F.tmp.shard.0");
  EXPECT_TRUE(ObjectStoreFileSystem::IsObjectPath(
      store::ShardFileName("g/F.repair", 7)));
  EXPECT_FALSE(ObjectStoreFileSystem::IsObjectPath("g/F.journal"));
}

// ---------------------------------------------------------------------
// Shard table

std::vector<store::ShardTableEntry> TwoEntries() {
  store::ShardTableEntry a;
  a.array_index = 0;
  a.chunk_id = 7;
  a.sub_index = 0;
  a.codec = CodecId::kNone;
  a.slot_offset = 0;
  a.raw_bytes = 256;
  a.frame_bytes = 256;
  store::ShardTableEntry b = a;
  b.sub_index = 1;
  b.slot_offset = 256;
  b.has_crc = true;
  b.data_crc = 0xdeadbeef;
  return {a, b};
}

TEST(ShardTableTest, TailRoundTripsThroughFileAndImage) {
  const auto entries = TwoEntries();
  const std::int64_t data_bytes = 512;
  const std::vector<std::byte> tail =
      store::BuildShardTail(entries, data_bytes, /*min_file_bytes=*/0);

  SimFileSystem fs = MakeBase();
  auto f = fs.Open("x.shard.0", OpenMode::kWrite);
  const std::vector<std::byte> data(static_cast<size_t>(data_bytes),
                                    std::byte{0x5a});
  f->WriteAt(0, data, data_bytes);
  f->WriteAt(data_bytes, tail, static_cast<std::int64_t>(tail.size()));
  EXPECT_EQ(f->Size(), store::ShardFileBytes(data_bytes, 2));

  const auto table = store::ReadShardTable(*f);
  ASSERT_TRUE(table.has_value());
  ASSERT_EQ(table->size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_TRUE((*table)[i].valid) << i;
    EXPECT_EQ((*table)[i].chunk_id, entries[i].chunk_id) << i;
    EXPECT_EQ((*table)[i].sub_index, entries[i].sub_index) << i;
    EXPECT_EQ((*table)[i].slot_offset, entries[i].slot_offset) << i;
    EXPECT_EQ((*table)[i].raw_bytes, entries[i].raw_bytes) << i;
    EXPECT_EQ((*table)[i].frame_bytes, entries[i].frame_bytes) << i;
    EXPECT_EQ((*table)[i].has_crc, entries[i].has_crc) << i;
    EXPECT_EQ((*table)[i].data_crc, entries[i].has_crc ? entries[i].data_crc
                                                       : 0u)
        << i;
  }

  // The object-store GET path parses the same table from a whole image.
  const auto image_table = store::ParseShardTable(ReadAllBytes(fs, "x.shard.0"));
  ASSERT_TRUE(image_table.has_value());
  EXPECT_EQ(image_table->size(), entries.size());
}

TEST(ShardTableTest, RewriteInPlacePadsOverTheStaleTail) {
  // Failover adoption rewrites a shorter table over a longer one: the
  // tail must pad to the old EOF so the footer lands at Size()-32 and
  // no stale record survives underneath.
  const auto entries = TwoEntries();
  const std::int64_t data_bytes = 512;
  const std::int64_t old_eof = store::ShardFileBytes(data_bytes, 5);
  const std::vector<std::byte> tail =
      store::BuildShardTail(entries, data_bytes, old_eof);
  EXPECT_EQ(static_cast<std::int64_t>(tail.size()) + data_bytes, old_eof);

  SimFileSystem fs = MakeBase();
  auto f = fs.Open("x.shard.0", OpenMode::kWrite);
  const std::vector<std::byte> data(static_cast<size_t>(data_bytes));
  f->WriteAt(0, data, data_bytes);
  f->WriteAt(data_bytes, tail, static_cast<std::int64_t>(tail.size()));
  const auto table = store::ReadShardTable(*f);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(static_cast<std::int64_t>(table->size()), 2);
}

TEST(ShardTableTest, TornFooterDropsTableAndTornEntryDegradesAlone) {
  const auto entries = TwoEntries();
  const std::int64_t data_bytes = 512;
  const std::vector<std::byte> tail =
      store::BuildShardTail(entries, data_bytes, 0);
  SimFileSystem fs = MakeBase();
  auto f = fs.Open("x.shard.0", OpenMode::kWrite);
  const std::vector<std::byte> data(static_cast<size_t>(data_bytes));
  f->WriteAt(0, data, data_bytes);
  f->WriteAt(data_bytes, tail, static_cast<std::int64_t>(tail.size()));

  const auto flip = [&](std::int64_t at) {
    std::byte b;
    f->ReadAt(at, {&b, 1}, 1);
    b ^= std::byte{0x01};
    f->WriteAt(at, {&b, 1}, 1);
  };

  // Level 3: a torn footer drops the whole table (probe-only shard)...
  flip(f->Size() - 1);
  EXPECT_FALSE(store::ReadShardTable(*f).has_value());
  // ...unless the reader's plan locates the records itself.
  const auto located =
      store::ReadShardTable(*f, store::TableLocation{data_bytes, 2});
  ASSERT_TRUE(located.has_value());
  EXPECT_TRUE((*located)[0].valid);
  EXPECT_TRUE((*located)[1].valid);
  flip(f->Size() - 1);

  // Level 2: a torn record invalidates only itself.
  flip(data_bytes + 4);  // inside record 0
  const auto table = store::ReadShardTable(*f);
  ASSERT_TRUE(table.has_value());
  EXPECT_FALSE((*table)[0].valid);
  EXPECT_TRUE((*table)[1].valid);
}

// ---------------------------------------------------------------------
// FileHandlePool

TEST(HandlePoolTest, LruEvictionBoundsHandlesWithoutLosingDurability) {
  SimFileSystem fs = MakeBase();
  store::FileHandlePool pool(&fs, /*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    const std::string path = "f" + std::to_string(i);
    const std::byte b{static_cast<unsigned char>(0xa0 + i)};
    pool.Acquire(path, OpenMode::kWrite)->WriteAt(0, {&b, 1}, 1);
    EXPECT_LE(pool.open_handles(), 2);
  }
  EXPECT_EQ(pool.misses(), 5);
  EXPECT_EQ(pool.evictions(), 3);

  // The most recent handle is cached; older ones were evicted but their
  // bytes survived (durability is the file's, not the handle's).
  pool.Acquire("f4", OpenMode::kRead);
  EXPECT_EQ(pool.hits(), 1);
  for (int i = 0; i < 5; ++i) {
    std::byte got{};
    pool.Acquire("f" + std::to_string(i), OpenMode::kRead)
        ->ReadAt(0, {&got, 1}, 1);
    EXPECT_EQ(got, std::byte{static_cast<unsigned char>(0xa0 + i)}) << i;
  }
  pool.Clear();
  EXPECT_EQ(pool.open_handles(), 0);
}

// ---------------------------------------------------------------------
// ShardWriter / ShardReader

// 16 contiguous 256-byte slots -> 4 shards of 1 KiB.
store::ShardLayout SixteenSlotLayout() {
  std::vector<store::ShardSlot> slots;
  for (int k = 0; k < 16; ++k) slots.push_back({k * 256, 256});
  return store::ShardLayout::Pack(slots, 1024);
}

std::vector<std::byte> SlotBytes(int k) {
  return std::vector<std::byte>(256, std::byte(0x10 + k));
}

void PutAll(store::ShardWriter& writer) {
  for (int k = 0; k < 16; ++k) {
    const std::vector<std::byte> bytes = SlotBytes(k);
    writer.Put(/*seg=*/0, /*record=*/k, /*array_index=*/0,
               /*chunk_id=*/k / 4, /*sub_index=*/k % 4, CodecId::kNone,
               {bytes.data(), bytes.size()},
               static_cast<std::int64_t>(bytes.size()),
               Crc32c({bytes.data(), bytes.size()}));
  }
  writer.Finish();
}

// Checksummed stores: every slot must come back verified.
void GetAll(store::ShardReader& reader, bool expect_healed) {
  for (int k = 0; k < 16; ++k) {
    const store::ShardRead got = reader.Get(0, k, /*elem_size=*/8);
    ASSERT_EQ(got.raw.size(), 256u) << k;
    EXPECT_EQ(std::memcmp(got.raw.data(), SlotBytes(k).data(), 256), 0) << k;
    EXPECT_EQ(got.healed, expect_healed) << k;
    EXPECT_TRUE(got.verified) << k;
    EXPECT_FALSE(got.checksum_failed) << k;
  }
}

TEST(ShardStoreTest, PosixRoundTripHealsSeededFaultsUnderEviction) {
  // Seeded EIO + torn writes on every disk touch, a handle pool smaller
  // than the shard count (eviction mid-write), default retry budget:
  // the round trip must come back byte-exact with zero give-ups.
  SimFileSystem base = MakeBase();
  FaultModel model = FaultModel::Transient(/*seed=*/11, /*probability=*/0.2);
  model.max_consecutive_transient = 2;
  FaultyFileSystem faulty(&base, model);

  const store::ShardLayout layout = SixteenSlotLayout();
  ASSERT_EQ(layout.shards_per_segment(), 4);
  store::StoreOptions options;
  options.backend = store::StoreBackend::kPosix;
  options.handle_pool_capacity = 2;
  options.checksums = true;

  VirtualClock clock;
  RobustnessStats stats;
  const RetryPolicy retry;  // writer/reader retry internally
  store::ShardWriter writer(&faulty, "F", &layout, options, OpenMode::kWrite,
                            retry, &clock, &stats);
  PutAll(writer);
  EXPECT_GT(writer.pool().evictions(), 0);

  store::ShardReader reader(&faulty, "F", &layout, options, retry, &clock,
                            &stats);
  GetAll(reader, /*expect_healed=*/false);

  EXPECT_GT(faulty.faults_injected(), 0);
  EXPECT_GT(stats.io_retries.load(), 0);
  EXPECT_EQ(stats.io_giveups.load(), 0);
}

TEST(ShardStoreTest, ObjectBackendRoundTripsWholeObjects) {
  // The same 16 slots through the object store: whole-object PUTs at
  // Finish, whole-object GETs sliced from a 1-image cache (3 extra
  // GETs as the LRU cycles through 4 shards).
  VirtualClock clock;
  ObjectStoreFileSystem fs(
      ObjectStoreFileSystem::Options{ObjectStoreModel{}, true, &clock});

  const store::ShardLayout layout = SixteenSlotLayout();
  store::StoreOptions options;
  options.backend = store::StoreBackend::kObjectStore;
  options.object_cache_shards = 1;
  options.checksums = true;

  RobustnessStats stats;
  const RetryPolicy retry;
  store::ShardWriter writer(&fs, "F", &layout, options, OpenMode::kWrite,
                            retry, &clock, &stats);
  PutAll(writer);
  for (std::int64_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(fs.Exists(store::ShardFileName("F", s))) << s;
  }

  store::ShardReader reader(&fs, "F", &layout, options, retry, &clock,
                            &stats);
  GetAll(reader, /*expect_healed=*/false);
  // Each PUT and GET paid its round trip in virtual time.
  EXPECT_GT(clock.Now(), 0.0);
}

// ---------------------------------------------------------------------
// Cluster round trip on the sharded posix layout

Machine SmallMachine(int clients, int servers) {
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 256;
  return Machine::Simulated(clients, servers, params, /*store_data=*/true,
                            /*timing_only=*/false);
}

ServerOptions ShardedOptions(Machine& machine, std::int64_t shard_bytes,
                             store::StoreBackend backend) {
  ServerOptions options;
  options.failover = true;
  options.disk_checksums = true;
  options.journal = true;
  options.shard_bytes = shard_bytes;
  options.backend = backend;
  options.robustness = &machine.robustness();
  return options;
}

void RunShardedCluster(Machine& machine, const ServerOptions& options,
                       const std::function<void(PandaClient&, int)>& app) {
  const World world{machine.num_clients(), machine.num_servers()};
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

TEST(ShardClusterTest, PosixShardedGroupRoundTripsAndAuditsClean) {
  Machine machine = SmallMachine(4, 2);
  const ServerOptions options =
      ShardedOptions(machine, /*shard_bytes=*/1024, store::StoreBackend::kPosix);

  ArrayLayout memory("m", {2, 2});
  RunShardedCluster(machine, options, [&](PandaClient& client, int idx) {
    Array a("field", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
            {BLOCK, BLOCK});
    a.BindClient(idx);
    ArrayGroup group("sh", "sh.schema");
    group.Include(&a);
    FillPattern(a, 100);
    group.Timestep(client);
    FillPattern(a, 101);
    group.Timestep(client);
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
  EXPECT_EQ(machine.robustness().Snapshot().collectives_aborted, 0);

  // The shard granularity is committed to group metadata; the data
  // lives in shard files only — there is no bare stream file.
  const GroupMeta meta = ReadGroupMeta(machine.server_fs(0), "sh.schema");
  EXPECT_EQ(ParseShardBytesAttr(meta.attributes), 1024);
  const std::string flat = DataFileName("sh", "field", Purpose::kTimestep, 0);
  EXPECT_FALSE(machine.server_fs(0).Exists(flat));
  EXPECT_TRUE(machine.server_fs(0).Exists(store::ShardFileName(flat, 0)));

  // Both offline passes are clean: the segment walk (tables and CRCs)
  // and the journal replay.
  FileSystem* fs[] = {&machine.server_fs(0), &machine.server_fs(1)};
  std::string log;
  const SegmentReport shards =
      VerifyGroupSegments(fs, meta, 256, /*read_data=*/true, &log);
  EXPECT_TRUE(shards.Clean()) << log;
  EXPECT_GT(shards.files_checked, 0);
  EXPECT_GT(shards.subchunks_checked, 0);
  EXPECT_EQ(shards.tables_torn, 0);
  EXPECT_EQ(shards.healed_slots, 0);
  EXPECT_EQ(shards.subchunks_verified, shards.subchunks_checked);
  log.clear();
  const JournalReport wal = VerifyGroupJournal(fs, meta, 256, &log);
  EXPECT_TRUE(wal.Clean()) << log;
  EXPECT_GT(wal.records_checked, 0);
}

TEST(ShardClusterTest, TornTableHealsThroughFrameProbe) {
  // A codec array without checksums: its table is the only index of how
  // each slot is stored, so tearing it leaves only the probe path.
  Machine machine = SmallMachine(4, 2);
  ServerOptions options =
      ShardedOptions(machine, /*shard_bytes=*/1024, store::StoreBackend::kPosix);
  options.disk_checksums = false;

  ArrayLayout memory("m", {2, 2});
  const auto make_array = [&] {
    Array a("field", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
            {BLOCK, BLOCK});
    a.set_codec(CodecId::kShuffleRle);
    return a;
  };
  const auto write_app = [&](PandaClient& client, int idx) {
    Array a = make_array();
    a.BindClient(idx);
    ArrayGroup group("torn", "torn.schema");
    group.Include(&a);
    FillPattern(a, 42);
    group.Timestep(client);
  };
  RunShardedCluster(machine, options, write_app);

  // Tear shard 0's whole tail on server 0 — footer and every record: its
  // table is gone, but every slot still proves out through the
  // self-describing frame headers (three-level tolerance — damage is
  // counted, not fatal).
  const std::string shard0 = store::ShardFileName(
      DataFileName("torn", "field", Purpose::kTimestep, 0), 0);
  {
    auto f = machine.server_fs(0).Open(shard0, OpenMode::kReadWrite);
    const std::int64_t tail = 4 * store::kShardTableEntryBytes +
                              store::kShardFooterBytes;
    std::vector<std::byte> bytes(static_cast<size_t>(tail));
    f->ReadAt(f->Size() - tail, bytes, tail);
    for (std::byte& b : bytes) b ^= std::byte{0x01};
    f->WriteAt(f->Size() - tail, bytes, tail);
  }

  const GroupMeta meta = ReadGroupMeta(machine.server_fs(0), "torn.schema");
  FileSystem* fs[] = {&machine.server_fs(0), &machine.server_fs(1)};
  std::string log;
  const SegmentReport report =
      VerifyGroupSegments(fs, meta, 256, /*read_data=*/true, &log);
  EXPECT_TRUE(report.Clean()) << log;
  EXPECT_GE(report.tables_torn, 1);
  EXPECT_GT(report.healed_slots, 0);
  EXPECT_EQ(report.decode_failures, 0);
  EXPECT_EQ(report.checksum_mismatches, 0);

  // The live read path heals the same way: a full-set read collective
  // over the torn shard still returns the written pattern.
  RunShardedCluster(machine, options, [&](PandaClient& client, int idx) {
    Array a = make_array();
    a.BindClient(idx);
    ArrayGroup group("torn", "torn.schema");
    group.Include(&a);
    ASSERT_TRUE(group.Resume(client));
    group.ReadTimestep(client, 0);
    VerifyPattern(a, 42);
  });
  EXPECT_GT(machine.robustness().Snapshot().frame_rereads, 0);
}

// ---------------------------------------------------------------------
// Kill-mid-write failover soak on the sharded object store

TEST(ShardClusterTest, ObjectStoreKillMidWriteRejoinsByteIdentical) {
  // The flat-layout acceptance scenario, re-run on the sharded object
  // store: kill i/o node 1 mid-write, commit a degraded timestep +
  // checkpoint, restart the node, repair, run one more timestep +
  // checkpoint — then every shard file (table CRCs included) must be
  // BYTE-identical to a never-failed run's.
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 256;
  const std::int64_t shard_bytes = 1024;
  const auto make_machine = [&] {
    return Machine::SimulatedObjectStore(4, 3, params, ObjectStoreModel{},
                                         /*store_data=*/true,
                                         /*timing_only=*/false);
  };
  ArrayLayout memory("m", {2, 2});
  const auto app_run1 = [&](PandaClient& client, int idx) {
    Array a("state", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
            {BLOCK, BLOCK});
    a.BindClient(idx);
    ArrayGroup group("rj", "rj.schema");
    group.Include(&a);
    FillPattern(a, 100);
    group.Timestep(client);
    FillPattern(a, 500);
    group.Checkpoint(client);
  };
  const auto app_run2 = [&](PandaClient& client, int idx) {
    Array a("state", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
            {BLOCK, BLOCK});
    a.BindClient(idx);
    ArrayGroup group("rj", "rj.schema");
    group.Include(&a);
    ASSERT_TRUE(group.Resume(client));
    FillPattern(a, 101);
    group.Timestep(client);
    FillPattern(a, 501);
    group.Checkpoint(client);
    FillPattern(a, 999);
    group.Restart(client);
    VerifyPattern(a, 501);
    group.ReadTimestep(client, 0);
    VerifyPattern(a, 100);
    group.ReadTimestep(client, 1);
    VerifyPattern(a, 101);
  };

  Machine failed = make_machine();
  const ServerOptions failed_options =
      ShardedOptions(failed, shard_bytes, store::StoreBackend::kObjectStore);
  failed.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
  failed.KillServerAfterSends(/*server_index=*/1, /*after_more_sends=*/3);
  RunShardedCluster(failed, failed_options, app_run1);
  {
    const GroupMeta meta = ReadGroupMeta(failed.server_fs(0), "rj.schema");
    ASSERT_EQ(ParseDeadServersAttr(meta.attributes), (std::vector<int>{1}));
  }
  failed.ResetForRecovery();
  failed.RestartServer(1);
  RunShardedCluster(failed, failed_options, app_run2);

  Machine reference = make_machine();
  const ServerOptions ref_options =
      ShardedOptions(reference, shard_bytes, store::StoreBackend::kObjectStore);
  reference.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
  RunShardedCluster(reference, ref_options, app_run1);
  reference.ResetForRecovery();
  RunShardedCluster(reference, ref_options, app_run2);

  const RobustnessCounters counters = failed.robustness().Snapshot();
  EXPECT_EQ(counters.rejoins_completed, 1);
  EXPECT_GT(counters.chunks_restored, 0);
  EXPECT_GE(counters.failovers_completed, 1);
  EXPECT_EQ(counters.collectives_aborted, 0);
  EXPECT_EQ(failed.fault_stats().Snapshot().ranks_revived, 1);

  const GroupMeta meta = ReadGroupMeta(failed.server_fs(0), "rj.schema");
  EXPECT_TRUE(ParseDeadServersAttr(meta.attributes).empty());
  EXPECT_EQ(ParseShardBytesAttr(meta.attributes), shard_bytes);

  // Byte identity, shard file by shard file: both machines derive the
  // same layout from the plan, so the repaired image must equal the
  // never-failed one exactly — table CRCs included.
  ArrayMeta array;
  array.name = "state";
  array.elem_size = 8;
  array.memory = Schema({32, 32}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  array.disk = array.memory;
  const IoPlan plan(array, 3, params.subchunk_bytes);
  const DegradedLayout identity = DegradedLayout::Compute(plan, {});
  for (int s = 0; s < 3; ++s) {
    const store::ShardLayout shards =
        PackWork(plan, BuildServerWork(plan, identity, s, WorkPhase::kFull),
                 shard_bytes);
    for (const Purpose purpose : {Purpose::kTimestep, Purpose::kCheckpoint}) {
      const std::int64_t segments = purpose == Purpose::kTimestep ? 2 : 1;
      const std::string data = DataFileName("rj", "state", purpose, s);
      for (std::int64_t id = 0; id < segments * shards.shards_per_segment();
           ++id) {
        const std::string shard = store::ShardFileName(data, id);
        ASSERT_TRUE(failed.server_fs(s).Exists(shard)) << shard;
        EXPECT_EQ(ReadAllBytes(failed.server_fs(s), shard),
                  ReadAllBytes(reference.server_fs(s), shard))
            << "server " << s << " " << shard;
      }
    }
  }

  // The repaired image audits clean under the identity layout.
  FileSystem* fs[] = {&failed.server_fs(0), &failed.server_fs(1),
                      &failed.server_fs(2)};
  std::string log;
  const SegmentReport shards =
      VerifyGroupSegments(fs, meta, 256, /*read_data=*/true, &log);
  EXPECT_TRUE(shards.Clean()) << log;
  EXPECT_GT(shards.subchunks_checked, 0);
  EXPECT_EQ(shards.subchunks_verified, shards.subchunks_checked);
}


// ---------------------------------------------------------------------
// The disk-op cost of each segment kind, and mixed checksum settings

struct OpCounts {
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t syncs = 0;
};

// A 32x32 array of 8-byte elements over 2 i/o nodes at 256-byte
// sub-chunks: each server stores 4 KiB, 16 sub-chunks.
constexpr std::int64_t kSubchunksPerServer = 16;

// One WriteArray or ReadArray collective (a read verifies the pattern
// in every client); returns each server's disk ops for just that
// collective.
std::vector<OpCounts> RunArrayCollective(Machine& machine,
                                         const ServerOptions& options,
                                         CodecId codec, bool write,
                                         bool timing = false) {
  for (int s = 0; s < machine.num_servers(); ++s) {
    machine.server_fs(s).ResetStats();
  }
  const World world{machine.num_clients(), machine.num_servers()};
  ArrayLayout memory("m", {2, 2});
  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, machine.params());
        client.set_robustness(&machine.robustness());
        Array a("field", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
                {BLOCK, BLOCK});
        a.set_codec(codec);
        a.BindClient(idx, /*allocate=*/!timing);
        if (write && !timing) FillPattern(a, 7);
        if (write) {
          client.WriteArray(a);
        } else {
          client.ReadArray(a);
          if (!timing) {
            EXPECT_EQ(VerifyPattern(a, 7), 0);
          }
        }
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, machine.params(),
                   options);
      });
  std::vector<OpCounts> out;
  for (int s = 0; s < machine.num_servers(); ++s) {
    const FsStats& fs = machine.server_fs(s).stats();
    out.push_back({fs.reads, fs.writes, fs.syncs});
  }
  return out;
}

TEST(SegmentCostTest, EachSegmentKindIssuesItsPlannedOps) {
  // A table-free segment — codec=none with checksums off, or any
  // timing-only run (no real bytes, no table) — is its data region
  // alone: n WriteAt + one Sync per shard on write, n ReadAt on read, no
  // footer read. A checksummed segment costs exactly one more write per
  // shard (the table tail) and two more reads per shard (footer, table).
  struct Case {
    bool timing;
    bool checksums;
    std::int64_t shard_bytes;
    std::int64_t shards;  // per server segment
    bool table;
  };
  for (const Case& c : {Case{false, false, 0, 1, false},
                        Case{true, false, 0, 1, false},
                        Case{true, true, 0, 1, false},
                        Case{false, true, 0, 1, true},
                        Case{false, true, 1024, 4, true}}) {
    Sp2Params params = Sp2Params::Functional();
    params.subchunk_bytes = 256;
    Machine machine = Machine::Simulated(4, 2, params, !c.timing, c.timing);
    ServerOptions options;
    options.disk_checksums = c.checksums;
    options.shard_bytes = c.shard_bytes;
    options.robustness = &machine.robustness();
    const auto wrote =
        RunArrayCollective(machine, options, CodecId::kNone, true, c.timing);
    const auto read =
        RunArrayCollective(machine, options, CodecId::kNone, false, c.timing);
    const std::int64_t tables = c.table ? c.shards : 0;
    for (int s = 0; s < 2; ++s) {
      SCOPED_TRACE("timing=" + std::to_string(c.timing) +
                   " checksums=" + std::to_string(c.checksums) +
                   " shard_bytes=" + std::to_string(c.shard_bytes) +
                   " server=" + std::to_string(s));
      EXPECT_EQ(wrote[s].writes, kSubchunksPerServer + tables);
      EXPECT_EQ(wrote[s].syncs, c.shards);
      EXPECT_EQ(wrote[s].reads + read[s].writes + read[s].syncs, 0);
      EXPECT_EQ(read[s].reads, kSubchunksPerServer + 2 * tables);
    }
    const RobustnessCounters counters = machine.robustness().Snapshot();
    EXPECT_EQ(counters.disk_checksum_rereads + counters.disk_checksum_failures,
              0);
  }
}

TEST(MixedChecksumTest, WriterAndReaderSettingsMayDiffer) {
  ServerOptions on;
  on.disk_checksums = true;
  ServerOptions off;
  // The offline walk of what a case left on disk: clean, and how many
  // sub-chunks a CRC vouched for.
  const auto verified_by_walk = [](Machine& machine, CodecId codec) {
    FileSystem* fs[] = {&machine.server_fs(0), &machine.server_fs(1)};
    ArrayMeta meta;
    meta.name = "field";
    meta.elem_size = 8;
    meta.memory = Schema({32, 32}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
    meta.disk = meta.memory;
    meta.codec = codec;
    std::string log;
    const SegmentReport report = VerifyArraySegments(
        fs, meta, 256, Purpose::kGeneral, 1, "", /*shard_bytes=*/0,
        /*read_data=*/true, &log);
    EXPECT_TRUE(report.Clean()) << log;
    EXPECT_EQ(report.subchunks_checked, 2 * kSubchunksPerServer);
    return report.subchunks_verified;
  };

  // Written with checksums: verified when read with them on (the reader
  // pays the table reads), byte-exact and unverified with them off (a
  // plain data-region read, no table touched).
  Machine with = SmallMachine(4, 2);
  on.robustness = &with.robustness();
  RunArrayCollective(with, on, CodecId::kNone, true);
  const auto verified = RunArrayCollective(with, on, CodecId::kNone, false);
  const auto plain = RunArrayCollective(with, off, CodecId::kNone, false);
  EXPECT_EQ(verified[0].reads, kSubchunksPerServer + 2);
  EXPECT_EQ(plain[0].reads, kSubchunksPerServer);
  EXPECT_EQ(verified_by_walk(with, CodecId::kNone), 2 * kSubchunksPerServer);
  EXPECT_EQ(with.robustness().Snapshot().disk_checksum_rereads, 0);

  // Written without checksums, read with them on: byte-exact and
  // unverified, not failed — there is no table to read. A codec array
  // keeps a table (it is framed) whose records carry no CRC: the same.
  for (const CodecId codec : {CodecId::kNone, CodecId::kShuffleRle}) {
    Machine without = SmallMachine(4, 2);
    off.robustness = on.robustness = &without.robustness();
    RunArrayCollective(without, off, codec, true);
    const auto read = RunArrayCollective(without, on, codec, false);
    if (codec == CodecId::kNone) {
      EXPECT_EQ(read[0].reads, kSubchunksPerServer);
    }
    const RobustnessCounters counters = without.robustness().Snapshot();
    EXPECT_EQ(counters.disk_checksum_rereads + counters.disk_checksum_failures +
                  counters.collectives_aborted,
              0);
    EXPECT_EQ(verified_by_walk(without, codec), 0);
  }
}

}  // namespace
}  // namespace panda
