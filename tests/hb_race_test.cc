// Happens-before race checker (msg/hb.h) and schedule-perturbation
// determinism.
//
// Three layers of assurance, matching docs/ANALYSIS.md:
//  1. hb::Checker unit tests — the vector-clock algorithm itself
//     (message edges, lock edges, fork/join edges, write epochs,
//     read-set checks, dedup) runs in EVERY build configuration.
//  2. Machine-level tests (compiled only with -DPANDA_HB=ON): a clean
//     seeded-lossy collective reports ZERO races, and a deliberately
//     unordered shared access injected from two rank threads is caught.
//  3. The determinism contract: Machine::SetScheduleSeed perturbs the
//     real-thread schedule (launch order, wall-clock yields) and MUST
//     NOT change a single bit of virtual time or file contents — eight
//     seeds plus the unperturbed baseline are compared bit-exactly.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "iosim/block_cache.h"
#include "iosim/sim_fs.h"
#include "msg/hb.h"
#include "panda/protocol.h"
#include "panda/report.h"
#include "store/shard_layout.h"
#include "test_harness.h"

namespace panda {
namespace {

using test::FillPattern;
using test::VerifyPattern;

// ---- hb::Checker unit tests (every build) ----------------------------

TEST(HbChecker, UnorderedWritesAreARace) {
  hb::Checker c(2);
  int obj = 0;
  c.OnAccess(0, &obj, "obj", /*is_write=*/true);
  c.OnAccess(1, &obj, "obj", /*is_write=*/true);

  const std::vector<hb::Race> races = c.Races();
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].object, "obj");
  EXPECT_EQ(races[0].prev_rank, 0);
  EXPECT_TRUE(races[0].prev_write);
  EXPECT_EQ(races[0].rank, 1);
  EXPECT_TRUE(races[0].write);
  EXPECT_NE(races[0].ToString().find("obj"), std::string::npos);
}

TEST(HbChecker, MessageEdgeOrdersAccesses) {
  hb::Checker c(2);
  int obj = 0;
  c.OnAccess(0, &obj, "obj", true);
  c.OnSend(0, /*msg_id=*/42);
  c.OnRecv(1, /*msg_id=*/42);
  c.OnAccess(1, &obj, "obj", true);
  EXPECT_EQ(c.race_count(), 0u);
}

TEST(HbChecker, SendAfterAccessDoesNotOrderIt) {
  hb::Checker c(2);
  int obj = 0;
  // The send snapshot is taken BEFORE this write: receiving the message
  // does not license rank 1 to touch the object.
  c.OnSend(0, 42);
  c.OnAccess(0, &obj, "obj", true);
  c.OnRecv(1, 42);
  c.OnAccess(1, &obj, "obj", true);
  EXPECT_EQ(c.race_count(), 1u);
}

TEST(HbChecker, LockEdgesOrderCriticalSections) {
  hb::Checker c(2);
  int obj = 0;
  int mu = 0;
  c.OnLockAcquire(0, &mu);
  c.OnAccess(0, &obj, "obj", true);
  c.OnLockRelease(0, &mu);
  c.OnLockAcquire(1, &mu);
  c.OnAccess(1, &obj, "obj", true);
  c.OnLockRelease(1, &mu);
  EXPECT_EQ(c.race_count(), 0u);
}

TEST(HbChecker, RunJoinOrdersAcrossRepetitions) {
  hb::Checker c(2);
  int obj = 0;
  c.OnRunStart();
  c.OnAccess(0, &obj, "obj", true);
  c.OnRunEnd();  // rank 0's write joins into the driver...
  c.OnRunStart();  // ...and the driver fans out to every rank.
  c.OnAccess(1, &obj, "obj", true);
  c.OnRunEnd();
  EXPECT_EQ(c.race_count(), 0u);
}

TEST(HbChecker, ReadsNeverRaceWithReads) {
  hb::Checker c(3);
  int obj = 0;
  c.OnAccess(0, &obj, "obj", /*is_write=*/false);
  c.OnAccess(1, &obj, "obj", /*is_write=*/false);
  c.OnAccess(2, &obj, "obj", /*is_write=*/false);
  EXPECT_EQ(c.race_count(), 0u);
}

TEST(HbChecker, WriteAfterUnorderedReadIsARace) {
  hb::Checker c(2);
  int obj = 0;
  c.OnAccess(0, &obj, "obj", /*is_write=*/false);
  c.OnAccess(1, &obj, "obj", /*is_write=*/true);

  const std::vector<hb::Race> races = c.Races();
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].prev_rank, 0);
  EXPECT_FALSE(races[0].prev_write);
  EXPECT_TRUE(races[0].write);
}

TEST(HbChecker, DuplicateFindingsAreDeduped) {
  hb::Checker c(2);
  int obj = 0;
  // read0 / write1 / read0 / write1: the second write1 conflicts with
  // the second read0 exactly like the first pair — same (object, rank
  // pair, kind pair) key, reported once.
  c.OnAccess(0, &obj, "obj", false);
  c.OnAccess(1, &obj, "obj", true);   // race: read0 / write1
  c.OnAccess(0, &obj, "obj", false);  // race: write1 / read0
  c.OnAccess(1, &obj, "obj", true);   // deduped
  EXPECT_EQ(c.race_count(), 2u);
}

TEST(HbChecker, ClearRacesRearmsReporting) {
  hb::Checker c(2);
  int obj = 0;
  c.OnAccess(0, &obj, "obj", true);
  c.OnAccess(1, &obj, "obj", true);
  ASSERT_EQ(c.race_count(), 1u);
  c.ClearRaces();
  EXPECT_EQ(c.race_count(), 0u);
  // The same conflicting pair can be found again after a reset.
  c.OnAccess(0, &obj, "obj", true);
  EXPECT_EQ(c.race_count(), 1u);
}

TEST(HbChecker, ForgottenMessagesCarryNoEdge) {
  hb::Checker c(2);
  int obj = 0;
  c.OnAccess(0, &obj, "obj", true);
  c.OnSend(0, 7);
  c.ForgetMessages();  // epoch boundary: snapshots dropped
  c.OnRecv(1, 7);      // no-op — the id is unknown now
  c.OnAccess(1, &obj, "obj", true);
  EXPECT_EQ(c.race_count(), 1u);
}

TEST(HbChecker, UntrackedMessageIdIsIgnored) {
  hb::Checker c(2);
  c.OnSend(0, 0);
  c.OnRecv(1, 0);
  EXPECT_EQ(c.race_count(), 0u);
}

// ---- shared workload --------------------------------------------------

struct SeededOutcome {
  std::vector<double> client_clock_s;
  std::vector<double> server_clock_s;
  std::int64_t messages_sent = 0;
  std::int64_t bytes_sent = 0;
  std::vector<std::vector<std::byte>> file_bytes;  // per server
  std::size_t races = 0;
};

std::vector<std::byte> FileBytes(Machine& machine, int server,
                                 const std::string& name) {
  FileSystem& fs = machine.server_fs(server);
  EXPECT_TRUE(fs.Exists(name)) << name;
  if (!fs.Exists(name)) return {};
  std::unique_ptr<File> file = fs.Open(name, OpenMode::kRead);
  std::vector<std::byte> out(static_cast<size_t>(file->Size()));
  file->ReadAt(0, out, static_cast<std::int64_t>(out.size()));
  return out;
}

// One seeded-lossy write+read collective (the fig4 smoke shape), with
// the schedule-perturbation layer armed by `schedule_seed` (0 = off).
SeededOutcome RunSeeded(std::uint64_t schedule_seed, bool with_loss) {
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 1024;
  const int kClients = 4;
  const int kServers = 2;
  Machine machine = Machine::Simulated(kClients, kServers, params,
                                       /*store_data=*/true,
                                       /*timing_only=*/false);
  if (with_loss) {
    LossSpec loss;
    loss.seed = 7;
    loss.drop_prob = 0.05;
    loss.dup_prob = 0.05;
    machine.SetLoss(loss);
  }
  machine.SetScheduleSeed(schedule_seed);

  const World world{kClients, kServers};
  ArrayMeta meta;
  meta.name = "t";
  meta.elem_size = 4;
  const Shape shape{16, 12, 8};
  meta.memory = Schema(shape, Mesh(Shape{2, 2}),
                       {DimDist::Block(), DimDist::Block(), DimDist::None()});
  meta.disk = Schema(shape, Mesh(Shape{kServers}),
                     {DimDist::Block(), DimDist::None(), DimDist::None()});

  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
        a.BindClient(idx);
        FillPattern(a, 11);
        client.WriteArray(a);
        client.ReadArray(a);
        VerifyPattern(a, 11);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params);
      });

  SeededOutcome out;
  const MachineReport report = Snapshot(machine);
  out.client_clock_s = report.client_clock_s;
  out.server_clock_s = report.server_clock_s;
  out.messages_sent = report.messages.messages_sent;
  out.bytes_sent = report.messages.bytes_sent;
  for (int s = 0; s < kServers; ++s) {
    out.file_bytes.push_back(FileBytes(
        machine, s,
        store::ShardFileName(
            DataFileName("", meta.name, Purpose::kGeneral, s), 0)));
  }
  if (const hb::Checker* checker = machine.hb_checker()) {
    out.races = checker->race_count();
  }
  return out;
}

// ---- machine-level race detection (-DPANDA_HB=ON builds only) --------

#if PANDA_HB_ENABLED

TEST(HbMachine, CheckerIsArmed) {
  Sp2Params params = Sp2Params::Functional();
  Machine machine =
      Machine::Simulated(2, 1, params, /*store_data=*/true, false);
  ASSERT_NE(machine.hb_checker(), nullptr);
  EXPECT_EQ(machine.hb_checker()->nranks(), 3);
}

TEST(HbMachine, SeededLossyCollectiveHasNoRaces) {
  // The full protocol under drops+dups: every stamped shared access
  // (reliable-layer bookkeeping, server file systems) must be ordered
  // by a message, lock, or fork/join edge.
  const SeededOutcome outcome = RunSeeded(/*schedule_seed=*/3, true);
  EXPECT_EQ(outcome.races, 0u);
}

TEST(HbMachine, InjectedUnorderedAccessIsCaught) {
  Sp2Params params = Sp2Params::Functional();
  Machine machine =
      Machine::Simulated(2, 1, params, /*store_data=*/true, false);
  int shared = 0;
  // Two rank threads touch `shared` with no message between them: the
  // only edges are the fork from the driver, which orders neither
  // against the other.
  machine.Run(
      [&](Endpoint&, int) {
        hb::StampAccess(&shared, "test.shared", /*is_write=*/true);
      },
      [&](Endpoint&, int) {});

  ASSERT_NE(machine.hb_checker(), nullptr);
  const std::vector<hb::Race> races = machine.hb_checker()->Races();
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].object, "test.shared");
  EXPECT_TRUE(races[0].prev_write);
  EXPECT_TRUE(races[0].write);
}

TEST(HbMachine, MessageEdgeLicensesHandoff) {
  Sp2Params params = Sp2Params::Functional();
  Machine machine =
      Machine::Simulated(2, 1, params, /*store_data=*/true, false);
  int shared = 0;
  // Rank 0 writes then sends; rank 1 receives then writes: the message
  // edge orders the pair, so the identical access pattern is clean.
  machine.Run(
      [&](Endpoint& ep, int idx) {
        if (idx == 0) {
          hb::StampAccess(&shared, "test.shared", true);
          Message m;
          ep.Send(/*dst=*/1, kTagApp, std::move(m));
        } else {
          (void)ep.Recv(/*src=*/0, kTagApp);
          hb::StampAccess(&shared, "test.shared", true);
        }
      },
      [&](Endpoint&, int) {});

  ASSERT_NE(machine.hb_checker(), nullptr);
  EXPECT_EQ(machine.hb_checker()->race_count(), 0u);
}

TEST(HbMachine, UnorderedBlockCacheSharingIsCaught) {
  // BlockCache's LRU list / block map / stream table are unsynchronized
  // shared state: two rank threads hammering one cache with no message
  // between them is a race, and the instrumentation in
  // src/iosim/block_cache.cc must surface it.
  Sp2Params params = Sp2Params::Functional();
  Machine machine =
      Machine::Simulated(2, 1, params, /*store_data=*/true, false);
  // A timing-only simulated base file of its own: the machine supplies
  // only the rank threads and the armed checker.
  VirtualClock cache_clock;
  SimFileSystem::Options fs_opt;
  fs_opt.store_data = false;
  fs_opt.clock = &cache_clock;
  SimFileSystem base_fs(fs_opt);
  std::unique_ptr<File> base = base_fs.Open("bc_base", OpenMode::kReadWrite);
  BlockCache::Options opt;
  opt.block_bytes = 64;
  opt.capacity_blocks = 8;
  BlockCache cache(base.get(), opt);
  machine.Run(
      [&](Endpoint&, int idx) {
        cache.WriteAt(static_cast<std::int64_t>(idx) * 64, {}, 64);
      },
      [&](Endpoint&, int) {});

  ASSERT_NE(machine.hb_checker(), nullptr);
  const std::vector<hb::Race> races = machine.hb_checker()->Races();
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].object, "iosim.block_cache");
  EXPECT_TRUE(races[0].prev_write);
  EXPECT_TRUE(races[0].write);
}

TEST(HbMachine, MessageOrderedBlockCacheHandoffIsClean) {
  // The same two accesses with a message edge between them: rank 0
  // touches the cache then sends, rank 1 receives then touches — an
  // ordered handoff, zero races. (Cache reads stamp as writes too:
  // LRU reordering mutates shared state.)
  Sp2Params params = Sp2Params::Functional();
  Machine machine =
      Machine::Simulated(2, 1, params, /*store_data=*/true, false);
  VirtualClock cache_clock;
  SimFileSystem::Options fs_opt;
  fs_opt.store_data = false;
  fs_opt.clock = &cache_clock;
  SimFileSystem base_fs(fs_opt);
  std::unique_ptr<File> base = base_fs.Open("bc_base", OpenMode::kReadWrite);
  BlockCache::Options opt;
  opt.block_bytes = 64;
  opt.capacity_blocks = 8;
  BlockCache cache(base.get(), opt);
  machine.Run(
      [&](Endpoint& ep, int idx) {
        if (idx == 0) {
          cache.WriteAt(0, {}, 64);
          Message m;
          ep.Send(/*dst=*/1, kTagApp, std::move(m));
        } else {
          (void)ep.Recv(/*src=*/0, kTagApp);
          cache.ReadAt(0, {}, 64);
        }
      },
      [&](Endpoint&, int) {});

  ASSERT_NE(machine.hb_checker(), nullptr);
  EXPECT_EQ(machine.hb_checker()->race_count(), 0u);
}

TEST(HbMachine, FailoverRecoveryHasNoRaces) {
  // The hardest ordered-handoff claim in the tree: a server crash-stops
  // mid-write, the survivors run the recovery rounds (adopted-chunk
  // rewrite, journal republication, staged checkpoint renames, group
  // metadata with the dead set) — every stamped file-system and
  // transport access must still be ordered by message, lock, or
  // fork/join edges. A failover that "works" only because the host
  // scheduler was kind shows up here as a race.
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 256;
  Machine machine = Machine::Simulated(4, 3, params, /*store_data=*/true,
                                       /*timing_only=*/false);
  machine.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
  machine.KillServerAfterSends(/*server_index=*/1, /*after_more_sends=*/3);
  const World world{4, 3};
  ServerOptions options;
  options.failover = true;
  options.disk_checksums = true;
  options.journal = true;
  options.robustness = &machine.robustness();
  ArrayLayout memory("m", {2, 2});
  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        client.set_robustness(&machine.robustness());
        client.set_failover(true);
        Array a("field", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
                {BLOCK, BLOCK});
        a.BindClient(idx);
        FillPattern(a, 77);
        client.WriteArray(a);
        std::memset(a.local_data().data(), 0, a.local_data().size());
        client.ReadArray(a);
        VerifyPattern(a, 77);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params, options);
      });

  EXPECT_GE(machine.robustness().Snapshot().failovers_completed, 1);
  ASSERT_NE(machine.hb_checker(), nullptr);
  for (const hb::Race& race : machine.hb_checker()->Races()) {
    ADD_FAILURE() << race.ToString();
  }
}

#endif  // PANDA_HB_ENABLED

// ---- schedule-seed determinism (every build) -------------------------

TEST(ScheduleSeeds, PerturbedRunsAreBitIdentical) {
  // The load-bearing claim of the whole reproduction: virtual clocks
  // and file bytes are a function of the protocol, not of the host
  // scheduler. Eight perturbation seeds (shuffled thread launch order,
  // seeded yield/sleep jitter inside every send and receive) against
  // the unperturbed baseline, all bit-identical.
  const SeededOutcome base = RunSeeded(/*schedule_seed=*/0, true);
  ASSERT_EQ(base.client_clock_s.size(), 4u);
  ASSERT_EQ(base.server_clock_s.size(), 2u);
  ASSERT_EQ(base.file_bytes.size(), 2u);
  EXPECT_GT(base.file_bytes[0].size() + base.file_bytes[1].size(), 0u);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const SeededOutcome run = RunSeeded(seed, true);
    ASSERT_EQ(run.client_clock_s.size(), base.client_clock_s.size());
    for (size_t i = 0; i < base.client_clock_s.size(); ++i) {
      // Bit-identical, not nearly-equal.
      EXPECT_EQ(run.client_clock_s[i], base.client_clock_s[i])
          << "client " << i << " diverged under schedule seed " << seed;
    }
    ASSERT_EQ(run.server_clock_s.size(), base.server_clock_s.size());
    for (size_t i = 0; i < base.server_clock_s.size(); ++i) {
      EXPECT_EQ(run.server_clock_s[i], base.server_clock_s[i])
          << "server " << i << " diverged under schedule seed " << seed;
    }
    EXPECT_EQ(run.messages_sent, base.messages_sent) << "seed " << seed;
    EXPECT_EQ(run.bytes_sent, base.bytes_sent) << "seed " << seed;
    ASSERT_EQ(run.file_bytes.size(), base.file_bytes.size());
    for (size_t s = 0; s < base.file_bytes.size(); ++s) {
      EXPECT_EQ(run.file_bytes[s], base.file_bytes[s])
          << "server " << s << " file bytes diverged under seed " << seed;
    }
  }
}

}  // namespace
}  // namespace panda
