// Rank scheduler (src/sched/): unit tests and the cross-backend
// determinism contract.
//
// Three layers, matching docs/SCHEDULER.md:
//  1. Scheduler unit tests — backend selection, RunAll coverage, fiber
//     yield/park/deadline/probe mechanics, counters. Run in every build
//     (fiber cases skip where FiberSupported() is false: TSan,
//     PANDA_HB).
//  2. The cross-backend equivalence contract: the fig4-shaped seeded
//     lossy collective run under the thread backend and under the fiber
//     backend (across eight schedule seeds) must produce bit-identical
//     virtual clocks, message counts, byte counts and file bytes. This
//     is the same claim hb_race_test makes across schedule seeds,
//     extended across execution backends.
//  3. A failover soak on the fiber backend: a server crash-stops
//     mid-write at several different points and the survivors must
//     complete recovery with verified data — the fault machinery
//     (kill injector, heartbeat leases, TryRecv deadlines, rescue
//     hooks) all exercised through fiber parking instead of blocked OS
//     threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "panda/protocol.h"
#include "panda/report.h"
#include "sched/sched.h"
#include "sched/wait.h"
#include "store/shard_layout.h"
#include "test_harness.h"

namespace panda {
namespace {

using test::FillPattern;
using test::VerifyPattern;

// ---- backend plumbing -------------------------------------------------

TEST(SchedBackend, NamesRoundTrip) {
  EXPECT_STREQ(sched::BackendName(sched::Backend::kThread), "thread");
  EXPECT_STREQ(sched::BackendName(sched::Backend::kFiber), "fiber");

  sched::Backend backend = sched::Backend::kFiber;
  EXPECT_TRUE(sched::BackendFromName("thread", backend));
  EXPECT_EQ(backend, sched::Backend::kThread);
  EXPECT_TRUE(sched::BackendFromName("fiber", backend));
  EXPECT_EQ(backend, sched::Backend::kFiber);
  EXPECT_FALSE(sched::BackendFromName("coroutine", backend));
}

TEST(SchedBackend, MakeSchedulerHonorsFallback) {
  sched::Config config;
  config.backend = sched::Backend::kThread;
  EXPECT_EQ(sched::MakeScheduler(config)->backend(), sched::Backend::kThread);

  config.backend = sched::Backend::kFiber;
  const auto fiber = sched::MakeScheduler(config);
  if (sched::FiberSupported()) {
    EXPECT_EQ(fiber->backend(), sched::Backend::kFiber);
  } else {
    // TSan / PANDA_HB builds pin the thread backend (docs/SCHEDULER.md).
    EXPECT_EQ(fiber->backend(), sched::Backend::kThread);
  }
}

TEST(SchedThread, RunAllRunsEveryRankOnce) {
  sched::Config config;
  config.backend = sched::Backend::kThread;
  const auto scheduler = sched::MakeScheduler(config);
  std::vector<std::atomic<int>> hits(8);
  scheduler->RunAll({3, 1, 4, 0, 5, 2, 7, 6},
                    [&](int index) { hits[static_cast<size_t>(index)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(scheduler->stats().ranks_run, 8);
}

TEST(SchedThread, SliceGuardBracketsEveryRank) {
  sched::Config config;
  config.backend = sched::Backend::kThread;
  const auto scheduler = sched::MakeScheduler(config);
  std::atomic<int> enters{0};
  std::atomic<int> exits{0};
  scheduler->SetSliceGuard([&](int, bool enter) {
    if (enter) {
      enters++;
    } else {
      exits++;
    }
  });
  scheduler->RunAll({0, 1, 2}, [](int) {});
  EXPECT_EQ(enters.load(), 3);
  EXPECT_EQ(exits.load(), 3);
}

// ---- fiber mechanics (skip where unsupported) -------------------------

#define PANDA_REQUIRE_FIBERS()                                       \
  do {                                                               \
    if (!sched::FiberSupported()) {                                  \
      GTEST_SKIP() << "fiber backend unsupported in this build "     \
                      "(TSan or PANDA_HB)";                          \
    }                                                                \
  } while (0)

TEST(SchedFiber, RunAllRunsEveryRankOnce) {
  PANDA_REQUIRE_FIBERS();
  sched::Config config;
  config.backend = sched::Backend::kFiber;
  config.workers = 3;
  const auto scheduler = sched::MakeScheduler(config);
  std::vector<std::atomic<int>> hits(32);
  std::vector<int> order(32);
  for (int i = 0; i < 32; ++i) order[static_cast<size_t>(i)] = i;
  scheduler->RunAll(order, [&](int index) {
    EXPECT_TRUE(sched::OnFiber());
    hits[static_cast<size_t>(index)]++;
  });
  EXPECT_FALSE(sched::OnFiber());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(scheduler->stats().ranks_run, 32);
  // One dispatch per fiber at minimum.
  EXPECT_GE(scheduler->stats().context_switches, 32);
}

TEST(SchedFiber, ManyMoreFibersThanCarriersAllYielding) {
  PANDA_REQUIRE_FIBERS();
  sched::Config config;
  config.backend = sched::Backend::kFiber;
  config.workers = 2;
  const auto scheduler = sched::MakeScheduler(config);
  std::atomic<int> ran{0};
  std::vector<int> order(256);
  for (int i = 0; i < 256; ++i) order[static_cast<size_t>(i)] = i;
  scheduler->RunAll(order, [&](int) {
    for (int k = 0; k < 4; ++k) sched::YieldNow();
    ran++;
  });
  EXPECT_EQ(ran.load(), 256);
  EXPECT_GE(scheduler->stats().yields, 256 * 4);
}

TEST(SchedFiber, ParkAndNotifyHandoff) {
  PANDA_REQUIRE_FIBERS();
  sched::Config config;
  config.backend = sched::Backend::kFiber;
  config.workers = 2;
  const auto scheduler = sched::MakeScheduler(config);
  std::mutex mu;
  sched::WaitCV cv;
  bool flag = false;
  bool consumer_saw_flag = false;
  scheduler->RunAll({0, 1}, [&](int index) {
    if (index == 0) {
      std::unique_lock<std::mutex> lock(mu);
      while (!flag) {
        // A signal wake means "re-check"; probe wakes also just loop.
        (void)cv.ParkFiber(lock, std::nullopt);
      }
      consumer_saw_flag = true;
    } else {
      // Some cooperative churn before producing, so the consumer
      // usually parks first.
      for (int k = 0; k < 8; ++k) sched::YieldNow();
      std::unique_lock<std::mutex> lock(mu);
      flag = true;
      // Exercising the WaitCV seam directly. panda-lint: allow(raw-send)
      cv.NotifyAll();  // under the mutex: the lost-wakeup contract
    }
  });
  EXPECT_TRUE(consumer_saw_flag);
  EXPECT_GE(scheduler->stats().parks, 0);
}

TEST(SchedFiber, DeadlineParkWakesByDeadline) {
  PANDA_REQUIRE_FIBERS();
  sched::Config config;
  config.backend = sched::Backend::kFiber;
  config.workers = 1;
  const auto scheduler = sched::MakeScheduler(config);
  std::mutex mu;
  sched::WaitCV cv;
  bool reached_deadline = false;
  scheduler->RunAll({0}, [&](int) {
    const auto deadline =
        // Park deadlines are wall-clock by contract. panda-lint: allow(wall-clock)
        std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    std::unique_lock<std::mutex> lock(mu);
    // Condition-wait discipline: probe wakes may arrive first (the
    // scheduler is quiescent — this is the only fiber); loop until the
    // wall deadline has truly passed.
    // panda-lint: allow(wall-clock)
    while (std::chrono::steady_clock::now() < deadline) {
      (void)cv.ParkFiber(lock, deadline);
    }
    reached_deadline = true;
  });
  EXPECT_TRUE(reached_deadline);
  // The waits above ended by timeout or probe, never by a signal.
  EXPECT_GE(scheduler->stats().parks, 1);
}

TEST(SchedFiber, YieldNowOffFiberIsSafe) {
  // Off-fiber YieldNow degrades to a plain OS yield (thread backend
  // ranks call the same perturbation path).
  EXPECT_FALSE(sched::OnFiber());
  sched::YieldNow();
}

// ---- shared workload (the fig4 smoke shape) ---------------------------

struct RunOutcome {
  std::vector<double> client_clock_s;
  std::vector<double> server_clock_s;
  std::int64_t messages_sent = 0;
  std::int64_t bytes_sent = 0;
  std::vector<std::vector<std::byte>> file_bytes;  // per server
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

// One seeded-lossy write+read collective (the fig4 smoke shape, the
// same workload hb_race_test perturbs across schedule seeds), run under
// the given backend.
RunOutcome RunSmoke(sched::Backend backend, std::uint64_t schedule_seed,
                    bool with_loss, int workers = 0) {
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
  machine.SetSchedBackend(backend, workers);

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

  RunOutcome out;
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
  return out;
}

void ExpectBitIdentical(const RunOutcome& run, const RunOutcome& base,
                        const std::string& label) {
  ASSERT_EQ(run.client_clock_s.size(), base.client_clock_s.size());
  for (size_t i = 0; i < base.client_clock_s.size(); ++i) {
    // Bit-identical, not nearly-equal: the virtual outcome is a
    // function of the protocol, never of the execution backend.
    EXPECT_EQ(run.client_clock_s[i], base.client_clock_s[i])
        << "client " << i << " diverged: " << label;
  }
  ASSERT_EQ(run.server_clock_s.size(), base.server_clock_s.size());
  for (size_t i = 0; i < base.server_clock_s.size(); ++i) {
    EXPECT_EQ(run.server_clock_s[i], base.server_clock_s[i])
        << "server " << i << " diverged: " << label;
  }
  EXPECT_EQ(run.messages_sent, base.messages_sent) << label;
  EXPECT_EQ(run.bytes_sent, base.bytes_sent) << label;
  ASSERT_EQ(run.file_bytes.size(), base.file_bytes.size());
  for (size_t s = 0; s < base.file_bytes.size(); ++s) {
    EXPECT_EQ(run.file_bytes[s], base.file_bytes[s])
        << "server " << s << " file bytes diverged: " << label;
  }
}

// ---- cross-backend equivalence (the tentpole contract) ----------------

TEST(SchedEquivalence, FiberMatchesThreadOnCleanRun) {
  PANDA_REQUIRE_FIBERS();
  const RunOutcome base =
      RunSmoke(sched::Backend::kThread, /*schedule_seed=*/0, false);
  ASSERT_EQ(base.file_bytes.size(), 2u);
  EXPECT_GT(base.file_bytes[0].size() + base.file_bytes[1].size(), 0u);
  const RunOutcome fiber =
      RunSmoke(sched::Backend::kFiber, /*schedule_seed=*/0, false);
  ExpectBitIdentical(fiber, base, "fiber vs thread, clean");
}

TEST(SchedEquivalence, FiberMatchesThreadUnderLoss) {
  PANDA_REQUIRE_FIBERS();
  const RunOutcome base =
      RunSmoke(sched::Backend::kThread, /*schedule_seed=*/0, true);
  const RunOutcome fiber =
      RunSmoke(sched::Backend::kFiber, /*schedule_seed=*/0, true);
  ExpectBitIdentical(fiber, base, "fiber vs thread, seeded loss");
}

TEST(SchedEquivalence, FiberPerturbedSeedsMatchThreadBaseline) {
  PANDA_REQUIRE_FIBERS();
  // The hb_race_test claim, extended across backends: eight schedule
  // seeds (shuffled launch order, per-rank jitter that becomes
  // cooperative yields on fibers) against the unperturbed THREAD
  // baseline, all bit-identical.
  const RunOutcome base =
      RunSmoke(sched::Backend::kThread, /*schedule_seed=*/0, true);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RunOutcome run = RunSmoke(sched::Backend::kFiber, seed, true);
    ExpectBitIdentical(run, base,
                       "fiber schedule seed " + std::to_string(seed));
  }
}

TEST(SchedEquivalence, FewCarriersMatchMany) {
  PANDA_REQUIRE_FIBERS();
  // Carrier-pool width is a wall-clock knob, never a virtual one.
  const RunOutcome one =
      RunSmoke(sched::Backend::kFiber, /*schedule_seed=*/0, true,
               /*workers=*/1);
  const RunOutcome eight =
      RunSmoke(sched::Backend::kFiber, /*schedule_seed=*/0, true,
               /*workers=*/8);
  ExpectBitIdentical(eight, one, "8 carriers vs 1 carrier");
}

// ---- failover soak on the fiber backend -------------------------------

TEST(SchedFailover, KillMidWriteRecoversOnFibers) {
  PANDA_REQUIRE_FIBERS();
  // A server crash-stops mid-write at several send budgets; the
  // survivors detect it through heartbeat leases (TryRecv deadline
  // parks), re-plan, adopt the dead server's chunks, and the read-back
  // must verify. Every blocking point in the failover path runs as a
  // fiber park here. Budgets stay small so each kill lands inside the
  // WRITE collective: a death during the read aborts by design (the
  // dead disk's data is unrecoverable by re-planning, failover.h).
  for (const std::int64_t after_sends : {1, 2, 3}) {
    Sp2Params params = Sp2Params::Functional();
    params.subchunk_bytes = 256;
    Machine machine = Machine::Simulated(4, 3, params, /*store_data=*/true,
                                         /*timing_only=*/false);
    machine.SetSchedBackend(sched::Backend::kFiber);
    machine.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
    machine.KillServerAfterSends(/*server_index=*/1, after_sends);
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

    EXPECT_GE(machine.robustness().Snapshot().failovers_completed, 1)
        << "kill after " << after_sends << " sends";
    EXPECT_GT(machine.sched_stats().parks, 0)
        << "fiber backend should actually have parked";
  }
}

// ---- transport-level counters -----------------------------------------

TEST(SchedStats, TransportAccumulatesFiberCounters) {
  PANDA_REQUIRE_FIBERS();
  Sp2Params params = Sp2Params::Functional();
  Machine machine =
      Machine::Simulated(2, 1, params, /*store_data=*/true, false);
  machine.SetSchedBackend(sched::Backend::kFiber);
  EXPECT_EQ(machine.sched_backend(), sched::Backend::kFiber);
  machine.Run([&](Endpoint&, int) {}, [&](Endpoint&, int) {});
  const sched::Stats& stats = machine.sched_stats();
  EXPECT_EQ(stats.ranks_run, 3);
  EXPECT_GE(stats.context_switches, 3);
}

}  // namespace
}  // namespace panda
