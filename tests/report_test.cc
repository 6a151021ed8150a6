// Message-count invariants and machine reports: the protocol must move
// exactly the traffic the plan predicts — no retries, duplicates, or
// silent extras — and the report must account every byte on disk.
#include <gtest/gtest.h>

#include "iosim/faulty_fs.h"
#include "panda/report.h"
#include "test_harness.h"

namespace panda {
namespace {

using test::FillPattern;
using test::RunCluster;

struct CountCase {
  const char* name;
  int clients;
  Shape mesh;
  int servers;
  bool traditional;
  IoOp op;
};

// Print the case by name: gtest's default byte dump would show the address
// held in `name`, which moves from run to run and so renames the test.
void PrintTo(const CountCase& cc, std::ostream* os) { *os << cc.name; }

class MessageCountTest : public ::testing::TestWithParam<CountCase> {};

TEST_P(MessageCountTest, ExactlyPlannedTraffic) {
  const CountCase& cc = GetParam();
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 1024;
  Machine machine = Machine::Simulated(cc.clients, cc.servers, params,
                                       /*store_data=*/true, false);
  const World world{cc.clients, cc.servers};

  ArrayMeta meta;
  meta.name = "m";
  meta.elem_size = 4;
  const Shape shape{24, 16, 8};
  std::vector<DimDist> dists(3, DimDist::None());
  {
    // Distribute as many leading dims as the mesh has.
    for (int d = 0; d < cc.mesh.rank(); ++d) {
      dists[static_cast<size_t>(d)] = DimDist::Block();
    }
  }
  meta.memory = Schema(shape, Mesh(cc.mesh), dists);
  meta.disk = cc.traditional
                  ? Schema(shape, Mesh(Shape{cc.servers}),
                           {DimDist::Block(), DimDist::None(),
                            DimDist::None()})
                  : meta.memory;

  // One untimed write so reads have files; reset stats; one measured op.
  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
        a.BindClient(idx);
        FillPattern(a, 3);
        client.WriteArray(a);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params);
      });
  machine.ResetClocksAndStats();

  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
        a.BindClient(idx);
        FillPattern(a, 3);
        if (cc.op == IoOp::kWrite) {
          client.WriteArray(a);
        } else {
          client.ReadArray(a);
        }
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params);
      });

  const MachineReport report = Snapshot(machine);
  const std::int64_t expected = ExpectedCollectiveMessages(
      {&meta, 1}, cc.op, world, params.subchunk_bytes);
  // +1 for the shutdown request, + broadcast of it to the servers.
  const std::int64_t shutdown_msgs = 1 + (cc.servers - 1);
  EXPECT_EQ(report.messages.messages_sent, expected + shutdown_msgs);
  EXPECT_EQ(report.messages.messages_sent, report.messages.messages_received);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MessageCountTest,
    ::testing::Values(
        CountCase{"nat_write_8x2", 8, {2, 2, 2}, 2, false, IoOp::kWrite},
        CountCase{"nat_read_8x2", 8, {2, 2, 2}, 2, false, IoOp::kRead},
        CountCase{"nat_write_4x3", 4, {4}, 3, false, IoOp::kWrite},
        CountCase{"trad_write_8x4", 8, {2, 2, 2}, 4, true, IoOp::kWrite},
        CountCase{"trad_read_8x4", 8, {2, 2, 2}, 4, true, IoOp::kRead},
        CountCase{"trad_write_6x2", 6, {6}, 2, true, IoOp::kWrite}),
    [](const ::testing::TestParamInfo<CountCase>& info) {
      return info.param.name;
    });

TEST(ReportTest, DiskBytesAccountedExactly) {
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 512;
  Machine machine = Machine::Simulated(4, 2, params, true, false);
  ArrayMeta meta;
  meta.name = "acct";
  meta.elem_size = 8;
  meta.memory = Schema({16, 16}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = meta.memory;

  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
    a.BindClient(idx);
    FillPattern(a, 7);
    client.WriteArray(a);
  });

  const MachineReport report = Snapshot(machine);
  std::int64_t written = 0;
  std::int64_t syncs = 0;
  for (const FsStats& fs : report.server_fs) {
    written += fs.bytes_written;
    syncs += fs.syncs;
  }
  EXPECT_EQ(written, meta.total_bytes());
  EXPECT_EQ(syncs, 2);  // one fsync per server per collective write
  EXPECT_FALSE(report.ToString().empty());
}

TEST(ReportTest, RobustnessCountersZeroOnCleanRun) {
  // A fault-free run must leave every robustness counter at zero and
  // keep the robustness line out of the report — fault tolerance is
  // invisible until something actually goes wrong.
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 512;
  Machine machine = Machine::Simulated(4, 2, params, true, false);
  ArrayMeta meta;
  meta.name = "clean";
  meta.elem_size = 8;
  meta.memory = Schema({16, 16}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = meta.memory;

  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
    a.BindClient(idx);
    FillPattern(a, 11);
    client.WriteArray(a);
    client.ReadArray(a);
  });

  const MachineReport report = Snapshot(machine);
  EXPECT_TRUE(report.robustness.AllZero());
  EXPECT_EQ(report.ToString().find("robustness"), std::string::npos);
}

TEST(ReportTest, RobustnessCountersSurfaceInjectedFaults) {
  // Under injected transient faults the same workload still succeeds,
  // but the retries now show up in the counters and the report text.
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 512;
  Machine machine = Machine::Simulated(4, 2, params, true, false);
  const World world{4, 2};
  ArrayMeta meta;
  meta.name = "weather";
  meta.elem_size = 8;
  meta.memory = Schema({16, 16}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = meta.memory;

  std::vector<std::unique_ptr<FaultyFileSystem>> faulty;
  for (int s = 0; s < 2; ++s) {
    FaultModel m;
    m.fault_at_ops = {1, 3};  // scripted: each heals on the retry
    faulty.push_back(
        std::make_unique<FaultyFileSystem>(&machine.server_fs(s), m));
  }
  ServerOptions options;
  options.robustness = &machine.robustness();
  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        client.set_robustness(&machine.robustness());
        Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
        a.BindClient(idx);
        FillPattern(a, 11);
        client.WriteArray(a);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, *faulty[static_cast<size_t>(sidx)], world, params,
                   options);
      });

  const MachineReport report = Snapshot(machine);
  EXPECT_FALSE(report.robustness.AllZero());
  EXPECT_EQ(report.robustness.io_retries, 4);  // 2 scripted faults x 2 nodes
  EXPECT_EQ(report.robustness.io_giveups, 0);
  EXPECT_EQ(report.robustness.collectives_aborted, 0);
  EXPECT_NE(report.ToString().find("robustness"), std::string::npos);
}

TEST(ReportTest, TransportFaultCountersZeroAndSilentOnCleanRun) {
  // With the lossy layer and the kill injector disarmed, the transport
  // fault counters must all be zero and the transport-faults line must
  // stay out of the report — the acceptance bar for clean runs.
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 512;
  Machine machine = Machine::Simulated(4, 2, params, true, false);
  ArrayMeta meta;
  meta.name = "clean";
  meta.elem_size = 8;
  meta.memory = Schema({16, 16}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = meta.memory;
  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
    a.BindClient(idx);
    FillPattern(a, 9);
    client.WriteArray(a);
  });
  const MachineReport report = Snapshot(machine);
  EXPECT_TRUE(report.transport.AllZero());
  EXPECT_EQ(report.ToString().find("transport faults"), std::string::npos);
  EXPECT_EQ(report.ToString().find("failover"), std::string::npos);
}

TEST(ReportTest, TransportFaultCountersSurfaceInjectedLoss) {
  // The same workload under a seeded lossy wire still completes, and
  // the report now carries the injected-fault accounting, with the
  // recovery invariants visible: retransmits == drops, suppressed
  // duplicates == injected duplicates.
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 512;
  Machine machine = Machine::Simulated(4, 2, params, true, false);
  LossSpec loss;
  loss.seed = 11;
  loss.drop_prob = 0.08;
  loss.dup_prob = 0.08;
  machine.SetLoss(loss);
  ArrayMeta meta;
  meta.name = "weather";
  meta.elem_size = 8;
  meta.memory = Schema({16, 16}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = meta.memory;
  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
    a.BindClient(idx);
    FillPattern(a, 9);
    client.WriteArray(a);
    client.ReadArray(a);
  });
  const MachineReport report = Snapshot(machine);
  EXPECT_FALSE(report.transport.AllZero());
  EXPECT_GT(report.transport.drops_injected + report.transport.dups_injected,
            0);
  EXPECT_EQ(report.transport.retransmits, report.transport.drops_injected);
  EXPECT_EQ(report.transport.dups_suppressed, report.transport.dups_injected);
  EXPECT_NE(report.ToString().find("transport faults"), std::string::npos);
  // Logical message accounting is fault-blind: the protocol above the
  // reliable layer saw exactly-once delivery.
  EXPECT_EQ(report.messages.messages_sent, report.messages.messages_received);
}

TEST(ReportTest, FailoverCountersSurfaceInTheReport) {
  // A completed failover shows up as its own report line: failovers,
  // adopted chunks, journal records.
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 256;
  Machine machine = Machine::Simulated(4, 3, params, true, false);
  const World world{4, 3};
  machine.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
  machine.KillServerAfterSends(1, 2);
  ServerOptions options;
  options.failover = true;
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
        FillPattern(a, 21);
        client.WriteArray(a);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params, options);
      });
  const MachineReport report = Snapshot(machine);
  EXPECT_GE(report.robustness.failovers_completed, 1);
  EXPECT_GT(report.robustness.chunks_adopted, 0);
  EXPECT_GT(report.robustness.journal_records_written, 0);
  EXPECT_EQ(report.transport.ranks_killed, 1);
  EXPECT_NE(report.ToString().find("failover:"), std::string::npos);
  EXPECT_NE(report.ToString().find("ranks killed"), std::string::npos);
}

TEST(ReportTest, SequentialityOfServerDirectedWrites) {
  // The headline mechanism: a server-directed write produces exactly
  // one seek per (server, file) — everything else is sequential.
  Sp2Params params = Sp2Params::Nas();
  params.subchunk_bytes = 1 * kMiB;
  Machine machine = Machine::Simulated(8, 2, params, false, true);
  const World world{8, 2};
  ArrayMeta meta;
  meta.name = "seq";
  meta.elem_size = 4;
  meta.memory = Schema({32, 512, 512}, Mesh(Shape{2, 2, 2}),
                       {BLOCK, BLOCK, BLOCK});
  meta.disk = meta.memory;

  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
        a.BindClient(idx, false);
        client.WriteArray(a);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params);
      });

  for (int s = 0; s < 2; ++s) {
    const FsStats& fs = machine.server_fs(s).stats();
    EXPECT_EQ(fs.seeks, 1) << "server " << s;  // only the initial position
    EXPECT_EQ(fs.writes, 16);                  // 16 MB at 1 MB sub-chunks
  }
}

}  // namespace
}  // namespace panda
