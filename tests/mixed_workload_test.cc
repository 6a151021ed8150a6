// Mixed workloads (paper §5): several applications sharing one set of
// Panda i/o nodes. Functional tests that two applications' collectives
// interleave safely and never corrupt each other's files.
#include <gtest/gtest.h>

#include "test_harness.h"

namespace panda {
namespace {

using test::FillPattern;
using test::VerifyPattern;

// Layout: ranks 0..3 app A clients, 4..7 app B clients, 8..9 shared
// servers.
constexpr int kAClients = 4;
constexpr int kBClients = 4;
constexpr int kServers = 2;

World AppAWorld() {
  World w;
  w.num_clients = kAClients;
  w.num_servers = kServers;
  w.first_client = 0;
  w.first_server = kAClients + kBClients;
  return w;
}

World AppBWorld() {
  World w = AppAWorld();
  w.first_client = kAClients;
  w.num_clients = kBClients;
  return w;
}

TEST(MixedWorkloadTest, TwoApplicationsShareServers) {
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 512;
  ThreadTransport::Config cfg;
  cfg.net = params.net;
  ThreadTransport transport(kAClients + kBClients + kServers, cfg);

  SimFileSystem::Options fs_opt;
  fs_opt.disk = DiskModel::Instant();
  std::vector<std::unique_ptr<SimFileSystem>> fs;
  for (int s = 0; s < kServers; ++s) {
    fs.push_back(std::make_unique<SimFileSystem>(fs_opt));
  }

  transport.Run([&](Endpoint& ep) {
    const World server_world = AppAWorld();  // server window is shared
    if (server_world.is_server_rank(ep.rank())) {
      ServerOptions options;
      options.num_applications = 2;
      ServerMain(ep, *fs[static_cast<size_t>(
                         server_world.server_index(ep.rank()))],
                 server_world, params, options);
      return;
    }

    const bool is_a = ep.rank() < kAClients;
    const World world = is_a ? AppAWorld() : AppBWorld();
    PandaClient client(ep, world, params);

    ArrayLayout memory("m", {2, 2});
    // Distinct array names keep the applications' files apart.
    Array a(is_a ? "appA" : "appB", {12, 8}, 4, memory, {BLOCK, BLOCK},
            memory, {BLOCK, BLOCK});
    a.BindClient(client.index());
    const std::uint64_t salt = is_a ? 111 : 222;

    // Several rounds of write/read per app, interleaving at the shared
    // servers in whatever order the masters' requests arrive.
    for (int round = 0; round < 3; ++round) {
      FillPattern(a, salt + static_cast<std::uint64_t>(round));
      client.WriteArray(a);
      std::fill(a.local_data().begin(), a.local_data().end(), std::byte{0});
      client.ReadArray(a);
      VerifyPattern(a, salt + static_cast<std::uint64_t>(round));
    }
    client.Shutdown();  // masters of both apps send one shutdown each
  });
}

TEST(MixedWorkloadTest, DedicatedServersAlsoWork) {
  // The paper's alternative: each application gets its own i/o nodes.
  // Ranks 0..1 app A clients, 2..3 app B clients, 4 app A server,
  // 5 app B server.
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 512;
  ThreadTransport::Config cfg;
  cfg.net = params.net;
  ThreadTransport transport(6, cfg);

  SimFileSystem::Options fs_opt;
  fs_opt.disk = DiskModel::Instant();
  SimFileSystem fs_a(fs_opt);
  SimFileSystem fs_b(fs_opt);

  World world_a;
  world_a.num_clients = 2;
  world_a.num_servers = 1;
  world_a.first_client = 0;
  world_a.first_server = 4;
  World world_b;
  world_b.num_clients = 2;
  world_b.num_servers = 1;
  world_b.first_client = 2;
  world_b.first_server = 5;

  transport.Run([&](Endpoint& ep) {
    if (ep.rank() == 4) {
      ServerMain(ep, fs_a, world_a, params);
      return;
    }
    if (ep.rank() == 5) {
      ServerMain(ep, fs_b, world_b, params);
      return;
    }
    const bool is_a = ep.rank() < 2;
    const World world = is_a ? world_a : world_b;
    PandaClient client(ep, world, params);
    ArrayLayout memory("m", {2});
    Array a("x", {16}, 8, memory, {BLOCK}, memory, {BLOCK});
    a.BindClient(client.index());
    FillPattern(a, is_a ? 5 : 6);
    client.WriteArray(a);
    std::fill(a.local_data().begin(), a.local_data().end(), std::byte{0});
    client.ReadArray(a);
    VerifyPattern(a, is_a ? 5 : 6);
    client.Shutdown();
  });
  // Each dedicated server holds only its own application's file.
  EXPECT_TRUE(fs_a.Exists(store::ShardFileName("x.dat.0", 0)));
  EXPECT_TRUE(fs_b.Exists(store::ShardFileName("x.dat.0", 0)));
}

TEST(MixedWorkloadTest, WindowedWorldValidation) {
  World w;
  w.num_clients = 4;
  w.num_servers = 2;
  w.first_client = 0;
  w.first_server = 2;  // overlaps the client window
  EXPECT_THROW(w.Validate(), PandaError);

  w.first_server = 4;
  w.Validate();
  EXPECT_EQ(w.client_rank(3), 3);
  EXPECT_EQ(w.server_rank(1), 5);
  EXPECT_EQ(w.client_index(2), 2);
  EXPECT_EQ(w.server_index(5), 1);

  const World shifted = w.WithClients(10, 4);
  EXPECT_EQ(shifted.client_rank(0), 10);
  EXPECT_EQ(shifted.server_rank(0), 4);  // servers unchanged
}

}  // namespace
}  // namespace panda
