// End-to-end functional tests: full Panda collectives over the thread
// transport with real data movement, verified byte-exactly — including
// a parameterized sweep over schema pairs (the paper's rearrangement
// facility) and on-disk layout checks (traditional-order concatenation).
#include <gtest/gtest.h>

#include <filesystem>

#include "test_harness.h"

namespace panda {
namespace {

using test::ExpectedSegment;
using test::FillPattern;
using test::RunCluster;
using test::VerifyPattern;

Machine SimMachine(int clients, int servers) {
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 2048;  // small sub-chunks: exercise splitting
  return Machine::Simulated(clients, servers, params, /*store_data=*/true,
                            /*timing_only=*/false);
}

// --- basic write/read round trip, natural chunking ---

TEST(RoundTripTest, NaturalChunkingWriteRead) {
  Machine machine = SimMachine(8, 2);
  RunCluster(machine, [&](PandaClient& client, int idx) {
    ArrayLayout memory("m", {2, 2, 2});
    Array a("temp", {16, 12, 10}, sizeof(double), memory,
            {BLOCK, BLOCK, BLOCK}, memory, {BLOCK, BLOCK, BLOCK});
    a.BindClient(idx);
    FillPattern(a, 42);
    client.WriteArray(a);
    // Clobber, then read back.
    std::fill(a.local_data().begin(), a.local_data().end(), std::byte{0xAA});
    client.ReadArray(a);
    VerifyPattern(a, 42);
  });
}

TEST(RoundTripTest, ReorganizationWriteRead) {
  // BLOCK,BLOCK,BLOCK memory -> BLOCK,*,* disk (traditional order).
  Machine machine = SimMachine(8, 3);
  RunCluster(machine, [&](PandaClient& client, int idx) {
    ArrayLayout memory("m", {2, 2, 2});
    ArrayLayout disk("d", {3});
    Array a("rho", {12, 8, 6}, sizeof(float), memory, {BLOCK, BLOCK, BLOCK},
            disk, {BLOCK, NONE, NONE});
    a.BindClient(idx);
    FillPattern(a, 7);
    client.WriteArray(a);
    std::fill(a.local_data().begin(), a.local_data().end(), std::byte{0});
    client.ReadArray(a);
    VerifyPattern(a, 7);
  });
}

// --- parameterized sweep over schema pairs ---

struct SchemaCase {
  const char* name;
  Shape shape;
  std::int64_t elem;
  Shape mem_mesh;
  std::vector<DimDist> mem_dists;
  Shape disk_mesh;
  std::vector<DimDist> disk_dists;
  int servers;
};

// Print the case by name: gtest's default byte dump would show the address
// held in `name`, which moves from run to run and so renames the test.
void PrintTo(const SchemaCase& sc, std::ostream* os) { *os << sc.name; }

class SchemaSweepTest : public ::testing::TestWithParam<SchemaCase> {};

TEST_P(SchemaSweepTest, WriteReadRoundTrip) {
  const SchemaCase& sc = GetParam();
  const int clients = static_cast<int>(Mesh(sc.mem_mesh).size());
  Machine machine = SimMachine(clients, sc.servers);
  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a("x", sc.elem,
            Schema(sc.shape, Mesh(sc.mem_mesh), sc.mem_dists),
            Schema(sc.shape, Mesh(sc.disk_mesh), sc.disk_dists));
    a.BindClient(idx);
    FillPattern(a, 1234);
    client.WriteArray(a);
    std::fill(a.local_data().begin(), a.local_data().end(), std::byte{0xCC});
    client.ReadArray(a);
    VerifyPattern(a, 1234);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Schemas, SchemaSweepTest,
    ::testing::Values(
        // Natural chunking, varying ranks and element sizes.
        SchemaCase{"nat1d", {64}, 4, {4}, {BLOCK}, {4}, {BLOCK}, 2},
        SchemaCase{"nat2d", {16, 24}, 8, {2, 2}, {BLOCK, BLOCK},
                   {2, 2}, {BLOCK, BLOCK}, 3},
        SchemaCase{"nat3d", {8, 12, 16}, 4, {2, 2, 2},
                   {BLOCK, BLOCK, BLOCK}, {2, 2, 2}, {BLOCK, BLOCK, BLOCK}, 2},
        // Traditional order on disk.
        SchemaCase{"trad3d", {12, 10, 8}, 4, {2, 2, 2},
                   {BLOCK, BLOCK, BLOCK}, {4}, {BLOCK, NONE, NONE}, 4},
        SchemaCase{"trad3d_uneven", {10, 6, 4}, 8, {2, 2},
                   {BLOCK, NONE, BLOCK}, {3}, {BLOCK, NONE, NONE}, 2},
        // Disk schema rotates which dimension is distributed.
        SchemaCase{"rotate", {12, 12}, 4, {3}, {BLOCK, NONE},
                   {3}, {NONE, BLOCK}, 3},
        // Radically different decompositions (the Figure 2 scenario:
        // 2-D memory mesh, 1-D traditional-order disk layout).
        SchemaCase{"fig2", {16, 16, 4}, 8, {4, 2}, {BLOCK, BLOCK, NONE},
                   {4}, {BLOCK, NONE, NONE}, 4},
        // Uneven divisions with empty cells (2 rows over 4 parts).
        SchemaCase{"empty_cells", {2, 16}, 4, {4}, {BLOCK, NONE},
                   {2}, {BLOCK, NONE}, 2},
        // More servers than disk chunks: some servers idle.
        SchemaCase{"idle_servers", {8, 8}, 4, {2}, {BLOCK, NONE},
                   {2}, {BLOCK, NONE}, 4},
        // CYCLIC disk schema (extension).
        SchemaCase{"cyclic_disk", {48}, 4, {4}, {BLOCK}, {2},
                   {DimDist::Cyclic(8)}, 3},
        SchemaCase{"cyclic2d", {24, 8}, 4, {2, 2}, {BLOCK, BLOCK},
                   {2}, {DimDist::Cyclic(4), NONE}, 2}),
    [](const ::testing::TestParamInfo<SchemaCase>& info) {
      return info.param.name;
    });

// --- on-disk layout: traditional order concatenates ---

TEST(DiskLayoutTest, TraditionalOrderConcatenatesToRowMajor) {
  // BLOCK,*,* over 4 servers: concatenating the per-server files must
  // give the full array in row-major order (the paper's migration path).
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("panda_layout_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 1024;
  Machine machine = Machine::WithPosixFs(8, 4, params, root);

  const Shape shape{8, 8, 8};
  RunCluster(machine, [&](PandaClient& client, int idx) {
    ArrayLayout memory("m", {2, 2, 2});
    ArrayLayout disk("d", {4});
    Array a("vol", shape, 4, memory, {BLOCK, BLOCK, BLOCK}, disk,
            {BLOCK, NONE, NONE});
    a.BindClient(idx);
    FillPattern(a, 99);
    client.WriteArray(a);
  });

  // Concatenate the per-server files and verify global row-major order.
  std::vector<std::byte> image;
  for (int s = 0; s < 4; ++s) {
    auto file = machine.server_fs(s).Open(
        store::ShardFileName("vol.dat." + std::to_string(s), 0),
        OpenMode::kRead);
    const std::int64_t size = file->Size();
    std::vector<std::byte> part(static_cast<size_t>(size));
    file->ReadAt(0, {part.data(), part.size()}, size);
    image.insert(image.end(), part.begin(), part.end());
  }
  ASSERT_EQ(image.size(), static_cast<size_t>(shape.Volume()) * 4);
  for (std::int64_t i = 0; i < shape.Volume(); ++i) {
    const std::uint64_t v = test::PatternValue(99, static_cast<std::uint64_t>(i));
    EXPECT_EQ(std::memcmp(image.data() + i * 4, &v, 4), 0) << "elem " << i;
  }
  std::filesystem::remove_all(root);
}

TEST(DiskLayoutTest, NaturalChunkingSegmentsMatchPlan) {
  // Each server's file must equal the plan-predicted concatenation of
  // its round-robin chunks.
  Machine machine = SimMachine(4, 3);
  ArrayLayout memory("m", {2, 2});
  const Shape shape{12, 10};
  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a("grid", shape, 4, memory, {BLOCK, BLOCK}, memory, {BLOCK, BLOCK});
    a.BindClient(idx);
    FillPattern(a, 5);
    client.WriteArray(a);
  });
  ArrayMeta meta;
  meta.name = "grid";
  meta.elem_size = 4;
  meta.memory = Schema(shape, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = meta.memory;
  for (int s = 0; s < 3; ++s) {
    const auto expected =
        ExpectedSegment(meta, 3, s, machine.params().subchunk_bytes, 5);
    auto file = machine.server_fs(s).Open(
        store::ShardFileName("grid.dat." + std::to_string(s), 0),
        OpenMode::kRead);
    ASSERT_EQ(file->Size(), static_cast<std::int64_t>(expected.size()));
    std::vector<std::byte> got(expected.size());
    file->ReadAt(0, {got.data(), got.size()},
                 static_cast<std::int64_t>(got.size()));
    EXPECT_EQ(got, expected) << "server " << s;
  }
}

// --- multiple arrays in one collective ---

TEST(MultiArrayTest, GroupWriteReadRoundTrip) {
  Machine machine = SimMachine(4, 2);
  RunCluster(machine, [&](PandaClient& client, int idx) {
    ArrayLayout memory("m", {2, 2});
    ArrayLayout disk("d", {2});
    Array t("temperature", {8, 8}, 4, memory, {BLOCK, BLOCK}, disk,
            {BLOCK, NONE});
    Array p("pressure", {12, 6}, 8, memory, {BLOCK, BLOCK}, disk,
            {BLOCK, NONE});
    Array rho("density", {6, 10}, 4, memory, {BLOCK, BLOCK}, memory,
              {BLOCK, BLOCK});
    t.BindClient(idx);
    p.BindClient(idx);
    rho.BindClient(idx);
    FillPattern(t, 1);
    FillPattern(p, 2);
    FillPattern(rho, 3);

    ArrayGroup group("Sim2");
    group.Include(&t);
    group.Include(&p);
    group.Include(&rho);
    group.Write(client);

    for (Array* a : {&t, &p, &rho}) {
      std::fill(a->local_data().begin(), a->local_data().end(),
                std::byte{0xDD});
    }
    group.Read(client);
    VerifyPattern(t, 1);
    VerifyPattern(p, 2);
    VerifyPattern(rho, 3);
  });
}

// --- non-blocking server options (overlap, request pipelining) ---

class ServerOptionsTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(ServerOptionsTest, RoundTripWithNonBlockingOptions) {
  const auto [overlap, pipeline] = GetParam();
  Machine machine = SimMachine(8, 3);
  ServerOptions options;
  options.overlap_io = overlap;
  options.pipeline_requests = pipeline;
  RunCluster(
      machine,
      [&](PandaClient& client, int idx) {
        ArrayLayout memory("m", {2, 2, 2});
        ArrayLayout disk("d", {3});
        Array a("nb", {12, 10, 8}, 4, memory, {BLOCK, BLOCK, BLOCK}, disk,
                {BLOCK, NONE, NONE});
        a.BindClient(idx);
        FillPattern(a, 64);
        client.WriteArray(a);
        std::fill(a.local_data().begin(), a.local_data().end(),
                  std::byte{0});
        client.ReadArray(a);
        VerifyPattern(a, 64);

        // And a multi-array group through the same options.
        Array b("nb2", 8,
                Schema({16, 6}, Mesh(Shape{4, 2}), {BLOCK, BLOCK}),
                Schema({16, 6}, Mesh(Shape{3}),
                       {BLOCK, DimDist::None()}));
        b.BindClient(idx);
        FillPattern(b, 65);
        ArrayGroup group("nbg");
        group.Include(&a);
        group.Include(&b);
        group.Write(client);
        std::fill(b.local_data().begin(), b.local_data().end(),
                  std::byte{0});
        group.Read(client);
        VerifyPattern(b, 65);
      },
      options);
}

INSTANTIATE_TEST_SUITE_P(
    Options, ServerOptionsTest,
    ::testing::Values(std::tuple(true, false), std::tuple(false, true),
                      std::tuple(true, true)),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "overlap" : "noovl") +
             "_" + (std::get<1>(info.param) ? "pipe" : "nopipe");
    });

// --- varying node counts (paper's sweep dimensions), small data ---

class NodeCountTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NodeCountTest, RoundTripAcrossNodeCounts) {
  const auto [clients, servers] = GetParam();
  Machine machine = SimMachine(clients, servers);
  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a("x", 4, Schema({64, 8}, Mesh(Shape{clients}), {BLOCK, NONE}),
            Schema({64, 8}, Mesh(Shape{servers}), {BLOCK, NONE}));
    a.BindClient(idx);
    FillPattern(a, 11);
    client.WriteArray(a);
    std::fill(a.local_data().begin(), a.local_data().end(), std::byte{0});
    client.ReadArray(a);
    VerifyPattern(a, 11);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NodeCountTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(1, 2, 3, 8)));

}  // namespace
}  // namespace panda
