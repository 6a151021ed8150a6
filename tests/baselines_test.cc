// Tests for the baseline i/o strategies: functional correctness of
// two-phase and naive-gather writes (byte-compatible with Panda's file
// layout), and timing-mode behaviour of the caching baseline.
#include <gtest/gtest.h>

#include "baselines/naive_gather.h"
#include "baselines/traditional_caching.h"
#include "baselines/two_phase.h"
#include "test_harness.h"
#include "util/random.h"

namespace panda {
namespace {

using test::ExpectedSegment;
using test::FillPattern;
using test::VerifyPattern;

Machine SimMachine(int clients, int servers) {
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 1024;
  return Machine::Simulated(clients, servers, params, /*store_data=*/true,
                            /*timing_only=*/false);
}

ArrayMeta TestMeta(int servers) {
  ArrayMeta meta;
  meta.name = "base";
  meta.elem_size = 4;
  meta.memory = Schema({12, 10, 8}, Mesh(Shape{2, 2, 2}),
                       {BLOCK, BLOCK, BLOCK});
  meta.disk = Schema({12, 10, 8}, Mesh(Shape{servers}),
                     {BLOCK, NONE, NONE});
  return meta;
}

TEST(TwoPhaseTest, FilesMatchPandaLayout) {
  // A two-phase write must produce byte-identical files to Panda's
  // server-directed write (same chunk round-robin, same offsets).
  Machine machine = SimMachine(8, 3);
  const ArrayMeta meta = TestMeta(3);
  const World world{8, 3};
  machine.Run(
      [&](Endpoint& ep, int idx) {
        Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
        a.BindClient(idx);
        FillPattern(a, 77);
        TwoPhaseWriteClient(ep, world, machine.params(), a);
      },
      [&](Endpoint& ep, int sidx) {
        TwoPhaseWriteServer(ep, machine.server_fs(sidx), world,
                            machine.params(), meta);
      });
  for (int s = 0; s < 3; ++s) {
    const auto expected =
        ExpectedSegment(meta, 3, s, machine.params().subchunk_bytes, 77);
    if (expected.empty()) continue;
    auto file = machine.server_fs(s).Open(
        store::ShardFileName("base.dat." + std::to_string(s), 0),
        OpenMode::kRead);
    ASSERT_EQ(file->Size(), static_cast<std::int64_t>(expected.size()));
    std::vector<std::byte> got(expected.size());
    file->ReadAt(0, {got.data(), got.size()},
                 static_cast<std::int64_t>(got.size()));
    EXPECT_EQ(got, expected) << "server " << s;
  }
}

TEST(TwoPhaseTest, PandaCanReadTwoPhaseOutput) {
  // Cross-strategy round trip: write with two-phase, read with Panda.
  Machine machine = SimMachine(4, 2);
  ArrayMeta meta;
  meta.name = "cross";
  meta.elem_size = 8;
  meta.memory = Schema({8, 12}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = Schema({8, 12}, Mesh(Shape{2}), {BLOCK, NONE});
  const World world{4, 2};
  machine.Run(
      [&](Endpoint& ep, int idx) {
        Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
        a.BindClient(idx);
        FillPattern(a, 31);
        TwoPhaseWriteClient(ep, world, machine.params(), a);

        // Now read it back through Panda's server-directed read.
        std::fill(a.local_data().begin(), a.local_data().end(),
                  std::byte{0});
        PandaClient client(ep, world, machine.params());
        client.ReadArray(a);
        VerifyPattern(a, 31);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        TwoPhaseWriteServer(ep, machine.server_fs(sidx), world,
                            machine.params(), meta);
        ServerMain(ep, machine.server_fs(sidx), world, machine.params());
      });
}

TEST(NaiveGatherTest, ProducesTraditionalOrderFile) {
  Machine machine = SimMachine(4, 2);
  ArrayMeta meta;
  meta.name = "gathered";
  meta.elem_size = 4;
  meta.memory = Schema({8, 8}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = Schema({8, 8}, Mesh(Shape{1}), {BLOCK, NONE});
  const World world{4, 2};
  machine.Run(
      [&](Endpoint& ep, int idx) {
        Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
        a.BindClient(idx);
        FillPattern(a, 13);
        NaiveGatherWriteClient(ep, world, machine.params(), a);
      },
      [&](Endpoint& ep, int sidx) {
        NaiveGatherWriteServer(ep, machine.server_fs(sidx), world,
                               machine.params(), meta);
      });
  // Server 0 holds the whole array in row-major order.
  auto file = machine.server_fs(0).Open(
      store::ShardFileName("gathered.dat.0", 0), OpenMode::kRead);
  const Shape shape{8, 8};
  ASSERT_EQ(file->Size(), shape.Volume() * 4);
  std::vector<std::byte> image(static_cast<size_t>(file->Size()));
  file->ReadAt(0, {image.data(), image.size()}, file->Size());
  for (std::int64_t i = 0; i < shape.Volume(); ++i) {
    const std::uint64_t v =
        test::PatternValue(13, static_cast<std::uint64_t>(i));
    EXPECT_EQ(std::memcmp(image.data() + i * 4, &v, 4), 0) << "elem " << i;
  }
}

TEST(TwoPhaseTest, ReadRoundTrip) {
  // Write with Panda, read back with two-phase: the strategies share
  // the file format, so cross-reads must round-trip byte-exactly.
  Machine machine = SimMachine(8, 3);
  const ArrayMeta meta = TestMeta(3);
  const World world{8, 3};
  machine.Run(
      [&](Endpoint& ep, int idx) {
        Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
        a.BindClient(idx);
        FillPattern(a, 88);
        PandaClient client(ep, world, machine.params());
        client.WriteArray(a);
        if (idx == 0) client.Shutdown();

        std::fill(a.local_data().begin(), a.local_data().end(),
                  std::byte{0});
        TwoPhaseReadClient(ep, world, machine.params(), a);
        VerifyPattern(a, 88);
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, machine.params());
        TwoPhaseReadServer(ep, machine.server_fs(sidx), world,
                           machine.params(), meta);
      });
}

TEST(NaiveGatherTest, ScatterReadRoundTrip) {
  Machine machine = SimMachine(4, 2);
  ArrayMeta meta;
  meta.name = "scat";
  meta.elem_size = 4;
  meta.memory = Schema({8, 8}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = Schema({8, 8}, Mesh(Shape{1}), {BLOCK, NONE});
  const World world{4, 2};
  machine.Run(
      [&](Endpoint& ep, int idx) {
        Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
        a.BindClient(idx);
        FillPattern(a, 21);
        NaiveGatherWriteClient(ep, world, machine.params(), a);
        std::fill(a.local_data().begin(), a.local_data().end(),
                  std::byte{0});
        NaiveScatterReadClient(ep, world, machine.params(), a);
        VerifyPattern(a, 21);
      },
      [&](Endpoint& ep, int sidx) {
        NaiveGatherWriteServer(ep, machine.server_fs(sidx), world,
                               machine.params(), meta);
        NaiveScatterReadServer(ep, machine.server_fs(sidx), world,
                               machine.params(), meta);
      });
}

TEST(TwoPhaseTest, RandomSchemasMatchPandaFilesProperty) {
  // Property: for random (memory, disk) schema pairs, two-phase and
  // server-directed writes produce byte-identical per-server files.
  Rng rng(9090);
  for (int iter = 0; iter < 6; ++iter) {
    const Shape shape{2 + static_cast<std::int64_t>(rng.NextBelow(10)),
                      2 + static_cast<std::int64_t>(rng.NextBelow(10)),
                      2 + static_cast<std::int64_t>(rng.NextBelow(10))};
    ArrayMeta meta;
    meta.name = "prop";
    meta.elem_size = 4;
    meta.memory = Schema(shape, Mesh(Shape{2, 2}),
                         {BLOCK, BLOCK, NONE});
    // Random disk decomposition over 1-3 dims.
    const int style = static_cast<int>(rng.NextBelow(3));
    meta.disk = style == 0 ? Schema(shape, Mesh(Shape{3}),
                                    {BLOCK, NONE, NONE})
                : style == 1
                    ? Schema(shape, Mesh(Shape{2, 2}), {NONE, BLOCK, BLOCK})
                    : meta.memory;
    const int servers = 2 + static_cast<int>(rng.NextBelow(2));
    const std::uint64_t salt = rng.Next();
    const World world{4, servers};

    Machine machine = SimMachine(4, servers);
    machine.Run(
        [&](Endpoint& ep, int idx) {
          Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
          a.BindClient(idx);
          FillPattern(a, salt);
          TwoPhaseWriteClient(ep, world, machine.params(), a);
        },
        [&](Endpoint& ep, int sidx) {
          TwoPhaseWriteServer(ep, machine.server_fs(sidx), world,
                              machine.params(), meta);
        });
    for (int s = 0; s < servers; ++s) {
      const auto expected = ExpectedSegment(
          meta, servers, s, machine.params().subchunk_bytes, salt);
      if (expected.empty()) continue;
      auto file = machine.server_fs(s).Open(
          store::ShardFileName("prop.dat." + std::to_string(s), 0),
          OpenMode::kRead);
      std::vector<std::byte> got(expected.size());
      ASSERT_EQ(file->Size(), static_cast<std::int64_t>(expected.size()));
      file->ReadAt(0, {got.data(), got.size()},
                   static_cast<std::int64_t>(got.size()));
      EXPECT_EQ(got, expected) << "iter " << iter << " server " << s;
    }
  }
}

TEST(CachingBaselineTest, ReadTimingRunCompletes) {
  Sp2Params params = Sp2Params::Nas();
  Machine machine =
      Machine::Simulated(8, 2, params, /*store_data=*/false,
                         /*timing_only=*/true);
  ArrayMeta meta;
  meta.name = "cread";
  meta.elem_size = 4;
  meta.memory = Schema({16, 32, 32}, Mesh(Shape{2, 2, 2}),
                       {BLOCK, BLOCK, BLOCK});
  meta.disk = meta.memory;
  const World world{8, 2};
  CachingOptions options;
  std::vector<double> elapsed(8, 0.0);
  machine.Run(
      [&](Endpoint& ep, int idx) {
        elapsed[static_cast<size_t>(idx)] =
            CachingReadClient(ep, world, params, meta, options);
      },
      [&](Endpoint& ep, int sidx) {
        CachingReadServer(ep, machine.server_fs(sidx), world, params, meta,
                          options);
      });
  std::int64_t read = 0;
  for (int s = 0; s < 2; ++s) read += machine.server_fs(s).stats().bytes_read;
  EXPECT_GE(read, meta.total_bytes() / 2);  // prefetch may over- or under-read
  for (const double t : elapsed) EXPECT_GT(t, 0.0);
}

TEST(CachingBaselineTest, TimingRunCompletesAndWritesAllBytes) {
  Sp2Params params = Sp2Params::Nas();
  Machine machine =
      Machine::Simulated(8, 2, params, /*store_data=*/false,
                         /*timing_only=*/true);
  ArrayMeta meta;
  meta.name = "cached";
  meta.elem_size = 4;
  meta.memory = Schema({16, 32, 32}, Mesh(Shape{2, 2, 2}),
                       {BLOCK, BLOCK, BLOCK});
  meta.disk = meta.memory;  // unused by the caching baseline
  const World world{8, 2};
  CachingOptions options;
  std::vector<double> elapsed(8, 0.0);
  machine.Run(
      [&](Endpoint& ep, int idx) {
        elapsed[static_cast<size_t>(idx)] =
            CachingWriteClient(ep, world, params, meta, options);
      },
      [&](Endpoint& ep, int sidx) {
        CachingWriteServer(ep, machine.server_fs(sidx), world, params, meta,
                           options);
      });
  // Every byte of the array must reach a disk (block-granular: the cache
  // writes whole blocks, so written bytes can exceed the array size).
  std::int64_t written = 0;
  for (int s = 0; s < 2; ++s) {
    written += machine.server_fs(s).stats().bytes_written;
  }
  EXPECT_GE(written, meta.total_bytes());
  for (const double t : elapsed) EXPECT_GT(t, 0.0);
}

TEST(CachingBaselineTest, StridedPatternIsSlowerThanPanda) {
  // The motivating comparison: on the same workload, traditional caching
  // must be substantially slower than server-directed i/o.
  Sp2Params params = Sp2Params::Nas();
  ArrayMeta meta;
  meta.name = "cmp";
  meta.elem_size = 4;
  // 16 MB: larger than the i/o-node caches, as the paper's workloads
  // dwarf a mid-90s file cache.
  meta.memory = Schema({64, 256, 256}, Mesh(Shape{2, 2, 2}),
                       {BLOCK, BLOCK, BLOCK});
  meta.disk = meta.memory;
  const World world{8, 2};
  CachingOptions options;
  options.cache_capacity_blocks = 256;  // 1 MB cache per i/o node

  double caching_elapsed = 0.0;
  {
    Machine machine = Machine::Simulated(8, 2, params, false, true);
    machine.Run(
        [&](Endpoint& ep, int idx) {
          const double t =
              CachingWriteClient(ep, world, params, meta, options);
          if (idx == 0) caching_elapsed = t;
        },
        [&](Endpoint& ep, int sidx) {
          CachingWriteServer(ep, machine.server_fs(sidx), world, params, meta,
                             options);
        });
  }

  double panda_elapsed = 0.0;
  {
    Machine machine = Machine::Simulated(8, 2, params, false, true);
    machine.Run(
        [&](Endpoint& ep, int idx) {
          PandaClient client(ep, world, params);
          Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
          a.BindClient(idx, false);
          const double t = client.WriteArray(a);
          if (idx == 0) {
            panda_elapsed = t;
            client.Shutdown();
          }
        },
        [&](Endpoint& ep, int sidx) {
          ServerMain(ep, machine.server_fs(sidx), world, params);
        });
  }
  EXPECT_GT(caching_elapsed, 1.5 * panda_elapsed)
      << "caching=" << caching_elapsed << " panda=" << panda_elapsed;
}

}  // namespace
}  // namespace panda
