// google-benchmark microbenchmarks of the data-movement kernels that
// Panda's gather/scatter is built from: strided pack/unpack, the
// sub-chunk planner and the end-to-end CRC32C. These run on the host for
// real (not in virtual time) — they are the 2026 counterparts of the
// pack costs the SP2 model charges at memcpy_Bps.
#include <benchmark/benchmark.h>

#include <vector>

#include "mdarray/schema.h"
#include "mdarray/strided_copy.h"
#include "panda/plan.h"
#include "util/crc32c.h"
#include "util/crc32c_internal.h"
#include "util/units.h"

namespace panda {
namespace {

// Pack a (1, n, n) plane slice out of a (n, n, n) cube: the Figure 7-9
// reorganization pattern.
void BM_PackPlane(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Region box({0, 0, 0}, {n, n, n});
  const Region piece({n / 2, 0, 0}, {1, n, n});
  std::vector<std::byte> src(static_cast<size_t>(box.Volume()) * 4);
  std::vector<std::byte> dst(static_cast<size_t>(piece.Volume()) * 4);
  for (auto _ : state) {
    PackRegion({dst.data(), dst.size()}, {src.data(), src.size()}, box, piece,
               4);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          piece.Volume() * 4);
}
BENCHMARK(BM_PackPlane)->Arg(64)->Arg(128)->Arg(256);

// Pack a strided column block: the worst case (short runs).
void BM_PackStridedColumns(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Region box({0, 0}, {n, n});
  const Region piece({0, 0}, {n, 8});  // 32-byte runs, n of them
  std::vector<std::byte> src(static_cast<size_t>(box.Volume()) * 4);
  std::vector<std::byte> dst(static_cast<size_t>(piece.Volume()) * 4);
  for (auto _ : state) {
    PackRegion({dst.data(), dst.size()}, {src.data(), src.size()}, box, piece,
               4);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          piece.Volume() * 4);
}
BENCHMARK(BM_PackStridedColumns)->Arg(256)->Arg(1024);

// Contiguous whole-region copy: the natural-chunking fast path.
void BM_PackContiguous(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Region box({0, 0}, {n, n});
  std::vector<std::byte> src(static_cast<size_t>(box.Volume()) * 4);
  std::vector<std::byte> dst(src.size());
  for (auto _ : state) {
    PackRegion({dst.data(), dst.size()}, {src.data(), src.size()}, box, box,
               4);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          box.Volume() * 4);
}
BENCHMARK(BM_PackContiguous)->Arg(256)->Arg(1024);

// Planner cost: building the full IoPlan for the 512 MB Figure 8
// workload (what every participant computes per collective).
void BM_BuildPlan(benchmark::State& state) {
  ArrayMeta meta;
  meta.name = "p";
  meta.elem_size = 4;
  meta.memory = Schema({static_cast<std::int64_t>(state.range(0)), 512, 512},
                       Mesh(Shape{4, 4, 2}),
                       {DimDist::Block(), DimDist::Block(), DimDist::Block()});
  meta.disk = Schema({static_cast<std::int64_t>(state.range(0)), 512, 512},
                     Mesh(Shape{8}),
                     {DimDist::Block(), DimDist::None(), DimDist::None()});
  for (auto _ : state) {
    IoPlan plan(meta, 8, 1 * kMiB);
    benchmark::DoNotOptimize(plan.TotalPieces());
  }
}
BENCHMARK(BM_BuildPlan)->Arg(64)->Arg(512);

// Sub-chunk splitting in isolation.
void BM_SplitSubchunks(benchmark::State& state) {
  const Region chunk({0, 0, 0}, {state.range(0), 512, 512});
  for (auto _ : state) {
    auto subs = SplitIntoSubchunks(chunk, 4, 1 * kMiB);
    benchmark::DoNotOptimize(subs.size());
  }
}
BENCHMARK(BM_SplitSubchunks)->Arg(64)->Arg(512);

// CRC32C over one buffer: the portable table walk, and `Crc32c` as
// dispatched (the SSE4.2 kernel where CPUID reports it). Every piece is
// checksummed by its sender and its receiver; pieces are 256 KiB in the
// Figure 9 workload.
void BM_Crc32c(benchmark::State& state, crc32c_internal::Kernel crc) {
  std::vector<std::byte> buf(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = std::byte(i * 131 + 7);
  std::uint32_t crc_value = 0;
  for (auto _ : state) {
    crc_value = crc(buf.data(), buf.size(), crc_value);
    benchmark::DoNotOptimize(crc_value);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Crc32c, portable, &crc32c_internal::Portable)
    ->Arg(1 << 10)
    ->Arg(256 << 10)
    ->Arg(16 << 20);
BENCHMARK_CAPTURE(BM_Crc32c, dispatched, &Crc32c)
    ->Arg(1 << 10)
    ->Arg(256 << 10)
    ->Arg(16 << 20);

}  // namespace
}  // namespace panda

BENCHMARK_MAIN();
