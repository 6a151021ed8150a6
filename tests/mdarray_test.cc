// Unit tests for src/mdarray: index/region algebra, strided copies,
// meshes, distributions, schemas and the sub-chunker.
#include <gtest/gtest.h>

#include <numeric>

#include "mdarray/distribution.h"
#include "mdarray/mesh.h"
#include "mdarray/region.h"
#include "mdarray/schema.h"
#include "mdarray/strided_copy.h"
#include "sp2/machine.h"
#include "util/units.h"

namespace panda {
namespace {

TEST(IndexTest, BasicsAndVolume) {
  Index idx{2, 3, 4};
  EXPECT_EQ(idx.rank(), 3);
  EXPECT_EQ(idx[0], 2);
  EXPECT_EQ(idx[2], 4);
  EXPECT_EQ(idx.Volume(), 24);
  EXPECT_EQ(idx.ToString(), "(2, 3, 4)");
}

TEST(IndexTest, FilledAndZeros) {
  EXPECT_EQ(Index::Filled(2, 5).Volume(), 25);
  EXPECT_EQ(Index::Zeros(3).Volume(), 0);
}

TEST(IndexTest, Equality) {
  EXPECT_EQ((Index{1, 2}), (Index{1, 2}));
  EXPECT_NE((Index{1, 2}), (Index{2, 1}));
  EXPECT_NE((Index{1, 2}), (Index{1, 2, 3}));
}

TEST(IndexTest, RowMajorIteration) {
  Shape shape{2, 3};
  Index idx = Index::Zeros(2);
  std::vector<std::pair<std::int64_t, std::int64_t>> seen;
  do {
    seen.emplace_back(idx[0], idx[1]);
  } while (NextIndexRowMajor(shape, idx));
  ASSERT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen.front(), (std::pair<std::int64_t, std::int64_t>{0, 0}));
  EXPECT_EQ(seen[1], (std::pair<std::int64_t, std::int64_t>{0, 1}));
  EXPECT_EQ(seen.back(), (std::pair<std::int64_t, std::int64_t>{1, 2}));
}

TEST(RegionTest, VolumeAndContains) {
  Region r({1, 2}, {3, 4});
  EXPECT_EQ(r.Volume(), 12);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.Contains(Index{1, 2}));
  EXPECT_TRUE(r.Contains(Index{3, 5}));
  EXPECT_FALSE(r.Contains(Index{4, 2}));
  EXPECT_FALSE(r.Contains(Index{0, 2}));
  EXPECT_EQ(r.hi(), (Index{4, 6}));
}

TEST(RegionTest, EmptyRegion) {
  Region r({0, 0}, {0, 5});
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.Volume(), 0);
  EXPECT_FALSE(r.Contains(Index{0, 0}));
}

TEST(RegionTest, ContainsRegion) {
  Region outer({0, 0}, {10, 10});
  EXPECT_TRUE(outer.Contains(Region({2, 3}, {4, 5})));
  EXPECT_FALSE(outer.Contains(Region({8, 8}, {4, 4})));
  EXPECT_TRUE(outer.Contains(Region({0, 0}, {0, 0})));  // empty
}

TEST(RegionTest, Intersect) {
  Region a({0, 0}, {5, 5});
  Region b({3, 3}, {5, 5});
  const Region i = Intersect(a, b);
  EXPECT_EQ(i, Region({3, 3}, {2, 2}));
  const Region disjoint = Intersect(a, Region({6, 6}, {2, 2}));
  EXPECT_TRUE(disjoint.empty());
}

TEST(RegionTest, IntersectIsCommutative) {
  Region a({1, 0, 2}, {4, 6, 3});
  Region b({0, 3, 0}, {3, 9, 4});
  EXPECT_EQ(Intersect(a, b), Intersect(b, a));
}

TEST(RegionTest, LinearOffsetWithin) {
  Region box({2, 3}, {4, 5});
  EXPECT_EQ(LinearOffsetWithin(box, Index{2, 3}), 0);
  EXPECT_EQ(LinearOffsetWithin(box, Index{2, 4}), 1);
  EXPECT_EQ(LinearOffsetWithin(box, Index{3, 3}), 5);
  EXPECT_EQ(LinearOffsetWithin(box, Index{5, 7}), 19);
}

TEST(ContiguityTest, FullRegionIsContiguous) {
  Region outer({0, 0}, {4, 4});
  EXPECT_TRUE(IsContiguousWithin(outer, outer));
}

TEST(ContiguityTest, RowPrefixIsContiguous) {
  Region outer({0, 0}, {4, 8});
  // Whole rows: contiguous.
  EXPECT_TRUE(IsContiguousWithin(outer, Region({1, 0}, {2, 8})));
  // Partial row with extent-1 outer dims: contiguous.
  EXPECT_TRUE(IsContiguousWithin(outer, Region({1, 2}, {1, 4})));
  // Partial columns across multiple rows: strided.
  EXPECT_FALSE(IsContiguousWithin(outer, Region({0, 2}, {2, 4})));
}

TEST(ContiguityTest, Rank3Cases) {
  Region outer({0, 0, 0}, {4, 4, 4});
  EXPECT_TRUE(IsContiguousWithin(outer, Region({2, 0, 0}, {2, 4, 4})));
  EXPECT_TRUE(IsContiguousWithin(outer, Region({2, 1, 0}, {1, 2, 4})));
  EXPECT_FALSE(IsContiguousWithin(outer, Region({2, 1, 0}, {2, 2, 4})));
  EXPECT_FALSE(IsContiguousWithin(outer, Region({0, 0, 1}, {4, 4, 2})));
}

// Fills a buffer over `box` so element at global index i has a unique
// value derived from its coordinates.
std::vector<std::byte> MakePattern(const Region& box) {
  std::vector<std::byte> buf(static_cast<size_t>(box.Volume()) *
                             sizeof(std::int64_t));
  auto* p = reinterpret_cast<std::int64_t*>(buf.data());
  Index idx = box.lo();
  Shape ext = box.extent();
  Index off = Index::Zeros(box.rank());
  std::int64_t n = 0;
  do {
    std::int64_t key = 0;
    for (int d = 0; d < box.rank(); ++d) {
      key = key * 1000 + (box.lo()[d] + off[d]);
    }
    p[n++] = key;
  } while (NextIndexRowMajor(ext, off));
  (void)idx;
  return buf;
}

TEST(StridedCopyTest, CopyRegionMovesExactlyTheRegion) {
  const Region src_box({0, 0}, {6, 8});
  const Region dst_box({2, 3}, {5, 6});
  const Region region({3, 4}, {2, 3});

  auto src = MakePattern(src_box);
  std::vector<std::byte> dst(static_cast<size_t>(dst_box.Volume()) *
                             sizeof(std::int64_t));
  std::fill(dst.begin(), dst.end(), std::byte{0xEE});

  CopyRegion({dst.data(), dst.size()}, dst_box, {src.data(), src.size()},
             src_box, region, sizeof(std::int64_t));

  const auto* d = reinterpret_cast<const std::int64_t*>(dst.data());
  Index off = Index::Zeros(2);
  Shape ext = dst_box.extent();
  do {
    Index g{dst_box.lo()[0] + off[0], dst_box.lo()[1] + off[1]};
    const std::int64_t got = d[LinearOffsetWithin(dst_box, g)];
    if (region.Contains(g)) {
      EXPECT_EQ(got, g[0] * 1000 + g[1]) << g.ToString();
    } else {
      // Outside the region: untouched filler.
      std::int64_t filler;
      std::memset(&filler, 0xEE, sizeof(filler));
      EXPECT_EQ(got, filler) << g.ToString();
    }
  } while (NextIndexRowMajor(ext, off));
}

TEST(StridedCopyTest, PackUnpackRoundTrip3D) {
  const Region box({1, 2, 3}, {4, 5, 6});
  const Region piece({2, 3, 4}, {2, 3, 2});
  auto src = MakePattern(box);

  std::vector<std::byte> packed(static_cast<size_t>(piece.Volume()) *
                                sizeof(std::int64_t));
  PackRegion({packed.data(), packed.size()}, {src.data(), src.size()}, box,
             piece, sizeof(std::int64_t));

  // Packed buffer is row-major over the piece.
  const auto* p = reinterpret_cast<const std::int64_t*>(packed.data());
  Index off = Index::Zeros(3);
  std::int64_t n = 0;
  Shape pext = piece.extent();
  do {
    Index g{piece.lo()[0] + off[0], piece.lo()[1] + off[1],
            piece.lo()[2] + off[2]};
    EXPECT_EQ(p[n++], (g[0] * 1000 + g[1]) * 1000 + g[2]);
  } while (NextIndexRowMajor(pext, off));

  // Unpack into a fresh buffer and compare against the source region.
  std::vector<std::byte> dst(src.size());
  std::fill(dst.begin(), dst.end(), std::byte{0});
  UnpackRegion({dst.data(), dst.size()}, box, {packed.data(), packed.size()},
               piece, sizeof(std::int64_t));
  const auto* s = reinterpret_cast<const std::int64_t*>(src.data());
  const auto* d = reinterpret_cast<const std::int64_t*>(dst.data());
  Index goff = Index::Zeros(3);
  Shape bext = box.extent();
  std::int64_t i = 0;
  do {
    Index g{box.lo()[0] + goff[0], box.lo()[1] + goff[1],
            box.lo()[2] + goff[2]};
    if (piece.Contains(g)) {
      EXPECT_EQ(d[i], s[i]);
    }
    ++i;
  } while (NextIndexRowMajor(bext, goff));
}

TEST(StridedCopyTest, Rank1Copy) {
  const Region src_box({0}, {10});
  const Region dst_box({3}, {7});
  const Region region({4}, {3});
  auto src = MakePattern(src_box);
  std::vector<std::byte> dst(static_cast<size_t>(dst_box.Volume()) *
                             sizeof(std::int64_t));
  CopyRegion({dst.data(), dst.size()}, dst_box, {src.data(), src.size()},
             src_box, region, sizeof(std::int64_t));
  const auto* d = reinterpret_cast<const std::int64_t*>(dst.data());
  EXPECT_EQ(d[1], 4);
  EXPECT_EQ(d[3], 6);
}

TEST(MeshTest, CoordsRoundTrip) {
  Mesh mesh(Shape{4, 2, 2});
  EXPECT_EQ(mesh.size(), 16);
  for (int pos = 0; pos < mesh.size(); ++pos) {
    EXPECT_EQ(mesh.PositionOf(mesh.Coords(pos)), pos);
  }
  EXPECT_EQ(mesh.Coords(0), (Index{0, 0, 0}));
  EXPECT_EQ(mesh.Coords(1), (Index{0, 0, 1}));
  EXPECT_EQ(mesh.Coords(15), (Index{3, 1, 1}));
}

TEST(DistributionTest, BlockIntervalEvenAndUneven) {
  // Even: 512 over 4 -> 128 each.
  for (int p = 0; p < 4; ++p) {
    const Interval iv = BlockInterval(512, p, 4);
    EXPECT_EQ(iv.lo, 128 * p);
    EXPECT_EQ(iv.extent, 128);
  }
  // Uneven: 10 over 4 -> 3,3,3,1 (HPF block = ceil).
  EXPECT_EQ(BlockInterval(10, 0, 4).extent, 3);
  EXPECT_EQ(BlockInterval(10, 2, 4).extent, 3);
  EXPECT_EQ(BlockInterval(10, 3, 4).extent, 1);
  // Degenerate: 2 over 4 -> 1,1,0,0.
  EXPECT_EQ(BlockInterval(2, 1, 4).extent, 1);
  EXPECT_EQ(BlockInterval(2, 2, 4).extent, 0);
  EXPECT_EQ(BlockInterval(2, 3, 4).extent, 0);
}

TEST(DistributionTest, BlockIntervalsPartition) {
  for (const std::int64_t n : {1, 7, 16, 100, 513}) {
    for (const std::int64_t parts : {1, 2, 3, 5, 8}) {
      std::int64_t total = 0;
      std::int64_t expected_lo = 0;
      for (std::int64_t p = 0; p < parts; ++p) {
        const Interval iv = BlockInterval(n, p, parts);
        if (iv.extent > 0) {
          EXPECT_EQ(iv.lo, expected_lo);
          expected_lo = iv.lo + iv.extent;
        }
        total += iv.extent;
      }
      EXPECT_EQ(total, n) << "n=" << n << " parts=" << parts;
    }
  }
}

TEST(DistributionTest, CyclicOwnedIntervals) {
  // CYCLIC(2) of extent 10 over 2 parts:
  //   part 0: [0,2) [4,6) [8,10) ; part 1: [2,4) [6,8)
  const auto p0 = OwnedIntervals(DimDist::Cyclic(2), 10, 0, 2);
  ASSERT_EQ(p0.size(), 3u);
  EXPECT_EQ(p0[0], (Interval{0, 2}));
  EXPECT_EQ(p0[2], (Interval{8, 2}));
  const auto p1 = OwnedIntervals(DimDist::Cyclic(2), 10, 1, 2);
  ASSERT_EQ(p1.size(), 2u);
  EXPECT_EQ(p1[0], (Interval{2, 2}));
  // Ragged tail: CYCLIC(4) of extent 10 over 2: part 0 gets [0,4),[8,10).
  const auto r0 = OwnedIntervals(DimDist::Cyclic(4), 10, 0, 2);
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[1], (Interval{8, 2}));
}

TEST(SchemaTest, NaturalBlock3D) {
  // The paper's canonical case: 512^3 as BLOCK,BLOCK,BLOCK over 4x4x2.
  Schema schema(Shape{512, 512, 512}, Mesh(Shape{4, 4, 2}),
                {DimDist::Block(), DimDist::Block(), DimDist::Block()});
  EXPECT_EQ(schema.chunks().size(), 32u);
  const Region cell0 = schema.CellRegion(0);
  EXPECT_EQ(cell0, Region({0, 0, 0}, {128, 128, 256}));
  const Region cell31 = schema.CellRegion(31);
  EXPECT_EQ(cell31, Region({384, 384, 256}, {128, 128, 256}));
  // Chunks partition the array.
  std::int64_t total = 0;
  for (const auto& c : schema.chunks()) total += c.region.Volume();
  EXPECT_EQ(total, 512LL * 512 * 512);
}

TEST(SchemaTest, TraditionalOrderBlockStarStar) {
  // BLOCK,*,* over an 8-node logical i/o mesh: 8 slabs of 64 planes.
  Schema schema(Shape{512, 512, 512}, Mesh(Shape{8}),
                {DimDist::Block(), DimDist::None(), DimDist::None()});
  ASSERT_EQ(schema.chunks().size(), 8u);
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(schema.chunks()[s].region,
              Region({64 * s, 0, 0}, {64, 512, 512}));
    EXPECT_EQ(schema.chunks()[s].owner_pos, s);
  }
}

TEST(SchemaTest, DistributedDimCountMustMatchMeshRank) {
  EXPECT_THROW(Schema(Shape{8, 8}, Mesh(Shape{2, 2}),
                      {DimDist::Block(), DimDist::None()}),
               PandaError);
  EXPECT_THROW(
      Schema(Shape{8}, Mesh(Shape{2, 2}), {DimDist::Block()}), PandaError);
}

TEST(SchemaTest, UnevenDivisionProducesEmptyCells) {
  // 2 rows over 4 parts: positions 2,3 own nothing.
  Schema schema(Shape{2, 8}, Mesh(Shape{4}),
                {DimDist::Block(), DimDist::None()});
  EXPECT_EQ(schema.chunks().size(), 2u);
  EXPECT_TRUE(schema.CellRegion(3).empty());
  EXPECT_FALSE(schema.CellRegion(1).empty());
}

TEST(SchemaTest, CyclicChunksEnumerated) {
  Schema schema(Shape{12}, Mesh(Shape{2}), {DimDist::Cyclic(2)});
  EXPECT_TRUE(schema.has_cyclic());
  // Position 0: [0,2) [4,6) [8,10); position 1: [2,4) [6,8) [10,12).
  EXPECT_EQ(schema.chunks().size(), 6u);
  std::int64_t total = 0;
  for (const auto& c : schema.chunks()) total += c.region.Volume();
  EXPECT_EQ(total, 12);
  EXPECT_EQ(schema.ChunksOf(0).size(), 3u);
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema schema(Shape{100, 200, 300}, Mesh(Shape{2, 3}),
                {DimDist::Block(), DimDist::Cyclic(7), DimDist::None()});
  std::vector<std::byte> buf;
  Encoder enc(buf);
  schema.EncodeTo(enc);
  Decoder dec(buf);
  const Schema back = Schema::Decode(dec);
  EXPECT_EQ(back, schema);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(SchemaTest, ChunkBoundHoldsWithoutEnumerating) {
  // The bound is counted in closed form: a schema at exactly the limit
  // constructs (its table is never built here), one chunk more throws.
  const Schema at_limit(Shape{Schema::kMaxChunks}, Mesh(Shape{4}),
                        {DimDist::Cyclic(1)});
  EXPECT_EQ(at_limit.num_chunks(), Schema::kMaxChunks);
  EXPECT_THROW(Schema(Shape{Schema::kMaxChunks + 1}, Mesh(Shape{4}),
                      {DimDist::Cyclic(1)}),
               PandaError);
  // Per-dimension block counts multiply: 2^11 x 2^11 + 1 row too many.
  EXPECT_THROW(Schema(Shape{2049, 2048}, Mesh(Shape{2, 2}),
                      {DimDist::Cyclic(1), DimDist::Cyclic(1)}),
               PandaError);
}

TEST(SchemaTest, HostileWireChunkCountThrowsAtDecode) {
  // A 1-D array of extent 2^40 under CYCLIC(1): every field is in range
  // for Decode, but the schema would have 2^40 chunks.
  std::vector<std::byte> buf;
  Encoder enc(buf);
  enc.Put<std::int32_t>(1);                       // array rank
  enc.Put<std::int64_t>(std::int64_t{1} << 40);   // extent
  enc.Put<std::int32_t>(1);                       // mesh rank
  enc.Put<std::int64_t>(2);                       // mesh extent
  enc.Put<std::int32_t>(1);                       // distributions
  enc.Put<std::uint8_t>(static_cast<std::uint8_t>(Dist::kCyclic));
  enc.Put<std::int64_t>(1);                       // CYCLIC block
  Decoder dec(buf);
  EXPECT_THROW((void)Schema::Decode(dec), PandaError);
}

TEST(SchemaTest, CopiesShareOneChunkTable) {
  const Schema original(Shape{64, 48}, Mesh(Shape{4, 3}),
                        {DimDist::Cyclic(2), DimDist::Block()});
  const Schema copy = original;
  Schema assigned;
  assigned = copy;
  // Built once, by whichever copy asks first, even when concurrent
  // ranks ask at once.
  Machine machine = Machine::Simulated(4, 1, Sp2Params::Functional(),
                                       /*store_data=*/false,
                                       /*timing_only=*/true);
  std::vector<const std::vector<SchemaChunk>*> seen(4, nullptr);
  machine.Run(
      [&](Endpoint&, int c) {
        const Schema local = c % 2 == 0 ? copy : assigned;
        seen[static_cast<size_t>(c)] = &local.chunks();
      },
      [](Endpoint&, int) {});
  for (const auto* table : seen) EXPECT_EQ(table, &original.chunks());
  EXPECT_EQ(original.chunks().size(),
            static_cast<size_t>(original.num_chunks()));
  // Only copies share: an equal schema built separately has its own.
  const Schema separate(Shape{64, 48}, Mesh(Shape{4, 3}),
                        {DimDist::Cyclic(2), DimDist::Block()});
  EXPECT_EQ(separate, original);
  EXPECT_NE(&separate.chunks(), &original.chunks());
}

TEST(SubchunkTest, SmallChunkIsSingleSubchunk) {
  const Region chunk({0, 0}, {10, 10});
  const auto subs = SplitIntoSubchunks(chunk, 8, 1024);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0], chunk);
}

TEST(SubchunkTest, SplitsAlongOuterDimension) {
  // 64 rows x 32 elems x 8B = 16 KB; max 4 KB -> 16 rows per sub-chunk.
  const Region chunk({0, 0}, {64, 32});
  const auto subs = SplitIntoSubchunks(chunk, 8, 4096);
  ASSERT_EQ(subs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(subs[static_cast<size_t>(i)],
              Region({16 * i, 0}, {16, 32}));
  }
}

TEST(SubchunkTest, RecursesWhenRowsTooLarge) {
  // One row = 1024*8 = 8 KB > max 4 KB: split within rows.
  const Region chunk({0, 0}, {4, 1024});
  const auto subs = SplitIntoSubchunks(chunk, 8, 4096);
  ASSERT_EQ(subs.size(), 8u);
  EXPECT_EQ(subs[0], Region({0, 0}, {1, 512}));
  EXPECT_EQ(subs[1], Region({0, 512}, {1, 512}));
  EXPECT_EQ(subs[7], Region({3, 512}, {1, 512}));
}

TEST(SubchunkTest, PartitionIsExactAndContiguous) {
  // Property: sub-chunks partition the chunk, appear in row-major order,
  // and each is a contiguous range of the chunk's linearization.
  const Region chunk({3, 5, 7}, {9, 11, 13});
  for (const std::int64_t max_bytes : {64, 256, 1000, 4096, 1 << 20}) {
    const auto subs = SplitIntoSubchunks(chunk, 4, max_bytes);
    std::int64_t covered = 0;
    std::int64_t expected_offset = 0;
    for (const Region& sub : subs) {
      EXPECT_TRUE(chunk.Contains(sub));
      EXPECT_TRUE(IsContiguousWithin(chunk, sub));
      EXPECT_LE(sub.Volume() * 4, max_bytes);
      // Contiguous ranges in order: each starts where the previous ended.
      EXPECT_EQ(LinearOffsetWithin(chunk, sub.lo()), expected_offset);
      expected_offset += sub.Volume();
      covered += sub.Volume();
    }
    EXPECT_EQ(covered, chunk.Volume()) << "max_bytes=" << max_bytes;
  }
}

TEST(SubchunkTest, PaperConfiguration1MBSubchunks) {
  // 512 MB array over 8 i/o nodes as BLOCK,*,*: 64 MB chunks ->
  // 64 sub-chunks of exactly 1 MB (one 512x512 plane each, 4B elems).
  const Region chunk({0, 0, 0}, {64, 512, 512});
  const auto subs = SplitIntoSubchunks(chunk, 4, 1 * kMiB);
  ASSERT_EQ(subs.size(), 64u);
  for (const auto& sub : subs) EXPECT_EQ(sub.Volume() * 4, 1 * kMiB);
}

TEST(SchemaChunksOfServerRoundRobin, ChunkIdsAreDense) {
  Schema schema(Shape{16, 16}, Mesh(Shape{4, 2}),
                {DimDist::Block(), DimDist::Block()});
  const auto& chunks = schema.chunks();
  for (size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].id, static_cast<int>(i));
  }
}

}  // namespace
}  // namespace panda
