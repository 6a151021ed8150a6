// Property-based tests: randomized sweeps over the geometry and
// planning invariants that the Panda protocol's correctness rests on.
// Each case draws many random configurations from a seeded RNG (fully
// reproducible) and checks the invariant exhaustively.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <tuple>

#include "mdarray/schema.h"
#include "mdarray/strided_copy.h"
#include "panda/plan.h"
#include "util/random.h"

namespace panda {
namespace {

Shape RandomShape(Rng& rng, int rank, std::int64_t max_extent) {
  Shape shape = Index::Zeros(rank);
  for (int d = 0; d < rank; ++d) {
    shape[d] = 1 + static_cast<std::int64_t>(rng.NextBelow(
                       static_cast<std::uint64_t>(max_extent)));
  }
  return shape;
}

Region RandomSubregion(Rng& rng, const Region& box) {
  const int r = box.rank();
  Index lo = Index::Zeros(r);
  Shape extent = Index::Zeros(r);
  for (int d = 0; d < r; ++d) {
    lo[d] = box.lo()[d] + static_cast<std::int64_t>(rng.NextBelow(
                              static_cast<std::uint64_t>(box.extent()[d])));
    const std::int64_t room = box.lo()[d] + box.extent()[d] - lo[d];
    extent[d] = 1 + static_cast<std::int64_t>(rng.NextBelow(
                        static_cast<std::uint64_t>(room)));
  }
  return Region(lo, extent);
}

// A random schema over `shape` whose distributed dims are BLOCK or,
// when `cyclic` allows, CYCLIC(1..4). With `cyclic` false it is BLOCK/*
// only and draws nothing extra from `rng`.
Schema RandomSchema(Rng& rng, const Shape& shape, bool cyclic = false) {
  const int r = shape.rank();
  std::vector<DimDist> dists(static_cast<size_t>(r), DimDist::None());
  Index mesh_dims;
  for (int d = 0; d < r; ++d) {
    if (rng.NextBelow(2) == 0 || (d == r - 1 && mesh_dims.rank() == 0)) {
      dists[static_cast<size_t>(d)] =
          cyclic && rng.NextBelow(2) == 0
              ? DimDist::Cyclic(1 + static_cast<std::int64_t>(rng.NextBelow(4)))
              : DimDist::Block();
      mesh_dims.Append(1 + static_cast<std::int64_t>(rng.NextBelow(4)));
    }
  }
  return Schema(shape, Mesh(mesh_dims), dists);
}

// The chunk table by definition: per mesh position ascending, the cross
// product (row-major) of the per-dimension owned intervals.
std::vector<SchemaChunk> ReferenceChunks(const Schema& schema) {
  std::vector<SchemaChunk> out;
  const int r = schema.rank();
  for (int pos = 0; pos < schema.mesh().size(); ++pos) {
    const Index coords = schema.mesh().Coords(pos);
    std::vector<std::vector<Interval>> choices(static_cast<size_t>(r));
    Shape counts = Index::Zeros(r);
    int m = 0;
    for (int d = 0; d < r; ++d) {
      const DimDist& dd = schema.dists()[static_cast<size_t>(d)];
      const std::int64_t part = dd.distributed() ? coords[m] : 0;
      const std::int64_t parts =
          dd.distributed() ? schema.mesh().dims()[m++] : 1;
      choices[static_cast<size_t>(d)] =
          OwnedIntervals(dd, schema.array_shape()[d], part, parts);
      counts[d] = static_cast<std::int64_t>(choices[static_cast<size_t>(d)].size());
    }
    if (counts.Volume() == 0) continue;
    Index pick = Index::Zeros(r);
    do {
      Index lo = Index::Zeros(r);
      Shape extent = Index::Zeros(r);
      for (int d = 0; d < r; ++d) {
        const Interval& iv =
            choices[static_cast<size_t>(d)][static_cast<size_t>(pick[d])];
        lo[d] = iv.lo;
        extent[d] = iv.extent;
      }
      out.push_back({static_cast<int>(out.size()), pos, Region(lo, extent)});
    } while (NextIndexRowMajor(counts, pick));
  }
  return out;
}

bool SameChunk(const SchemaChunk& a, const SchemaChunk& b) {
  return a.id == b.id && a.owner_pos == b.owner_pos && a.region == b.region;
}

TEST(PropertyTest, ChunkTableMatchesItsDefinition) {
  // chunks() and ChunksIntersecting() compute chunk ids arithmetically;
  // both must agree with the cross-product definition, and the
  // closed-form count with the table.
  Rng rng(4242);
  for (int iter = 0; iter < 300; ++iter) {
    const int rank = 1 + static_cast<int>(rng.NextBelow(3));
    const Shape shape = RandomShape(rng, rank, 12);
    const Schema schema = RandomSchema(rng, shape, /*cyclic=*/true);
    const std::vector<SchemaChunk> want = ReferenceChunks(schema);
    ASSERT_EQ(schema.chunks().size(), want.size()) << schema.ToString();
    EXPECT_EQ(schema.num_chunks(), static_cast<int>(want.size()));
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(SameChunk(schema.chunks()[i], want[i]))
          << schema.ToString() << " chunk " << i;
    }
    for (int q = 0; q < 4; ++q) {
      const Region box = RandomSubregion(rng, Region::Whole(shape));
      std::vector<SchemaChunk> meeting;
      for (const SchemaChunk& c : want) {
        if (!Intersect(c.region, box).empty()) meeting.push_back(c);
      }
      const std::vector<SchemaChunk> got = schema.ChunksIntersecting(box);
      ASSERT_EQ(got.size(), meeting.size())
          << schema.ToString() << " box " << box.ToString();
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(SameChunk(got[i], meeting[i]))
            << schema.ToString() << " box " << box.ToString();
      }
    }
  }
}

TEST(PropertyTest, IntersectionIsContainedAndCommutative) {
  Rng rng(2024);
  for (int iter = 0; iter < 500; ++iter) {
    const int rank = 1 + static_cast<int>(rng.NextBelow(4));
    const Region box(Index::Zeros(rank), RandomShape(rng, rank, 12));
    const Region a = RandomSubregion(rng, box);
    const Region b = RandomSubregion(rng, box);
    const Region ab = Intersect(a, b);
    EXPECT_EQ(ab, Intersect(b, a));
    if (!ab.empty()) {
      EXPECT_TRUE(a.Contains(ab));
      EXPECT_TRUE(b.Contains(ab));
    }
    // Volume check against pointwise membership on small boxes.
    if (box.Volume() <= 512) {
      std::int64_t count = 0;
      Index idx = Index::Zeros(rank);
      Shape ext = box.extent();
      do {
        if (a.Contains(idx) && b.Contains(idx)) ++count;
      } while (NextIndexRowMajor(ext, idx));
      EXPECT_EQ(count, ab.Volume());
    }
  }
}

TEST(PropertyTest, SchemaCellsPartitionTheArray) {
  // Every BLOCK/* schema's chunks tile the array exactly: disjoint,
  // covering, and in ascending dense-id order.
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    const int rank = 1 + static_cast<int>(rng.NextBelow(3));
    const Shape shape = RandomShape(rng, rank, 14);
    const Schema schema = RandomSchema(rng, shape);

    std::int64_t covered = 0;
    for (const auto& chunk : schema.chunks()) covered += chunk.region.Volume();
    EXPECT_EQ(covered, shape.Volume()) << schema.ToString();

    // Disjointness via pointwise ownership (small arrays only).
    if (shape.Volume() <= 1000) {
      Index idx = Index::Zeros(rank);
      Shape ext = shape;
      do {
        int owners = 0;
        for (const auto& chunk : schema.chunks()) {
          if (chunk.region.Contains(idx)) ++owners;
        }
        EXPECT_EQ(owners, 1) << schema.ToString() << " at " << idx.ToString();
      } while (NextIndexRowMajor(ext, idx));
    }
  }
}

TEST(PropertyTest, CyclicSchemaCellsPartitionToo) {
  Rng rng(99);
  for (int iter = 0; iter < 100; ++iter) {
    const Shape shape = RandomShape(rng, 2, 20);
    const std::int64_t block = 1 + static_cast<std::int64_t>(rng.NextBelow(5));
    const std::int64_t parts = 1 + static_cast<std::int64_t>(rng.NextBelow(4));
    Schema schema(shape, Mesh(Shape{parts}),
                  {DimDist::Cyclic(block), DimDist::None()});
    std::int64_t covered = 0;
    for (const auto& chunk : schema.chunks()) covered += chunk.region.Volume();
    EXPECT_EQ(covered, shape.Volume());
  }
}

TEST(PropertyTest, SubchunksAreOrderedContiguousPartition) {
  Rng rng(41);
  for (int iter = 0; iter < 300; ++iter) {
    const int rank = 1 + static_cast<int>(rng.NextBelow(4));
    const Region chunk(Index::Zeros(rank), RandomShape(rng, rank, 10));
    const std::int64_t elem = 1 + static_cast<std::int64_t>(rng.NextBelow(8));
    const std::int64_t max_bytes =
        1 + static_cast<std::int64_t>(rng.NextBelow(256));
    const auto subs = SplitIntoSubchunks(chunk, elem, max_bytes);

    std::int64_t expected_offset = 0;
    for (const Region& sub : subs) {
      EXPECT_TRUE(chunk.Contains(sub));
      EXPECT_TRUE(IsContiguousWithin(chunk, sub));
      // Size bound holds unless a single element already exceeds it.
      if (elem <= max_bytes) {
        EXPECT_LE(sub.Volume() * elem, max_bytes);
      }
      EXPECT_EQ(LinearOffsetWithin(chunk, sub.lo()), expected_offset);
      expected_offset += sub.Volume();
    }
    EXPECT_EQ(expected_offset, chunk.Volume());
  }
}

TEST(PropertyTest, ContiguityPredicateMatchesLinearization) {
  // IsContiguousWithin(outer, inner) must agree with a brute-force scan
  // of the inner region's linear offsets in the outer box.
  Rng rng(12345);
  for (int iter = 0; iter < 400; ++iter) {
    const int rank = 1 + static_cast<int>(rng.NextBelow(3));
    const Region outer(Index::Zeros(rank), RandomShape(rng, rank, 8));
    const Region inner = RandomSubregion(rng, outer);

    std::vector<std::int64_t> offsets;
    Index off = Index::Zeros(rank);
    Shape ext = inner.extent();
    do {
      Index g = inner.lo();
      for (int d = 0; d < rank; ++d) g[d] += off[d];
      offsets.push_back(LinearOffsetWithin(outer, g));
    } while (NextIndexRowMajor(ext, off));

    bool contiguous = true;
    for (size_t i = 1; i < offsets.size(); ++i) {
      if (offsets[i] != offsets[i - 1] + 1) {
        contiguous = false;
        break;
      }
    }
    EXPECT_EQ(IsContiguousWithin(outer, inner), contiguous)
        << outer.ToString() << " " << inner.ToString();
  }
}

TEST(PropertyTest, PackThenUnpackIsIdentityOnTheRegion) {
  Rng rng(5150);
  for (int iter = 0; iter < 200; ++iter) {
    const int rank = 1 + static_cast<int>(rng.NextBelow(4));
    const Region box(Index::Zeros(rank), RandomShape(rng, rank, 7));
    const Region piece = RandomSubregion(rng, box);
    const size_t elem = 1 + rng.NextBelow(8);

    std::vector<std::byte> src(static_cast<size_t>(box.Volume()) * elem);
    for (auto& b : src) b = static_cast<std::byte>(rng.Next());

    std::vector<std::byte> packed(static_cast<size_t>(piece.Volume()) * elem);
    PackRegion({packed.data(), packed.size()}, {src.data(), src.size()}, box,
               piece, elem);
    std::vector<std::byte> dst(src.size(), std::byte{0});
    UnpackRegion({dst.data(), dst.size()}, box,
                 {packed.data(), packed.size()}, piece, elem);

    // dst equals src inside the piece and zero outside.
    Index off = Index::Zeros(rank);
    Shape ext = box.extent();
    std::int64_t n = 0;
    do {
      Index g = off;  // box.lo() is zero
      const bool inside = piece.Contains(g);
      for (size_t k = 0; k < elem; ++k) {
        const size_t at = static_cast<size_t>(n) * elem + k;
        if (inside) {
          ASSERT_EQ(dst[at], src[at]);
        } else {
          ASSERT_EQ(dst[at], std::byte{0});
        }
      }
      ++n;
    } while (NextIndexRowMajor(ext, off));
  }
}

TEST(PropertyTest, PlanCoversEveryElementExactlyOnce) {
  // The protocol-correctness core: across a random (memory, disk)
  // schema pair, the union of all pieces covers each array element
  // exactly once, and the pieces are consistent with file offsets.
  Rng rng(777);
  for (int iter = 0; iter < 120; ++iter) {
    const int rank = 1 + static_cast<int>(rng.NextBelow(3));
    const Shape shape = RandomShape(rng, rank, 10);
    const Schema memory = RandomSchema(rng, shape);
    const Schema disk = RandomSchema(rng, shape);
    ArrayMeta meta;
    meta.name = "prop";
    meta.elem_size = 1 + static_cast<std::int64_t>(rng.NextBelow(8));
    meta.memory = memory;
    meta.disk = disk;
    const int num_servers = 1 + static_cast<int>(rng.NextBelow(4));
    const std::int64_t subchunk_bytes =
        8 + static_cast<std::int64_t>(rng.NextBelow(512));
    const IoPlan plan(meta, num_servers, subchunk_bytes);

    // Element coverage by pieces.
    std::map<std::int64_t, int> covered;  // linear index -> count
    for (const auto& cp : plan.chunks()) {
      for (const auto& sp : cp.subchunks) {
        for (const auto& piece : sp.pieces) {
          Index off = Index::Zeros(rank);
          Shape ext = piece.region.extent();
          do {
            Index g = piece.region.lo();
            for (int d = 0; d < rank; ++d) g[d] += off[d];
            std::int64_t lin = 0;
            for (int d = 0; d < rank; ++d) lin = lin * shape[d] + g[d];
            covered[lin] += 1;
          } while (NextIndexRowMajor(ext, off));
        }
      }
    }
    EXPECT_EQ(static_cast<std::int64_t>(covered.size()), shape.Volume())
        << memory.ToString() << " -> " << disk.ToString();
    for (const auto& [lin, count] : covered) {
      ASSERT_EQ(count, 1) << "element " << lin;
    }

    // Segments tile each server's file without gaps.
    std::int64_t total_segment_bytes = 0;
    for (int s = 0; s < num_servers; ++s) {
      total_segment_bytes += plan.SegmentBytes(s);
    }
    EXPECT_EQ(total_segment_bytes, shape.Volume() * meta.elem_size);
  }
}

TEST(PropertyTest, ClientViewsAreTheirShareOfThePlan) {
  // Each client plans only its own pieces. Its view must list exactly
  // its StepsOfClient, with the same pieces and owning servers, across
  // BLOCK/* and CYCLIC disk schemas, empty trailing cells and subarray
  // reads.
  Rng rng(5150);
  int cyclic_cases = 0, empty_cells = 0, subarray_cases = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const int rank = 1 + static_cast<int>(rng.NextBelow(3));
    const Shape shape = RandomShape(rng, rank, 9);
    ArrayMeta meta;
    meta.name = "view";
    meta.elem_size = 1 + static_cast<std::int64_t>(rng.NextBelow(8));
    meta.memory = RandomSchema(rng, shape);
    meta.disk = RandomSchema(rng, shape, /*cyclic=*/true);
    const int num_servers = 1 + static_cast<int>(rng.NextBelow(4));
    const std::int64_t subchunk_bytes =
        8 + static_cast<std::int64_t>(rng.NextBelow(256));
    const bool subarray = rng.NextBelow(2) == 0;
    const Region active = subarray ? RandomSubregion(rng, Region::Whole(shape))
                                   : Region::Whole(shape);
    const IoPlan plan(meta, num_servers, subchunk_bytes, active);
    cyclic_cases += meta.disk.has_cyclic() ? 1 : 0;
    subarray_cases += subarray ? 1 : 0;

    for (int c = 0; c < meta.memory.mesh().size(); ++c) {
      if (meta.memory.CellRegion(c).empty()) ++empty_cells;
      const ClientView view(meta, num_servers, subchunk_bytes, active, c);
      const std::vector<ClientStep>& steps = plan.StepsOfClient(c);
      ASSERT_EQ(view.pieces().size(), steps.size())
          << meta.memory.ToString() << " -> " << meta.disk.ToString()
          << " client " << c;
      for (size_t i = 0; i < steps.size(); ++i) {
        const ClientPiece& got = view.pieces()[i];
        const auto key = [](const ClientStep& s) {
          return std::tuple(s.chunk_index, s.sub_index, s.piece_index);
        };
        ASSERT_EQ(key(got.step), key(steps[i])) << "client " << c;
        EXPECT_EQ(got.server, plan.chunk(steps[i]).server);
        const PiecePlan& want = plan.piece(steps[i]);
        EXPECT_EQ(got.piece.client, want.client);
        EXPECT_EQ(got.piece.region, want.region);
        EXPECT_EQ(got.piece.bytes, want.bytes);
        EXPECT_EQ(got.piece.contiguous_in_client, want.contiguous_in_client);
        EXPECT_EQ(got.piece.contiguous_in_subchunk,
                  want.contiguous_in_subchunk);
      }
    }
  }
  // The sweep really covers every family it claims to.
  EXPECT_GT(cyclic_cases, 20);
  EXPECT_GT(empty_cells, 20);
  EXPECT_GT(subarray_cases, 20);
}

TEST(PropertyTest, ClientStepsConsistentWithServerOrder) {
  // For every client, the induced per-server subsequence of its steps
  // matches the order in which that server visits (chunk, sub, piece) —
  // the deadlock-freedom precondition.
  Rng rng(31337);
  for (int iter = 0; iter < 60; ++iter) {
    const Shape shape = RandomShape(rng, 3, 8);
    ArrayMeta meta;
    meta.name = "o";
    meta.elem_size = 4;
    meta.memory = RandomSchema(rng, shape);
    meta.disk = RandomSchema(rng, shape);
    const int num_servers = 1 + static_cast<int>(rng.NextBelow(3));
    const IoPlan plan(meta, num_servers, 64);

    const int num_clients = meta.memory.mesh().size();
    for (int c = 0; c < num_clients; ++c) {
      std::map<int, std::vector<ClientStep>> per_server;
      for (const ClientStep& step : plan.StepsOfClient(c)) {
        per_server[plan.chunk(step).server].push_back(step);
      }
      for (const auto& [server, steps] : per_server) {
        // Server visits its chunks ascending, sub-chunks ascending,
        // pieces ascending: the client's view must be sorted the same.
        for (size_t i = 1; i < steps.size(); ++i) {
          const auto key = [](const ClientStep& s) {
            return std::tuple(s.chunk_index, s.sub_index, s.piece_index);
          };
          EXPECT_LT(key(steps[i - 1]), key(steps[i])) << "server " << server;
        }
      }
    }
  }
}

}  // namespace
}  // namespace panda
