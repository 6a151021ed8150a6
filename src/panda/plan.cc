#include "panda/plan.h"

#include <algorithm>
#include <utility>

#include "mdarray/distribution.h"
#include "util/error.h"

namespace panda {

namespace {

// Pruning index over the clients' memory cells. BLOCK/* memory schemas
// (the only ones CellRegion admits) tile the array with a grid: mesh
// dim m partitions the m-th distributed array dimension into intervals
// that ascend with the mesh coordinate. A sub-chunk can then only
// intersect the cells whose per-dimension interval overlaps it — a
// binary search per mesh dim instead of a scan over every client,
// which is what keeps plan construction linear in the chunk count
// rather than quadratic (at 4096 ranks every server builds a whole plan
// and every client its view; see bench/bench_scale_ranks.cc).
class CellGrid {
 public:
  explicit CellGrid(const Schema& memory)
      : mesh_(&memory.mesh()), shape_(memory.array_shape()) {
    int m = 0;
    for (int d = 0; d < memory.rank(); ++d) {
      if (!memory.dists()[d].distributed()) continue;
      const std::int64_t parts = mesh_->dims()[m];
      const std::int64_t n = memory.array_shape()[d];
      MeshDim md;
      md.array_dim = d;
      md.cells.reserve(static_cast<size_t>(parts));
      for (std::int64_t k = 0; k < parts; ++k) {
        const auto ivs =
            OwnedIntervals(memory.dists()[d], n, k, parts);
        // Empty trailing cells get an {n, 0} sentinel so `lo` stays
        // monotone for the binary searches below.
        md.cells.push_back(ivs.empty() ? Interval{n, 0} : ivs[0]);
      }
      grid_.push_back(std::move(md));
      ++m;
    }
  }

  // Calls fn(client, cell) for every mesh position whose cell can
  // intersect `box`, in ascending linear position (= ascending client)
  // order. `cell` is the client's memory cell (Schema::CellRegion).
  template <typename Fn>
  void ForEachCandidate(const Region& box, Fn&& fn) const {
    const int mrank = static_cast<int>(grid_.size());
    std::vector<std::pair<int, int>> ranges(
        static_cast<size_t>(mrank));  // [begin, end) mesh coords
    for (int m = 0; m < mrank; ++m) {
      const std::vector<Interval>& cells = grid_[static_cast<size_t>(m)].cells;
      const std::int64_t qlo = box.lo()[grid_[static_cast<size_t>(m)].array_dim];
      const std::int64_t qhi = box.hi()[grid_[static_cast<size_t>(m)].array_dim];
      const auto begin = std::partition_point(
          cells.begin(), cells.end(),
          [qlo](const Interval& iv) { return iv.lo + iv.extent <= qlo; });
      const auto end = std::partition_point(
          cells.begin(), cells.end(),
          [qhi](const Interval& iv) { return iv.lo < qhi; });
      if (begin >= end) return;
      ranges[static_cast<size_t>(m)] = {
          static_cast<int>(begin - cells.begin()),
          static_cast<int>(end - cells.begin())};
    }
    // Row-major odometer over the coordinate ranges (last dim fastest):
    // linear positions come out ascending.
    Index coords = Index::Zeros(mrank);
    for (int m = 0; m < mrank; ++m) {
      coords[m] = ranges[static_cast<size_t>(m)].first;
    }
    for (;;) {
      Region cell = Region::Whole(shape_);
      Index lo = cell.lo();
      Shape extent = cell.extent();
      for (int m = 0; m < mrank; ++m) {
        const MeshDim& md = grid_[static_cast<size_t>(m)];
        const Interval& iv = md.cells[static_cast<size_t>(coords[m])];
        lo[md.array_dim] = iv.lo;
        extent[md.array_dim] = iv.extent;
      }
      fn(mesh_->PositionOf(coords), Region(lo, extent));
      int m = mrank - 1;
      for (; m >= 0; --m) {
        if (++coords[m] < ranges[static_cast<size_t>(m)].second) break;
        coords[m] = ranges[static_cast<size_t>(m)].first;
      }
      if (m < 0) return;
    }
  }

 private:
  struct MeshDim {
    int array_dim = 0;
    std::vector<Interval> cells;  // interval per mesh coordinate
  };
  const Mesh* mesh_;
  Shape shape_;
  std::vector<MeshDim> grid_;
};

// Calls fn(piece) for each piece of sub-chunk `sub`, ascending client:
// the sub-chunk's intersection with every client's memory cell, clipped
// to the active subarray region. The one definition of a sub-chunk's
// pieces — IoPlan stores them all, ClientView keeps one client's, and
// both number them by this enumeration.
template <typename Fn>
void ForEachPiece(const CellGrid& grid, const Region& sub,
                  const Region& active, std::int64_t elem, Fn&& fn) {
  grid.ForEachCandidate(sub, [&](int c, const Region& cell) {
    if (cell.empty()) return;
    const Region piece_region = Intersect(Intersect(sub, cell), active);
    if (piece_region.empty()) return;
    PiecePlan piece;
    piece.client = c;
    piece.region = piece_region;
    piece.bytes = piece_region.Volume() * elem;
    piece.contiguous_in_client = IsContiguousWithin(cell, piece_region);
    piece.contiguous_in_subchunk = IsContiguousWithin(sub, piece_region);
    fn(piece);
  });
}

void CheckPlanInputs(const ArrayMeta& meta, int num_servers,
                     std::int64_t subchunk_bytes, const Region& active) {
  PANDA_REQUIRE(num_servers >= 1, "need at least one server");
  PANDA_REQUIRE(subchunk_bytes >= 1, "sub-chunk size must be positive");
  // Pieces are cut from one memory cell per client (CellGrid).
  PANDA_REQUIRE(!meta.memory.has_cyclic(),
                "CYCLIC memory schemas are not supported (disk only)");
  PANDA_REQUIRE(
      Region::Whole(meta.memory.array_shape()).Contains(active),
      "subarray region %s is not inside the array %s",
      active.ToString().c_str(), meta.memory.array_shape().ToString().c_str());
}

}  // namespace

IoPlan::IoPlan(const ArrayMeta& meta, int num_servers,
               std::int64_t subchunk_bytes)
    : IoPlan(meta, num_servers, subchunk_bytes,
             Region::Whole(meta.memory.array_shape())) {}

IoPlan::IoPlan(const ArrayMeta& meta, int num_servers,
               std::int64_t subchunk_bytes, const Region& active)
    : num_servers_(num_servers) {
  CheckPlanInputs(meta, num_servers, subchunk_bytes, active);
  const Schema& disk = meta.disk;
  const std::int64_t elem = meta.elem_size;
  const CellGrid cell_grid(meta.memory);
  const int num_clients = meta.memory.mesh().size();

  chunks_of_server_.resize(static_cast<size_t>(num_servers));
  steps_of_client_.resize(static_cast<size_t>(num_clients));
  segment_bytes_.assign(static_cast<size_t>(num_servers), 0);

  chunks_.reserve(static_cast<size_t>(disk.num_chunks()));
  for (const SchemaChunk& sc : disk.chunks()) {
    ChunkPlan cp;
    cp.chunk_id = sc.id;
    // The paper's implicit chunk-level round-robin striping over servers.
    cp.server = sc.id % num_servers;
    cp.region = sc.region;
    cp.bytes = sc.region.Volume() * elem;
    cp.file_offset = segment_bytes_[static_cast<size_t>(cp.server)];
    segment_bytes_[static_cast<size_t>(cp.server)] += cp.bytes;

    // Sub-chunks: contiguous <=1MB ranges of the chunk's row-major order.
    std::int64_t sub_offset = cp.file_offset;
    for (const Region& sub : SplitIntoSubchunks(sc.region, elem,
                                                subchunk_bytes)) {
      SubchunkPlan sp;
      sp.region = sub;
      sp.bytes = sub.Volume() * elem;
      sp.file_offset = sub_offset;
      sub_offset += sp.bytes;
      ForEachPiece(cell_grid, sub, active, elem,
                   [&](const PiecePlan& piece) { sp.pieces.push_back(piece); });
      sp.active = !sp.pieces.empty();
      cp.subchunks.push_back(std::move(sp));
    }

    chunks_of_server_[static_cast<size_t>(cp.server)].push_back(
        static_cast<int>(chunks_.size()));
    chunks_.push_back(std::move(cp));
  }

  // Client obligations in global (chunk, sub, piece) order. chunks_ is
  // already ascending by chunk_id (disk.chunks() enumerates ids densely).
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    const ChunkPlan& cp = chunks_[ci];
    for (size_t si = 0; si < cp.subchunks.size(); ++si) {
      const SubchunkPlan& sp = cp.subchunks[si];
      for (size_t pi = 0; pi < sp.pieces.size(); ++pi) {
        steps_of_client_[static_cast<size_t>(sp.pieces[pi].client)].push_back(
            {static_cast<int>(ci), static_cast<int>(si),
             static_cast<int>(pi)});
      }
    }
  }
}

const std::vector<int>& IoPlan::ChunksOfServer(int s) const {
  PANDA_CHECK(s >= 0 && s < num_servers_);
  return chunks_of_server_[static_cast<size_t>(s)];
}

const std::vector<ClientStep>& IoPlan::StepsOfClient(int c) const {
  PANDA_CHECK(c >= 0 && c < static_cast<int>(steps_of_client_.size()));
  return steps_of_client_[static_cast<size_t>(c)];
}

std::int64_t IoPlan::SegmentBytes(int s) const {
  PANDA_CHECK(s >= 0 && s < num_servers_);
  return segment_bytes_[static_cast<size_t>(s)];
}

const ChunkPlan& IoPlan::chunk(const ClientStep& step) const {
  PANDA_CHECK(step.chunk_index >= 0 &&
              step.chunk_index < static_cast<int>(chunks_.size()));
  return chunks_[static_cast<size_t>(step.chunk_index)];
}

const SubchunkPlan& IoPlan::subchunk(const ClientStep& step) const {
  const ChunkPlan& cp = chunk(step);
  PANDA_CHECK(step.sub_index >= 0 &&
              step.sub_index < static_cast<int>(cp.subchunks.size()));
  return cp.subchunks[static_cast<size_t>(step.sub_index)];
}

const PiecePlan& IoPlan::piece(const ClientStep& step) const {
  const SubchunkPlan& sp = subchunk(step);
  PANDA_CHECK(step.piece_index >= 0 &&
              step.piece_index < static_cast<int>(sp.pieces.size()));
  return sp.pieces[static_cast<size_t>(step.piece_index)];
}

ClientView::ClientView(const ArrayMeta& meta, int num_servers,
                       std::int64_t subchunk_bytes, const Region& active,
                       int client) {
  CheckPlanInputs(meta, num_servers, subchunk_bytes, active);
  PANDA_CHECK(client >= 0 && client < meta.memory.mesh().size());
  const Region mine = Intersect(meta.memory.CellRegion(client), active);
  if (mine.empty()) return;
  const std::int64_t elem = meta.elem_size;
  const CellGrid cell_grid(meta.memory);
  // Only the disk chunks that meet this client's cell can hold its
  // pieces; a piece's index is its rank among all of the sub-chunk's
  // pieces, so those are enumerated exactly as IoPlan does.
  for (const SchemaChunk& sc : meta.disk.ChunksIntersecting(mine)) {
    const std::vector<Region> subs =
        SplitIntoSubchunks(sc.region, elem, subchunk_bytes);
    for (size_t si = 0; si < subs.size(); ++si) {
      if (Intersect(subs[si], mine).empty()) continue;
      int piece_index = 0;
      ForEachPiece(cell_grid, subs[si], active, elem,
                   [&](const PiecePlan& piece) {
                     if (piece.client == client) {
                       pieces_.push_back({{sc.id, static_cast<int>(si),
                                           piece_index},
                                          sc.id % num_servers,
                                          piece});
                     }
                     ++piece_index;
                   });
    }
  }
}

std::int64_t IoPlan::TotalPieces() const {
  std::int64_t total = 0;
  for (const auto& cp : chunks_) {
    for (const auto& sp : cp.subchunks) {
      total += static_cast<std::int64_t>(sp.pieces.size());
    }
  }
  return total;
}

}  // namespace panda
