#include "mdarray/schema.h"

#include <algorithm>

#include "util/error.h"
#include "util/math.h"

namespace panda {

namespace {

// One array dimension seen as CYCLIC(size) over `parts` mesh
// coordinates. BLOCK is CYCLIC(ceil(n/parts)), which never deals a part
// a second block, and * is a single block of the whole extent on one
// part. Block j covers [j*size, min((j+1)*size, n)) and is the
// (j / parts)-th block of part j % parts.
struct DimBlocks {
  std::int64_t n = 0;
  std::int64_t parts = 1;
  std::int64_t size = 1;
  std::int64_t blocks = 0;  // non-empty blocks over all parts

  // Non-empty blocks of part k.
  std::int64_t CountOf(std::int64_t k) const {
    return k < blocks ? (blocks - 1 - k) / parts + 1 : 0;
  }
  // Non-empty blocks of the parts below k.
  std::int64_t CountBelow(std::int64_t k) const {
    return (blocks / parts) * k + std::min(blocks % parts, k);
  }
  // Part k's t-th block.
  Interval Block(std::int64_t k, std::int64_t t) const {
    const std::int64_t lo = (k + t * parts) * size;
    return {lo, std::min(size, n - lo)};
  }
};

// Distributed dims consume mesh dims in array-dim order.
std::vector<DimBlocks> BlocksOf(const Shape& shape, const Mesh& mesh,
                                const std::vector<DimDist>& dists) {
  std::vector<DimBlocks> out(dists.size());
  int m = 0;
  for (size_t d = 0; d < dists.size(); ++d) {
    DimBlocks& b = out[d];
    b.n = shape[static_cast<int>(d)];
    switch (dists[d].kind) {
      case Dist::kNone:
        b.size = b.n;
        break;
      case Dist::kBlock:
        b.parts = mesh.dims()[m++];
        b.size = CeilDiv(b.n, b.parts);
        break;
      case Dist::kCyclic:
        // A block wider than the extent is the one block [0, n).
        b.parts = mesh.dims()[m++];
        b.size = std::clamp<std::int64_t>(dists[d].block, 1, b.n);
        break;
    }
    b.blocks = CeilDiv(b.n, b.size);
  }
  return out;
}

// Per-array-dim part of mesh position `pos` (0 on * dims).
Index PartsOf(const Mesh& mesh, const std::vector<DimDist>& dists, int pos) {
  const Index coords = mesh.Coords(pos);
  Index parts = Index::Zeros(static_cast<int>(dists.size()));
  int m = 0;
  for (size_t d = 0; d < dists.size(); ++d) {
    if (dists[d].distributed()) parts[static_cast<int>(d)] = coords[m++];
  }
  return parts;
}

}  // namespace

Schema::Schema(Shape array_shape, Mesh mesh, std::vector<DimDist> dists)
    : array_shape_(array_shape), mesh_(mesh), dists_(std::move(dists)) {
  PANDA_REQUIRE(array_shape_.rank() >= 1, "array rank must be >= 1");
  PANDA_REQUIRE(static_cast<int>(dists_.size()) == array_shape_.rank(),
                "schema has %zu distributions for a rank-%d array",
                dists_.size(), array_shape_.rank());
  for (int d = 0; d < array_shape_.rank(); ++d) {
    PANDA_REQUIRE(array_shape_[d] >= 1, "array dim %d must be positive", d);
  }
  int distributed = 0;
  for (const auto& dd : dists_) {
    if (dd.distributed()) ++distributed;
  }
  PANDA_REQUIRE(distributed == mesh_.rank(),
                "%d distributed dims but mesh rank %d", distributed,
                mesh_.rank());
  // The chunk count is the product of the per-dimension block counts.
  std::int64_t count = 1;
  for (const DimBlocks& b : BlocksOf(array_shape_, mesh_, dists_)) {
    PANDA_REQUIRE(!__builtin_mul_overflow(count, b.blocks, &count) &&
                      count <= kMaxChunks,
                  "schema produces too many chunks");
  }
  num_chunks_ = static_cast<int>(count);
  table_ = std::make_shared<ChunkTable>();
}

bool Schema::has_cyclic() const {
  return std::any_of(dists_.begin(), dists_.end(), [](const DimDist& d) {
    return d.kind == Dist::kCyclic;
  });
}

Region Schema::CellRegion(int pos) const {
  PANDA_CHECK_MSG(!has_cyclic(),
                  "CellRegion is only defined for BLOCK/* schemas");
  const auto dims = BlocksOf(array_shape_, mesh_, dists_);
  const Index parts = PartsOf(mesh_, dists_, pos);
  const int r = rank();
  Index lo = Index::Zeros(r);
  Shape extent = Index::Zeros(r);
  for (int d = 0; d < r; ++d) {
    const DimBlocks& b = dims[static_cast<size_t>(d)];
    if (b.CountOf(parts[d]) == 0) {
      return Region(Index::Zeros(r), Index::Zeros(r));  // empty cell
    }
    const Interval iv = b.Block(parts[d], 0);
    lo[d] = iv.lo;
    extent[d] = iv.extent;
  }
  return Region(lo, extent);
}

const std::vector<SchemaChunk>& Schema::chunks() const {
  if (table_ == nullptr) {
    static const std::vector<SchemaChunk> kNoChunks;
    return kNoChunks;
  }
  std::call_once(table_->built, [this] {
    table_->chunks = ChunksIntersecting(Region::Whole(array_shape_));
    PANDA_CHECK(static_cast<int>(table_->chunks.size()) == num_chunks_);
  });
  return table_->chunks;
}

std::vector<SchemaChunk> Schema::ChunksIntersecting(const Region& box) const {
  std::vector<SchemaChunk> out;
  if (rank() == 0) return out;
  const Region clipped = Intersect(box, Region::Whole(array_shape_));
  if (clipped.empty()) return out;
  const int r = rank();
  const auto dims = BlocksOf(array_shape_, mesh_, dists_);

  // Per dimension: the parts owning a block that meets the box,
  // ascending, each with its range [first, last] of block choices.
  struct Run {
    std::int64_t part, first, last;
  };
  std::vector<std::vector<Run>> runs(static_cast<size_t>(r));
  Shape num_runs = Index::Zeros(r);
  // Chunks of all parts of the dims after d (the row-major stride of a
  // dim-d part in the count of chunks before a position).
  std::vector<std::int64_t> after(static_cast<size_t>(r) + 1, 1);
  for (int d = r - 1; d >= 0; --d) {
    after[static_cast<size_t>(d)] =
        after[static_cast<size_t>(d) + 1] * dims[static_cast<size_t>(d)].blocks;
  }
  for (int d = 0; d < r; ++d) {
    const DimBlocks& b = dims[static_cast<size_t>(d)];
    std::vector<Run>& dim_runs = runs[static_cast<size_t>(d)];
    const std::int64_t first_block = clipped.lo()[d] / b.size;
    const std::int64_t last_block = (clipped.hi()[d] - 1) / b.size;
    for (std::int64_t j = first_block;
         j <= last_block && j < first_block + b.parts; ++j) {
      const std::int64_t k = j % b.parts;
      dim_runs.push_back({k, j / b.parts, (last_block - k) / b.parts});
    }
    std::sort(dim_runs.begin(), dim_runs.end(),
              [](const Run& x, const Run& y) { return x.part < y.part; });
    num_runs[d] = static_cast<std::int64_t>(dim_runs.size());
  }

  // Positions ascend with the runs (row-major over ascending parts), and
  // within a position the block choices ascend row-major: ids come out
  // ascending.
  Index run = Index::Zeros(r);
  do {
    Index coords = Index::Zeros(mesh_.rank());
    Shape counts = Index::Zeros(r);
    Shape span = Index::Zeros(r);
    std::int64_t base = 0;  // chunks of the positions before this one
    std::int64_t same = 1;  // chunks per position sharing parts 0..d-1
    int m = 0;
    for (int d = 0; d < r; ++d) {
      const DimBlocks& b = dims[static_cast<size_t>(d)];
      const Run& rn = runs[static_cast<size_t>(d)][static_cast<size_t>(run[d])];
      if (dists_[static_cast<size_t>(d)].distributed()) coords[m++] = rn.part;
      base += same * b.CountBelow(rn.part) * after[static_cast<size_t>(d) + 1];
      counts[d] = b.CountOf(rn.part);
      same *= counts[d];
      span[d] = rn.last - rn.first + 1;
    }
    const int pos = mesh_.PositionOf(coords);
    Index step = Index::Zeros(r);
    do {
      std::int64_t local = 0;
      Index lo = Index::Zeros(r);
      Shape extent = Index::Zeros(r);
      for (int d = 0; d < r; ++d) {
        const Run& rn =
            runs[static_cast<size_t>(d)][static_cast<size_t>(run[d])];
        const std::int64_t t = rn.first + step[d];
        local = local * counts[d] + t;
        const Interval iv = dims[static_cast<size_t>(d)].Block(rn.part, t);
        lo[d] = iv.lo;
        extent[d] = iv.extent;
      }
      out.push_back({static_cast<int>(base + local), pos, Region(lo, extent)});
    } while (NextIndexRowMajor(span, step));
  } while (NextIndexRowMajor(num_runs, run));
  return out;
}

std::vector<SchemaChunk> Schema::ChunksOf(int pos) const {
  std::vector<SchemaChunk> out;
  for (const auto& c : chunks()) {
    if (c.owner_pos == pos) out.push_back(c);
  }
  return out;
}

bool Schema::operator==(const Schema& o) const {
  return array_shape_ == o.array_shape_ && mesh_ == o.mesh_ &&
         dists_ == o.dists_;
}

std::string Schema::ToString() const {
  std::string out = "Schema{shape=" + array_shape_.ToString() + ", mesh=" +
                    mesh_.dims().ToString() + ", dists=(";
  for (size_t d = 0; d < dists_.size(); ++d) {
    if (d > 0) out += ",";
    out += DistName(dists_[d].kind);
    if (dists_[d].kind == Dist::kCyclic) {
      out += "(" + std::to_string(dists_[d].block) + ")";
    }
  }
  out += ")}";
  return out;
}

void Schema::EncodeTo(Encoder& enc) const {
  enc.Put<std::int32_t>(array_shape_.rank());
  for (int d = 0; d < array_shape_.rank(); ++d) {
    enc.Put<std::int64_t>(array_shape_[d]);
  }
  enc.Put<std::int32_t>(mesh_.rank());
  for (int d = 0; d < mesh_.rank(); ++d) {
    enc.Put<std::int64_t>(mesh_.dims()[d]);
  }
  enc.Put<std::int32_t>(static_cast<std::int32_t>(dists_.size()));
  for (const auto& dd : dists_) {
    enc.Put<std::uint8_t>(static_cast<std::uint8_t>(dd.kind));
    enc.Put<std::int64_t>(dd.block);
  }
}

Schema Schema::Decode(Decoder& dec) {
  // Wire data is untrusted: every field is range-checked with throwing
  // validation here (the constructors assert, they do not parse).
  const auto ar = dec.Get<std::int32_t>();
  PANDA_REQUIRE(ar >= 1 && ar <= kMaxRank, "bad array rank %d in schema", ar);
  Index shape = Index::Zeros(ar);
  std::int64_t volume = 1;
  for (int d = 0; d < ar; ++d) {
    shape[d] = dec.Get<std::int64_t>();
    PANDA_REQUIRE(shape[d] >= 1, "bad array extent in schema");
    PANDA_REQUIRE(!__builtin_mul_overflow(volume, shape[d], &volume) &&
                      volume <= (std::int64_t{1} << 56),
                  "array volume overflows in schema");
  }
  const auto mr = dec.Get<std::int32_t>();
  PANDA_REQUIRE(mr >= 1 && mr <= kMaxRank, "bad mesh rank %d in schema", mr);
  Index mdims = Index::Zeros(mr);
  std::int64_t mesh_size = 1;
  for (int d = 0; d < mr; ++d) {
    mdims[d] = dec.Get<std::int64_t>();
    PANDA_REQUIRE(mdims[d] >= 1, "bad mesh extent in schema");
    PANDA_REQUIRE(!__builtin_mul_overflow(mesh_size, mdims[d], &mesh_size) &&
                      mesh_size <= (std::int64_t{1} << 20),
                  "mesh size overflows in schema");
  }
  const auto nd = dec.Get<std::int32_t>();
  PANDA_REQUIRE(nd == ar, "schema dist count %d != rank %d", nd, ar);
  std::vector<DimDist> dists(static_cast<size_t>(nd));
  for (auto& dd : dists) {
    const auto kind = dec.Get<std::uint8_t>();
    PANDA_REQUIRE(kind <= 2, "bad distribution kind %u", kind);
    dd.kind = static_cast<Dist>(kind);
    dd.block = dec.Get<std::int64_t>();
    PANDA_REQUIRE(dd.kind != Dist::kCyclic ||
                      (dd.block >= 1 && dd.block <= (std::int64_t{1} << 40)),
                  "bad CYCLIC block in schema");
  }
  return Schema(shape, Mesh(mdims), std::move(dists));
}

std::vector<Region> SplitIntoSubchunks(const Region& chunk,
                                       std::int64_t elem_size,
                                       std::int64_t max_bytes) {
  PANDA_CHECK(elem_size >= 1 && max_bytes >= 1);
  std::vector<Region> out;
  if (chunk.empty()) return out;

  // Recursive splitter. `box` is the remaining region; `d` the dimension
  // being split. Tail bytes = bytes of one dim-d row of `box`.
  auto split = [&](auto&& self, const Region& box, int d) -> void {
    const std::int64_t bytes = box.Volume() * elem_size;
    if (bytes <= max_bytes) {
      out.push_back(box);
      return;
    }
    const int r = box.rank();
    std::int64_t tail = elem_size;
    for (int k = d + 1; k < r; ++k) tail *= box.extent()[k];

    if (tail <= max_bytes) {
      // Take runs of whole dim-d rows.
      const std::int64_t rows_per = std::max<std::int64_t>(1, max_bytes / tail);
      for (std::int64_t row = 0; row < box.extent()[d]; row += rows_per) {
        Index lo = box.lo();
        Shape extent = box.extent();
        lo[d] = box.lo()[d] + row;
        extent[d] = std::min(rows_per, box.extent()[d] - row);
        out.push_back(Region(lo, extent));
      }
    } else {
      // Even one row is too big: recurse into each row separately.
      // When d is the innermost dimension a "row" is a single element;
      // emit element runs of max_bytes/elem_size elements instead.
      if (d == r - 1) {
        const std::int64_t per = std::max<std::int64_t>(1, max_bytes / elem_size);
        for (std::int64_t e = 0; e < box.extent()[d]; e += per) {
          Index lo = box.lo();
          Shape extent = box.extent();
          lo[d] = box.lo()[d] + e;
          extent[d] = std::min(per, box.extent()[d] - e);
          out.push_back(Region(lo, extent));
        }
        return;
      }
      for (std::int64_t row = 0; row < box.extent()[d]; ++row) {
        Index lo = box.lo();
        Shape extent = box.extent();
        lo[d] = box.lo()[d] + row;
        extent[d] = 1;
        self(self, Region(lo, extent), d + 1);
      }
    }
  };
  split(split, chunk, 0);
  return out;
}

}  // namespace panda
