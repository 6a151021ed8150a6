// Array schemas: how one array is decomposed over a mesh.
//
// A Schema binds an array shape to a processor mesh through per-dimension
// HPF distributions (BLOCK, *, or the CYCLIC extension). Panda uses two
// schemas per array: the memory schema (over the compute-node mesh) and
// the disk schema (over a logical i/o mesh). "Natural chunking" means the
// two are identical [Seamons94b].
//
// The schema's cells are its *chunks*: the rectangular regions that Panda
// moves and stores as units. With BLOCK/* each mesh position owns exactly
// one (possibly empty) chunk; with CYCLIC a position owns several.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "mdarray/distribution.h"
#include "mdarray/mesh.h"
#include "mdarray/region.h"
#include "util/codec.h"

namespace panda {

// One chunk of a schema: a rectangular region owned by a mesh position.
// `id` is the canonical global chunk number (dense, 0-based); empty cells
// are skipped, so ids enumerate non-empty chunks only.
struct SchemaChunk {
  int id = 0;
  int owner_pos = 0;  // linear mesh position that owns the chunk
  Region region;
};

class Schema {
 public:
  // Library-wide sanity bound on a schema's chunk count: a schema with
  // millions of chunks is a bug (or hostile wire data), not a workload.
  static constexpr std::int64_t kMaxChunks = std::int64_t{1} << 22;

  Schema() = default;

  // `dists` has one entry per array dimension; the number of distributed
  // (non-*) entries must equal mesh.rank(). Throws PandaError on
  // malformed input, including more than kMaxChunks chunks (counted in
  // closed form: nothing is enumerated).
  Schema(Shape array_shape, Mesh mesh, std::vector<DimDist> dists);

  const Shape& array_shape() const { return array_shape_; }
  const Mesh& mesh() const { return mesh_; }
  const std::vector<DimDist>& dists() const { return dists_; }
  int rank() const { return array_shape_.rank(); }

  bool has_cyclic() const;

  // For BLOCK/* schemas: the unique region owned by mesh position `pos`
  // (may be empty). Aborts on CYCLIC schemas (use chunks()).
  Region CellRegion(int pos) const;

  // Number of non-empty chunks (== chunks().size()), known without
  // building the chunk table.
  int num_chunks() const { return num_chunks_; }

  // All non-empty chunks in canonical order: mesh positions ascending,
  // then (for CYCLIC) the per-dimension block choices in row-major order.
  // The table is built on the first call and shared, immutable, by every
  // copy of this schema value, so copying a Schema is O(rank) however
  // large its mesh.
  const std::vector<SchemaChunk>& chunks() const;

  // The chunks whose region intersects `box`, in canonical order, with
  // their canonical ids. Computed arithmetically, without the chunk
  // table: the cost is proportional to the result, not the mesh.
  std::vector<SchemaChunk> ChunksIntersecting(const Region& box) const;

  // The chunks owned by mesh position `pos`, in canonical order.
  std::vector<SchemaChunk> ChunksOf(int pos) const;

  bool operator==(const Schema& o) const;
  bool operator!=(const Schema& o) const { return !(*this == o); }

  std::string ToString() const;

  void EncodeTo(Encoder& enc) const;
  static Schema Decode(Decoder& dec);

 private:
  struct ChunkTable {
    std::once_flag built;
    std::vector<SchemaChunk> chunks;
  };

  Shape array_shape_;
  Mesh mesh_;
  std::vector<DimDist> dists_;
  int num_chunks_ = 0;
  std::shared_ptr<ChunkTable> table_;  // null only when default-constructed
};

// Splits `chunk` into rectangular sub-chunks of at most `max_bytes` each
// (elements of `elem_size` bytes). The sub-chunks partition the chunk and
// are returned in row-major order; each is a *contiguous* byte range of
// the chunk's row-major linearization, so a chunk file is exactly the
// concatenation of its sub-chunks. Panda uses max_bytes = 1 MB (the
// paper's experimentally chosen value) to bound server buffer space.
std::vector<Region> SplitIntoSubchunks(const Region& chunk,
                                       std::int64_t elem_size,
                                       std::int64_t max_bytes);

}  // namespace panda
