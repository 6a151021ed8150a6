#include "panda/advisor.h"

#include <algorithm>
#include <limits>

#include "codec/frame.h"
#include "util/error.h"

namespace panda {
namespace {

// Ordered factorizations of n into exactly k factors, each >= 2
// (except k == 1, where the single factor is n itself).
void Factorizations(int n, int k, std::vector<int>& current,
                    std::vector<std::vector<int>>& out) {
  if (k == 1) {
    // The last factor must still be >= 2 when part of a longer
    // factorization (a 1-part dimension is just *, already covered by
    // the smaller-k candidates); a lone factor may be anything.
    if (current.empty() || n >= 2) {
      current.push_back(n);
      out.push_back(current);
      current.pop_back();
    }
    return;
  }
  for (int f = 2; f <= n; ++f) {
    if (n % f != 0) continue;
    current.push_back(f);
    Factorizations(n / f, k - 1, current, out);
    current.pop_back();
  }
}

// All k-subsets of {0..rank-1}, ascending.
void DimSubsets(int rank, int k, int start, std::vector<int>& current,
                std::vector<std::vector<int>>& out) {
  if (static_cast<int>(current.size()) == k) {
    out.push_back(current);
    return;
  }
  for (int d = start; d < rank; ++d) {
    current.push_back(d);
    DimSubsets(rank, k, d + 1, current, out);
    current.pop_back();
  }
}

}  // namespace

bool IsTraditionalOrder(const Schema& disk, int num_servers) {
  const Region whole = Region::Whole(disk.array_shape());
  const auto& chunks = disk.chunks();
  // Round-robin striping preserves global order across the concatenated
  // per-server files only when no server holds a second chunk.
  if (static_cast<int>(chunks.size()) > num_servers && num_servers > 1) {
    return false;
  }
  std::int64_t expected_offset = 0;
  for (const auto& chunk : chunks) {
    if (!IsContiguousWithin(whole, chunk.region)) return false;
    if (LinearOffsetWithin(whole, chunk.region.lo()) != expected_offset) {
      return false;
    }
    expected_offset += chunk.region.Volume();
  }
  return expected_offset == whole.Volume();
}

std::vector<SchemaCandidate> RankDiskSchemas(const ArrayMeta& meta,
                                             const World& world,
                                             const Sp2Params& params,
                                             const AdvisorOptions& options) {
  const Shape& shape = meta.memory.array_shape();
  const int rank = shape.rank();
  const int servers = world.num_servers;

  std::vector<Schema> schemas;
  schemas.push_back(meta.memory);  // natural chunking

  // Every BLOCK/* assignment of a factorization of the server count.
  for (int k = 1; k <= std::min(rank, 3); ++k) {
    std::vector<std::vector<int>> subsets;
    std::vector<int> current;
    DimSubsets(rank, k, 0, current, subsets);
    std::vector<std::vector<int>> factorizations;
    Factorizations(servers, k, current, factorizations);
    for (const auto& dims : subsets) {
      for (const auto& factors : factorizations) {
        bool feasible = true;
        for (int i = 0; i < k; ++i) {
          if (factors[static_cast<size_t>(i)] >
              shape[dims[static_cast<size_t>(i)]]) {
            feasible = false;  // more parts than elements
          }
        }
        if (!feasible) continue;
        Index mesh_dims;
        std::vector<DimDist> dists(static_cast<size_t>(rank),
                                   DimDist::None());
        for (int i = 0; i < k; ++i) {
          mesh_dims.Append(factors[static_cast<size_t>(i)]);
          dists[static_cast<size_t>(dims[static_cast<size_t>(i)])] =
              DimDist::Block();
        }
        Schema candidate(shape, Mesh(mesh_dims), dists);
        if (std::find(schemas.begin(), schemas.end(), candidate) ==
            schemas.end()) {
          schemas.push_back(std::move(candidate));
        }
      }
    }
  }

  std::vector<SchemaCandidate> out;
  for (Schema& disk : schemas) {
    SchemaCandidate cand;
    cand.traditional_order = IsTraditionalOrder(disk, servers);
    if (options.require_traditional_order && !cand.traditional_order) {
      continue;
    }
    ArrayMeta with_disk = meta;
    with_disk.disk = disk;
    cand.write_cost = PredictArrayIo(with_disk, IoOp::kWrite, world, params);
    cand.read_cost = PredictArrayIo(with_disk, IoOp::kRead, world, params);
    cand.objective_s = options.write_weight * cand.write_cost.elapsed_s +
                       options.read_weight * cand.read_cost.elapsed_s;
    cand.disk = std::move(disk);
    out.push_back(std::move(cand));
  }
  std::sort(out.begin(), out.end(),
            [](const SchemaCandidate& a, const SchemaCandidate& b) {
              return a.objective_s < b.objective_s;
            });
  return out;
}

CodecAdvice AdviseCodec(std::span<const std::byte> sample,
                        std::int64_t elem_size) {
  PANDA_REQUIRE(elem_size > 0, "element size must be positive");
  constexpr std::int64_t kMaxSampleBytes = 256 * 1024;
  // Clip to whole elements so shuffle/delta see well-formed input.
  std::int64_t n = std::min<std::int64_t>(
      static_cast<std::int64_t>(sample.size()), kMaxSampleBytes);
  n -= n % elem_size;
  CodecAdvice best;  // codec=none, ratio 1.0
  if (n == 0) return best;
  const std::span<const std::byte> clipped =
      sample.subspan(0, static_cast<size_t>(n));

  double best_ratio = 1.0;
  CodecId best_codec = CodecId::kNone;
  for (const CodecId id : AllCodecIds()) {
    if (id == CodecId::kNone) continue;
    const SubchunkFrame frame = EncodeSubchunkFrame(id, clipped, elem_size);
    if (frame.codec == CodecId::kNone) continue;  // did not fit its slot
    const double ratio = static_cast<double>(frame.frame_bytes(n)) /
                         static_cast<double>(n);
    if (ratio < best_ratio) {
      best_ratio = ratio;
      best_codec = id;
    }
  }
  // Incompressible (or barely compressible) data is not worth the
  // encode/decode compute: under a 5% saving, advise none.
  if (best_codec == CodecId::kNone || best_ratio >= 0.95) return best;
  best.codec = best_codec;
  best.sampled_ratio = best_ratio;
  return best;
}

std::int64_t AdviseShardSize(store::StoreBackend backend,
                             std::int64_t segment_bytes,
                             std::int64_t subchunk_bytes,
                             const ObjectStoreModel& model) {
  PANDA_REQUIRE(subchunk_bytes > 0, "sub-chunk size must be positive");
  constexpr std::int64_t kMiB = 1 << 20;
  if (segment_bytes <= subchunk_bytes) {
    return std::max(segment_bytes, subchunk_bytes);
  }
  if (backend == store::StoreBackend::kPosix) {
    // One unbounded shard per segment is already sequential-optimal on
    // a posix disk; bounded shards exist for bounded handles and repair
    // granularity, and every extra shard costs one fsync (plus a table
    // write when the segment keeps a table). Prefer few,
    // large shards: the overhead measurably vanishes by 4 MiB
    // (bench_shard_backend), capped so a segment still splits.
    const std::int64_t lo = std::max(subchunk_bytes, 4 * kMiB);
    const std::int64_t hi = std::max<std::int64_t>(lo, 16 * kMiB);
    return std::clamp(segment_bytes / 4, lo, hi);
  }
  // Object store: each shard is one whole-object PUT; `channels` run
  // concurrently, so a segment flush takes about
  //   ceil(n / channels) * (put_latency + shard / put_Bps)
  // waves. Tiny shards drown in round trips, one giant shard wastes
  // the parallel channels; sweep power-of-two multiples of the
  // sub-chunk and take the cheapest (larger wins ties: fewer objects).
  std::int64_t best = subchunk_bytes;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::int64_t shard = subchunk_bytes;;) {
    const std::int64_t capped = std::min(shard, segment_bytes);
    const std::int64_t n = (segment_bytes + capped - 1) / capped;
    const std::int64_t waves = (n + model.channels - 1) / model.channels;
    const double cost =
        static_cast<double>(waves) *
        (model.put_latency_s + static_cast<double>(capped) / model.put_Bps);
    if (cost <= best_cost) {  // <=: tie goes to the larger shard
      best_cost = cost;
      best = capped;
    }
    if (capped >= segment_bytes) break;
    shard *= 2;
  }
  return best;
}

SchemaCandidate AdviseDiskSchema(const ArrayMeta& meta, const World& world,
                                 const Sp2Params& params,
                                 const AdvisorOptions& options) {
  auto ranked = RankDiskSchemas(meta, world, params, options);
  PANDA_REQUIRE(!ranked.empty(),
                "no feasible disk schema for %s on %d i/o nodes",
                meta.name.c_str(), world.num_servers);
  return std::move(ranked.front());
}

}  // namespace panda
