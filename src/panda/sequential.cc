#include "panda/sequential.h"

#include "mdarray/strided_copy.h"
#include "panda/store_io.h"
#include "util/error.h"

namespace panda {
namespace {

// The file of one segment: the sequential platform reads and writes the
// unbounded layout, one shard per segment (store_io.h).
std::string SegmentFile(const ArrayMeta& meta, Purpose purpose,
                        std::int64_t seq, const std::string& group, int s) {
  return store::ShardFileName(DataFileName(group, meta.name, purpose, s),
                              purpose == Purpose::kTimestep ? seq : 0);
}

}  // namespace

SequentialPanda::SequentialPanda(std::vector<FileSystem*> server_fs,
                                 Sp2Params params)
    : fs_(std::move(server_fs)), params_(params) {
  PANDA_REQUIRE(!fs_.empty(), "need at least one i/o-node file system");
  for (FileSystem* fs : fs_) {
    PANDA_REQUIRE(fs != nullptr, "null file system");
  }
}

void SequentialPanda::Write(const ArrayMeta& meta,
                            std::span<const std::byte> data, Purpose purpose,
                            std::int64_t seq, const std::string& group) {
  PANDA_REQUIRE(static_cast<std::int64_t>(data.size()) == meta.total_bytes(),
                "data is %zu bytes but the array is %lld", data.size(),
                static_cast<long long>(meta.total_bytes()));
  const IoPlan plan(meta, num_servers(), params_.subchunk_bytes);
  const Region whole = Region::Whole(meta.memory.array_shape());
  const auto elem = static_cast<size_t>(meta.elem_size);

  for (int s = 0; s < num_servers(); ++s) {
    FileSystem& fs = *fs_[static_cast<size_t>(s)];
    if (purpose != Purpose::kTimestep || seq == 0) {
      // A truncating write retires the stream's later segments.
      for (const std::string& stale :
           StaleStreamFiles(fs, DataFileName(group, meta.name, purpose, s),
                            /*keep_shards=*/1, /*keep_journal=*/true)) {
        fs.Remove(stale);
      }
    }
    auto file = fs.Open(SegmentFile(meta, purpose, seq, group, s),
                        OpenMode::kWrite);
    std::vector<std::byte> buf;
    for (const int ci : plan.ChunksOfServer(s)) {
      const ChunkPlan& cp = plan.chunks()[static_cast<size_t>(ci)];
      for (const SubchunkPlan& sp : cp.subchunks) {
        buf.resize(static_cast<size_t>(sp.bytes));
        PackRegion({buf.data(), buf.size()}, data, whole, sp.region, elem);
        file->WriteAt(sp.file_offset, {buf.data(), buf.size()}, sp.bytes);
      }
    }
    file->Sync();
  }
}

void SequentialPanda::Read(const ArrayMeta& meta, std::span<std::byte> data,
                           Purpose purpose, std::int64_t seq,
                           const std::string& group) {
  PANDA_REQUIRE(static_cast<std::int64_t>(data.size()) == meta.total_bytes(),
                "data is %zu bytes but the array is %lld", data.size(),
                static_cast<long long>(meta.total_bytes()));
  const IoPlan plan(meta, num_servers(), params_.subchunk_bytes);
  const Region whole = Region::Whole(meta.memory.array_shape());
  const auto elem = static_cast<size_t>(meta.elem_size);

  for (int s = 0; s < num_servers(); ++s) {
    if (plan.ChunksOfServer(s).empty()) continue;
    auto file = fs_[static_cast<size_t>(s)]->Open(
        SegmentFile(meta, purpose, seq, group, s), OpenMode::kRead);
    std::vector<std::byte> buf;
    for (const int ci : plan.ChunksOfServer(s)) {
      const ChunkPlan& cp = plan.chunks()[static_cast<size_t>(ci)];
      for (const SubchunkPlan& sp : cp.subchunks) {
        buf.resize(static_cast<size_t>(sp.bytes));
        file->ReadAt(sp.file_offset, {buf.data(), buf.size()}, sp.bytes);
        UnpackRegion(data, whole, {buf.data(), buf.size()}, sp.region, elem);
      }
    }
  }
}

std::vector<std::byte> SequentialPanda::ReadWhole(const ArrayMeta& meta,
                                                  Purpose purpose,
                                                  std::int64_t seq,
                                                  const std::string& group) {
  std::vector<std::byte> data(static_cast<size_t>(meta.total_bytes()));
  Read(meta, {data.data(), data.size()}, purpose, seq, group);
  return data;
}

std::vector<std::byte> SequentialPanda::ReadSubarray(const ArrayMeta& meta,
                                                     const Region& region,
                                                     Purpose purpose,
                                                     std::int64_t seq,
                                                     const std::string& group) {
  PANDA_REQUIRE(
      Region::Whole(meta.memory.array_shape()).Contains(region),
      "subarray %s is not inside the array", region.ToString().c_str());
  const IoPlan plan(meta, num_servers(), params_.subchunk_bytes, region);
  const auto elem = static_cast<size_t>(meta.elem_size);
  std::vector<std::byte> out(static_cast<size_t>(region.Volume()) * elem);

  for (int s = 0; s < num_servers(); ++s) {
    if (plan.ChunksOfServer(s).empty()) continue;
    std::unique_ptr<File> file;  // opened lazily: the slice may miss s
    std::vector<std::byte> buf;
    for (const int ci : plan.ChunksOfServer(s)) {
      const ChunkPlan& cp = plan.chunks()[static_cast<size_t>(ci)];
      for (const SubchunkPlan& sp : cp.subchunks) {
        if (!sp.active) continue;
        if (file == nullptr) {
          file = fs_[static_cast<size_t>(s)]->Open(
              SegmentFile(meta, purpose, seq, group, s), OpenMode::kRead);
        }
        buf.resize(static_cast<size_t>(sp.bytes));
        file->ReadAt(sp.file_offset, {buf.data(), buf.size()}, sp.bytes);
        for (const PiecePlan& piece : sp.pieces) {
          CopyRegion({out.data(), out.size()}, region,
                     {buf.data(), buf.size()}, sp.region, piece.region, elem);
        }
      }
    }
  }
  return out;
}

}  // namespace panda
