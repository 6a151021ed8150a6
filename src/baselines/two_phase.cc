#include "baselines/two_phase.h"

#include <map>
#include <vector>

#include "baselines/baseline_util.h"
#include "mdarray/strided_copy.h"
#include "msg/hb.h"
#include "panda/protocol.h"
#include "store/shard_layout.h"

namespace panda {
namespace {

int ConformingOwner(int chunk_id, int num_clients) {
  return chunk_id % num_clients;
}

// Header for phase-1 and phase-2 messages: chunk/sub indices + region.
Message PieceMessage(std::int32_t chunk_index, std::int32_t sub_index,
                     std::int32_t piece_index, const Region& region) {
  Message msg;
  Encoder enc(msg.header);
  PieceHeader{0, chunk_index, sub_index, piece_index, region}.EncodeTo(enc);
  return msg;
}

}  // namespace

double TwoPhaseWriteClient(Endpoint& ep, const World& world,
                           const Sp2Params& params, Array& array) {
  PANDA_REQUIRE(array.bound(), "array must be bound");
  const double start = ep.clock().Now();
  const ArrayMeta& meta = array.meta();
  const IoPlan plan(meta, world.num_servers, params.subchunk_bytes);
  const bool timing = ep.timing_only();
  const int me = ep.rank();
  const Region& cell = array.local_region();
  const auto elem = static_cast<size_t>(meta.elem_size);

  // ---- Phase 1: permute so ownership conforms to the disk layout ----
  // Send every piece of every chunk this client holds to the chunk's
  // conforming owner (buffered sends; no deadlock possible).
  for (const ChunkPlan& cp : plan.chunks()) {
    const int owner = ConformingOwner(cp.chunk_id, world.num_clients);
    const Region piece = cell.empty() ? Region(Index::Zeros(cell.rank()),
                                               Index::Zeros(cell.rank()))
                                      : Intersect(cp.region, cell);
    if (piece.empty()) continue;
    const std::int64_t bytes = piece.Volume() * meta.elem_size;
    // Strided gathers out of the local buffer charge reorganization.
    if (!IsContiguousWithin(cell, piece)) {
      ep.AdvanceCompute(static_cast<double>(bytes) / params.memcpy_Bps);
    }
    Message msg = PieceMessage(cp.chunk_id, -1, -1, piece);
    if (!timing) {
      std::vector<std::byte> payload(static_cast<size_t>(bytes));
      PackRegion({payload.data(), payload.size()}, array.local_data(), cell,
                 piece, elem);
      msg.SetPayload(std::move(payload));
    } else {
      msg.SetVirtualPayload(bytes);
    }
    ep.Send(owner, kTagPhase1Piece, std::move(msg));
  }

  // Receive and assemble the chunks this client conformingly owns.
  std::map<int, std::vector<std::byte>> owned;  // chunk index -> buffer
  for (size_t ci = 0; ci < plan.chunks().size(); ++ci) {
    const ChunkPlan& cp = plan.chunks()[ci];
    if (ConformingOwner(cp.chunk_id, world.num_clients) != me) continue;
    auto& buf = owned[static_cast<int>(ci)];
    if (!timing) buf.assign(static_cast<size_t>(cp.bytes), std::byte{0});
    // Pieces arrive from holders in ascending holder order (each holder
    // sends its pieces in ascending chunk order, so FIFO matching works).
    for (int holder = 0; holder < world.num_clients; ++holder) {
      const Region holder_cell = meta.memory.CellRegion(holder);
      const Region piece = holder_cell.empty()
                               ? Region(Index::Zeros(cell.rank()),
                                        Index::Zeros(cell.rank()))
                               : Intersect(cp.region, holder_cell);
      if (piece.empty()) continue;
      Message msg = ep.Recv(holder, kTagPhase1Piece);
      Decoder dec(msg.header);
      const PieceHeader h = PieceHeader::Decode(dec);
      PANDA_REQUIRE(h.chunk_index == cp.chunk_id && h.region == piece,
                    "phase-1 piece does not match the plan");
      const std::int64_t bytes = piece.Volume() * meta.elem_size;
      if (!IsContiguousWithin(cp.region, piece)) {
        ep.AdvanceCompute(static_cast<double>(bytes) / params.memcpy_Bps);
      }
      if (!timing) {
        PANDA_REQUIRE(
            static_cast<std::int64_t>(msg.payload.size()) == bytes,
            "phase-1 payload size mismatch");
        UnpackRegion({buf.data(), buf.size()}, cp.region,
                     {msg.payload.data(), msg.payload.size()}, piece, elem);
      }
    }
  }

  // ---- Phase 2: ship conforming chunks to their i/o nodes ----
  for (const auto& [ci, buf] : owned) {
    const ChunkPlan& cp = plan.chunks()[static_cast<size_t>(ci)];
    for (size_t si = 0; si < cp.subchunks.size(); ++si) {
      const SubchunkPlan& sp = cp.subchunks[si];
      Message msg = PieceMessage(cp.chunk_id, static_cast<std::int32_t>(si),
                                 -1, sp.region);
      if (!timing) {
        // Sub-chunks are contiguous ranges of the chunk buffer.
        const std::int64_t begin = sp.file_offset - cp.file_offset;
        msg.SetPayload(std::vector<std::byte>(
            buf.begin() + static_cast<std::ptrdiff_t>(begin),
            buf.begin() + static_cast<std::ptrdiff_t>(begin + sp.bytes)));
      } else {
        msg.SetVirtualPayload(sp.bytes);
      }
      ep.Send(world.server_rank(cp.server), kTagPhase2Data, std::move(msg));
    }
  }

  WorldBarrier(ep, world);
  return ep.clock().Now() - start;
}

void TwoPhaseWriteServer(Endpoint& ep, FileSystem& fs, const World& world,
                         const Sp2Params& params, const ArrayMeta& meta) {
  const int sidx = ep.rank() - world.num_clients;
  const IoPlan plan(meta, world.num_servers, params.subchunk_bytes);
  const bool timing = ep.timing_only();

  if (!plan.ChunksOfServer(sidx).empty()) {
    hb::StampAccess(&fs, "baselines.two_phase.fs", /*is_write=*/true);
    auto file = fs.Open(
        store::ShardFileName(
            DataFileName("", meta.name, Purpose::kGeneral, sidx), 0),
        OpenMode::kWrite);
    for (const int ci : plan.ChunksOfServer(sidx)) {
      const ChunkPlan& cp = plan.chunks()[static_cast<size_t>(ci)];
      const int owner = ConformingOwner(cp.chunk_id, world.num_clients);
      for (size_t si = 0; si < cp.subchunks.size(); ++si) {
        const SubchunkPlan& sp = cp.subchunks[si];
        Message msg = ep.Recv(owner, kTagPhase2Data);
        Decoder dec(msg.header);
        const PieceHeader h = PieceHeader::Decode(dec);
        PANDA_REQUIRE(h.chunk_index == cp.chunk_id &&
                          h.sub_index == static_cast<std::int32_t>(si) &&
                          h.region == sp.region,
                      "phase-2 sub-chunk does not match the plan");
        if (!timing) {
          PANDA_REQUIRE(
              static_cast<std::int64_t>(msg.payload.size()) == sp.bytes,
              "phase-2 payload size mismatch");
        }
        file->WriteAt(sp.file_offset, {msg.payload.data(), msg.payload.size()},
                      sp.bytes);
      }
    }
    file->Sync();
  }
  WorldBarrier(ep, world);
}

double TwoPhaseReadClient(Endpoint& ep, const World& world,
                          const Sp2Params& params, Array& array) {
  PANDA_REQUIRE(array.bound(), "array must be bound");
  const double start = ep.clock().Now();
  const ArrayMeta& meta = array.meta();
  const IoPlan plan(meta, world.num_servers, params.subchunk_bytes);
  const bool timing = ep.timing_only();
  const int me = ep.rank();
  const Region& cell = array.local_region();
  const auto elem = static_cast<size_t>(meta.elem_size);

  // ---- Phase 1: conforming owners receive their chunks from the
  // servers (pushed sub-chunk by sub-chunk in plan order). ----
  std::map<int, std::vector<std::byte>> owned;  // chunk index -> buffer
  for (size_t ci = 0; ci < plan.chunks().size(); ++ci) {
    const ChunkPlan& cp = plan.chunks()[ci];
    if (ConformingOwner(cp.chunk_id, world.num_clients) != me) continue;
    auto& buf = owned[static_cast<int>(ci)];
    if (!timing) buf.assign(static_cast<size_t>(cp.bytes), std::byte{0});
    for (size_t si = 0; si < cp.subchunks.size(); ++si) {
      const SubchunkPlan& sp = cp.subchunks[si];
      Message msg = ep.Recv(world.server_rank(cp.server), kTagPhase2Data);
      Decoder dec(msg.header);
      const PieceHeader h = PieceHeader::Decode(dec);
      PANDA_REQUIRE(h.chunk_index == cp.chunk_id && h.region == sp.region,
                    "phase-1 read sub-chunk does not match the plan");
      if (!timing) {
        const std::int64_t begin = sp.file_offset - cp.file_offset;
        PANDA_REQUIRE(
            static_cast<std::int64_t>(msg.payload.size()) == sp.bytes,
            "read sub-chunk payload size mismatch");
        std::copy(msg.payload.begin(), msg.payload.end(),
                  buf.begin() + static_cast<std::ptrdiff_t>(begin));
      }
    }
  }

  // ---- Phase 2: permute pieces from conforming owners to the memory
  // decomposition (buffered pushes, then ordered receives). ----
  for (const auto& [ci, buf] : owned) {
    const ChunkPlan& cp = plan.chunks()[static_cast<size_t>(ci)];
    for (int holder = 0; holder < world.num_clients; ++holder) {
      const Region holder_cell = meta.memory.CellRegion(holder);
      const Region piece = holder_cell.empty()
                               ? Region(Index::Zeros(cell.rank()),
                                        Index::Zeros(cell.rank()))
                               : Intersect(cp.region, holder_cell);
      if (piece.empty()) continue;
      const std::int64_t bytes = piece.Volume() * meta.elem_size;
      if (!IsContiguousWithin(cp.region, piece)) {
        ep.AdvanceCompute(static_cast<double>(bytes) / params.memcpy_Bps);
      }
      Message msg = PieceMessage(cp.chunk_id, -1, -1, piece);
      if (!timing) {
        std::vector<std::byte> payload(static_cast<size_t>(bytes));
        PackRegion({payload.data(), payload.size()}, {buf.data(), buf.size()},
                   cp.region, piece, elem);
        msg.SetPayload(std::move(payload));
      } else {
        msg.SetVirtualPayload(bytes);
      }
      ep.Send(holder, kTagPhase1Piece, std::move(msg));
    }
  }

  // Receive this node's pieces, per chunk in ascending chunk order.
  for (const ChunkPlan& cp : plan.chunks()) {
    const Region piece = cell.empty() ? Region(Index::Zeros(cell.rank()),
                                               Index::Zeros(cell.rank()))
                                      : Intersect(cp.region, cell);
    if (piece.empty()) continue;
    const int owner = ConformingOwner(cp.chunk_id, world.num_clients);
    Message msg = ep.Recv(owner, kTagPhase1Piece);
    Decoder dec(msg.header);
    const PieceHeader h = PieceHeader::Decode(dec);
    PANDA_REQUIRE(h.chunk_index == cp.chunk_id && h.region == piece,
                  "phase-2 read piece does not match the plan");
    const std::int64_t bytes = piece.Volume() * meta.elem_size;
    if (!IsContiguousWithin(cell, piece)) {
      ep.AdvanceCompute(static_cast<double>(bytes) / params.memcpy_Bps);
    }
    if (!timing) {
      PANDA_REQUIRE(static_cast<std::int64_t>(msg.payload.size()) == bytes,
                    "read piece payload size mismatch");
      UnpackRegion(array.local_data(), cell,
                   {msg.payload.data(), msg.payload.size()}, piece, elem);
    }
  }

  WorldBarrier(ep, world);
  return ep.clock().Now() - start;
}

void TwoPhaseReadServer(Endpoint& ep, FileSystem& fs, const World& world,
                        const Sp2Params& params, const ArrayMeta& meta) {
  const int sidx = world.server_index(ep.rank());
  const IoPlan plan(meta, world.num_servers, params.subchunk_bytes);
  const bool timing = ep.timing_only();

  if (!plan.ChunksOfServer(sidx).empty()) {
    hb::StampAccess(&fs, "baselines.two_phase.fs", /*is_write=*/false);
    auto file = fs.Open(
        store::ShardFileName(
            DataFileName("", meta.name, Purpose::kGeneral, sidx), 0),
        OpenMode::kRead);
    for (const int ci : plan.ChunksOfServer(sidx)) {
      const ChunkPlan& cp = plan.chunks()[static_cast<size_t>(ci)];
      const int owner = ConformingOwner(cp.chunk_id, world.num_clients);
      for (size_t si = 0; si < cp.subchunks.size(); ++si) {
        const SubchunkPlan& sp = cp.subchunks[si];
        Message msg = PieceMessage(cp.chunk_id, static_cast<std::int32_t>(si),
                                   -1, sp.region);
        if (!timing) {
          std::vector<std::byte> payload(static_cast<size_t>(sp.bytes));
          file->ReadAt(sp.file_offset, {payload.data(), payload.size()},
                       sp.bytes);
          msg.SetPayload(std::move(payload));
        } else {
          file->ReadAt(sp.file_offset, {}, sp.bytes);
          msg.SetVirtualPayload(sp.bytes);
        }
        ep.Send(owner, kTagPhase2Data, std::move(msg));
      }
    }
  }
  WorldBarrier(ep, world);
}

}  // namespace panda
