#include "baselines/naive_gather.h"

#include <vector>

#include "baselines/baseline_util.h"
#include "mdarray/strided_copy.h"
#include "msg/hb.h"
#include "panda/protocol.h"
#include "store/shard_layout.h"

namespace panda {
namespace {

// The gathered file is the array in traditional order: model it as one
// whole-array "chunk" split into <=1MB slabs.
std::vector<Region> GatherSlabs(const ArrayMeta& meta,
                                std::int64_t subchunk_bytes) {
  return SplitIntoSubchunks(Region::Whole(meta.memory.array_shape()),
                            meta.elem_size, subchunk_bytes);
}

}  // namespace

double NaiveGatherWriteClient(Endpoint& ep, const World& world,
                              const Sp2Params& params, Array& array) {
  PANDA_REQUIRE(array.bound(), "array must be bound");
  const double start = ep.clock().Now();
  const ArrayMeta& meta = array.meta();
  const bool timing = ep.timing_only();
  const auto elem = static_cast<size_t>(meta.elem_size);
  const Region& cell = array.local_region();
  const auto slabs = GatherSlabs(meta, params.subchunk_bytes);
  const int me = ep.rank();

  if (me != 0) {
    // Send this node's piece of each slab to the master, in slab order.
    for (const Region& slab : slabs) {
      const Region piece =
          cell.empty() ? Region(Index::Zeros(cell.rank()),
                                Index::Zeros(cell.rank()))
                       : Intersect(slab, cell);
      if (piece.empty()) continue;
      const std::int64_t bytes = piece.Volume() * meta.elem_size;
      if (!IsContiguousWithin(cell, piece)) {
        ep.AdvanceCompute(static_cast<double>(bytes) / params.memcpy_Bps);
      }
      Message msg;
      Encoder enc(msg.header);
      EncodeRegion(enc, piece);
      if (!timing) {
        std::vector<std::byte> payload(static_cast<size_t>(bytes));
        PackRegion({payload.data(), payload.size()}, array.local_data(), cell,
                   piece, elem);
        msg.SetPayload(std::move(payload));
      } else {
        msg.SetVirtualPayload(bytes);
      }
      ep.Send(0, kTagIoCommand, std::move(msg));
    }
    WorldBarrier(ep, world);
    return ep.clock().Now() - start;
  }

  // Master: assemble each slab from the holders and forward it to the
  // single i/o node, in file order.
  std::vector<std::byte> buf;
  for (const Region& slab : slabs) {
    const std::int64_t slab_bytes = slab.Volume() * meta.elem_size;
    if (!timing) buf.assign(static_cast<size_t>(slab_bytes), std::byte{0});
    // My own piece first.
    if (!cell.empty()) {
      const Region mine = Intersect(slab, cell);
      if (!mine.empty() && !timing) {
        CopyRegion({buf.data(), buf.size()}, slab, array.local_data(), cell,
                   mine, elem);
      }
    }
    for (int holder = 1; holder < world.num_clients; ++holder) {
      const Region holder_cell = meta.memory.CellRegion(holder);
      const Region piece = holder_cell.empty()
                               ? Region(Index::Zeros(cell.rank()),
                                        Index::Zeros(cell.rank()))
                               : Intersect(slab, holder_cell);
      if (piece.empty()) continue;
      Message msg = ep.Recv(holder, kTagIoCommand);
      Decoder dec(msg.header);
      const Region got = DecodeRegion(dec);
      PANDA_REQUIRE(got == piece, "gathered piece does not match the plan");
      const std::int64_t bytes = piece.Volume() * meta.elem_size;
      if (!IsContiguousWithin(slab, piece)) {
        ep.AdvanceCompute(static_cast<double>(bytes) / params.memcpy_Bps);
      }
      if (!timing) {
        PANDA_REQUIRE(
            static_cast<std::int64_t>(msg.payload.size()) == bytes,
            "gathered payload size mismatch");
        UnpackRegion({buf.data(), buf.size()}, slab,
                     {msg.payload.data(), msg.payload.size()}, piece, elem);
      }
    }
    Message out;
    Encoder enc(out.header);
    EncodeRegion(enc, slab);
    if (!timing) {
      out.SetPayload(buf);
    } else {
      out.SetVirtualPayload(slab_bytes);
    }
    ep.Send(world.server_rank(0), kTagIoCommand, std::move(out));
  }
  WorldBarrier(ep, world);
  return ep.clock().Now() - start;
}

void NaiveGatherWriteServer(Endpoint& ep, FileSystem& fs, const World& world,
                            const Sp2Params& params, const ArrayMeta& meta) {
  const int sidx = ep.rank() - world.num_clients;
  if (sidx == 0) {
    hb::StampAccess(&fs, "baselines.naive.fs", /*is_write=*/true);
    auto file = fs.Open(
        store::ShardFileName(
            DataFileName("", meta.name, Purpose::kGeneral, 0), 0),
        OpenMode::kWrite);
    std::int64_t offset = 0;
    for (const Region& slab : GatherSlabs(meta, params.subchunk_bytes)) {
      const std::int64_t bytes = slab.Volume() * meta.elem_size;
      Message msg = ep.Recv(0, kTagIoCommand);
      Decoder dec(msg.header);
      const Region got = DecodeRegion(dec);
      PANDA_REQUIRE(got == slab, "slab does not match the gather plan");
      file->WriteAt(offset, {msg.payload.data(), msg.payload.size()}, bytes);
      offset += bytes;
    }
    file->Sync();
  }
  WorldBarrier(ep, world);
}

double NaiveScatterReadClient(Endpoint& ep, const World& world,
                              const Sp2Params& params, Array& array) {
  PANDA_REQUIRE(array.bound(), "array must be bound");
  const double start = ep.clock().Now();
  const ArrayMeta& meta = array.meta();
  const bool timing = ep.timing_only();
  const auto elem = static_cast<size_t>(meta.elem_size);
  const Region& cell = array.local_region();
  const auto slabs = GatherSlabs(meta, params.subchunk_bytes);
  const int me = ep.rank();

  if (me != 0) {
    // Receive this node's piece of each slab from the master.
    for (const Region& slab : slabs) {
      const Region piece =
          cell.empty() ? Region(Index::Zeros(cell.rank()),
                                Index::Zeros(cell.rank()))
                       : Intersect(slab, cell);
      if (piece.empty()) continue;
      Message msg = ep.Recv(0, kTagIoReply);
      Decoder dec(msg.header);
      const Region got = DecodeRegion(dec);
      PANDA_REQUIRE(got == piece, "scattered piece does not match the plan");
      const std::int64_t bytes = piece.Volume() * meta.elem_size;
      if (!IsContiguousWithin(cell, piece)) {
        ep.AdvanceCompute(static_cast<double>(bytes) / params.memcpy_Bps);
      }
      if (!timing) {
        PANDA_REQUIRE(
            static_cast<std::int64_t>(msg.payload.size()) == bytes,
            "scattered payload size mismatch");
        UnpackRegion(array.local_data(), cell,
                     {msg.payload.data(), msg.payload.size()}, piece, elem);
      }
    }
    WorldBarrier(ep, world);
    return ep.clock().Now() - start;
  }

  // Master: receive each slab from the single i/o node and scatter it.
  for (const Region& slab : slabs) {
    Message msg = ep.Recv(world.server_rank(0), kTagIoReply);
    Decoder dec(msg.header);
    const Region got = DecodeRegion(dec);
    PANDA_REQUIRE(got == slab, "slab does not match the scatter plan");
    for (int holder = 0; holder < world.num_clients; ++holder) {
      const Region holder_cell = meta.memory.CellRegion(holder);
      const Region piece = holder_cell.empty()
                               ? Region(Index::Zeros(cell.rank()),
                                        Index::Zeros(cell.rank()))
                               : Intersect(slab, holder_cell);
      if (piece.empty()) continue;
      const std::int64_t bytes = piece.Volume() * meta.elem_size;
      if (!IsContiguousWithin(slab, piece)) {
        ep.AdvanceCompute(static_cast<double>(bytes) / params.memcpy_Bps);
      }
      if (holder == 0) {
        if (!timing) {
          CopyRegion(array.local_data(), cell,
                     {msg.payload.data(), msg.payload.size()}, slab, piece,
                     elem);
        }
        continue;
      }
      Message out;
      Encoder enc(out.header);
      EncodeRegion(enc, piece);
      if (!timing) {
        std::vector<std::byte> payload(static_cast<size_t>(bytes));
        PackRegion({payload.data(), payload.size()},
                   {msg.payload.data(), msg.payload.size()}, slab, piece,
                   elem);
        out.SetPayload(std::move(payload));
      } else {
        out.SetVirtualPayload(bytes);
      }
      ep.Send(holder, kTagIoReply, std::move(out));
    }
  }
  WorldBarrier(ep, world);
  return ep.clock().Now() - start;
}

void NaiveScatterReadServer(Endpoint& ep, FileSystem& fs, const World& world,
                            const Sp2Params& params, const ArrayMeta& meta) {
  const int sidx = world.server_index(ep.rank());
  if (sidx == 0) {
    hb::StampAccess(&fs, "baselines.naive.fs", /*is_write=*/false);
    auto file = fs.Open(
        store::ShardFileName(
            DataFileName("", meta.name, Purpose::kGeneral, 0), 0),
        OpenMode::kRead);
    const bool timing = ep.timing_only();
    std::int64_t offset = 0;
    for (const Region& slab : GatherSlabs(meta, params.subchunk_bytes)) {
      const std::int64_t bytes = slab.Volume() * meta.elem_size;
      Message msg;
      Encoder enc(msg.header);
      EncodeRegion(enc, slab);
      if (!timing) {
        std::vector<std::byte> payload(static_cast<size_t>(bytes));
        file->ReadAt(offset, {payload.data(), payload.size()}, bytes);
        msg.SetPayload(std::move(payload));
      } else {
        file->ReadAt(offset, {}, bytes);
        msg.SetVirtualPayload(bytes);
      }
      offset += bytes;
      ep.Send(world.master_client_rank(), kTagIoReply, std::move(msg));
    }
  }
  WorldBarrier(ep, world);
}

}  // namespace panda
