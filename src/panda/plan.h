// Server-directed i/o planning.
//
// The heart of the paper: given an array's memory schema, disk schema and
// the number of i/o servers, a deterministic plan says which disk chunks
// exist, which server owns each (implicit round-robin assignment, the
// paper's chunk-level striping), how chunks split into <=1 MB
// sub-chunks, and which client holds each "piece" (sub-chunk ∩ client
// memory cell). Servers then direct the data flow in plan order, which
// turns every file access into a sequential one.
//
// Each rank plans locally. Every server derives the whole IoPlan (its
// degraded layout, journal stride and repair walk all chunks); each
// client derives only its ClientView — its own pieces, found through
// its memory cell without enumerating the mesh. Both enumerate a
// sub-chunk's pieces through one helper, so they index pieces
// identically by construction.
//
// Determinism and deadlock freedom: servers process their chunks in
// ascending global chunk id, and each client services its pieces in
// ascending (chunk, sub-chunk, piece) order. Because every server's
// request stream is a subsequence of that global order, the globally
// earliest unserved piece always has its request already sent, so the
// protocol cannot deadlock (see tests/panda_protocol_test.cc).
#pragma once

#include <cstdint>
#include <vector>

#include "mdarray/schema.h"
#include "panda/array.h"

namespace panda {

// One piece: the part of a sub-chunk held by one client.
struct PiecePlan {
  int client = 0;       // memory-mesh position == Panda client index
  Region region;        // piece region in global array coordinates
  std::int64_t bytes = 0;
  // Contiguity in the client's memory buffer / the sub-chunk buffer:
  // contiguous moves are plain memcpys (free in the timing model);
  // strided ones charge the reorganization (pack/unpack) cost.
  bool contiguous_in_client = false;
  bool contiguous_in_subchunk = false;
};

struct SubchunkPlan {
  Region region;                 // sub-chunk region (subset of the chunk)
  std::int64_t file_offset = 0;  // byte offset inside the server's segment
  std::int64_t bytes = 0;
  std::vector<PiecePlan> pieces; // ascending client index
  // False when a subarray plan clipped every piece away: the server
  // neither touches the disk nor sends anything for this sub-chunk.
  bool active = true;
};

struct ChunkPlan {
  int chunk_id = 0;              // global id, ascending across the plan
  int server = 0;                // owning server: chunk_id % num_servers
  Region region;
  std::int64_t file_offset = 0;  // byte offset inside the server's segment
  std::int64_t bytes = 0;
  std::vector<SubchunkPlan> subchunks;  // row-major order; contiguous ranges
};

// A client's next obligation, in global service order.
struct ClientStep {
  int chunk_index = 0;  // index into IoPlan::chunks (== the chunk's id)
  int sub_index = 0;
  int piece_index = 0;
};

// One of a client's pieces, with what the client needs to serve it.
struct ClientPiece {
  ClientStep step;
  int server = 0;  // the chunk's owner: chunk id % num_servers
  PiecePlan piece;
};

class IoPlan {
 public:
  // Builds the whole plan, as every server holds it. `subchunk_bytes`
  // is the transfer/buffer unit (1 MB in the paper).
  IoPlan(const ArrayMeta& meta, int num_servers, std::int64_t subchunk_bytes);

  // Subarray plan: pieces are additionally clipped to `active` (a
  // region of the global array), so only the data inside it moves.
  // Chunk/sub-chunk geometry and file offsets are those of the *full*
  // array — the files on disk do not change shape — and sub-chunks
  // whose pieces all clip away are marked inactive so servers skip
  // their disk accesses entirely.
  IoPlan(const ArrayMeta& meta, int num_servers, std::int64_t subchunk_bytes,
         const Region& active);

  const std::vector<ChunkPlan>& chunks() const { return chunks_; }
  int num_servers() const { return num_servers_; }

  // Indices (into chunks()) of the chunks server `s` owns, ascending.
  const std::vector<int>& ChunksOfServer(int s) const;

  // Client `c`'s obligations in global service order.
  const std::vector<ClientStep>& StepsOfClient(int c) const;

  // Bytes of this array stored in server `s`'s file segment. Timestep
  // output appends segments, so segment sizes define append offsets.
  std::int64_t SegmentBytes(int s) const;

  const PiecePlan& piece(const ClientStep& step) const;
  const SubchunkPlan& subchunk(const ClientStep& step) const;
  const ChunkPlan& chunk(const ClientStep& step) const;

  // Total number of pieces (== data messages per direction).
  std::int64_t TotalPieces() const;

 private:
  int num_servers_;
  std::vector<ChunkPlan> chunks_;
  std::vector<std::vector<int>> chunks_of_server_;
  std::vector<std::vector<ClientStep>> steps_of_client_;
  std::vector<std::int64_t> segment_bytes_;
};

// Client `client`'s share of the IoPlan with the same inputs: its
// pieces in global service order. pieces()[i] is StepsOfClient(client)[i]
// with that step's piece() and chunk().server. Built from the disk
// chunks that meet the client's memory cell, so its cost is linear in
// the client's share, not in the mesh.
class ClientView {
 public:
  ClientView(const ArrayMeta& meta, int num_servers,
             std::int64_t subchunk_bytes, const Region& active, int client);

  const std::vector<ClientPiece>& pieces() const { return pieces_; }

 private:
  std::vector<ClientPiece> pieces_;
};

}  // namespace panda
