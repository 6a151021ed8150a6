#include "panda/client.h"

#include <map>
#include <tuple>
#include <vector>

#include <algorithm>

#include "codec/frame.h"
#include "mdarray/strided_copy.h"
#include "panda/failover.h"
#include "trace/trace.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace panda {

PandaClient::PandaClient(Endpoint& ep, World world, Sp2Params params)
    : ep_(&ep), world_(world), params_(params) {
  world_.Validate();
  PANDA_CHECK_MSG(world_.is_client_rank(ep.rank()),
                  "PandaClient on non-client rank %d", ep.rank());
}

namespace {

// One expected piece of this client's obligations, across all arrays of
// the collective. Servers direct the flow, so requests arrive in an
// order chosen by the servers' progress; the client validates each
// incoming header against this table and serves it, whatever the order
// (the MPI_ANY_SOURCE pattern).
struct Expected {
  const ClientPiece* piece = nullptr;
  Array* array = nullptr;
  bool served = false;
};

// Key -> index into the expected table.
struct PieceKey {
  std::int32_t array_index, chunk_index, sub_index, piece_index;
  bool operator<(const PieceKey& o) const {
    return std::tuple(array_index, chunk_index, sub_index, piece_index) <
           std::tuple(o.array_index, o.chunk_index, o.sub_index,
                      o.piece_index);
  }
};

struct Obligations {
  std::vector<std::shared_ptr<const ClientView>> views;  // own the pieces
  std::map<PieceKey, Expected> expected;
};

// The obligation `h` names, marked served. `once` rejects a second
// request for a piece (the clean path); failover re-plans may re-serve.
Expected& Claim(Obligations& ob, const PieceHeader& h, bool once) {
  const auto it = ob.expected.find(
      {h.array_index, h.chunk_index, h.sub_index, h.piece_index});
  PANDA_REQUIRE(it != ob.expected.end() && !(once && it->second.served),
                "server directed an unexpected piece "
                "(array=%d chunk=%d sub=%d piece=%d)",
                h.array_index, h.chunk_index, h.sub_index, h.piece_index);
  Expected& exp = it->second;
  exp.served = true;
  PANDA_REQUIRE(h.region == exp.piece->piece.region,
                "server piece region %s does not match the local plan %s",
                h.region.ToString().c_str(),
                exp.piece->piece.region.ToString().c_str());
  return exp;
}

// This client's share of each array's plan, tabulated by the piece
// identification servers put in every header.
Obligations PlanObligations(PlanCache& cache, const World& world,
                            std::int64_t subchunk_bytes, int client,
                            const CollectiveRequest& req,
                            std::span<Array* const> arrays) {
  Obligations ob;
  ob.views.reserve(arrays.size());
  for (std::int32_t ai = 0; ai < static_cast<std::int32_t>(arrays.size());
       ++ai) {
    ob.views.push_back(cache.GetClientView(
        req.arrays[static_cast<size_t>(ai)], world.num_servers,
        subchunk_bytes, req.has_subarray ? &req.subarray : nullptr, client));
    for (const ClientPiece& cp : ob.views.back()->pieces()) {
      ob.expected[{ai, static_cast<std::int32_t>(cp.step.chunk_index),
                   static_cast<std::int32_t>(cp.step.sub_index),
                   static_cast<std::int32_t>(cp.step.piece_index)}] =
          Expected{&cp, arrays[static_cast<size_t>(ai)], false};
    }
  }
  return ob;
}

}  // namespace

double PandaClient::Execute(CollectiveRequest req,
                            std::span<Array* const> arrays) {
  PANDA_REQUIRE(!arrays.empty(), "collective without arrays");
  req.arrays.clear();
  for (Array* a : arrays) {
    PANDA_REQUIRE(a != nullptr && a->bound(), "arrays must be bound");
    PANDA_REQUIRE(a->client_pos() == index(),
                  "array '%s' bound to client %d but executed on client %d",
                  a->name().c_str(), a->client_pos(), index());
    PANDA_REQUIRE(a->memory_schema().mesh().size() == world_.num_clients,
                  "array '%s' memory mesh (%d) != number of clients (%d)",
                  a->name().c_str(), a->memory_schema().mesh().size(),
                  world_.num_clients);
    req.arrays.push_back(a->meta());
  }

  req.first_client = world_.first_client;
  req.num_clients = world_.num_clients;

  const double start = ep_->clock().Now();
  std::int64_t total_bytes = 0;
  for (const ArrayMeta& meta : req.arrays) total_bytes += meta.total_bytes();

  try {
    ExecuteBody(req, arrays);
  } catch (const PandaAbortError& e) {
    // Another rank's abort notice interrupted one of our receives. The
    // master client relays it to the remaining clients of this
    // application (the master server already covered the server side),
    // then everyone dies with the same structured error.
    if (is_master()) RelayAbortToClients(e.origin_rank(), e.reason());
    throw;
  } catch (const PandaError& e) {
    // This client hit the unrecoverable fault (an end-to-end checksum
    // failure, a plan divergence...): it is the abort's origin. Notify
    // the master server (the server-side relay hub) and the client side,
    // then die with the structured error. Sends are buffered, so a
    // dying rank never blocks on its own notifications.
    if (robustness_ != nullptr) robustness_->collectives_aborted.fetch_add(1);
    const int hub = world_.master_server_rank();
    if (ep_->peer_alive(hub)) {
      ep_->Send(hub, kTagAbort, MakeAbortMessage(ep_->rank(), e.what()));
    } else {
      // The hub is dead, so the server-side relay chain is cut: notify
      // every surviving server directly, or a worker still waiting on
      // our piece traffic blocks forever (found by panda_mc replay: a
      // master kill racing the survivor's dead-set read leaves the
      // survivor mid-data-phase while the clients abort among
      // themselves).
      for (int s = 0; s < world_.num_servers; ++s) {
        const int r = world_.server_rank(s);
        if (ep_->peer_alive(r)) {
          ep_->Send(r, kTagAbort, MakeAbortMessage(ep_->rank(), e.what()));
        }
      }
    }
    if (is_master()) {
      RelayAbortToClients(ep_->rank(), e.what());
    } else {
      ep_->Send(world_.master_client_rank(), kTagAbort,
                MakeAbortMessage(ep_->rank(), e.what()));
    }
    throw PandaAbortError(ep_->rank(), e.what());
  }

  last_elapsed_ = ep_->clock().Now() - start;
  trace::RecordSpan(trace::SpanKind::kClientCollective, start,
                    ep_->clock().Now(), total_bytes);
  return last_elapsed_;
}

void PandaClient::ExecuteBody(const CollectiveRequest& req,
                              std::span<Array* const> arrays) {
  if (failover_) {
    ExecuteBodyFailover(req, arrays);
    return;
  }
  // The master client sends the short high-level request; the servers
  // take over direction of the data flow from here.
  if (is_master()) {
    ep_->Send(world_.master_server_rank(), kTagCollectiveRequest,
              req.ToMessage());
  }
  Obligations ob = PlanObligations(plan_cache_, world_, params_.subchunk_bytes,
                                   index(), req, arrays);

  // Service loop: one message per obligation, in server-directed order.
  const int data_tag =
      req.op == IoOp::kWrite ? kTagPieceRequest : kTagPieceData;
  for (size_t remaining = ob.expected.size(); remaining > 0; --remaining) {
    Endpoint::Delivery delivery = ep_->RecvAnyDelivery(data_tag);
    Decoder dec(delivery.msg.header);
    const PieceHeader h = PieceHeader::Decode(dec);
    // Read-path piece data carries the payload's end-to-end checksum
    // after the piece header (write-path *requests* carry no payload).
    const std::uint32_t wire_crc =
        req.op == IoOp::kRead ? dec.Get<std::uint32_t>() : 0;
    const Expected& exp = Claim(ob, h, /*once=*/true);
    const int server = exp.piece->server;
    PANDA_REQUIRE(delivery.msg.src == world_.server_rank(server),
                  "piece directed by the wrong server");
    if (req.op == IoOp::kWrite) {
      ServeWritePiece(delivery, *exp.array, exp.piece->piece, server);
    } else {
      ServeReadPiece(delivery, *exp.array, exp.piece->piece, server,
                     wire_crc);
    }
  }

  // Completion: master server -> master client -> all clients.
  const Group clients = world_.ClientGroup(ep_->rank());
  if (is_master()) {
    (void)ep_->Recv(world_.master_server_rank(), kTagServerDone);
  }
  (void)Bcast(*ep_, clients, 0, Message{});
}

void PandaClient::ExecuteBodyFailover(const CollectiveRequest& req,
                                      std::span<Array* const> arrays) {
  // The master client sends the short high-level request; the servers
  // take over direction of the data flow from here.
  if (is_master()) {
    ep_->Send(world_.master_server_rank(), kTagCollectiveRequest,
              req.ToMessage());
  }
  // This client's obligations. Unlike the clean path there is no
  // once-only bookkeeping: a failover re-plan may legitimately direct a
  // piece of an adopted chunk a second time (idempotent re-serve).
  Obligations ob = PlanObligations(plan_cache_, world_, params_.subchunk_bytes,
                                   index(), req, arrays);
  // Chunk owners under the currently-known dead set (deaths
  // mid-collective arrive as failover notices below).
  std::vector<int> dead = DeadServerIndices(*ep_, world_);
  ChunkOwners owners(world_.num_servers, dead);

  // Service loop: serve whatever the owning servers direct until the
  // master server's empty kTagFailover notice releases the collective.
  // A non-empty notice names newly dead servers: merge, re-plan, and
  // keep serving — the survivors re-gather the adopted chunks.
  const int data_tag =
      req.op == IoOp::kWrite ? kTagPieceRequest : kTagPieceData;
  for (;;) {
    Endpoint::Delivery delivery;
    try {
      delivery = ep_->RecvAnyDelivery(data_tag);
    } catch (const PandaFailoverError& e) {
      if (e.dead_ranks().empty()) {
        // Completion. The release notice carries the coordinator's
        // layout epoch; remember it so the application can tell when a
        // failover or rejoin repair changed the layout generation.
        if (e.epoch() != 0) layout_epoch_ = e.epoch();
        break;
      }
      for (int r : e.dead_ranks()) dead.push_back(world_.server_index(r));
      std::sort(dead.begin(), dead.end());
      dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
      owners = ChunkOwners(world_.num_servers, dead);
      continue;
    }
    const Message& msg = delivery.msg;
    // A crash-stopped server's unanswered requests are stale: the
    // adopter re-requests under the new layout.
    if (!ep_->peer_alive(msg.src)) continue;
    Decoder dec(msg.header);
    const PieceHeader h = PieceHeader::Decode(dec);
    const std::uint32_t wire_crc =
        req.op == IoOp::kRead ? dec.Get<std::uint32_t>() : 0;
    const Expected& exp = Claim(ob, h, /*once=*/false);
    const int owner = owners.OwnerOf(h.chunk_index);
    PANDA_REQUIRE(msg.src == world_.server_rank(owner),
                  "piece directed by a non-owner server (rank %d, owner %d)",
                  msg.src, world_.server_rank(owner));
    if (req.op == IoOp::kWrite) {
      ServeWritePiece(delivery, *exp.array, exp.piece->piece, owner);
    } else {
      ServeReadPiece(delivery, *exp.array, exp.piece->piece, owner, wire_crc);
    }
  }
}

void PandaClient::RelayAbortToClients(int origin_rank,
                                      const std::string& reason) {
  for (int c = 0; c < world_.num_clients; ++c) {
    const int r = world_.client_rank(c);
    if (r == ep_->rank() || r == origin_rank) continue;
    ep_->Send(r, kTagAbort, MakeAbortMessage(origin_rank, reason));
  }
}

void PandaClient::ServeWritePiece(const Endpoint::Delivery& request,
                                  Array& array, const PiecePlan& piece,
                                  int dest_server) {
  // Assemble the piece: strided gathers charge reorganization time
  // (contiguous moves are free — the natural-chunking fast path).
  double ready = request.ready_time;
  if (!piece.contiguous_in_client) {
    ready += static_cast<double>(piece.bytes) / params_.memcpy_Bps;
    // Pack spans cover only real reorganization work (the contiguous
    // fast path costs nothing and records nothing).
    trace::RecordSpan(trace::SpanKind::kClientPack, request.ready_time, ready,
                      piece.bytes);
  }
  Message data;
  data.header = request.msg.header;  // echo the piece identification
  Encoder enc(data.header);
  if (!ep_->timing_only()) {
    std::vector<std::byte> payload(static_cast<size_t>(piece.bytes));
    PackRegion({payload.data(), payload.size()}, array.local_data(),
               array.local_region(), piece.region,
               static_cast<size_t>(array.elem_size()));
    // End-to-end wire checksum over the *uncompressed* packed bytes,
    // verified by the receiving server after it decodes the frame.
    enc.Put<std::uint32_t>(Crc32c({payload.data(), payload.size()}));
    if (array.codec() != CodecId::kNone) {
      // Frame the piece for the wire. Encoding is client CPU charged
      // into the response chain like packing; the stored fallback
      // (incompressible piece) costs nothing beyond the attempt.
      const double enc_begin = ready;
      CodecId used = CodecId::kNone;
      std::vector<std::byte> framed =
          EncodeWireFrame(array.codec(), {payload.data(), payload.size()},
                          static_cast<std::int64_t>(array.elem_size()), &used);
      if (used != CodecId::kNone) {
        ready += static_cast<double>(piece.bytes) / params_.codec_encode_Bps;
      }
      trace::RecordSpan(trace::SpanKind::kCodecEncode, enc_begin, ready,
                        piece.bytes);
      trace::ObserveMetric(trace::MetricId::kCodecEncodeSeconds,
                           ready - enc_begin);
      trace::ObserveMetric(
          trace::MetricId::kCodecRatio,
          piece.bytes > 0 ? static_cast<double>(framed.size()) /
                                static_cast<double>(piece.bytes)
                          : 1.0);
      data.SetPayload(std::move(framed));
    } else {
      data.SetPayload(std::move(payload));
    }
  } else {
    enc.Put<std::uint32_t>(0);
    data.SetVirtualPayload(piece.bytes);
  }
  ep_->SendResponse(ready, world_.server_rank(dest_server), kTagPieceData,
                    std::move(data));
}

void PandaClient::ServeReadPiece(const Endpoint::Delivery& delivery,
                                 Array& array, const PiecePlan& piece,
                                 int dest_server, std::uint32_t wire_crc) {
  const Message& data = delivery.msg;
  double ready = delivery.ready_time;
  if (!piece.contiguous_in_client) {
    ready += static_cast<double>(piece.bytes) / params_.memcpy_Bps;
    trace::RecordSpan(trace::SpanKind::kClientUnpack, delivery.ready_time,
                      ready, piece.bytes);
  }
  if (!ep_->timing_only()) {
    std::span<const std::byte> raw{data.payload.data(), data.payload.size()};
    std::vector<std::byte> decoded;
    if (array.codec() != CodecId::kNone) {
      // The server framed the piece; decode before the end-to-end
      // checksum (the CRC covers uncompressed bytes).
      const double dec_begin = ready;
      CodecId used = CodecId::kNone;
      try {
        decoded = DecodeWireFrame(raw, piece.bytes,
                                  static_cast<std::int64_t>(array.elem_size()),
                                  &used);
      } catch (const PandaError& e) {
        if (robustness_ != nullptr) {
          robustness_->wire_checksum_failures.fetch_add(1);
        }
        PANDA_REQUIRE(false,
                      "read piece %s is not a valid codec frame: %s",
                      piece.region.ToString().c_str(), e.what());
      }
      if (used != CodecId::kNone) {
        ready += static_cast<double>(piece.bytes) / params_.codec_decode_Bps;
      }
      trace::RecordSpan(trace::SpanKind::kCodecDecode, dec_begin, ready,
                        piece.bytes);
      raw = {decoded.data(), decoded.size()};
    } else {
      PANDA_REQUIRE(
          static_cast<std::int64_t>(data.payload.size()) == piece.bytes,
          "piece payload size mismatch");
    }
    const std::uint32_t got = Crc32c(raw);
    if (got != wire_crc) {
      if (robustness_ != nullptr) {
        robustness_->wire_checksum_failures.fetch_add(1);
      }
      PANDA_REQUIRE(false,
                    "read piece %s failed its end-to-end checksum "
                    "(wire %08x != computed %08x)",
                    piece.region.ToString().c_str(), wire_crc, got);
    }
    UnpackRegion(array.local_data(), array.local_region(), raw, piece.region,
                 static_cast<size_t>(array.elem_size()));
  } else {
    PANDA_REQUIRE(data.payload_vbytes == piece.bytes,
                  "piece virtual size mismatch");
  }
  // Acknowledge so the server can push the next piece (flow control).
  ep_->SendResponse(ready, world_.server_rank(dest_server), kTagPieceAck,
                    Message{});
}

double PandaClient::WriteArray(Array& array) {
  CollectiveRequest req;
  req.op = IoOp::kWrite;
  req.purpose = Purpose::kGeneral;
  Array* arrays[] = {&array};
  return Execute(std::move(req), arrays);
}

double PandaClient::ReadArray(Array& array) {
  CollectiveRequest req;
  req.op = IoOp::kRead;
  req.purpose = Purpose::kGeneral;
  Array* arrays[] = {&array};
  return Execute(std::move(req), arrays);
}

double PandaClient::ReadSubarray(Array& array, const Region& region) {
  PANDA_REQUIRE(
      Region::Whole(array.shape()).Contains(region),
      "subarray %s is not inside array '%s' %s", region.ToString().c_str(),
      array.name().c_str(), array.shape().ToString().c_str());
  CollectiveRequest req;
  req.op = IoOp::kRead;
  req.purpose = Purpose::kGeneral;
  req.has_subarray = true;
  req.subarray = region;
  Array* arrays[] = {&array};
  return Execute(std::move(req), arrays);
}

bool PandaClient::QueryGroupMeta(const std::string& meta_file,
                                 GroupMeta& meta) {
  Message reply;
  try {
    if (is_master()) {
      CollectiveRequest req;
      req.op = IoOp::kQueryMeta;
      req.meta_file = meta_file;
      req.first_client = world_.first_client;
      req.num_clients = world_.num_clients;
      ep_->Send(world_.master_server_rank(), kTagCollectiveRequest,
                req.ToMessage());
      reply = ep_->Recv(world_.master_server_rank(), kTagServerDone);
    }
    reply = Bcast(*ep_, world_.ClientGroup(ep_->rank()), 0, std::move(reply));
  } catch (const PandaAbortError&) {
    throw;
  } catch (const PandaError& e) {
    // A server or peer client dying mid-query must surface as the
    // structured abort, never as a raw transport error escaping the
    // client API (the PR 6 master-kill class; see
    // tests/schedules/master-kill-abort.mctrace).
    throw PandaAbortError(ep_->rank(), e.what());
  }
  Decoder dec(reply.header);
  if (dec.Get<std::uint8_t>() == 0) return false;
  meta = GroupMeta::Decode(dec.GetBytes(dec.remaining()));
  return true;
}

void PandaClient::Shutdown() {
  if (!is_master()) return;
  CollectiveRequest req;
  req.op = IoOp::kShutdown;
  req.first_client = world_.first_client;
  req.num_clients = world_.num_clients;
  ep_->Send(world_.master_server_rank(), kTagCollectiveRequest,
            req.ToMessage());
}

}  // namespace panda
