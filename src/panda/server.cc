#include "panda/server.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codec/frame.h"
#include "mdarray/strided_copy.h"
#include "msg/hb.h"
#include "panda/failover.h"
#include "panda/journal.h"
#include "panda/rejoin.h"
#include "panda/schema_io.h"
#include "panda/store_io.h"
#include "trace/trace.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace panda {
namespace {

// Write-behind accounting: in overlap mode the disk works in the
// background while the server gathers the next sub-chunk, so a write
// only delays the server when the device is still busy.
class DiskWriteScheduler {
 public:
  DiskWriteScheduler(Endpoint& ep, bool overlap) : ep_(ep), overlap_(overlap) {}

  // Issues `write_fn` (which charges the endpoint clock through the
  // simulated FS) and, in overlap mode, converts the charge into device
  // busy time instead of caller delay.
  template <typename Fn>
  void Write(Fn&& write_fn) {
    const double before = ep_.clock().Now();
    write_fn();
    if (!overlap_) return;
    const double cost = ep_.clock().Now() - before;
    ep_.clock().Reset(before);  // caller does not block...
    const double start = std::max(before, busy_until_);
    busy_until_ = start + cost;  // ...but the device stays busy
  }

  // The collective cannot complete before the device drains.
  void Drain() {
    if (overlap_) ep_.clock().SyncTo(busy_until_);
  }

 private:
  Endpoint& ep_;
  bool overlap_;
  double busy_until_ = 0.0;
};

// Mode of the journal a write appends to. A failover recovery phase
// extends the journal that already holds this server's own records,
// and a later timestep appends to its stream's journal: never
// truncate those.
OpenMode JournalOpenMode(Purpose purpose, std::int64_t seq, WorkPhase phase) {
  if (phase == WorkPhase::kAdoptedOnly) return OpenMode::kReadWrite;
  if (purpose == Purpose::kTimestep && seq > 0) return OpenMode::kReadWrite;
  return OpenMode::kWrite;
}

void ValidateHeader(const PieceHeader& h, std::int32_t array_index,
                    const ClientStep& step, const Region& region) {
  PANDA_REQUIRE(h.array_index == array_index && h.chunk_index == step.chunk_index &&
                    h.sub_index == step.sub_index &&
                    h.piece_index == step.piece_index && h.region == region,
                "piece header does not match the local plan: plans diverged "
                "(got array=%d chunk=%d sub=%d piece=%d %s)",
                h.array_index, h.chunk_index, h.sub_index, h.piece_index,
                h.region.ToString().c_str());
}

// Plan stage: where one array's segment of this collective lives on
// this server.
struct SegmentPlan {
  std::vector<WorkItem> work;  // this phase's slice of the work list
  // The shard map derives from the *full* work list under the committed
  // layout, whatever slice this phase covers — a recovery phase extends
  // the same shards the full phase laid out.
  store::ShardLayout shards;
  std::int64_t seg = 0;    // timestep segment (0 otherwise)
  std::string stream;      // DataFileName: the stream shard names extend
  // Files a complete segment occupies: its shards, or — for an
  // (array, server) pair with no sub-chunks — one empty shard file, so
  // non-timestep collectives leave a complete set of per-server files.
  std::int64_t files = 0;
};

SegmentPlan PlanSegment(const IoPlan& plan, const DegradedLayout& layout,
                        int sidx, WorkPhase phase, const CollectiveRequest& req,
                        const ArrayMeta& meta, std::int64_t shard_bytes) {
  SegmentPlan out;
  std::vector<WorkItem> full =
      BuildServerWork(plan, layout, sidx, WorkPhase::kFull);
  out.shards = PackWork(plan, full, shard_bytes);
  out.work = phase == WorkPhase::kFull
                 ? std::move(full)
                 : BuildServerWork(plan, layout, sidx, phase);
  out.seg = req.purpose == Purpose::kTimestep ? req.seq : 0;
  out.stream = DataFileName(req.group, meta.name, req.purpose, sidx);
  out.files = out.shards.shards_per_segment();
  if (out.files == 0 && req.purpose != Purpose::kTimestep) out.files = 1;
  return out;
}

// Server-directed: request every piece of sub-chunk `item`.
void RequestPieces(Endpoint& ep, const World& world, const IoPlan& plan,
                   std::int32_t array_index, const WorkItem& item) {
  const SubchunkPlan& sp = plan.chunks()[static_cast<size_t>(item.chunk_index)]
                               .subchunks[static_cast<size_t>(item.sub_index)];
  for (size_t pi = 0; pi < sp.pieces.size(); ++pi) {
    Message request;
    Encoder enc(request.header);
    PieceHeader{array_index, item.chunk_index, item.sub_index,
                static_cast<std::int32_t>(pi), sp.pieces[pi].region}
        .EncodeTo(enc);
    ep.Send(world.client_rank(sp.pieces[pi].client), kTagPieceRequest,
            std::move(request));
  }
}

// Pull stage: gathers sub-chunk `item`'s pieces into `buf` in
// traditional array order (left untouched in timing mode). Each piece's
// wire frame is decoded and its end-to-end CRC checked first. The pull
// span covers the whole gather (per-piece assembly spans nest inside).
void PullSubchunk(Endpoint& ep, const World& world, const Sp2Params& params,
                  const ArrayMeta& meta, std::int32_t array_index,
                  const WorkItem& item, const SubchunkPlan& sp,
                  RobustnessStats* stats, std::vector<std::byte>& buf) {
  const bool timing = ep.timing_only();
  const bool framing = meta.codec != CodecId::kNone && !timing;
  const double pull_begin = ep.clock().Now();
  if (!timing) buf.assign(static_cast<size_t>(sp.bytes), std::byte{0});
  for (size_t pi = 0; pi < sp.pieces.size(); ++pi) {
    const PiecePlan& piece = sp.pieces[pi];
    Message data = ep.Recv(world.client_rank(piece.client), kTagPieceData);
    Decoder dec(data.header);
    ValidateHeader(PieceHeader::Decode(dec), array_index,
                   {item.chunk_index, item.sub_index, static_cast<int>(pi)},
                   piece.region);
    // End-to-end wire checksum: the client stamped the payload's CRC32C
    // after the echoed piece header (0 in timing-only mode).
    const std::uint32_t wire_crc = dec.Get<std::uint32_t>();
    if (!piece.contiguous_in_subchunk) {
      PANDA_SPAN(asm_span, trace::SpanKind::kServerAssemble, piece.bytes);
      ep.AdvanceCompute(static_cast<double>(piece.bytes) / params.memcpy_Bps);
    }
    if (timing) {
      PANDA_REQUIRE(data.payload_vbytes == piece.bytes,
                    "piece virtual size mismatch");
      continue;
    }
    std::span<const std::byte> raw{data.payload.data(), data.payload.size()};
    std::vector<std::byte> decoded;
    if (framing) {
      // The client framed the piece; decode before the end-to-end
      // checksum — the CRC covers the *uncompressed* bytes, so a codec
      // bug is caught exactly like wire corruption.
      const double dec_begin = ep.clock().Now();
      CodecId used = CodecId::kNone;
      try {
        decoded = DecodeWireFrame(raw, piece.bytes, meta.elem_size, &used);
      } catch (const PandaError& e) {
        if (stats != nullptr) stats->wire_checksum_failures.fetch_add(1);
        PANDA_REQUIRE(false,
                      "piece payload from client %d is not a valid codec "
                      "frame: %s",
                      piece.client, e.what());
      }
      if (used != CodecId::kNone) {
        ep.AdvanceCompute(static_cast<double>(piece.bytes) /
                          params.codec_decode_Bps);
      }
      trace::RecordSpan(trace::SpanKind::kCodecDecode, dec_begin,
                        ep.clock().Now(), piece.bytes);
      raw = {decoded.data(), decoded.size()};
    } else {
      PANDA_REQUIRE(
          static_cast<std::int64_t>(data.payload.size()) == piece.bytes,
          "piece payload size mismatch");
    }
    const std::uint32_t got = Crc32c(raw);
    if (got != wire_crc) {
      if (stats != nullptr) stats->wire_checksum_failures.fetch_add(1);
      PANDA_REQUIRE(false,
                    "piece payload from client %d failed its end-to-end "
                    "checksum (wire %08x != computed %08x)",
                    piece.client, wire_crc, got);
    }
    UnpackRegion({buf.data(), buf.size()}, sp.region, raw, piece.region,
                 static_cast<size_t>(meta.elem_size));
  }
  trace::RecordSpan(trace::SpanKind::kServerPull, pull_begin, ep.clock().Now(),
                    sp.bytes);
  trace::ObserveMetric(trace::MetricId::kSubchunkBytes,
                       static_cast<double>(sp.bytes));
}

void ServerWriteArray(Endpoint& ep, FileSystem& fs, const World& world,
                      const Sp2Params& params, const CollectiveRequest& req,
                      std::int32_t array_index, const IoPlan& plan,
                      const DegradedLayout& layout, WorkPhase phase,
                      DiskWriteScheduler& disk, const ServerOptions& options,
                      std::vector<std::pair<std::string, std::string>>&
                          pending_renames) {
  const int sidx = world.server_index(ep.rank());
  const ArrayMeta& meta = req.arrays[static_cast<size_t>(array_index)];
  const bool timing = ep.timing_only();
  const RetryPolicy& retry = options.retry;
  RobustnessStats* stats = options.robustness;
  // Each i/o node owns its local file system exclusively; any second
  // rank touching it is a protocol bug. The stamp is a no-op unless
  // built with -DPANDA_HB=ON (see msg/hb.h).
  hb::StampAccess(&fs, "server.fs", /*is_write=*/true);
  // The journal needs real bytes; timing-only sweeps skip it.
  const bool journaling = options.journal && !timing;

  const SegmentPlan seg = PlanSegment(plan, layout, sidx, phase, req, meta,
                                      options.shard_bytes);
  const std::vector<WorkItem>& work = seg.work;
  // Checkpoints are published atomically: written under a temporary
  // stream name and renamed over the previous checkpoint only after
  // every server has finished its data and fsync (two-phase commit, see
  // ServerExecute), so a crash mid-checkpoint can never leave a mix of
  // old and new checkpoint files. The journal travels with its shards
  // through the same staged rename; files of the previous checkpoint
  // the new one does not replace are staged as removals. A recovery
  // phase reuses the staging set up by the full phase.
  const std::string write_name = req.purpose == Purpose::kCheckpoint
                                     ? seg.stream + ".tmp"
                                     : seg.stream;
  if (phase == WorkPhase::kFull) {
    if (!timing) {
      // Drop what this write supersedes: a truncating write (anything
      // but a later timestep) retires every later segment of its
      // stream, and with journaling off a stale journal goes too —
      // fresh data under old records would read back as corruption.
      const bool truncating =
          req.purpose != Purpose::kTimestep || req.seq == 0;
      retry.Run(&ep.clock(), stats, [&] {
        for (const std::string& name : StaleStreamFiles(
                 fs, write_name, truncating ? seg.files : INT64_MAX,
                 journaling)) {
          fs.Remove(name);
        }
      });
    }
    if (req.purpose == Purpose::kCheckpoint) {
      StageStreamPublication(fs, write_name, seg.stream, seg.files,
                             journaling && !work.empty(), pending_renames);
    }
  }
  if (work.empty()) {
    // An i/o node can own no chunks legitimately (disk layout narrower
    // than the server set); it still leaves its (empty) file.
    if (phase == WorkPhase::kFull && seg.files > 0) {
      retry.Run(&ep.clock(), stats, [&] {
        fs.Open(store::ShardFileName(write_name, 0), OpenMode::kWrite);
      });
    }
    return;
  }
  if (phase == WorkPhase::kAdoptedOnly && stats != nullptr) {
    stats->chunks_adopted.fetch_add(static_cast<std::int64_t>(
        layout.adopted[static_cast<size_t>(sidx)].size()));
  }

  // Store stage: a full phase rewrites its segment's shards from
  // scratch; a recovery phase extends them.
  SegmentWriter store(fs, &ep.clock(), options, meta, timing, write_name,
                      &seg.shards,
                      phase == WorkPhase::kFull ? OpenMode::kWrite
                                                : OpenMode::kReadWrite,
                      JournalOpenMode(req.purpose, req.seq, phase));

  // With request pipelining, sub-chunk k+1's requests go out before
  // sub-chunk k's data is consumed, so the clients' packing and the
  // request round trip overlap the current gather and disk write.
  if (options.pipeline_requests) {
    RequestPieces(ep, world, plan, array_index, work[0]);
  }
  const bool framing = meta.codec != CodecId::kNone && !timing;
  std::vector<std::byte> buf;
  for (size_t k = 0; k < work.size(); ++k) {
    const WorkItem& item = work[k];
    const ChunkPlan& cp = plan.chunks()[static_cast<size_t>(item.chunk_index)];
    const SubchunkPlan& sp =
        cp.subchunks[static_cast<size_t>(item.sub_index)];
    if (!options.pipeline_requests) {
      RequestPieces(ep, world, plan, array_index, item);
    } else if (k + 1 < work.size()) {
      RequestPieces(ep, world, plan, array_index, work[k + 1]);
    }
    PullSubchunk(ep, world, params, meta, array_index, item, sp, stats, buf);
    // Frame the assembled sub-chunk for disk. Encoding is CPU work on
    // the server (charged to its clock before the device is touched);
    // the stored-raw fallback writes exactly the bytes codec=none
    // would, so incompressible data costs only the encode attempt.
    SubchunkFrame frame;
    if (framing) {
      const double enc_begin = ep.clock().Now();
      {
        PANDA_SPAN(enc_span, trace::SpanKind::kCodecEncode, sp.bytes);
        frame = store.Encode({buf.data(), buf.size()});
        ep.AdvanceCompute(static_cast<double>(sp.bytes) /
                          params.codec_encode_Bps);
      }
      trace::ObserveMetric(trace::MetricId::kCodecEncodeSeconds,
                           ep.clock().Now() - enc_begin);
      trace::ObserveMetric(
          trace::MetricId::kCodecRatio,
          sp.bytes > 0 ? static_cast<double>(frame.frame_bytes(sp.bytes)) /
                             static_cast<double>(sp.bytes)
                       : 1.0);
    }
    const bool chunk_done = k + 1 == work.size() ||
                            work[k + 1].chunk_index != item.chunk_index;
    // The write span shows the *caller-visible* delay (near zero in
    // overlap mode); the disk.op_seconds histogram, observed inside the
    // scheduler's charge window, records true device time either way.
    PANDA_SPAN(write_span, trace::SpanKind::kServerWrite, sp.bytes);
    disk.Write([&] {
      const double dev_begin = ep.clock().Now();
      store.Put(seg.seg, item, array_index, cp.chunk_id,
                {buf.data(), buf.size()}, frame, chunk_done);
      trace::ObserveMetric(trace::MetricId::kDiskOpSeconds,
                           ep.clock().Now() - dev_begin);
    });
  }
  disk.Drain();
  store.Finish();
}

void ServerReadArray(Endpoint& ep, FileSystem& fs, const World& world,
                     const Sp2Params& params, const CollectiveRequest& req,
                     std::int32_t array_index, const IoPlan& plan,
                     const DegradedLayout& layout, const ServerOptions& options) {
  const int sidx = world.server_index(ep.rank());
  const ArrayMeta& meta = req.arrays[static_cast<size_t>(array_index)];
  const bool timing = ep.timing_only();
  RobustnessStats* stats = options.robustness;
  // Reading still mutates FS statistics and file cursors: model it as a
  // write for exclusivity purposes (no-op unless -DPANDA_HB=ON).
  hb::StampAccess(&fs, "server.fs", /*is_write=*/true);

  const SegmentPlan seg = PlanSegment(plan, layout, sidx, WorkPhase::kFull,
                                      req, meta, options.shard_bytes);
  if (seg.work.empty()) return;
  // The shard map re-derives from the plan exactly as the writer's did;
  // the reader verifies sub-chunks whose table record carries a CRC
  // when asked to, and probes slots whose record is torn.
  store::ShardReader reader(&fs, seg.stream, &seg.shards,
                            StoreOptionsFor(options, meta, timing),
                            options.retry, &ep.clock(), stats);

  std::vector<std::byte> buf;
  for (const WorkItem& item : seg.work) {
    const int ci = item.chunk_index;
    const int si = item.sub_index;
    const SubchunkPlan& sp =
        plan.chunks()[static_cast<size_t>(ci)].subchunks[static_cast<size_t>(si)];
    // Sub-chunks fully outside a subarray clip: no disk access at all.
    if (!sp.active) continue;
    trace::ObserveMetric(trace::MetricId::kSubchunkBytes,
                         static_cast<double>(sp.bytes));
    // Sequential read of the sub-chunk...
    {
      PANDA_SPAN(read_span, trace::SpanKind::kServerRead, sp.bytes);
      const double dev_begin = ep.clock().Now();
      store::ShardRead got = reader.Get(seg.seg, item.record_ordinal,
                                        meta.elem_size, std::move(buf));
      // Device time ends when the bytes are off the disk; the decode
      // below is CPU work charged to the codec pipeline.
      trace::ObserveMetric(trace::MetricId::kDiskOpSeconds,
                           ep.clock().Now() - dev_begin);
      if (got.checksum_failed) {
        // Persistent disagreement after the reader's re-read means the
        // bytes on disk are wrong (or the schemas diverged).
        if (stats != nullptr) stats->disk_checksum_failures.fetch_add(1);
        PANDA_REQUIRE(false,
                      "sub-chunk failed its on-disk checksum after a re-read "
                      "(%s segment %lld record %lld, chunk %d sub %d)",
                      seg.stream.c_str(), static_cast<long long>(seg.seg),
                      static_cast<long long>(item.record_ordinal), ci, si);
      }
      if (got.codec != CodecId::kNone) {
        PANDA_SPAN(dec_span, trace::SpanKind::kCodecDecode, sp.bytes);
        ep.AdvanceCompute(static_cast<double>(sp.bytes) /
                          params.codec_decode_Bps);
      }
      buf = std::move(got.raw);
    }
    // ...then scatter its pieces to the clients that need them.
    for (size_t pi = 0; pi < sp.pieces.size(); ++pi) {
      const PiecePlan& piece = sp.pieces[pi];
      if (!piece.contiguous_in_subchunk) {
        PANDA_SPAN(asm_span, trace::SpanKind::kServerAssemble, piece.bytes);
        ep.AdvanceCompute(static_cast<double>(piece.bytes) /
                          params.memcpy_Bps);
      }
      Message data;
      Encoder enc(data.header);
      PieceHeader{array_index, ci, static_cast<std::int32_t>(si),
                  static_cast<std::int32_t>(pi), piece.region}
          .EncodeTo(enc);
      if (!timing) {
        std::vector<std::byte> payload(static_cast<size_t>(piece.bytes));
        PackRegion({payload.data(), payload.size()},
                   {buf.data(), buf.size()}, sp.region, piece.region,
                   static_cast<size_t>(meta.elem_size));
        // End-to-end wire checksum over the *uncompressed* bytes,
        // verified by the receiving client after it decodes the frame.
        enc.Put<std::uint32_t>(Crc32c({payload.data(), payload.size()}));
        if (meta.codec != CodecId::kNone) {
          const double enc_begin = ep.clock().Now();
          CodecId used = CodecId::kNone;
          std::vector<std::byte> framed =
              EncodeWireFrame(meta.codec, {payload.data(), payload.size()},
                              meta.elem_size, &used);
          if (used != CodecId::kNone) {
            ep.AdvanceCompute(static_cast<double>(piece.bytes) /
                              params.codec_encode_Bps);
          }
          trace::RecordSpan(trace::SpanKind::kCodecEncode, enc_begin,
                            ep.clock().Now(), piece.bytes);
          trace::ObserveMetric(
              trace::MetricId::kCodecRatio,
              piece.bytes > 0
                  ? static_cast<double>(framed.size()) /
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
      ep.Send(world.client_rank(piece.client), kTagPieceData,
              std::move(data));
      // Per-piece flow control: wait for the client's acknowledgement
      // before pushing more. This bounds client-side buffering and
      // makes the read path's message count mirror the write path's
      // (request+data), matching the paper's observation that reads
      // and writes move essentially identical message traffic.
      (void)ep.Recv(world.client_rank(piece.client), kTagPieceAck);
    }
  }
}

// Master-server fan-out of an abort notice: every other server and the
// requesting application's master client hear about it directly, so the
// whole cluster unblocks within one receive each (docs/PROTOCOL.md).
void RelayAbortFromMasterServer(Endpoint& ep, const World& world,
                                const World& app_world, int origin_rank,
                                const std::string& reason) {
  for (int s = 0; s < world.num_servers; ++s) {
    const int r = world.server_rank(s);
    if (r == ep.rank() || r == origin_rank) continue;
    ep.Send(r, kTagAbort, MakeAbortMessage(origin_rank, reason));
  }
  const int mc = app_world.master_client_rank();
  if (mc != origin_rank) {
    ep.Send(mc, kTagAbort, MakeAbortMessage(origin_rank, reason));
  }
}

// After a committed checkpoint, truncate the timestep journals'
// replayable region: restarts (and rejoin replays) recover from the
// checkpoint, so records below `seq * records_per_segment` must never
// be reapplied. Runs on every server right after the checkpoint's
// commit point (the rename barrier); each server compacts its own
// journals, keeping any existing header epoch.
void MaybeGcJournals(Endpoint& ep, FileSystem& fs, const World& world,
                     const Sp2Params& params, const CollectiveRequest& req,
                     const ServerOptions& options, PlanCache* plan_cache,
                     const std::vector<int>& dead_servers) {
  if (!options.journal || ep.timing_only()) return;
  if (req.purpose != Purpose::kCheckpoint || req.seq <= 0) return;
  const int sidx = world.server_index(ep.rank());
  for (const ArrayMeta& meta : req.arrays) {
    const std::shared_ptr<const IoPlan> plan = plan_cache->Get(
        meta, world.num_servers, params.subchunk_bytes, nullptr);
    const DegradedLayout layout = DegradedLayout::Compute(*plan, dead_servers);
    const std::int64_t rps = RecordsPerSegment(*plan, layout, sidx);
    const std::string jname = JournalFileName(
        DataFileName(req.group, meta.name, Purpose::kTimestep, sidx));
    if (rps <= 0 || !fs.Exists(jname)) continue;
    JournalGcResult gc{};
    options.retry.Run(&ep.clock(), options.robustness, [&] {
      gc = GcJournal(fs, jname, req.seq * rps, /*fallback_epoch=*/0);
    });
    if (gc.truncated && options.robustness != nullptr) {
      options.robustness->journal_gc_truncations.fetch_add(1);
    }
  }
}

// The body of one collective on this server. `dead_servers` selects the
// degraded layout (empty = the identity layout, byte-identical to the
// pre-failover behavior); `phase` selects the slice of the work list.
// When `staged_renames` is non-null (failover orchestration), checkpoint
// renames are appended there for the caller to commit after the final
// gather, and the group-metadata write is left to the caller too;
// otherwise the legacy barrier + rename + metadata epilogue runs here.
void ServerExecuteImpl(Endpoint& ep, FileSystem& fs, const World& world,
                       const Sp2Params& params, const CollectiveRequest& req,
                       const ServerOptions& options, PlanCache* plan_cache,
                       const std::vector<int>& dead_servers, WorkPhase phase,
                       std::vector<std::pair<std::string, std::string>>*
                           staged_renames) {
  PlanCache local_cache(4);
  if (plan_cache == nullptr) plan_cache = &local_cache;
  const int sidx = world.server_index(ep.rank());
  // Digest the request and form the local plan.
  {
    PANDA_SPAN(plan_span, trace::SpanKind::kServerPlan, 0);
    ep.AdvanceCompute(params.plan_compute_s);
  }
  DiskWriteScheduler disk(ep, options.overlap_io);
  // Checkpoint files staged for two-phase commit (see below).
  std::vector<std::pair<std::string, std::string>> local_renames;
  std::vector<std::pair<std::string, std::string>>& pending_renames =
      staged_renames != nullptr ? *staged_renames : local_renames;
  PANDA_REQUIRE(!req.has_subarray || req.op == IoOp::kRead,
                "subarray access is only supported for reads");
  for (std::int32_t ai = 0; ai < static_cast<std::int32_t>(req.arrays.size());
       ++ai) {
    const std::shared_ptr<const IoPlan> plan_ptr = plan_cache->Get(
        req.arrays[static_cast<size_t>(ai)], world.num_servers,
        params.subchunk_bytes, req.has_subarray ? &req.subarray : nullptr);
    const IoPlan& plan = *plan_ptr;
    const DegradedLayout layout = DegradedLayout::Compute(plan, dead_servers);
    PANDA_REQUIRE(
        plan.chunks().empty() ||
            req.arrays[static_cast<size_t>(ai)].memory.mesh().size() ==
                world.num_clients,
        "array '%s' memory mesh has %d positions but the world has %d clients",
        req.arrays[static_cast<size_t>(ai)].name.c_str(),
        req.arrays[static_cast<size_t>(ai)].memory.mesh().size(),
        world.num_clients);
    if (req.op == IoOp::kWrite) {
      ServerWriteArray(ep, fs, world, params, req, ai, plan, layout, phase,
                       disk, options, pending_renames);
    } else {
      ServerReadArray(ep, fs, world, params, req, ai, plan, layout, options);
    }
  }
  if (staged_renames != nullptr) return;  // the failover loop commits
  // Two-phase checkpoint commit: publish the staged files only after
  // *every* server finished writing and syncing its temporaries, so a
  // server crash during the data phase leaves the previous checkpoint
  // complete on all i/o nodes (no old/new mix). The commit point is the
  // barrier; the rename window after it is metadata-only.
  if (!pending_renames.empty()) {
    Barrier(ep, world.ServerGroup(ep.rank()));
    CommitStaged(fs, options.retry, &ep.clock(), options.robustness,
                 pending_renames);
  }
  // A committed checkpoint retires the timestep journal's history.
  if (req.op == IoOp::kWrite) {
    MaybeGcJournals(ep, fs, world, params, req, options, plan_cache,
                    dead_servers);
  }
  // Group metadata: the master server records the schemas so consumers
  // (and restarts) can interpret the files without the application.
  // (Skipped in timing-only sweeps: metadata needs real bytes.)
  if (req.op == IoOp::kWrite && sidx == 0 && !req.meta_file.empty() &&
      !ep.timing_only()) {
    // A bounded shard size is recorded so readers, fsck and the rejoin
    // repair re-derive the identical shard map offline.
    CollectiveRequest meta_req = req;
    RecordShardBytes(options, meta_req.attributes);
    options.retry.Run(&ep.clock(), options.robustness,
                      [&] { UpdateGroupMeta(fs, meta_req); });
  }
}

// Merges server indices into an ascending dead set.
void MergeDead(std::vector<int>& dead, const std::vector<int>& more) {
  dead.insert(dead.end(), more.begin(), more.end());
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
}

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// One collective under the failover protocol (docs/PROTOCOL.md,
// "Failover and degraded mode"). The master server (index 0) is the
// coordinator: after every data phase it gathers a token from each
// surviving server with a per-peer receive, so a crash-stopped server
// surfaces as PeerDeadError instead of a hang. On a detected death the
// master notifies every client (kTagFailover, full dead set), then the
// survivors; everyone recomputes the DegradedLayout and the survivors
// re-gather only the adopted chunks. The loop repeats until a gather
// round completes with no new deaths; the master then releases the
// survivors and the clients with empty kTagFailover notices, commits
// staged checkpoint renames, and records the dead set in the group
// metadata (`__panda.dead_servers`) for offline verification.
void FailoverCollective(Endpoint& ep, FileSystem& fs, const World& world,
                        const Sp2Params& params, const CollectiveRequest& req,
                        const ServerOptions& options, PlanCache* plan_cache) {
  const int sidx = world.server_index(ep.rank());
  std::vector<int> dead = DeadServerIndices(ep, world);
  std::vector<std::pair<std::string, std::string>> staged;

  // Data phase: this server's full share under the current layout.
  ServerExecuteImpl(ep, fs, world, params, req, options, plan_cache, dead,
                    WorkPhase::kFull, &staged);

  if (sidx == 0) {
    for (;;) {
      // Gather a completion token from every surviving server. A
      // per-peer receive converts a crash-stop into PeerDeadError after
      // the heartbeat lease instead of hanging forever.
      std::vector<int> new_dead;
      for (int s = 1; s < world.num_servers; ++s) {
        if (Contains(dead, s)) continue;
        try {
          (void)ep.Recv(world.server_rank(s), kTagBarrier);
        } catch (const PeerDeadError&) {
          new_dead.push_back(s);
        }
      }
      if (new_dead.empty()) break;
      // A read cannot be re-planned: the data lived on the dead disk.
      PANDA_REQUIRE(req.op == IoOp::kWrite,
                    "server crash-stopped during a read collective: its "
                    "data is unrecoverable by re-planning");
      MergeDead(dead, new_dead);
      if (options.robustness != nullptr) {
        options.robustness->failovers_completed.fetch_add(1);
      }
      std::vector<int> dead_ranks;
      dead_ranks.reserve(dead.size());
      for (int s : dead) dead_ranks.push_back(world.server_rank(s));
      // Clients first, then the survivor decisions: sends deposit
      // immediately, so every client's notice is in its mailbox before
      // any survivor can issue an adopted-chunk request — and notices
      // outrank ordinary matching (msg/mailbox.h), so clients re-plan
      // before serving recovery traffic.
      for (int c = 0; c < world.num_clients; ++c) {
        ep.Send(world.client_rank(c), kTagFailover,
                MakeFailoverMessage(ep.rank(), dead_ranks));
      }
      for (int s = 1; s < world.num_servers; ++s) {
        if (Contains(dead, s)) continue;
        ep.Send(world.server_rank(s), kTagFailover,
                MakeFailoverMessage(ep.rank(), dead_ranks));
      }
      // The master's own recovery share, then gather again (a death
      // during recovery simply triggers another round: the layout is
      // recomputed from scratch and kAdoptedOnly rewrites every
      // adopted chunk, including those a newly-dead adopter took).
      {
        PANDA_SPAN(replan_span, trace::SpanKind::kFailoverReplan,
                   static_cast<std::int64_t>(dead.size()));
        ServerExecuteImpl(ep, fs, world, params, req, options, plan_cache,
                          dead, WorkPhase::kAdoptedOnly, &staged);
      }
    }
    // Release the survivors: empty notice = commit.
    for (int s = 1; s < world.num_servers; ++s) {
      if (Contains(dead, s)) continue;
      ep.Send(world.server_rank(s), kTagFailover,
              MakeFailoverMessage(ep.rank(), {}));
    }
  } else {
    for (;;) {
      ep.Send(world.master_server_rank(), kTagBarrier, Message{});
      // Master death while a survivor is parked on the phase decision
      // surfaces through the heartbeat lease as PeerDeadError and
      // converts to the structured abort at the ServerMain boundary; a
      // local deadline here would turn a long replan into a spurious
      // abort.
      const Message decision =
          // panda-lint: allow(proto-deadline)
          ep.Recv(world.master_server_rank(), kTagFailover);
      const FailoverNotice notice = DecodeFailoverNotice(decision);
      if (notice.dead_ranks.empty()) break;  // released: commit
      std::vector<int> more;
      for (int r : notice.dead_ranks) more.push_back(world.server_index(r));
      MergeDead(dead, more);
      {
        PANDA_SPAN(replan_span, trace::SpanKind::kFailoverReplan,
                   static_cast<std::int64_t>(dead.size()));
        ServerExecuteImpl(ep, fs, world, params, req, options, plan_cache,
                          dead, WorkPhase::kAdoptedOnly, &staged);
      }
    }
  }

  // Commit point passed (the release doubles as the checkpoint
  // barrier): publish staged checkpoint files. The renames touch shard
  // and journal names alike — recovery's journal republication rides
  // this same loop, so stamp it for the race checker (no-op unless
  // -DPANDA_HB=ON).
  hb::StampAccess(&fs, "server.fs", /*is_write=*/true);
  CommitStaged(fs, options.retry, &ep.clock(), options.robustness, staged);
  // A committed checkpoint retires the timestep journal's history.
  if (req.op == IoOp::kWrite) {
    MaybeGcJournals(ep, fs, world, params, req, options, plan_cache, dead);
  }

  if (sidx == 0) {
    std::int64_t epoch = 0;
    // Group metadata, with the dead set recorded for offline tools.
    if (req.op == IoOp::kWrite && !req.meta_file.empty() &&
        !ep.timing_only()) {
      // Version the layout: a commit that changes the recorded dead set
      // — this failover, or (through the rejoin path) a repair that
      // cleared it — bumps the epoch, so clients and offline tools can
      // tell which layout generation the files are under.
      std::vector<int> prev_dead;
      std::int64_t prev_epoch = 0;
      if (fs.Exists(req.meta_file)) {
        GroupMeta prev;
        options.retry.Run(&ep.clock(), options.robustness,
                          [&] { prev = ReadGroupMeta(fs, req.meta_file); });
        prev_dead = ParseDeadServersAttr(prev.attributes);
        prev_epoch = ParseLayoutEpochAttr(prev.attributes);
      }
      epoch = prev_epoch + (dead != prev_dead ? 1 : 0);
      CollectiveRequest meta_req = req;
      if (!dead.empty()) {
        meta_req.attributes[kDeadServersAttr] = EncodeDeadServersAttr(dead);
      }
      if (epoch > 0) {
        meta_req.attributes[kLayoutEpochAttr] = std::to_string(epoch);
      }
      RecordShardBytes(options, meta_req.attributes);
      hb::StampAccess(&fs, "server.fs", /*is_write=*/true);
      options.retry.Run(&ep.clock(), options.robustness,
                        [&] { UpdateGroupMeta(fs, meta_req); });
    }
    // Completion: an empty failover notice to every client replaces the
    // kTagServerDone + client-broadcast epilogue of the clean protocol.
    // It carries the committed layout epoch, so every client knows the
    // layout generation before its next collective.
    for (int c = 0; c < world.num_clients; ++c) {
      ep.Send(world.client_rank(c), kTagFailover,
              MakeFailoverMessage(ep.rank(), {}, epoch));
    }
  }
}

// Master-side rejoin admission (docs/PROTOCOL.md "Rejoin and
// incarnation fencing"). Called while holding the next trigger request,
// before it is distributed — every other live server is parked on its
// kTagBcast receive, so a repair collective can run ahead of the
// trigger and the trigger's collective already sees the restored
// layout. `acked` maps server index -> the highest incarnation this
// master has shaken hands with (local to one ServerMain invocation:
// a later Run() simply re-admits, which is idempotent).
void HandleRejoinsAsMaster(Endpoint& ep, FileSystem& fs, const World& world,
                           const Sp2Params& params,
                           const CollectiveRequest& trigger,
                           const ServerOptions& options, PlanCache& plan_cache,
                           std::map<int, std::int64_t>& acked) {
  // Pending rejoiners: revived peers whose current incarnation we have
  // not acknowledged. Transport liveness — not message arrival — is the
  // trigger, because the handshake may still be in flight; the directed
  // receive below waits for it. Incarnations only change between Run()
  // calls, so this scan cannot race a restart.
  std::vector<int> pending;
  for (int s = 1; s < world.num_servers; ++s) {
    const int r = world.server_rank(s);
    if (ep.peer_alive(r) && ep.peer_incarnation(r) > 1 &&
        acked[s] < ep.peer_incarnation(r)) {
      pending.push_back(s);
    }
  }
  if (pending.empty()) return;
  for (int s : pending) {
    // peer_alive(r) held just above, so the rejoiner's hello is either
    // already deposited or in flight; if it dies again mid-handshake
    // the lease raises PeerDeadError, which the ServerMain dispatch
    // converts to the structured abort.
    const RejoinNotice hello =
        // panda-lint: allow(proto-deadline)
        DecodeRejoinNotice(ep.Recv(world.server_rank(s), kTagRejoin));
    PANDA_CHECK_MSG(hello.origin_rank == world.server_rank(s),
                    "rejoin handshake origin mismatch");
    acked[s] = hello.incarnation;
  }

  // Membership verdict. Repair is possible only with committed group
  // metadata naming the dead set; a trigger without usable metadata
  // (a shutdown, a timing-only sweep, a group that never committed)
  // still acknowledges the rejoiners — they must never wedge on the
  // handshake — and the membership update is a no-op.
  GroupMeta meta;
  std::vector<int> prev_dead;
  bool have_meta = false;
  if (!trigger.meta_file.empty() && !ep.timing_only() &&
      fs.Exists(trigger.meta_file)) {
    options.retry.Run(&ep.clock(), options.robustness,
                      [&] { meta = ReadGroupMeta(fs, trigger.meta_file); });
    prev_dead = ParseDeadServersAttr(meta.attributes);
    have_meta = true;
  }
  const bool repair = have_meta && !prev_dead.empty();
  if (repair) {
    // All-or-nothing: re-admitting a subset would mix two layouts in
    // one group — the still-dead servers' chunks stay adopted while the
    // rejoined one's migrate back, and no collective could verify
    // against either. Abort (structured, liveness-preserving: the
    // rejoiners are blocked on this ack) rather than guess.
    for (int s : prev_dead) {
      PANDA_REQUIRE(ep.peer_alive(world.server_rank(s)),
                    "partial rejoin: server %d is still dead while others "
                    "rejoined; repair needs the full recorded-dead set back",
                    s);
    }
  }

  const std::int64_t prev_epoch =
      have_meta ? ParseLayoutEpochAttr(meta.attributes) : 0;
  const std::int64_t new_epoch = prev_epoch + 1;
  std::vector<int> dead_ranks;
  dead_ranks.reserve(prev_dead.size());
  for (int s : prev_dead) dead_ranks.push_back(world.server_rank(s));
  for (int s : pending) {
    RejoinNotice ack;
    ack.origin_rank = ep.rank();
    ack.incarnation = acked[s];
    ack.epoch = repair ? new_epoch : prev_epoch;
    ack.repair = repair;
    ack.dead_ranks = dead_ranks;
    ep.Send(world.server_rank(s), kTagRejoin, MakeRejoinMessage(ack));
  }
  if (!repair) return;

  // Rebalance back: broadcast the synthetic repair collective to every
  // live server (all parked on kTagBcast), run the master's own share,
  // then commit the membership update — dead set cleared, epoch bumped.
  // Until the metadata write lands the group still records the old
  // membership; a crash inside this window is the torn state the
  // journal-epoch check in panda_fsck flags offline.
  const CollectiveRequest repair_req =
      BuildRepairRequest(fs, meta, trigger.meta_file, prev_dead, new_epoch,
                         trigger.first_client, trigger.num_clients);
  const Message repair_msg = repair_req.ToMessage();
  for (int s = 1; s < world.num_servers; ++s) {
    if (!ep.peer_alive(world.server_rank(s))) continue;
    Message copy = repair_msg;
    ep.Send(world.server_rank(s), kTagBcast, std::move(copy));
  }
  RepairCollective(ep, fs, world, params, repair_req, options, &plan_cache);
  meta.attributes.erase(kDeadServersAttr);
  meta.attributes[kLayoutEpochAttr] = std::to_string(new_epoch);
  hb::StampAccess(&fs, "server.fs", /*is_write=*/true);
  options.retry.Run(&ep.clock(), options.robustness, [&] {
    WriteGroupMeta(fs, trigger.meta_file, meta);
  });
  if (options.robustness != nullptr) {
    options.robustness->rejoins_completed.fetch_add(
        static_cast<std::int64_t>(prev_dead.size()));
  }
}

}  // namespace

void ServerExecute(Endpoint& ep, FileSystem& fs, const World& world,
                   const Sp2Params& params, const CollectiveRequest& req,
                   ServerOptions options, PlanCache* plan_cache) {
  ServerExecuteImpl(ep, fs, world, params, req, options, plan_cache,
                    /*dead_servers=*/{}, WorkPhase::kFull,
                    /*staged_renames=*/nullptr);
}

void ServerMain(Endpoint& ep, FileSystem& fs, const World& world,
                const Sp2Params& params, ServerOptions options) {
  world.Validate();
  const int sidx = world.server_index(ep.rank());
  PANDA_CHECK_MSG(world.is_server_rank(ep.rank()),
                  "ServerMain called on non-server rank %d", ep.rank());
  const Group servers = world.ServerGroup(ep.rank());
  PlanCache plan_cache;

  // Rejoin handshake (failover mode only). A restarted server announces
  // itself to the master and blocks until admitted; the master folds the
  // admission into its next trigger request (HandleRejoinsAsMaster), so
  // the rejoinee may wait across idle time. A first-incarnation server
  // (incarnation 1) has nothing to announce. If the master itself is
  // dead the handshake can never complete — convert the detection into
  // the structured abort, exactly like the request-distribution path.
  if (options.failover && sidx != 0 && ep.incarnation() > 1) {
    try {
      RejoinNotice hello;
      hello.origin_rank = ep.rank();
      hello.incarnation = ep.incarnation();
      ep.Send(world.master_server_rank(), kTagRejoin, MakeRejoinMessage(hello));
      (void)DecodeRejoinNotice(
          ep.Recv(world.master_server_rank(), kTagRejoin));
    } catch (const PandaAbortError&) {
      throw;
    } catch (const PandaError& e) {
      if (options.robustness != nullptr) {
        options.robustness->collectives_aborted.fetch_add(1);
      }
      throw PandaAbortError(ep.rank(), e.what());
    }
  }
  std::map<int, std::int64_t> rejoin_acked;

  int live_applications = options.num_applications;
  while (live_applications > 0) {
    Message request_msg;
    if (sidx == 0) {
      // Any application's master client may request next; the broadcast
      // imposes one global order on all servers.
      request_msg = ep.RecvAny(kTagCollectiveRequest);
      if (options.failover) {
        // Admit any pending rejoiners before distributing the trigger:
        // every other live server is still parked on its kTagBcast
        // receive, so a repair collective can run here and the trigger
        // below already executes under the restored layout.
        const CollectiveRequest trigger =
            CollectiveRequest::FromMessage(request_msg);
        const World trigger_world =
            world.WithClients(trigger.first_client, trigger.num_clients);
        try {
          HandleRejoinsAsMaster(ep, fs, world, params, trigger, options,
                                plan_cache, rejoin_acked);
        } catch (const PandaAbortError& e) {
          RelayAbortFromMasterServer(ep, world, trigger_world,
                                     e.origin_rank(), e.reason());
          throw;
        } catch (const PandaError& e) {
          if (options.robustness != nullptr) {
            options.robustness->collectives_aborted.fetch_add(1);
          }
          RelayAbortFromMasterServer(ep, world, trigger_world, ep.rank(),
                                     e.what());
          throw PandaAbortError(ep.rank(), e.what());
        }
      }
    }
    if (options.failover) {
      // Point-to-point request distribution to the *live* servers: the
      // tree broadcast would wedge on a crash-stopped interior node.
      if (sidx == 0) {
        for (int s = 1; s < world.num_servers; ++s) {
          if (!ep.peer_alive(world.server_rank(s))) continue;
          Message copy = request_msg;
          ep.Send(world.server_rank(s), kTagBcast, std::move(copy));
        }
      } else {
        try {
          request_msg = ep.Recv(world.master_server_rank(), kTagBcast);
        } catch (const PandaAbortError&) {
          throw;
        } catch (const PandaError& e) {
          // The master server died between collectives. Without the hub
          // no further request can be distributed and no abort can be
          // relayed through it, so convert the detection into the
          // structured abort directly; the machine-level abort backstop
          // fans it out to every remaining rank.
          if (options.robustness != nullptr) {
            options.robustness->collectives_aborted.fetch_add(1);
          }
          throw PandaAbortError(ep.rank(), e.what());
        }
      }
    } else {
      try {
        request_msg = Bcast(ep, servers, 0, std::move(request_msg));
      } catch (const PandaAbortError&) {
        throw;
      } catch (const PandaError& e) {
        // A peer server dying mid-broadcast (non-failover build) must
        // become the structured abort here, not a raw PeerDeadError
        // escaping the dispatch loop — the exact class panda_mc caught
        // in tests/schedules/master-kill-abort.mctrace.
        if (options.robustness != nullptr) {
          options.robustness->collectives_aborted.fetch_add(1);
        }
        throw PandaAbortError(ep.rank(), e.what());
      }
    }
    const CollectiveRequest req = CollectiveRequest::FromMessage(request_msg);
    if (req.op == IoOp::kShutdown) {
      PANDA_DEBUG("server %d: application at rank %d shut down", sidx,
                  req.first_client);
      --live_applications;
      continue;
    }
    if (req.op == IoOp::kQueryMeta) {
      // Metadata query: the master server answers from its .schema file
      // (resume support); the other servers only observed the broadcast.
      if (sidx == 0) {
        Message reply;
        Encoder enc(reply.header);
        if (!ep.timing_only() && !req.meta_file.empty() &&
            fs.Exists(req.meta_file)) {
          enc.Put<std::uint8_t>(1);
          GroupMeta meta;
          options.retry.Run(&ep.clock(), options.robustness,
                            [&] { meta = ReadGroupMeta(fs, req.meta_file); });
          enc.PutBytes(meta.Encode());
        } else {
          enc.Put<std::uint8_t>(0);  // absent
        }
        ep.Send(req.first_client, kTagServerDone, std::move(reply));
      }
      continue;
    }

    // Serve the request against the requesting application's client
    // window (the servers themselves are shared).
    const World app_world = world.WithClients(req.first_client,
                                              req.num_clients);
    try {
      if (req.op == IoOp::kRepair) {
        // Synthetic repair collective broadcast by the master during
        // rejoin admission (HandleRejoinsAsMaster). Only non-masters see
        // it through the request loop — the master runs its share inline.
        RepairCollective(ep, fs, app_world, params, req, options,
                         &plan_cache);
        continue;
      }
      if (options.failover) {
        FailoverCollective(ep, fs, app_world, params, req, options,
                           &plan_cache);
      } else {
        ServerExecute(ep, fs, app_world, params, req, options, &plan_cache);

        // Completion: servers gather to the master server, which
        // notifies the requesting application's master client.
        // (Gather-only: servers need no release — they fall straight
        // back into the next request broadcast.)
        GatherSync(ep, servers);
        if (sidx == 0) {
          ep.Send(app_world.master_client_rank(), kTagServerDone, Message{});
        }
      }
    } catch (const PandaAbortError& e) {
      // Another rank's abort notice interrupted one of our receives.
      // The master server is the server-side relay hub: fan the notice
      // out to the remaining servers and the application's master
      // client, then die with the structured error ourselves.
      if (sidx == 0) {
        RelayAbortFromMasterServer(ep, world, app_world, e.origin_rank(),
                                   e.reason());
      }
      throw;
    } catch (const PandaError& e) {
      // This server hit an unrecoverable fault (exhausted retry budget,
      // crash-stop disk death, checksum failure...): it is the abort's
      // origin. Notify the hub — or fan out ourselves if we *are* the
      // hub — and die with the structured error. Sends are buffered, so
      // a dying rank never blocks on its own notifications.
      if (options.robustness != nullptr) {
        options.robustness->collectives_aborted.fetch_add(1);
      }
      if (sidx == 0) {
        RelayAbortFromMasterServer(ep, world, app_world, ep.rank(), e.what());
      } else {
        ep.Send(world.master_server_rank(), kTagAbort,
                MakeAbortMessage(ep.rank(), e.what()));
      }
      throw PandaAbortError(ep.rank(), e.what());
    }
  }
  PANDA_DEBUG("server %d shutting down", sidx);
}

}  // namespace panda
