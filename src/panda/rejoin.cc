#include "panda/rejoin.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "msg/collectives.h"
#include "msg/hb.h"
#include "msg/message.h"
#include "panda/failover.h"
#include "panda/journal.h"
#include "panda/store_io.h"
#include "trace/trace.h"
#include "util/crc32c.h"
#include "util/error.h"

namespace panda {
namespace {

std::string EncodeCsvInts(const std::vector<int>& v) {
  std::string s;
  for (int x : v) {
    if (!s.empty()) s.push_back(',');
    s += std::to_string(x);
  }
  return s;
}

std::vector<int> ParseCsvInts(const std::map<std::string, std::string>& attrs,
                              const char* key) {
  std::vector<int> out;
  const auto it = attrs.find(key);
  if (it == attrs.end() || it->second.empty()) return out;
  const std::string& s = it->second;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::stoi(s.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

std::int64_t ParseInt64Attr(const std::map<std::string, std::string>& attrs,
                            const char* key, std::int64_t fallback) {
  const auto it = attrs.find(key);
  if (it == attrs.end() || it->second.empty()) return fallback;
  return static_cast<std::int64_t>(std::stoll(it->second));
}

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// The header of one adopted-sub-chunk transfer (payload: the raw,
// decoded sub-chunk bytes; the CRC covers them end-to-end).
struct RepairTransfer {
  std::int32_t array_index = 0;
  std::uint8_t purpose = 0;
  std::int64_t seg = 0;
  std::int32_t chunk_index = 0;
  std::int32_t sub_index = 0;
  std::uint32_t payload_crc = 0;
};

Message MakeTransferMessage(const RepairTransfer& t,
                            std::vector<std::byte> payload) {
  Message msg;
  Encoder enc(msg.header);
  enc.Put<std::int32_t>(t.array_index);
  enc.Put<std::uint8_t>(t.purpose);
  enc.Put<std::int64_t>(t.seg);
  enc.Put<std::int32_t>(t.chunk_index);
  enc.Put<std::int32_t>(t.sub_index);
  enc.Put<std::uint32_t>(t.payload_crc);
  msg.SetPayload(std::move(payload));
  return msg;
}

RepairTransfer DecodeTransferHeader(const Message& msg) {
  Decoder dec(msg.header);
  RepairTransfer t;
  t.array_index = dec.Get<std::int32_t>();
  t.purpose = dec.Get<std::uint8_t>();
  t.seg = dec.Get<std::int64_t>();
  t.chunk_index = dec.Get<std::int32_t>();
  t.sub_index = dec.Get<std::int32_t>();
  t.payload_crc = dec.Get<std::uint32_t>();
  return t;
}

// Drops every file of stream `data_name` (stale-cede on the rejoinee,
// stale staging before a rebuild).
void RemoveStream(Endpoint& ep, FileSystem& fs, const ServerOptions& options,
                  const std::string& data_name) {
  options.retry.Run(&ep.clock(), options.robustness, [&] {
    for (const std::string& name : StaleStreamFiles(fs, data_name, 0, false)) {
      fs.Remove(name);
    }
  });
}

// Replays the rejoinee's stale journal as a diagnostic before it is
// ceded: every record that still parses clean is a write the old life
// provably committed (journal_records_salvaged). The data itself is
// NOT trusted — the cluster adopted and rewrote those chunks.
void SalvageStaleJournal(Endpoint& ep, FileSystem& fs,
                         const ServerOptions& options,
                         const std::string& data_name) {
  if (!options.journal) return;
  const std::string jname = JournalFileName(data_name);
  if (!fs.Exists(jname)) return;
  std::int64_t salvaged = 0;
  options.retry.Run(&ep.clock(), options.robustness, [&] {
    salvaged = 0;
    auto journal = fs.Open(jname, OpenMode::kRead);
    const std::optional<JournalHeader> hdr = ReadJournalHeader(*journal);
    const std::int64_t base = hdr ? hdr->base_record : 0;
    const std::int64_t body =
        journal->Size() - (hdr ? kJournalHeaderBytes : 0);
    const std::int64_t full = base + body / kJournalRecordBytes;
    for (std::int64_t r = base; r < full; ++r) {
      if (ReadJournalRecord(*journal, hdr, r)) ++salvaged;
    }
  });
  if (options.robustness != nullptr) {
    options.robustness->journal_records_salvaged.fetch_add(salvaged);
  }
}

// One (array, purpose) pair of the repair. Returns the number of chunks
// this server received back (rejoinee side; 0 elsewhere).
std::int64_t RepairArrayPurpose(
    Endpoint& ep, FileSystem& fs, const World& world,
    const CollectiveRequest& req, std::int32_t array_index, const IoPlan& plan,
    const DegradedLayout& degraded, const DegradedLayout& identity,
    Purpose purpose, std::int64_t num_segments, std::int64_t checkpoint_seq,
    std::int64_t new_epoch, const std::vector<int>& prev_dead,
    const ServerOptions& options,
    std::vector<std::pair<std::string, std::string>>& staged) {
  const int sidx = world.server_index(ep.rank());
  const ArrayMeta& meta = req.arrays[static_cast<size_t>(array_index)];
  const bool rejoinee = Contains(prev_dead, sidx);
  const std::string final_name =
      DataFileName(req.group, meta.name, purpose, sidx);
  const std::vector<WorkItem> identity_work =
      BuildServerWork(plan, identity, sidx, WorkPhase::kFull);
  // Rebuilt segments take the identity layout's shard map (the same
  // pure function every writer and reader derives).
  const store::ShardLayout identity_shards =
      PackWork(plan, identity_work, options.shard_bytes);
  // Files a rebuilt stream occupies (an owner of no chunks keeps one
  // empty file for non-timestep purposes, as collective writes do).
  const std::int64_t files =
      identity_work.empty()
          ? (purpose != Purpose::kTimestep ? 1 : 0)
          : num_segments * identity_shards.shards_per_segment();
  // Rebuilt timestep journals keep the committed checkpoint's GC base;
  // single-segment purposes start from record 0.
  JournalHeader jhdr;
  jhdr.epoch = new_epoch;
  if (purpose == Purpose::kTimestep && checkpoint_seq > 0) {
    jhdr.base_record = checkpoint_seq * identity_shards.records_per_segment();
  }
  // Survivor without adopted chunks: its degraded segments ARE the
  // identity segments (same owners, offsets and stride) — untouched.
  const std::vector<int>& adopted = degraded.adopted[static_cast<size_t>(sidx)];
  if (!rejoinee && adopted.empty()) return 0;

  // A rejoinee cedes its pre-crash files and rebuilds at the final
  // names: the committed metadata still records it dead, so a crash
  // mid-rebuild leaves nothing trusted. An adopter rebuilds under a
  // `.repair` staging name published at the barrier; degraded-layout
  // shards past the identity count (the adopted chunks' spill) are
  // staged as removals.
  const std::string write_name =
      rejoinee ? final_name : final_name + ".repair";
  if (rejoinee) SalvageStaleJournal(ep, fs, options, final_name);
  RemoveStream(ep, fs, options, write_name);
  if (!rejoinee) {
    StageStreamPublication(fs, write_name, final_name, files,
                           options.journal && !identity_work.empty(), staged);
  }
  std::optional<SegmentWriter> writer;
  if (!identity_work.empty()) {
    writer.emplace(fs, &ep.clock(), options, meta, /*timing=*/false,
                   write_name, &identity_shards, OpenMode::kWrite,
                   OpenMode::kWrite, jhdr);
  } else if (files > 0) {
    options.retry.Run(&ep.clock(), options.robustness, [&] {
      fs.Open(store::ShardFileName(write_name, 0), OpenMode::kWrite);
    });
  }

  // An adopter's source: its degraded-layout segments (where the
  // adopted chunks currently live), by each (chunk, sub)'s old ordinal.
  std::map<std::pair<int, int>, std::int64_t> old_ordinals;
  const std::vector<WorkItem> degraded_work =
      rejoinee ? std::vector<WorkItem>{}
               : BuildServerWork(plan, degraded, sidx, WorkPhase::kFull);
  for (const WorkItem& item : degraded_work) {
    old_ordinals[{item.chunk_index, item.sub_index}] = item.record_ordinal;
  }
  const store::ShardLayout old_shards =
      PackWork(plan, degraded_work, options.shard_bytes);
  store::ShardReader old_reader(&fs, final_name, &old_shards,
                                StoreOptionsFor(options, meta, false),
                                options.retry, &ep.clock(), options.robustness);
  const auto read_old = [&](int ci, int si, std::int64_t seg) {
    store::ShardRead got = old_reader.Get(seg, old_ordinals.at({ci, si}),
                                          meta.elem_size);
    PANDA_REQUIRE(!got.checksum_failed,
                  "repair source %s (segment %lld, chunk %d sub %d) failed "
                  "its on-disk checksum after a re-read",
                  final_name.c_str(), static_cast<long long>(seg), ci, si);
    return std::move(got.raw);
  };
  // A rejoinee's source: the adopter's transfer of the same sub-chunk.
  const auto receive = [&](const WorkItem& item, std::int64_t seg) {
    const int owner = degraded.owner[static_cast<size_t>(item.chunk_index)];
    // Repair streams run under ServerMain's converting dispatch: an
    // adopter that dies mid-stream raises PeerDeadError via its lease
    // and aborts the repair collective as a whole. A deadline here
    // would cap legitimate large-segment transfer times.
    // panda-lint: allow(proto-deadline)
    Message msg = ep.Recv(world.server_rank(owner), kTagRejoin);
    const RepairTransfer t = DecodeTransferHeader(msg);
    PANDA_REQUIRE(t.array_index == array_index &&
                      t.purpose == static_cast<std::uint8_t>(purpose) &&
                      t.seg == seg && t.chunk_index == item.chunk_index &&
                      t.sub_index == item.sub_index,
                  "repair transfer out of order: adopter %d sent array=%d "
                  "purpose=%u seg=%lld chunk=%d sub=%d",
                  owner, t.array_index, t.purpose,
                  static_cast<long long>(t.seg), t.chunk_index, t.sub_index);
    const SubchunkPlan& sp =
        plan.chunks()[static_cast<size_t>(item.chunk_index)]
            .subchunks[static_cast<size_t>(item.sub_index)];
    PANDA_REQUIRE(static_cast<std::int64_t>(msg.payload.size()) == sp.bytes,
                  "repair transfer size mismatch");
    const std::uint32_t got = Crc32c({msg.payload.data(), msg.payload.size()});
    if (got != t.payload_crc) {
      if (options.robustness != nullptr) {
        options.robustness->wire_checksum_failures.fetch_add(1);
      }
      PANDA_REQUIRE(false,
                    "repair transfer from server %d failed its end-to-end "
                    "checksum (wire %08x != computed %08x)",
                    owner, t.payload_crc, got);
    }
    return std::move(msg.payload);
  };

  std::int64_t chunks_back = 0;
  for (std::int64_t seg = 0; seg < num_segments; ++seg) {
    // Own chunks at their identity offsets and stride.
    for (size_t k = 0; k < identity_work.size(); ++k) {
      const WorkItem& item = identity_work[k];
      const std::vector<std::byte> raw =
          rejoinee ? receive(item, seg)
                   : read_old(item.chunk_index, item.sub_index, seg);
      const bool chunk_done =
          k + 1 == identity_work.size() ||
          identity_work[k + 1].chunk_index != item.chunk_index;
      writer->Put(seg, item, array_index,
                  plan.chunks()[static_cast<size_t>(item.chunk_index)].chunk_id,
                  {raw.data(), raw.size()}, writer->Encode(raw), chunk_done);
      if (rejoinee && item.sub_index == 0) ++chunks_back;
    }
    // Adopted chunks (an adopter's; a rejoinee adopted none): stream each
    // sub-chunk back to its identity owner (ascending chunk then sub
    // order — the receivers' directed-Recv order is the same
    // subsequence).
    for (int ci : adopted) {
      const ChunkPlan& cp = plan.chunks()[static_cast<size_t>(ci)];
      for (size_t si = 0; si < cp.subchunks.size(); ++si) {
        std::vector<std::byte> raw = read_old(ci, static_cast<int>(si), seg);
        RepairTransfer t;
        t.array_index = array_index;
        t.purpose = static_cast<std::uint8_t>(purpose);
        t.seg = seg;
        t.chunk_index = ci;
        t.sub_index = static_cast<int>(si);
        t.payload_crc = Crc32c({raw.data(), raw.size()});
        ep.Send(world.server_rank(cp.server), kTagRejoin,
                MakeTransferMessage(t, std::move(raw)));
      }
    }
  }
  if (writer.has_value()) writer->Finish();
  return chunks_back;
}

}  // namespace

CollectiveRequest BuildRepairRequest(FileSystem& master_fs,
                                     const GroupMeta& meta,
                                     const std::string& meta_file,
                                     const std::vector<int>& prev_dead,
                                     std::int64_t new_epoch, int first_client,
                                     int num_clients) {
  CollectiveRequest req;
  req.op = IoOp::kRepair;
  req.purpose = Purpose::kTimestep;
  req.seq = meta.timesteps;  // segments to rebuild per timestep stream
  req.group = meta.group;
  req.meta_file = meta_file;
  req.first_client = first_client;
  req.num_clients = num_clients;
  req.arrays = meta.arrays;
  req.attributes[kRepairPrevDeadAttr] = EncodeCsvInts(prev_dead);
  req.attributes[kRepairEpochAttr] = std::to_string(new_epoch);
  req.attributes[kRepairCheckpointSeqAttr] =
      std::to_string(meta.has_checkpoint ? meta.checkpoint_seq : -1);
  // Every general collective creates a (possibly empty) file on each
  // live server, so existence on the master's disk is the global truth
  // for which arrays have a general stream to repair.
  std::vector<int> general_arrays;
  for (size_t a = 0; a < meta.arrays.size(); ++a) {
    const std::string stream = DataFileName(meta.group, meta.arrays[a].name,
                                            Purpose::kGeneral,
                                            /*server_index=*/0);
    if (master_fs.Exists(store::ShardFileName(stream, 0))) {
      general_arrays.push_back(static_cast<int>(a));
    }
  }
  req.attributes[kRepairGeneralAttr] = EncodeCsvInts(general_arrays);
  return req;
}

void RepairCollective(Endpoint& ep, FileSystem& fs, const World& world,
                      const Sp2Params& params, const CollectiveRequest& req,
                      const ServerOptions& options, PlanCache* plan_cache) {
  PANDA_REQUIRE(!ep.timing_only(),
                "rejoin repair needs real data (timing-only run)");
  PANDA_CHECK(req.op == IoOp::kRepair);
  PlanCache local_cache(4);
  if (plan_cache == nullptr) plan_cache = &local_cache;
  const std::vector<int> prev_dead =
      ParseCsvInts(req.attributes, kRepairPrevDeadAttr);
  PANDA_REQUIRE(!prev_dead.empty(), "repair request with no dead set");
  const std::int64_t new_epoch =
      ParseInt64Attr(req.attributes, kRepairEpochAttr, 1);
  const std::int64_t checkpoint_seq =
      ParseInt64Attr(req.attributes, kRepairCheckpointSeqAttr, -1);
  const std::vector<int> general_arrays =
      ParseCsvInts(req.attributes, kRepairGeneralAttr);
  const std::int64_t timesteps = req.seq;

  PANDA_SPAN(repair_span, trace::SpanKind::kRejoinRepair,
             static_cast<std::int64_t>(prev_dead.size()));
  hb::StampAccess(&fs, "server.fs", /*is_write=*/true);

  std::vector<std::pair<std::string, std::string>> staged;
  std::int64_t chunks_back = 0;
  for (std::int32_t ai = 0; ai < static_cast<std::int32_t>(req.arrays.size());
       ++ai) {
    const std::shared_ptr<const IoPlan> plan_ptr =
        plan_cache->Get(req.arrays[static_cast<size_t>(ai)], world.num_servers,
                        params.subchunk_bytes, nullptr);
    const IoPlan& plan = *plan_ptr;
    const DegradedLayout degraded = DegradedLayout::Compute(plan, prev_dead);
    const DegradedLayout identity = DegradedLayout::Compute(plan, {});
    if (Contains(general_arrays, static_cast<int>(ai))) {
      chunks_back += RepairArrayPurpose(
          ep, fs, world, req, ai, plan, degraded, identity, Purpose::kGeneral,
          1, checkpoint_seq, new_epoch, prev_dead, options, staged);
    }
    if (timesteps > 0) {
      chunks_back += RepairArrayPurpose(ep, fs, world, req, ai, plan, degraded,
                                        identity, Purpose::kTimestep, timesteps,
                                        checkpoint_seq, new_epoch, prev_dead,
                                        options, staged);
    }
    if (checkpoint_seq >= 0) {
      chunks_back += RepairArrayPurpose(
          ep, fs, world, req, ai, plan, degraded, identity, Purpose::kCheckpoint,
          1, checkpoint_seq, new_epoch, prev_dead, options, staged);
    }
  }
  if (chunks_back > 0 && options.robustness != nullptr) {
    options.robustness->chunks_restored.fetch_add(chunks_back);
  }

  // Commit point: every server finished writing and fsyncing before any
  // degraded file is replaced. The window between these renames and the
  // master's metadata commit is the torn state the journal epoch check
  // detects offline.
  Barrier(ep, world.ServerGroup(ep.rank()));
  hb::StampAccess(&fs, "server.fs", /*is_write=*/true);
  CommitStaged(fs, options.retry, &ep.clock(), options.robustness, staged);
}

}  // namespace panda
