#include "panda/store_io.h"

#include <utility>

#include "panda/protocol.h"
#include "trace/trace.h"
#include "util/crc32c.h"
#include "util/error.h"

namespace panda {
namespace {

void AppendLog(std::string* log, const std::string& line) {
  if (log == nullptr) return;
  log->append(line);
  log->push_back('\n');
}

}  // namespace

store::ShardLayout PackWork(const IoPlan& plan,
                            const std::vector<WorkItem>& full_work,
                            std::int64_t shard_bytes) {
  std::vector<store::ShardSlot> slots(full_work.size());
  for (const WorkItem& item : full_work) {
    const SubchunkPlan& sp =
        plan.chunks()[static_cast<size_t>(item.chunk_index)]
            .subchunks[static_cast<size_t>(item.sub_index)];
    slots[static_cast<size_t>(item.record_ordinal)] = {item.file_offset,
                                                       sp.bytes};
  }
  return store::ShardLayout::Pack(slots, shard_bytes);
}

void RecordShardBytes(const ServerOptions& options,
                      std::map<std::string, std::string>& attributes) {
  if (options.shard_bytes > 0) {
    attributes[kShardBytesAttr] = std::to_string(options.shard_bytes);
  }
}

store::StoreOptions StoreOptionsFor(const ServerOptions& options,
                                    const ArrayMeta& meta, bool timing) {
  store::StoreOptions out;
  out.backend = options.backend;
  out.timing = timing;
  out.framed = meta.codec != CodecId::kNone;
  out.checksums = options.disk_checksums;
  return out;
}

store::ShardReader OfflineShardReader(FileSystem& fs,
                                      const std::string& data_file,
                                      const store::ShardLayout* layout,
                                      const ArrayMeta& meta) {
  ServerOptions verify;
  verify.disk_checksums = true;
  RetryPolicy one_try;
  one_try.max_attempts = 1;
  return store::ShardReader(&fs, data_file, layout,
                            StoreOptionsFor(verify, meta, /*timing=*/false),
                            one_try, /*clock=*/nullptr, /*stats=*/nullptr);
}

StreamFiles ListStreamFiles(FileSystem& fs, const std::string& data_file) {
  StreamFiles out;
  for (std::int64_t id = 0; fs.Exists(store::ShardFileName(data_file, id));
       ++id) {
    out.shards.push_back(store::ShardFileName(data_file, id));
  }
  if (fs.Exists(JournalFileName(data_file))) {
    out.journal = JournalFileName(data_file);
  }
  return out;
}

std::vector<std::string> StaleStreamFiles(FileSystem& fs,
                                          const std::string& data_file,
                                          std::int64_t keep_shards,
                                          bool keep_journal) {
  StreamFiles files = ListStreamFiles(fs, data_file);
  std::vector<std::string> stale;
  for (size_t id = static_cast<size_t>(keep_shards); id < files.shards.size();
       ++id) {
    stale.push_back(std::move(files.shards[id]));
  }
  if (!keep_journal && !files.journal.empty()) {
    stale.push_back(std::move(files.journal));
  }
  return stale;
}

void StageStreamPublication(
    FileSystem& fs, const std::string& from, const std::string& to,
    std::int64_t shards, bool journal,
    std::vector<std::pair<std::string, std::string>>& staged) {
  for (std::int64_t id = 0; id < shards; ++id) {
    staged.emplace_back(store::ShardFileName(from, id),
                        store::ShardFileName(to, id));
  }
  if (journal) staged.emplace_back(JournalFileName(from), JournalFileName(to));
  for (std::string& name : StaleStreamFiles(fs, to, shards, journal)) {
    staged.emplace_back(std::string(), std::move(name));
  }
}

void CommitStaged(
    FileSystem& fs, const RetryPolicy& retry, VirtualClock* clock,
    RobustnessStats* stats,
    const std::vector<std::pair<std::string, std::string>>& staged) {
  for (const auto& [from, to] : staged) {
    retry.Run(clock, stats, [&] {
      if (from.empty()) {
        fs.Remove(to);
      } else {
        fs.Rename(from, to);
      }
    });
  }
}

SegmentWriter::SegmentWriter(FileSystem& fs, VirtualClock* clock,
                             const ServerOptions& options,
                             const ArrayMeta& meta, bool timing,
                             std::string write_name,
                             const store::ShardLayout* layout, OpenMode mode,
                             OpenMode journal_mode,
                             std::optional<JournalHeader> fresh_journal)
    : clock_(clock),
      options_(options),
      meta_(meta),
      layout_(layout),
      store_(StoreOptionsFor(options, meta, timing)),
      writer_(&fs, write_name, layout, store_, mode, options.retry, clock,
              options.robustness) {
  // The journal needs real bytes; timing-only sweeps skip it.
  if (!options.journal || timing) return;
  const std::string jname = JournalFileName(write_name);
  const RetryPolicy& retry = options.retry;
  if (fresh_journal.has_value()) {
    journal_header_ = fresh_journal;
    retry.Run(clock_, options.robustness, [&] {
      journal_ = fs.Open(jname, OpenMode::kWrite);
      WriteJournalHeader(*journal_, *journal_header_);
    });
    return;
  }
  retry.Run(clock_, options.robustness,
            [&] { journal_ = fs.Open(jname, journal_mode); });
  if (journal_mode == OpenMode::kReadWrite) {
    // A journal compacted after a checkpoint — or rebuilt by a rejoin
    // repair — carries a header whose base offsets the record slots;
    // honor it. Freshly truncated journals are headerless.
    retry.Run(clock_, options.robustness,
              [&] { journal_header_ = ReadJournalHeader(*journal_); });
  }
}

SubchunkFrame SegmentWriter::Encode(std::span<const std::byte> raw) const {
  if (!store_.framed || store_.timing) return {};
  return EncodeSubchunkFrame(meta_.codec, raw, meta_.elem_size);
}

void SegmentWriter::Put(std::int64_t seg, const WorkItem& item,
                        std::int32_t array_index, std::int32_t chunk_id,
                        std::span<const std::byte> raw,
                        const SubchunkFrame& frame, bool chunk_done) {
  const RetryPolicy& retry = options_.retry;
  RobustnessStats* stats = options_.robustness;
  const std::int64_t bytes = layout_->slot(item.record_ordinal).bytes;
  // One CRC per sub-chunk, over the decoded bytes: the table record and
  // the journal's commit record share it.
  const std::uint32_t crc =
      (store_.checksums || journal_ != nullptr) && !store_.timing
          ? Crc32c(raw)
          : 0;
  // The writer retries internally; object-store shards buffer here and
  // hit the device at Finish.
  if (frame.codec != CodecId::kNone) {
    writer_.Put(seg, item.record_ordinal, array_index, chunk_id,
                item.sub_index, frame.codec,
                {frame.bytes.data(), frame.bytes.size()},
                static_cast<std::int64_t>(frame.bytes.size()), crc);
  } else {
    writer_.Put(seg, item.record_ordinal, array_index, chunk_id,
                item.sub_index, CodecId::kNone, raw, bytes, crc);
  }
  if (journal_ == nullptr) return;
  // Write-ahead commit record: appended after the sub-chunk's data
  // write, fsynced when the chunk completes. After a crash the journal
  // names exactly the durable chunks (panda/journal.h). Records below a
  // compacted journal's base are superseded by its checkpoint.
  const std::int64_t index =
      seg * layout_->records_per_segment() + item.record_ordinal;
  if (journal_header_.has_value() && index < journal_header_->base_record) {
    return;
  }
  JournalRecord rec;
  rec.array_index = array_index;
  rec.chunk_id = chunk_id;
  rec.sub_index = item.sub_index;
  rec.seq = seg;
  rec.file_offset = seg * layout_->segment_bytes() + item.file_offset;
  rec.bytes = bytes;
  rec.data_crc = crc;
  {
    PANDA_SPAN(journal_span, trace::SpanKind::kJournalAppend, bytes);
    retry.Run(clock_, stats, [&] {
      WriteJournalRecord(*journal_, journal_header_, index, rec);
    });
  }
  if (stats != nullptr) stats->journal_records_written.fetch_add(1);
  if (chunk_done) retry.Run(clock_, stats, [&] { journal_->Sync(); });
}

void SegmentWriter::Finish() {
  // The paper flushes every collective write with fsync: shard tables
  // (posix) or whole objects (object store) land, then everything
  // touched is made durable.
  writer_.Finish();
  if (journal_ != nullptr) {
    options_.retry.Run(clock_, options_.robustness,
                       [&] { journal_->Sync(); });
  }
}

void SegmentReport::Merge(const SegmentReport& other) {
  files_checked += other.files_checked;
  files_missing += other.files_missing;
  size_mismatches += other.size_mismatches;
  tables_torn += other.tables_torn;
  entries_invalid += other.entries_invalid;
  subchunks_checked += other.subchunks_checked;
  subchunks_verified += other.subchunks_verified;
  subchunks_encoded += other.subchunks_encoded;
  healed_slots += other.healed_slots;
  decode_failures += other.decode_failures;
  checksum_mismatches += other.checksum_mismatches;
}

SegmentReport VerifyArraySegments(std::span<FileSystem* const> fs,
                                  const ArrayMeta& meta,
                                  std::int64_t subchunk_bytes, Purpose purpose,
                                  std::int64_t num_segments,
                                  const std::string& group,
                                  std::int64_t shard_bytes, bool read_data,
                                  std::string* log,
                                  const std::vector<int>& dead_servers) {
  SegmentReport report;
  const int num_servers = static_cast<int>(fs.size());
  const IoPlan plan(meta, num_servers, subchunk_bytes);
  // The layout the data was committed under (identity when no server
  // was dead): dead servers' files are stale, survivors carry their
  // adopted chunks appended past their original segments.
  const DegradedLayout layout = DegradedLayout::Compute(plan, dead_servers);
  const bool framed = meta.codec != CodecId::kNone;

  for (int s = 0; s < num_servers; ++s) {
    if (!layout.alive[static_cast<size_t>(s)]) continue;  // lost disk
    const std::vector<WorkItem> work =
        BuildServerWork(plan, layout, s, WorkPhase::kFull);
    if (work.empty()) continue;  // this server stores none of the array
    const std::string data_name = DataFileName(group, meta.name, purpose, s);
    // General files exist only for arrays the application wrote with
    // WriteArray; the group metadata promises timesteps and checkpoints.
    if (purpose == Purpose::kGeneral &&
        !fs[s]->Exists(store::ShardFileName(data_name, 0))) {
      continue;
    }
    const store::ShardLayout shards = PackWork(plan, work, shard_bytes);
    const std::int64_t sps = shards.shards_per_segment();
    store::ShardReader reader =
        OfflineShardReader(*fs[s], data_name, &shards, meta);
    for (std::int64_t seg = 0; seg < num_segments; ++seg) {
      for (std::int64_t local = 0; local < sps; ++local) {
        const store::ShardSpec& spec = shards.shard(local);
        const std::string shard_name =
            store::ShardFileName(data_name, seg * sps + local);
        const std::string where = shard_name + " [server " +
                                  std::to_string(s) + ", segment " +
                                  std::to_string(seg) + "]";
        ++report.files_checked;
        if (!fs[s]->Exists(shard_name)) {
          ++report.files_missing;
          AppendLog(log, "missing shard: " + where);
          continue;
        }
        auto file = fs[s]->Open(shard_name, OpenMode::kRead);
        const std::int64_t size = file->Size();
        // A codec=none shard is its data region alone unless it was
        // written with checksums, and then its table follows the whole
        // region; a framed shard always has a table, after its stored
        // bytes (the last frames may end short of the region).
        const bool has_table = framed || size > spec.data_bytes;
        const std::int64_t tail = store::ShardFileBytes(0, spec.num_records);
        const std::int64_t want =
            !has_table ? spec.data_bytes
                       : (framed ? tail : spec.data_bytes + tail);
        if (has_table ? size < want : size != want) {
          ++report.size_mismatches;
          AppendLog(log, "bad shard size (" + std::to_string(size) +
                             "B, needs " + (has_table ? "at least " : "") +
                             std::to_string(want) + "B): " + where);
          continue;
        }
        if (has_table) {
          std::optional<store::ShardFooter> footer;
          const auto table = store::ReadShardTable(
              *file,
              framed ? store::TableLocation{}
                     : store::TableLocation{spec.data_bytes, spec.num_records},
              &footer);
          if (!footer.has_value()) {
            ++report.tables_torn;
            AppendLog(log, "torn shard footer: " + where);
          }
          const bool whole =
              table.has_value() &&
              static_cast<std::int64_t>(table->size()) == spec.num_records;
          for (std::int64_t i = 0; i < spec.num_records; ++i) {
            const std::int64_t k = spec.first_record + i;
            const WorkItem& item = work[static_cast<size_t>(k)];
            const store::ShardSlot slot = shards.slot(k);
            const store::ShardTableEntry e =
                whole ? (*table)[static_cast<size_t>(i)]
                      : store::ShardTableEntry{};
            if (!e.valid || e.slot_offset != slot.offset - spec.base_offset ||
                e.raw_bytes != slot.bytes ||
                e.chunk_id !=
                    plan.chunks()[static_cast<size_t>(item.chunk_index)]
                        .chunk_id ||
                e.sub_index != item.sub_index) {
              ++report.entries_invalid;
              AppendLog(log, "invalid table record " + std::to_string(i) +
                                 ": " + where);
            }
          }
        }
        if (!read_data) continue;
        // Every sub-chunk must decode to its plan size and match its
        // record's CRC when the table carries one. Torn records heal
        // through the slots' self-describing frame headers; healing is
        // counted, not fatal.
        for (std::int64_t k = spec.first_record;
             k < spec.first_record + spec.num_records; ++k) {
          ++report.subchunks_checked;
          store::ShardRead got;
          try {
            got = reader.Get(seg, k, meta.elem_size);
          } catch (const PandaError& e) {
            ++report.decode_failures;
            AppendLog(log, "unreadable sub-chunk " + std::to_string(k) +
                               " (" + e.what() + "): " + where);
            continue;
          }
          if (got.healed) ++report.healed_slots;
          if (got.verified) ++report.subchunks_verified;
          if (got.codec != CodecId::kNone) ++report.subchunks_encoded;
          if (got.checksum_failed) {
            ++report.checksum_mismatches;
            AppendLog(log, "checksum mismatch in sub-chunk " +
                               std::to_string(k) + ": " + where);
          }
        }
      }
    }
  }
  return report;
}

SegmentReport VerifyGroupSegments(std::span<FileSystem* const> fs,
                                  const GroupMeta& meta,
                                  std::int64_t subchunk_bytes, bool read_data,
                                  std::string* log) {
  SegmentReport report;
  const std::int64_t shard_bytes = ParseShardBytesAttr(meta.attributes);
  const std::vector<int> dead = ParseDeadServersAttr(meta.attributes);
  ForEachGroupStream(meta, [&](std::int32_t, const ArrayMeta& array,
                               Purpose purpose, std::int64_t segments) {
    report.Merge(VerifyArraySegments(fs, array, subchunk_bytes, purpose,
                                     segments, meta.group, shard_bytes,
                                     read_data, log, dead));
  });
  return report;
}

}  // namespace panda
