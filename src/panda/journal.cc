#include "panda/journal.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "panda/store_io.h"
#include "util/codec.h"
#include "util/crc32c.h"
#include "util/error.h"

namespace panda {
namespace {

void AppendLog(std::string* log, const std::string& line) {
  if (log == nullptr) return;
  log->append(line);
  log->push_back('\n');
}

std::vector<std::byte> EncodeRecordBody(const JournalRecord& rec) {
  std::vector<std::byte> buf;
  buf.reserve(static_cast<size_t>(kJournalRecordBytes));
  Encoder enc(buf);
  enc.Put<std::int32_t>(rec.array_index);
  enc.Put<std::int32_t>(rec.chunk_id);
  enc.Put<std::int32_t>(rec.sub_index);
  enc.Put<std::int32_t>(0);  // reserved
  enc.Put<std::int64_t>(rec.seq);
  enc.Put<std::int64_t>(rec.file_offset);
  enc.Put<std::int64_t>(rec.bytes);
  enc.Put<std::uint32_t>(rec.data_crc);
  return buf;
}

}  // namespace

std::string JournalFileName(const std::string& data_file) {
  return data_file + ".wal";
}

void WriteJournalHeader(File& journal, const JournalHeader& hdr) {
  std::vector<std::byte> buf;
  buf.reserve(static_cast<size_t>(kJournalHeaderBytes));
  Encoder enc(buf);
  enc.Put<std::uint32_t>(kJournalHeaderMagic);
  enc.Put<std::uint32_t>(kJournalHeaderVersion);
  enc.Put<std::int64_t>(hdr.base_record);
  enc.Put<std::int64_t>(hdr.epoch);
  for (int i = 0; i < 20; ++i) enc.Put<std::uint8_t>(0);  // reserved
  const std::uint32_t crc = Crc32c({buf.data(), buf.size()});
  enc.Put<std::uint32_t>(crc);
  PANDA_CHECK(static_cast<std::int64_t>(buf.size()) == kJournalHeaderBytes);
  journal.WriteAt(0, buf, kJournalHeaderBytes);
}

std::optional<JournalHeader> ReadJournalHeader(File& journal) {
  if (journal.Size() < kJournalHeaderBytes) return std::nullopt;
  std::vector<std::byte> buf(static_cast<size_t>(kJournalHeaderBytes));
  journal.ReadAt(0, buf, kJournalHeaderBytes);
  Decoder dec(buf);
  if (dec.Get<std::uint32_t>() != kJournalHeaderMagic) return std::nullopt;
  const std::uint32_t version = dec.Get<std::uint32_t>();
  JournalHeader hdr;
  hdr.base_record = dec.Get<std::int64_t>();
  hdr.epoch = dec.Get<std::int64_t>();
  for (int i = 0; i < 20; ++i) (void)dec.Get<std::uint8_t>();
  const std::uint32_t stored = dec.Get<std::uint32_t>();
  const std::uint32_t computed =
      Crc32c({buf.data(), static_cast<size_t>(kJournalHeaderBytes) - 4});
  // A torn or corrupt header slot is indistinguishable from a corrupt
  // record 0 — treat the journal as headerless and let record-level
  // verification flag the slot.
  if (stored != computed || version != kJournalHeaderVersion) {
    return std::nullopt;
  }
  if (hdr.base_record < 0) return std::nullopt;
  return hdr;
}

std::int64_t JournalRecordOffset(const std::optional<JournalHeader>& hdr,
                                 std::int64_t record_index) {
  if (!hdr) return record_index * kJournalRecordBytes;
  return kJournalHeaderBytes +
         (record_index - hdr->base_record) * kJournalRecordBytes;
}

JournalGcResult GcJournal(FileSystem& fs, const std::string& journal_name,
                          std::int64_t new_base, std::int64_t fallback_epoch) {
  JournalGcResult result;
  std::optional<JournalHeader> hdr;
  std::int64_t tail_offset = 0;
  std::int64_t size = 0;
  std::vector<std::byte> tail;
  {
    auto journal = fs.Open(journal_name, OpenMode::kRead);
    hdr = ReadJournalHeader(*journal);
    const std::int64_t old_base = hdr ? hdr->base_record : 0;
    if (new_base <= old_base) return result;  // nothing below the new base
    // Byte position of the first surviving record. Everything from
    // there to EOF — including a torn trailing record — is copied
    // verbatim, so GC never changes what verification would say about
    // the surviving slots.
    tail_offset = JournalRecordOffset(hdr, new_base);
    size = journal->Size();
    if (tail_offset < size) {
      tail.resize(static_cast<size_t>(size - tail_offset));
      journal->ReadAt(tail_offset, tail,
                      static_cast<std::int64_t>(tail.size()));
    }
  }
  JournalHeader fresh;
  fresh.base_record = new_base;
  fresh.epoch = hdr ? hdr->epoch : fallback_epoch;
  // Rewrite-and-rename: a crash mid-GC leaves either the old journal or
  // the new one, never a mix (File has no truncate; rename is the
  // publication primitive everywhere else in Panda too).
  const std::string tmp_name = journal_name + ".gc";
  {
    auto tmp = fs.Open(tmp_name, OpenMode::kWrite);
    WriteJournalHeader(*tmp, fresh);
    if (!tail.empty()) {
      tmp->WriteAt(kJournalHeaderBytes, tail,
                   static_cast<std::int64_t>(tail.size()));
    }
    tmp->Sync();
  }
  fs.Rename(tmp_name, journal_name);
  const std::int64_t old_base = hdr ? hdr->base_record : 0;
  const std::int64_t old_body = std::max<std::int64_t>(
      0, size - (hdr ? kJournalHeaderBytes : 0));
  const std::int64_t old_records = old_base + old_body / kJournalRecordBytes;
  result.truncated = true;
  result.records_dropped = std::min(new_base, old_records) - old_base;
  return result;
}

void WriteJournalRecord(File& journal, std::int64_t record_index,
                        const JournalRecord& rec) {
  WriteJournalRecord(journal, std::nullopt, record_index, rec);
}

void WriteJournalRecord(File& journal,
                        const std::optional<JournalHeader>& hdr,
                        std::int64_t record_index, const JournalRecord& rec) {
  PANDA_CHECK_MSG(!hdr || record_index >= hdr->base_record,
                  "journal write below the GC base");
  std::vector<std::byte> buf = EncodeRecordBody(rec);
  const std::uint32_t record_crc = Crc32c({buf.data(), buf.size()});
  Encoder enc(buf);
  enc.Put<std::uint32_t>(record_crc);
  PANDA_CHECK(static_cast<std::int64_t>(buf.size()) == kJournalRecordBytes);
  journal.WriteAt(JournalRecordOffset(hdr, record_index), buf,
                  kJournalRecordBytes);
}

std::optional<JournalRecord> ReadJournalRecord(File& journal,
                                               std::int64_t record_index) {
  return ReadJournalRecord(journal, std::nullopt, record_index);
}

std::optional<JournalRecord> ReadJournalRecord(
    File& journal, const std::optional<JournalHeader>& hdr,
    std::int64_t record_index) {
  if (hdr && record_index < hdr->base_record) return std::nullopt;
  std::vector<std::byte> buf(static_cast<size_t>(kJournalRecordBytes));
  journal.ReadAt(JournalRecordOffset(hdr, record_index), buf,
                 kJournalRecordBytes);
  Decoder dec(buf);
  JournalRecord rec;
  rec.array_index = dec.Get<std::int32_t>();
  rec.chunk_id = dec.Get<std::int32_t>();
  rec.sub_index = dec.Get<std::int32_t>();
  (void)dec.Get<std::int32_t>();  // reserved
  rec.seq = dec.Get<std::int64_t>();
  rec.file_offset = dec.Get<std::int64_t>();
  rec.bytes = dec.Get<std::int64_t>();
  rec.data_crc = dec.Get<std::uint32_t>();
  const std::uint32_t stored_crc = dec.Get<std::uint32_t>();
  const std::uint32_t computed =
      Crc32c({buf.data(), static_cast<size_t>(kJournalRecordBytes) - 4});
  if (stored_crc != computed) return std::nullopt;
  return rec;
}

void JournalReport::Merge(const JournalReport& other) {
  files_checked += other.files_checked;
  files_without_journal += other.files_without_journal;
  records_checked += other.records_checked;
  records_missing += other.records_missing;
  torn_records += other.torn_records;
  framing_mismatches += other.framing_mismatches;
  data_mismatches += other.data_mismatches;
  records_gced += other.records_gced;
  epoch_mismatches += other.epoch_mismatches;
}

JournalReport VerifyArrayJournal(std::span<FileSystem* const> fs,
                                 const ArrayMeta& meta, std::int32_t array_index,
                                 std::int64_t subchunk_bytes, Purpose purpose,
                                 std::int64_t num_segments,
                                 const std::string& group,
                                 const std::vector<int>& dead_servers,
                                 std::string* log,
                                 std::int64_t expected_epoch,
                                 std::int64_t shard_bytes) {
  JournalReport report;
  const int num_servers = static_cast<int>(fs.size());
  const IoPlan plan(meta, num_servers, subchunk_bytes);
  const DegradedLayout layout = DegradedLayout::Compute(plan, dead_servers);

  for (int s = 0; s < num_servers; ++s) {
    if (!layout.alive[static_cast<size_t>(s)]) continue;  // lost disk
    const std::vector<WorkItem> work =
        BuildServerWork(plan, layout, s, WorkPhase::kFull);
    if (work.empty()) continue;  // this server stores none of the array

    const std::string data_name = DataFileName(group, meta.name, purpose, s);
    // Shard 0 marks that this (array, purpose) was ever written on this
    // server.
    if (!fs[s]->Exists(store::ShardFileName(data_name, 0))) {
      continue;  // array/purpose never written
    }

    const std::string journal_name = JournalFileName(data_name);
    if (!fs[s]->Exists(journal_name)) {
      ++report.files_without_journal;
      AppendLog(log, "unjournaled: " + data_name + " [server " +
                         std::to_string(s) + "]");
      continue;
    }

    ++report.files_checked;
    auto journal = fs[s]->Open(journal_name, OpenMode::kRead);
    // Journal data CRCs cover the *decoded* bytes: the shard reader
    // decodes through each shard's table (or header probing).
    const store::ShardLayout shards = PackWork(plan, work, shard_bytes);
    store::ShardReader reader =
        OfflineShardReader(*fs[s], data_name, &shards, meta);
    const std::int64_t records_per_segment =
        static_cast<std::int64_t>(work.size());
    const std::optional<JournalHeader> hdr = ReadJournalHeader(*journal);
    const std::int64_t jbase = hdr ? hdr->base_record : 0;
    if (hdr && expected_epoch >= 0 && hdr->epoch > expected_epoch) {
      ++report.epoch_mismatches;
      AppendLog(log, "journal epoch " + std::to_string(hdr->epoch) +
                         " ahead of committed metadata epoch " +
                         std::to_string(expected_epoch) + ": " + data_name +
                         " [server " + std::to_string(s) + "]");
    }
    const std::int64_t body_bytes =
        journal->Size() - (hdr ? kJournalHeaderBytes : 0);
    const std::int64_t full_records = jbase + body_bytes / kJournalRecordBytes;
    const bool torn_tail = (body_bytes % kJournalRecordBytes) != 0;

    std::vector<std::byte> buf;
    for (std::int64_t seg = 0; seg < num_segments; ++seg) {
      const std::int64_t base =
          purpose == Purpose::kTimestep ? seg * layout.SegmentBytes(s) : 0;
      for (std::int64_t k = 0; k < records_per_segment; ++k) {
        const WorkItem& item = work[static_cast<size_t>(k)];
        const ChunkPlan& cp =
            plan.chunks()[static_cast<size_t>(item.chunk_index)];
        const SubchunkPlan& sp =
            cp.subchunks[static_cast<size_t>(item.sub_index)];
        const std::int64_t record_index = seg * records_per_segment + k;
        const std::string where =
            data_name + " [server " + std::to_string(s) + ", segment " +
            std::to_string(seg) + ", record " + std::to_string(record_index) +
            "]";

        if (record_index < jbase) {
          // Garbage-collected at a committed checkpoint: the checkpoint
          // supersedes this record's durability claim. Benign.
          ++report.records_gced;
          continue;
        }
        if (record_index >= full_records) {
          // A crash mid-append may leave exactly one torn trailing
          // record; anything beyond that is an uncommitted sub-chunk.
          if (torn_tail && record_index == full_records) {
            ++report.torn_records;
            AppendLog(log, "torn trailing record: " + where);
          } else {
            ++report.records_missing;
            AppendLog(log, "uncommitted (no journal record): " + where);
          }
          continue;
        }
        const std::optional<JournalRecord> rec =
            ReadJournalRecord(*journal, hdr, record_index);
        if (!rec) {
          ++report.torn_records;
          AppendLog(log, "record crc failed: " + where);
          continue;
        }
        const std::int64_t want_offset =
            base + item.file_offset;
        if (rec->array_index != array_index || rec->chunk_id != cp.chunk_id ||
            rec->sub_index != item.sub_index || rec->seq != seg ||
            rec->file_offset != want_offset || rec->bytes != sp.bytes) {
          ++report.framing_mismatches;
          AppendLog(log, "framing mismatch (record says chunk " +
                             std::to_string(rec->chunk_id) + "." +
                             std::to_string(rec->sub_index) + " @" +
                             std::to_string(rec->file_offset) + "/" +
                             std::to_string(rec->bytes) + "B, plan says " +
                             std::to_string(cp.chunk_id) + "." +
                             std::to_string(item.sub_index) + " @" +
                             std::to_string(want_offset) + "/" +
                             std::to_string(sp.bytes) + "B): " + where);
          continue;
        }

        ++report.records_checked;
        try {
          buf = std::move(reader.Get(seg, k, meta.elem_size).raw);
        } catch (const PandaError& e) {
          ++report.data_mismatches;
          AppendLog(log, "unreadable journaled sub-chunk (" +
                             std::string(e.what()) + "): " + where);
          continue;
        }
        const std::uint32_t got = Crc32c({buf.data(), buf.size()});
        if (got != rec->data_crc) {
          ++report.data_mismatches;
          AppendLog(log, "data crc mismatch (journal " +
                             std::to_string(rec->data_crc) + ", computed " +
                             std::to_string(got) + "): " + where);
        }
      }
    }
  }
  return report;
}

JournalReport VerifyGroupJournal(std::span<FileSystem* const> fs,
                                 const GroupMeta& meta,
                                 std::int64_t subchunk_bytes,
                                 std::string* log) {
  JournalReport report;
  const std::vector<int> dead = ParseDeadServersAttr(meta.attributes);
  const std::int64_t epoch = ParseLayoutEpochAttr(meta.attributes);
  const std::int64_t shard_bytes = ParseShardBytesAttr(meta.attributes);
  ForEachGroupStream(meta, [&](std::int32_t index, const ArrayMeta& array,
                               Purpose purpose, std::int64_t segments) {
    report.Merge(VerifyArrayJournal(fs, array, index, subchunk_bytes, purpose,
                                    segments, meta.group, dead, log, epoch,
                                    shard_bytes));
  });
  return report;
}

}  // namespace panda
