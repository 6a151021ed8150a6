// panda_fsck: consistency checker for Panda data directories.
//
// Given the i/o-node directories and a group's schema file, walks every
// segment the schemas dictate (timestep streams: one segment per
// timestep; checkpoints: one segment) through the one on-disk layout
// (src/panda/store_io.h): every expected shard file exists with room for
// its data region — and for its table, when it has one — and every
// table record agrees with the plan. This is the check an operator runs
// before trusting a restart.
//
// With --verify, additionally re-reads every sub-chunk: it must decode
// to its plan size (a torn table record falls back to the slot's
// self-describing frame header and counts as healed, not fatal) and
// match the CRC32C its table record carries. Segments written with
// disk_checksums off carry no CRCs and are reported unverified, not
// failed.
//
// With --verify_journal, additionally replays every write-ahead journal
// record (`F.wal`, see src/panda/journal.h) against the plan and the
// segment data: framing, commit completeness (modulo one torn trailing
// record — the legitimate signature of a crash mid-append), and data
// CRCs.
//
// Groups written with a bounded shard size carry a `__panda.shard_bytes`
// attribute; fsck derives the identical shard map from it.
//
// Groups written in degraded mode (after a server crash-stop) carry a
// `__panda.dead_servers` attribute; fsck honours it everywhere: dead
// servers' files are skipped as lost, survivors are expected to hold
// their own chunks plus the adopted ones appended past their original
// segment.
//
//   ./examples/panda_fsck --root=DIR --io_nodes=N --schema=FILE
//       [--verify] [--verify_journal]
#include <cstdio>

#include "panda/panda.h"
#include "util/options.h"
#include "util/units.h"

using namespace panda;

int main(int argc, char** argv) {
  try {
    Options opts(argc, argv);
    const std::string root = opts.GetString("root", "panda_simulation_data");
    const int io_nodes = static_cast<int>(opts.GetInt("io_nodes", 2));
    const std::string schema_file =
        opts.GetString("schema", "simulation2.schema");
    const std::int64_t subchunk =
        opts.GetInt("subchunk_bytes", Sp2Params::Nas().subchunk_bytes);
    const bool verify = opts.GetBool("verify", false);
    const bool verify_journal = opts.GetBool("verify_journal", false);
    opts.CheckAllConsumed();

    std::vector<std::unique_ptr<PosixFileSystem>> fs;
    std::vector<FileSystem*> fs_ptrs;
    for (int s = 0; s < io_nodes; ++s) {
      fs.push_back(std::make_unique<PosixFileSystem>(
          root + "/ionode" + std::to_string(s)));
      fs_ptrs.push_back(fs.back().get());
    }

    const GroupMeta meta = ReadGroupMeta(*fs[0], schema_file);
    std::printf("group '%s': %zu arrays, %lld timesteps, checkpoint %s\n",
                meta.group.c_str(), meta.arrays.size(),
                static_cast<long long>(meta.timesteps),
                meta.has_checkpoint ? "present" : "absent");

    const std::int64_t shard_bytes = ParseShardBytesAttr(meta.attributes);
    if (shard_bytes > 0) {
      std::printf("group written with %s shards\n",
                  FormatBytes(shard_bytes).c_str());
    }
    const std::vector<int> dead = ParseDeadServersAttr(meta.attributes);
    if (!dead.empty()) {
      std::string who;
      for (const int s : dead) {
        if (!who.empty()) who += ", ";
        who += std::to_string(s);
      }
      std::printf(
          "group committed in degraded mode: io node(s) %s dead; their "
          "files are lost, survivors carry the adopted chunks\n",
          who.c_str());
    }

    std::string log;
    const SegmentReport report =
        VerifyGroupSegments(fs_ptrs, meta, subchunk, verify, &log);
    if (!log.empty()) std::printf("%s", log.c_str());
    std::printf(
        "segments: %lld shard files checked (%lld missing, %lld with bad "
        "sizes), %lld torn footers, %lld invalid table records\n",
        static_cast<long long>(report.files_checked),
        static_cast<long long>(report.files_missing),
        static_cast<long long>(report.size_mismatches),
        static_cast<long long>(report.tables_torn),
        static_cast<long long>(report.entries_invalid));
    if (verify) {
      std::printf(
          "sub-chunks: %lld checked, %lld verified against their CRC, %lld "
          "healed by frame probe, %lld decode failures, %lld crc "
          "mismatches\n",
          static_cast<long long>(report.subchunks_checked),
          static_cast<long long>(report.subchunks_verified),
          static_cast<long long>(report.healed_slots),
          static_cast<long long>(report.decode_failures),
          static_cast<long long>(report.checksum_mismatches));
    }

    bool journal_clean = true;
    if (verify_journal) {
      log.clear();
      const JournalReport journal =
          VerifyGroupJournal(fs_ptrs, meta, subchunk, &log);
      if (!log.empty()) std::printf("%s", log.c_str());
      std::printf(
          "journal: %lld files verified (%lld without journal), %lld "
          "records checked, %lld missing, %lld torn, %lld framing "
          "mismatches, %lld data mismatches, %lld gc'd, %lld epoch "
          "mismatches\n",
          static_cast<long long>(journal.files_checked),
          static_cast<long long>(journal.files_without_journal),
          static_cast<long long>(journal.records_checked),
          static_cast<long long>(journal.records_missing),
          static_cast<long long>(journal.torn_records),
          static_cast<long long>(journal.framing_mismatches),
          static_cast<long long>(journal.data_mismatches),
          static_cast<long long>(journal.records_gced),
          static_cast<long long>(journal.epoch_mismatches));
      journal_clean = journal.Clean();
    }

    return report.Clean() && journal_clean ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "panda_fsck: %s\n", e.what());
    return 2;
  }
}
