// Counting FileSystem decorator for the traced benchmark run.
//
// Wraps one i/o node's FileSystem and forwards every call unchanged,
// tallying operations, bytes and host time per file class. The virtual
// clock is charged only by the wrapped file system, so a run through
// the wrapper is bit-identical in virtual time to one without it, which
// the traced run checks against the untraced one.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "iosim/file_system.h"

namespace perfbench {

// Which on-disk structure a path belongs to. Staging names (".tmp",
// ".repair") count as the file they will replace.
enum class FileClass : std::uint8_t {
  kData = 0,  // array segments: *.dat.N, *.ts.N, *.ck.N
  kFdx,       // codec frame directories (*.fdx)
  kCrc,       // checksum sidecars (*.crc)
  kWal,       // chunk journals (*.wal)
  kShard,     // shard files (*.shard.N)
  kMeta,      // everything else: group schema files
  kNumClasses,
};

inline constexpr std::size_t kNumFileClasses =
    static_cast<std::size_t>(FileClass::kNumClasses);

const char* FileClassName(FileClass c);
FileClass ClassifyPath(const std::string& path);

// Tally of one file class. `ops` counts device operations (read, write,
// sync) — the same set FsStats counts, so the classes sum to the
// machine's disk-op total. `calls` counts the rest (open, exists,
// remove, rename, size). `host_s` is host time spent inside the wrapped
// file system for all of them.
struct ClassTally {
  std::int64_t ops = 0;
  std::int64_t calls = 0;
  std::int64_t bytes_written = 0;
  double host_s = 0.0;
};

using Tallies = std::array<ClassTally, kNumFileClasses>;

class CountingFileSystem : public panda::FileSystem {
 public:
  explicit CountingFileSystem(panda::FileSystem& base) : base_(base) {}

  std::unique_ptr<panda::File> Open(const std::string& path,
                                    panda::OpenMode mode) override;
  bool Exists(const std::string& path) override;
  void Remove(const std::string& path) override;
  void Rename(const std::string& from, const std::string& to) override;

  const panda::FsStats& stats() const override { return base_.stats(); }
  void ResetStats() override { base_.ResetStats(); }

  const Tallies& tallies() const { return tallies_; }
  void ResetTallies() { tallies_ = Tallies{}; }

 private:
  friend class CountingFile;

  ClassTally& tally(FileClass c) {
    return tallies_[static_cast<std::size_t>(c)];
  }

  panda::FileSystem& base_;
  // Touched only by the owning server rank while a run executes; read
  // after the run joins.
  Tallies tallies_{};
};

}  // namespace perfbench
