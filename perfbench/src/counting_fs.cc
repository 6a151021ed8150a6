#include "counting_fs.h"

#include <chrono>

namespace perfbench {
namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// True when `name` ends in ".<tag>.<digits>".
bool HasNumberedSuffix(const std::string& name, const std::string& tag) {
  const std::size_t dot = name.rfind('.');
  if (dot == std::string::npos || dot + 1 == name.size()) return false;
  for (std::size_t i = dot + 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
  }
  return EndsWith(name.substr(0, dot), "." + tag);
}

// Times one forwarded call into the wrapped file system.
class HostTimer {
 public:
  explicit HostTimer(ClassTally& tally)
      : tally_(tally), t0_(std::chrono::steady_clock::now()) {}
  ~HostTimer() {
    tally_.host_s += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0_)
                         .count();
  }
  HostTimer(const HostTimer&) = delete;
  HostTimer& operator=(const HostTimer&) = delete;

 private:
  ClassTally& tally_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

const char* FileClassName(FileClass c) {
  switch (c) {
    case FileClass::kData:
      return "data";
    case FileClass::kFdx:
      return "fdx";
    case FileClass::kCrc:
      return "crc";
    case FileClass::kWal:
      return "wal";
    case FileClass::kShard:
      return "shard";
    case FileClass::kMeta:
    case FileClass::kNumClasses:
      break;
  }
  return "meta";
}

FileClass ClassifyPath(const std::string& path) {
  std::string name = path;
  for (const std::string staging : {".tmp", ".repair"}) {
    if (EndsWith(name, staging)) name.resize(name.size() - staging.size());
  }
  if (EndsWith(name, ".fdx")) return FileClass::kFdx;
  if (EndsWith(name, ".crc")) return FileClass::kCrc;
  if (EndsWith(name, ".wal")) return FileClass::kWal;
  if (name.find(".shard.") != std::string::npos) return FileClass::kShard;
  for (const char* tag : {"dat", "ts", "ck"}) {
    if (HasNumberedSuffix(name, tag)) return FileClass::kData;
  }
  return FileClass::kMeta;
}

class CountingFile : public panda::File {
 public:
  CountingFile(std::unique_ptr<panda::File> base, ClassTally& tally)
      : base_(std::move(base)), tally_(tally) {}

  void WriteAt(std::int64_t offset, std::span<const std::byte> data,
               std::int64_t vbytes) override {
    HostTimer timer(tally_);
    base_->WriteAt(offset, data, vbytes);
    tally_.ops += 1;
    tally_.bytes_written += vbytes;
  }

  void ReadAt(std::int64_t offset, std::span<std::byte> out,
              std::int64_t vbytes) override {
    HostTimer timer(tally_);
    base_->ReadAt(offset, out, vbytes);
    tally_.ops += 1;
  }

  void Sync() override {
    HostTimer timer(tally_);
    base_->Sync();
    tally_.ops += 1;
  }

  std::int64_t Size() override {
    HostTimer timer(tally_);
    tally_.calls += 1;
    return base_->Size();
  }

 private:
  std::unique_ptr<panda::File> base_;
  ClassTally& tally_;
};

std::unique_ptr<panda::File> CountingFileSystem::Open(const std::string& path,
                                                      panda::OpenMode mode) {
  ClassTally& t = tally(ClassifyPath(path));
  HostTimer timer(t);
  t.calls += 1;
  return std::make_unique<CountingFile>(base_.Open(path, mode), t);
}

bool CountingFileSystem::Exists(const std::string& path) {
  ClassTally& t = tally(ClassifyPath(path));
  HostTimer timer(t);
  t.calls += 1;
  return base_.Exists(path);
}

void CountingFileSystem::Remove(const std::string& path) {
  ClassTally& t = tally(ClassifyPath(path));
  HostTimer timer(t);
  t.calls += 1;
  base_.Remove(path);
}

void CountingFileSystem::Rename(const std::string& from,
                                const std::string& to) {
  ClassTally& t = tally(ClassifyPath(to));
  HostTimer timer(t);
  t.calls += 1;
  base_.Rename(from, to);
}

}  // namespace perfbench
