// Sub-chunk codec tests (src/codec/ + the wire/disk integration):
//
//  1. Registry + property round trips: every codec over random regions
//     (16 seeds x several element sizes x compressible / incompressible
//     / constant contents, including empty and 1-byte inputs).
//  2. Frame layer: wire frames, disk sub-chunk frames, stored-raw
//     fallback, self-describing probe, and loud failure on torn or
//     corrupted frames.
//  3. End-to-end collectives: round trips under every codec, the
//     codec=none bit-identity guarantee, byte savings on compressible
//     data, shard-table verification (panda_fsck --verify),
//     checkpoint/restart and timesteps on encoded segments.
//  4. Fault soak: a torn or forged table record heals via the probe
//     (counted), a corrupted frame surfaces as a structured abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "test_harness.h"

namespace panda {
namespace {

using test::FillPattern;
using test::GlobalOffsetOf;
using test::RunCluster;
using test::VerifyPattern;

// ---------------------------------------------------------------------
// Registry

TEST(CodecRegistry, NamesRoundTrip) {
  for (const CodecId id : AllCodecIds()) {
    EXPECT_TRUE(IsValidCodecId(static_cast<std::uint8_t>(id)));
    CodecId parsed = CodecId::kNone;
    ASSERT_TRUE(CodecFromName(CodecName(id), parsed)) << CodecName(id);
    EXPECT_EQ(parsed, id);
    EXPECT_EQ(GetCodec(id).id(), id);
    EXPECT_STREQ(GetCodec(id).name(), CodecName(id));
  }
  CodecId id = CodecId::kRle;
  EXPECT_FALSE(CodecFromName("no-such-codec", id));
  EXPECT_EQ(id, CodecId::kRle);  // left alone on failure
  EXPECT_FALSE(IsValidCodecId(kNumCodecIds));
}

// ---------------------------------------------------------------------
// Property: encode/decode round trips

// Deterministic content generators.
std::vector<std::byte> RandomBytes(std::mt19937_64& rng, size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xFF);
  return out;
}

std::vector<std::byte> SmoothBytes(std::mt19937_64& rng, size_t n,
                                   std::int64_t elem) {
  // Slowly-varying little-endian integers: the shuffle+rle sweet spot.
  std::vector<std::byte> out(n);
  std::uint64_t v = rng();
  for (size_t i = 0; i < n; ++i) {
    if (elem > 0 && i % static_cast<size_t>(elem) == 0) v += 3;
    out[i] = static_cast<std::byte>(
        (v >> (8 * (i % static_cast<size_t>(std::max<std::int64_t>(
                            elem, 1))))) &
        0xFF);
  }
  return out;
}

TEST(CodecProperty, RoundTripRandomRegions) {
  std::mt19937_64 rng(0xC0DEC5EEDULL);
  const std::int64_t elem_sizes[] = {1, 2, 4, 8};
  for (const CodecId id : AllCodecIds()) {
    const Codec& codec = GetCodec(id);
    for (int seed = 0; seed < 16; ++seed) {
      for (const std::int64_t elem : elem_sizes) {
        // Edge sizes plus a random one; odd lengths exercise the
        // shorter-than-one-element tails.
        const size_t sizes[] = {0, 1, static_cast<size_t>(elem),
                                static_cast<size_t>(elem) * 7 + 1,
                                1 + rng() % 8192};
        for (const size_t n : sizes) {
          for (int style = 0; style < 3; ++style) {
            std::vector<std::byte> raw =
                style == 0   ? RandomBytes(rng, n)
                : style == 1 ? SmoothBytes(rng, n, elem)
                             : std::vector<std::byte>(n, std::byte{0x5A});
            std::vector<std::byte> enc;
            codec.Encode(raw, elem, enc);
            std::vector<std::byte> dec(raw.size());
            codec.Decode(enc, elem, dec);
            ASSERT_EQ(dec, raw)
                << CodecName(id) << " elem=" << elem << " n=" << n
                << " style=" << style << " seed=" << seed;
          }
        }
      }
    }
  }
}

TEST(CodecProperty, ShuffleRleShrinksSmoothData) {
  std::mt19937_64 rng(7);
  const std::vector<std::byte> raw = SmoothBytes(rng, 64 * 1024, 8);
  const std::int64_t enc = EncodedSize(CodecId::kShuffleRle, raw, 8);
  EXPECT_LT(enc, static_cast<std::int64_t>(raw.size()) / 2);
}

// ---------------------------------------------------------------------
// Frames

TEST(CodecFrame, WireFrameRoundTripsEveryCodec) {
  std::mt19937_64 rng(11);
  for (const CodecId id : AllCodecIds()) {
    for (const bool compressible : {true, false}) {
      const std::vector<std::byte> raw = compressible
                                             ? SmoothBytes(rng, 4096, 4)
                                             : RandomBytes(rng, 4096);
      CodecId used = CodecId::kNone;
      const std::vector<std::byte> framed = EncodeWireFrame(id, raw, 4, &used);
      // The header is always present; incompressible payloads fall back
      // to the stored representation.
      ASSERT_GE(static_cast<std::int64_t>(framed.size()), kFrameHeaderBytes);
      CodecId decoded_with = CodecId::kRle;
      const std::vector<std::byte> back =
          DecodeWireFrame(framed, static_cast<std::int64_t>(raw.size()), 4,
                          &decoded_with);
      EXPECT_EQ(back, raw) << CodecName(id);
      EXPECT_EQ(decoded_with, used);
    }
  }
}

TEST(CodecFrame, WireFrameFailsLoudOnCorruption) {
  std::mt19937_64 rng(13);
  const std::vector<std::byte> raw = SmoothBytes(rng, 2048, 4);
  std::vector<std::byte> framed =
      EncodeWireFrame(CodecId::kShuffleRle, raw, 4, nullptr);

  // Truncated frame.
  const std::vector<std::byte> torn(framed.begin(),
                                    framed.begin() + framed.size() / 2);
  EXPECT_THROW(DecodeWireFrame(torn, 2048, 4), PandaError);
  // Wrong expected length (plans diverged).
  EXPECT_THROW(DecodeWireFrame(framed, 2047, 4), PandaError);
  // Header bit flip: the header CRC catches it.
  framed[1] ^= std::byte{0x01};
  EXPECT_THROW(DecodeWireFrame(framed, 2048, 4), PandaError);
}

TEST(CodecFrame, SubchunkFrameFitsSlotOrStoresRaw) {
  std::mt19937_64 rng(17);
  const std::vector<std::byte> smooth = SmoothBytes(rng, 4096, 8);
  const SubchunkFrame enc = EncodeSubchunkFrame(CodecId::kShuffleRle, smooth, 8);
  ASSERT_NE(enc.codec, CodecId::kNone);
  ASSERT_LE(enc.frame_bytes(4096), 4096);  // must fit the plan slot
  EXPECT_EQ(DecodeSubchunkFrame(enc.bytes, enc.codec, 4096, 8), smooth);
  // The probe finds the self-describing header on its own.
  CodecId used = CodecId::kNone;
  EXPECT_EQ(ProbeDecodeSubchunk(enc.bytes, 4096, 8, &used), smooth);
  EXPECT_EQ(used, enc.codec);

  // Incompressible: stored raw, no header — exactly the codec=none bytes.
  const std::vector<std::byte> noise = RandomBytes(rng, 4096);
  const SubchunkFrame stored = EncodeSubchunkFrame(CodecId::kShuffleRle, noise, 8);
  EXPECT_EQ(stored.codec, CodecId::kNone);
  EXPECT_TRUE(stored.bytes.empty());
  EXPECT_EQ(stored.frame_bytes(4096), 4096);
  used = CodecId::kRle;
  EXPECT_EQ(ProbeDecodeSubchunk(noise, 4096, 8, &used), noise);
  EXPECT_EQ(used, CodecId::kNone);
}

TEST(CodecFrame, ProbeRejectsSlotThatIsNeitherFrameNorRaw) {
  // Shorter than the raw size and not a valid frame: unrecoverable.
  std::vector<std::byte> garbage(100, std::byte{0x42});
  EXPECT_THROW(ProbeDecodeSubchunk(garbage, 4096, 8), PandaError);
}

// ---------------------------------------------------------------------
// End-to-end collectives

Machine SimMachine(int clients, int servers) {
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 1024;
  return Machine::Simulated(clients, servers, params, /*store_data=*/true,
                            /*timing_only=*/false);
}

// Compressible analog of FillPattern: element value = its global
// offset (little-endian), a smooth ramp keyed by coordinates so any
// schema round trip stays byte-verifiable.
void FillRamp(Array& array) {
  const Region& cell = array.local_region();
  if (cell.empty()) return;
  auto data = array.local_data();
  const auto elem = static_cast<size_t>(array.elem_size());
  Index off = Index::Zeros(cell.rank());
  Shape ext = cell.extent();
  size_t n = 0;
  do {
    Index g = cell.lo();
    for (int d = 0; d < cell.rank(); ++d) g[d] += off[d];
    const std::uint64_t v =
        static_cast<std::uint64_t>(GlobalOffsetOf(array.shape(), g));
    std::memcpy(data.data() + n * elem, &v, std::min(elem, sizeof(v)));
    if (elem > sizeof(v)) {
      std::memset(data.data() + n * elem + sizeof(v), 0, elem - sizeof(v));
    }
    ++n;
  } while (NextIndexRowMajor(ext, off));
}

std::int64_t VerifyRamp(const Array& array) {
  const Region& cell = array.local_region();
  if (cell.empty()) return 0;
  auto data = array.local_data();
  const auto elem = static_cast<size_t>(array.elem_size());
  Index off = Index::Zeros(cell.rank());
  Shape ext = cell.extent();
  size_t n = 0;
  std::int64_t mismatches = 0;
  do {
    Index g = cell.lo();
    for (int d = 0; d < cell.rank(); ++d) g[d] += off[d];
    const std::uint64_t v =
        static_cast<std::uint64_t>(GlobalOffsetOf(array.shape(), g));
    if (std::memcmp(data.data() + n * elem, &v, std::min(elem, sizeof(v))) !=
        0) {
      ++mismatches;
    }
    ++n;
  } while (NextIndexRowMajor(ext, off));
  EXPECT_EQ(mismatches, 0) << array.name();
  return mismatches;
}

Array MakeArray(CodecId codec) {
  ArrayLayout memory("m", {2, 2});
  ArrayLayout disk("d", {2});
  Array a("field", {16, 16}, 8, memory, {BLOCK, BLOCK}, disk, {BLOCK, NONE});
  a.set_codec(codec);
  return a;
}

TEST(CodecEndToEnd, RoundTripEveryCodecCompressibleAndNot) {
  for (const CodecId codec : AllCodecIds()) {
    for (const bool compressible : {true, false}) {
      Machine machine = SimMachine(4, 2);
      RunCluster(machine, [&](PandaClient& client, int idx) {
        Array a = MakeArray(codec);
        a.BindClient(idx);
        if (compressible) {
          FillRamp(a);
        } else {
          FillPattern(a, 42);  // splitmix noise: stored-raw everywhere
        }
        client.WriteArray(a);
        std::fill(a.local_data().begin(), a.local_data().end(),
                  std::byte{0});
        client.ReadArray(a);
        if (compressible) {
          EXPECT_EQ(VerifyRamp(a), 0) << CodecName(codec);
        } else {
          EXPECT_EQ(VerifyPattern(a, 42), 0) << CodecName(codec);
        }
      });
      EXPECT_TRUE(machine.robustness().Snapshot().AllZero())
          << CodecName(codec);
    }
  }
}

struct RunOutcome {
  std::vector<double> client_clock_s;
  std::vector<double> server_clock_s;
  std::int64_t messages_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t disk_bytes_written = 0;
  std::vector<std::vector<std::byte>> file_bytes;
};

RunOutcome RunWithCodec(CodecId codec, bool explicit_none) {
  Machine machine = SimMachine(4, 2);
  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a = MakeArray(codec);
    if (!explicit_none && codec == CodecId::kNone) {
      // Leave the default untouched: this run must be bit-identical to
      // one that set codec=none explicitly.
      a = Array("field", {16, 16}, 8, ArrayLayout("m", {2, 2}),
                {BLOCK, BLOCK}, ArrayLayout("d", {2}), {BLOCK, NONE});
    }
    a.BindClient(idx);
    FillRamp(a);
    client.WriteArray(a);
    client.ReadArray(a);
    VerifyRamp(a);
  });
  RunOutcome out;
  const MachineReport report = Snapshot(machine);
  out.client_clock_s = report.client_clock_s;
  out.server_clock_s = report.server_clock_s;
  out.messages_sent = report.messages.messages_sent;
  out.bytes_sent = report.messages.bytes_sent;
  for (int s = 0; s < 2; ++s) {
    out.disk_bytes_written += machine.server_fs(s).stats().bytes_written;
    const std::string name = store::ShardFileName(
        DataFileName("", "field", Purpose::kGeneral, s), 0);
    FileSystem& fs = machine.server_fs(s);
    std::vector<std::byte> bytes;
    if (fs.Exists(name)) {
      auto f = fs.Open(name, OpenMode::kRead);
      bytes.resize(static_cast<size_t>(f->Size()));
      f->ReadAt(0, bytes, static_cast<std::int64_t>(bytes.size()));
    }
    out.file_bytes.push_back(std::move(bytes));
  }
  return out;
}

TEST(CodecEndToEnd, ExplicitNoneIsBitIdenticalToDefault) {
  // codec=none must be inert: same virtual clocks, same message and
  // byte counts, same on-disk bytes as an array that never heard of
  // codecs. (The pre-PR goldens in reproduction_test pin the default
  // path itself.)
  const RunOutcome def = RunWithCodec(CodecId::kNone, /*explicit_none=*/false);
  const RunOutcome none = RunWithCodec(CodecId::kNone, /*explicit_none=*/true);
  EXPECT_EQ(none.client_clock_s, def.client_clock_s);
  EXPECT_EQ(none.server_clock_s, def.server_clock_s);
  EXPECT_EQ(none.messages_sent, def.messages_sent);
  EXPECT_EQ(none.bytes_sent, def.bytes_sent);
  EXPECT_EQ(none.disk_bytes_written, def.disk_bytes_written);
  EXPECT_EQ(none.file_bytes, def.file_bytes);
}

TEST(CodecEndToEnd, CompressibleDataShrinksWireAndDisk) {
  const RunOutcome none = RunWithCodec(CodecId::kNone, true);
  const RunOutcome rle = RunWithCodec(CodecId::kShuffleRle, true);
  // The ramp compresses well: both planes must move fewer bytes.
  EXPECT_LT(rle.bytes_sent, none.bytes_sent);
  EXPECT_LT(rle.disk_bytes_written, none.disk_bytes_written);
  EXPECT_EQ(rle.messages_sent, none.messages_sent);  // same protocol shape
}

TEST(CodecEndToEnd, TimingOnlyRunsIgnoreCodecs) {
  // Timing-only mode elides payloads; framing must be completely inert
  // so virtual clocks stay bit-identical with and without a codec.
  auto run = [](CodecId codec) {
    Sp2Params params = Sp2Params::Functional();
    params.subchunk_bytes = 1024;
    Machine machine = Machine::Simulated(4, 2, params, /*store_data=*/false,
                                         /*timing_only=*/true);
    RunCluster(machine, [&](PandaClient& client, int idx) {
      Array a = MakeArray(codec);
      a.BindClient(idx);
      client.WriteArray(a);
      client.ReadArray(a);
    });
    const MachineReport report = Snapshot(machine);
    return std::make_pair(report.client_clock_s, report.server_clock_s);
  };
  EXPECT_EQ(run(CodecId::kShuffleRle), run(CodecId::kNone));
}

TEST(CodecEndToEnd, FrameDirectoryVerifies) {
  Machine machine = SimMachine(4, 2);
  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a = MakeArray(CodecId::kShuffleRle);
    a.BindClient(idx);
    FillRamp(a);
    client.WriteArray(a);
  });

  ArrayMeta meta = MakeArray(CodecId::kShuffleRle).meta();
  FileSystem* fs[] = {&machine.server_fs(0), &machine.server_fs(1)};
  std::string log;
  const SegmentReport report =
      VerifyArraySegments(fs, meta, 1024, Purpose::kGeneral, 1, "",
                          /*shard_bytes=*/0, /*read_data=*/true, &log);
  EXPECT_TRUE(report.Clean()) << log;
  EXPECT_EQ(report.files_checked, 2);
  EXPECT_GT(report.subchunks_checked, 0);
  EXPECT_GT(report.subchunks_encoded, 0);  // the ramp actually compressed
  EXPECT_EQ(report.entries_invalid, 0);
  EXPECT_EQ(report.healed_slots, 0);
  EXPECT_EQ(report.decode_failures, 0);
}

TEST(CodecEndToEnd, CheckpointRestartOnEncodedArrays) {
  Machine machine = SimMachine(4, 2);
  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a = MakeArray(CodecId::kShuffleRle);
    a.BindClient(idx);
    ArrayGroup group("ckpt", "ckpt.schema");
    group.Include(&a);

    FillRamp(a);
    group.Checkpoint(client);
    std::fill(a.local_data().begin(), a.local_data().end(), std::byte{0xFF});
    group.Restart(client);
    EXPECT_EQ(VerifyRamp(a), 0);
  });
  EXPECT_TRUE(machine.robustness().Snapshot().AllZero());
}

TEST(CodecEndToEnd, TimestepsAppendEncodedAndReadBack) {
  Machine machine = SimMachine(4, 2);
  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a = MakeArray(CodecId::kDelta);
    a.BindClient(idx);
    ArrayGroup group("sim", "sim.schema");
    group.Include(&a);
    for (int t = 0; t < 2; ++t) {
      FillPattern(a, 100 + static_cast<std::uint64_t>(t));
      group.Timestep(client);
    }
    for (int t = 0; t < 2; ++t) {
      std::fill(a.local_data().begin(), a.local_data().end(), std::byte{0});
      group.ReadTimestep(client, t);
      VerifyPattern(a, 100 + static_cast<std::uint64_t>(t));
    }
  });
  EXPECT_TRUE(machine.robustness().Snapshot().AllZero());
}

// ---------------------------------------------------------------------
// Fault soak: torn/forged table records and corrupted frames

// Server 0's segment file and the first record of its shard table (the
// table that directs framed reads).
struct FirstRecord {
  std::string shard_name;
  std::int64_t table_offset = 0;  // where record 0 lives
  store::ShardTableEntry rec;
};

FirstRecord ReadFirstRecord(Machine& machine) {
  FirstRecord out;
  out.shard_name = store::ShardFileName(
      DataFileName("", "field", Purpose::kGeneral, 0), 0);
  auto f = machine.server_fs(0).Open(out.shard_name, OpenMode::kRead);
  std::vector<std::byte> footer(static_cast<size_t>(store::kShardFooterBytes));
  f->ReadAt(f->Size() - store::kShardFooterBytes, footer,
            store::kShardFooterBytes);
  const auto decoded = store::DecodeShardFooter(footer);
  EXPECT_TRUE(decoded.has_value());
  out.table_offset = decoded->data_bytes;
  out.rec = store::ReadShardTableEntry(*f, out.table_offset, 0);
  EXPECT_TRUE(out.rec.valid);
  return out;
}

// Flips one byte inside table record 0: its CRC fails.
void TearFirstRecord(Machine& machine, const FirstRecord& fr) {
  auto f = machine.server_fs(0).Open(fr.shard_name, OpenMode::kReadWrite);
  std::vector<std::byte> b(1);
  f->ReadAt(fr.table_offset + 4, b, 1);
  b[0] ^= std::byte{0x10};
  f->WriteAt(fr.table_offset + 4, b, 1);
}

void WriteEncoded(Machine& machine) {
  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a = MakeArray(CodecId::kShuffleRle);
    a.BindClient(idx);
    FillRamp(a);
    client.WriteArray(a);
  });
}

void ReadBackAndVerify(Machine& machine) {
  RunCluster(machine, [&](PandaClient& client, int idx) {
    Array a = MakeArray(CodecId::kShuffleRle);
    a.BindClient(idx);
    client.ReadArray(a);
    EXPECT_EQ(VerifyRamp(a), 0);
  });
}

TEST(CodecFault, TornFrameDirectoryHealsByProbe) {
  Machine machine = SimMachine(4, 2);
  WriteEncoded(machine);

  // Flip a byte inside table record 0: its CRC fails, the reader treats
  // it as torn and probes the slot's self-describing header instead.
  TearFirstRecord(machine, ReadFirstRecord(machine));
  ReadBackAndVerify(machine);
  // A torn record probing successfully is silent, like the journal's
  // torn-tail tolerance: no decode failures, no abort.
  const RobustnessCounters counters = machine.robustness().Snapshot();
  EXPECT_EQ(counters.frame_decode_failures, 0);
  EXPECT_EQ(counters.collectives_aborted, 0);
}

TEST(CodecFault, ForgedDirectoryRecordHealsByReRead) {
  Machine machine = SimMachine(4, 2);
  WriteEncoded(machine);

  // Forge table record 0: valid CRC, plan-consistent offset/raw, but a
  // bogus representation. The table-directed decode fails; the probe
  // re-read finds the real header and heals, and the heal is counted.
  FirstRecord fr = ReadFirstRecord(machine);
  ASSERT_NE(fr.rec.codec, CodecId::kNone);  // the ramp compressed
  {
    auto f = machine.server_fs(0).Open(fr.shard_name, OpenMode::kReadWrite);
    store::ShardTableEntry forged = fr.rec;
    forged.frame_bytes = std::max<std::int64_t>(1, fr.rec.frame_bytes / 2);
    std::vector<std::byte> bytes;
    store::AppendShardTableEntry(bytes, forged);
    f->WriteAt(fr.table_offset, bytes, static_cast<std::int64_t>(bytes.size()));
  }
  ReadBackAndVerify(machine);
  const RobustnessCounters counters = machine.robustness().Snapshot();
  EXPECT_GE(counters.frame_rereads, 1);
  EXPECT_EQ(counters.frame_decode_failures, 0);
  EXPECT_EQ(counters.collectives_aborted, 0);
}

TEST(CodecFault, CorruptedFrameAbortsTheCollective) {
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 1024;
  Machine machine = Machine::Simulated(4, 2, params, true, false);
  const World world{4, 2};
  ServerOptions options;
  options.disk_checksums = true;  // table CRCs armed: corruption is fatal
  options.robustness = &machine.robustness();

  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        Array a = MakeArray(CodecId::kShuffleRle);
        a.BindClient(idx);
        FillRamp(a);
        client.WriteArray(a);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params, options);
      });

  // Scribble over the first frame's header AND its table record: the
  // record is torn, the probe finds garbage, and no CRC vouches for the
  // slot in a checksummed table — the collective must abort rather
  // than hand the application scrambled data.
  const FirstRecord fr = ReadFirstRecord(machine);
  {
    auto data = machine.server_fs(0).Open(fr.shard_name, OpenMode::kReadWrite);
    std::vector<std::byte> junk(static_cast<size_t>(kFrameHeaderBytes),
                                std::byte{0x69});
    data->WriteAt(fr.rec.slot_offset, junk,
                  static_cast<std::int64_t>(junk.size()));
  }
  TearFirstRecord(machine, fr);

  EXPECT_THROW(
      machine.Run(
          [&](Endpoint& ep, int idx) {
            PandaClient client(ep, world, params);
            client.set_robustness(&machine.robustness());
            Array a = MakeArray(CodecId::kShuffleRle);
            a.BindClient(idx);
            client.ReadArray(a);
            if (idx == 0) client.Shutdown();
          },
          [&](Endpoint& ep, int sidx) {
            ServerMain(ep, machine.server_fs(sidx), world, params, options);
          }),
      PandaAbortError);
  const RobustnessCounters counters = machine.robustness().Snapshot();
  EXPECT_GE(counters.collectives_aborted, 1);

  // Offline, the fsck walk sees the same corruption.
  ArrayMeta meta = MakeArray(CodecId::kShuffleRle).meta();
  FileSystem* fs[] = {&machine.server_fs(0), &machine.server_fs(1)};
  std::string log;
  const SegmentReport report =
      VerifyArraySegments(fs, meta, 1024, Purpose::kGeneral, 1, "",
                          /*shard_bytes=*/0, /*read_data=*/true, &log);
  EXPECT_FALSE(report.Clean()) << log;
  EXPECT_FALSE(log.empty());
}

// ---------------------------------------------------------------------
// Failover on an encoded array

// Mirrors FailoverTest.KilledServerMidWriteFailsOverAndReadsBackExact
// with the array negotiated to shuffle+rle: the survivors must adopt
// the dead server's chunks *encoded* (frames plus table records at the
// degraded offsets), the degraded read must decode them back
// bit-exactly, and the offline walk must verify under the recorded
// dead-server set.
TEST(CodecFailover, KilledServerMidWriteFailsOverOnEncodedArray) {
  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = 256;  // enough sends that the kill lands mid-write
  Machine machine = Machine::Simulated(4, 3, params, /*store_data=*/true,
                                       /*timing_only=*/false);
  machine.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});
  // Server 1 crash-stops at its 4th send: mid-gather of its first chunk.
  machine.KillServerAfterSends(/*server_index=*/1, /*after_more_sends=*/3);

  const World world{4, 3};
  ServerOptions options;
  options.failover = true;
  options.disk_checksums = true;
  options.journal = true;
  options.robustness = &machine.robustness();

  ArrayLayout memory("m", {2, 2});
  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        client.set_robustness(&machine.robustness());
        client.set_failover(true);
        Array a("field", {32, 32}, 8, memory, {BLOCK, BLOCK}, memory,
                {BLOCK, BLOCK});
        a.set_codec(CodecId::kShuffleRle);
        a.BindClient(idx);
        FillRamp(a);
        client.WriteArray(a);
        // The dead set is now {1}: the degraded read reassembles the
        // array from the survivors, decoding adopted frames included.
        std::fill(a.local_data().begin(), a.local_data().end(),
                  std::byte{0});
        client.ReadArray(a);
        EXPECT_EQ(VerifyRamp(a), 0);
        if (idx == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params, options);
      });

  const RobustnessCounters counters = machine.robustness().Snapshot();
  EXPECT_GE(counters.failovers_completed, 1);
  EXPECT_GT(counters.chunks_adopted, 0);
  EXPECT_EQ(counters.collectives_aborted, 0);
  EXPECT_EQ(counters.frame_decode_failures, 0);
  EXPECT_EQ(machine.fault_stats().Snapshot().ranks_killed, 1);

  // Offline: the survivors' shard tables (adopted slots included)
  // verify under the degraded layout, and their CRCs — over the
  // *decoded* bytes — agree with what the frames decode to.
  ArrayMeta meta;
  meta.name = "field";
  meta.elem_size = 8;
  meta.memory = Schema({32, 32}, Mesh(Shape{2, 2}), {BLOCK, BLOCK});
  meta.disk = meta.memory;
  meta.codec = CodecId::kShuffleRle;
  FileSystem* fs[] = {&machine.server_fs(0), &machine.server_fs(1),
                      &machine.server_fs(2)};
  std::string log;
  const SegmentReport report = VerifyArraySegments(
      fs, meta, 256, Purpose::kGeneral, 1, "", /*shard_bytes=*/0,
      /*read_data=*/true, &log, /*dead_servers=*/{1});
  EXPECT_TRUE(report.Clean()) << log;
  EXPECT_GT(report.subchunks_checked, 0);
  EXPECT_GT(report.subchunks_encoded, 0);
  EXPECT_EQ(report.subchunks_verified, report.subchunks_checked);
}

// ---------------------------------------------------------------------
// Schema metadata round trip

TEST(CodecSchema, GroupMetadataRoundTripsCodec) {
  Machine machine = SimMachine(2, 1);
  RunCluster(machine, [&](PandaClient& client, int idx) {
    ArrayLayout memory("m", {2});
    Array a("u", {32}, 4, memory, {BLOCK}, memory, {BLOCK});
    a.set_codec(CodecId::kShuffleRle);
    a.BindClient(idx);
    ArrayGroup group("g", "g.schema");
    group.Include(&a);
    FillRamp(a);
    group.Timestep(client);
  });
  const GroupMeta meta = ReadGroupMeta(machine.server_fs(0), "g.schema");
  ASSERT_EQ(meta.arrays.size(), 1u);
  EXPECT_EQ(meta.arrays[0].codec, CodecId::kShuffleRle);
}

}  // namespace
}  // namespace panda
