// Decoder robustness fuzzing: any corruption of a valid wire message or
// metadata file must raise PandaError — never crash, hang, or silently
// decode garbage into a "valid" structure with out-of-range fields.
#include <gtest/gtest.h>

#include "panda/protocol.h"
#include "panda/schema_io.h"
#include "util/random.h"

namespace panda {
namespace {

ArrayMeta SampleMeta() {
  ArrayMeta meta;
  meta.name = "fuzzed";
  meta.elem_size = 8;
  meta.memory = Schema({64, 32, 16}, Mesh(Shape{2, 2}),
                       {DimDist::Block(), DimDist::Block(), DimDist::None()});
  meta.disk = Schema({64, 32, 16}, Mesh(Shape{4}),
                     {DimDist::Block(), DimDist::None(), DimDist::None()});
  return meta;
}

std::vector<std::byte> ValidRequestBytes() {
  CollectiveRequest req;
  req.op = IoOp::kWrite;
  req.purpose = Purpose::kTimestep;
  req.seq = 3;
  req.group = "grp";
  req.meta_file = "grp.schema";
  req.num_clients = 4;
  req.arrays.push_back(SampleMeta());
  return req.ToMessage().header;
}

TEST(FuzzTest, EveryTruncationOfARequestThrows) {
  const auto valid = ValidRequestBytes();
  // A decode of any strict prefix must throw (the encoding has no
  // optional trailing parts).
  for (size_t len = 0; len < valid.size(); ++len) {
    Message msg;
    msg.header.assign(valid.begin(),
                      valid.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(CollectiveRequest::FromMessage(msg), PandaError)
        << "prefix length " << len;
  }
  // The full message decodes.
  Message msg;
  msg.header = valid;
  const CollectiveRequest back = CollectiveRequest::FromMessage(msg);
  EXPECT_EQ(back.group, "grp");
}

TEST(FuzzTest, CyclicMemorySchemaRejectedAtDecode) {
  // Well-formed bytes, but planning needs one memory cell per client,
  // which CYCLIC cannot give: the decoder must refuse the request (and
  // group metadata) instead of leaving planning to abort the process.
  CollectiveRequest req;
  req.op = IoOp::kWrite;
  req.num_clients = 2;
  ArrayMeta meta = SampleMeta();
  meta.memory = Schema({64, 32, 16}, Mesh(Shape{2}),
                       {DimDist::Cyclic(4), DimDist::None(), DimDist::None()});
  req.arrays.push_back(meta);
  EXPECT_THROW((void)CollectiveRequest::FromMessage(req.ToMessage()),
               PandaError);
  GroupMeta group;
  group.group = "sim";
  group.arrays.push_back(meta);
  EXPECT_THROW((void)GroupMeta::Decode(group.Encode()), PandaError);
}

TEST(FuzzTest, RandomByteFlipsNeverCrashRequestDecode) {
  const auto valid = ValidRequestBytes();
  Rng rng(0xF12E);
  int decoded_ok = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    Message msg;
    msg.header = valid;
    // Flip 1-4 random bytes.
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      const size_t at = rng.NextBelow(msg.header.size());
      msg.header[at] = static_cast<std::byte>(rng.Next());
    }
    try {
      const CollectiveRequest req = CollectiveRequest::FromMessage(msg);
      // If it decoded, the structural invariants must hold.
      for (const ArrayMeta& a : req.arrays) {
        EXPECT_GE(a.elem_size, 1);
        EXPECT_EQ(a.memory.array_shape(), a.disk.array_shape());
      }
      ++decoded_ok;
    } catch (const PandaError&) {
      // expected for most corruptions
    }
  }
  // Some flips hit don't-care bytes (string contents etc.) and still
  // decode; most must be caught.
  EXPECT_LT(decoded_ok, 1500);
}

TEST(FuzzTest, RandomByteFlipsNeverCrashMetadataDecode) {
  GroupMeta meta;
  meta.group = "sim";
  meta.timesteps = 7;
  meta.has_checkpoint = true;
  meta.checkpoint_seq = 5;
  meta.arrays.push_back(SampleMeta());
  const auto valid = meta.Encode();

  Rng rng(0xBEEF);
  for (int iter = 0; iter < 2000; ++iter) {
    auto bytes = valid;
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.NextBelow(bytes.size())] = static_cast<std::byte>(rng.Next());
    }
    try {
      const GroupMeta back = GroupMeta::Decode(bytes);
      EXPECT_GE(back.timesteps, 0);
    } catch (const PandaError&) {
    }
  }
}

TEST(FuzzTest, RandomGarbageNeverCrashesDecoders) {
  Rng rng(0xD00D);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = rng.NextBelow(300);
    std::vector<std::byte> bytes(len);
    for (auto& b : bytes) b = static_cast<std::byte>(rng.Next());
    Message msg;
    msg.header = bytes;
    try {
      (void)CollectiveRequest::FromMessage(msg);
    } catch (const PandaError&) {
    }
    try {
      (void)GroupMeta::Decode(bytes);
    } catch (const PandaError&) {
    }
    try {
      Decoder dec(bytes);
      (void)Schema::Decode(dec);
    } catch (const PandaError&) {
    }
    try {
      Decoder dec(bytes);
      (void)PieceHeader::Decode(dec);
    } catch (const PandaError&) {
    }
  }
}

TEST(FuzzTest, PieceHeaderTruncationsThrow) {
  std::vector<std::byte> buf;
  Encoder enc(buf);
  PieceHeader{1, 2, 3, 4, Region({5, 6}, {7, 8})}.EncodeTo(enc);
  for (size_t len = 0; len < buf.size(); ++len) {
    Decoder dec({buf.data(), len});
    EXPECT_THROW((void)PieceHeader::Decode(dec), PandaError);
  }
}

}  // namespace
}  // namespace panda
