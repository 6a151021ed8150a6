#include "codec/frame.h"

#include <cstring>

#include "util/codec.h"
#include "util/crc32c.h"
#include "util/error.h"

namespace panda {

void AppendFrameHeader(std::vector<std::byte>& out, const FrameHeader& h) {
  const size_t base = out.size();
  Encoder enc(out);
  enc.Put<std::uint32_t>(kFrameMagic);
  enc.Put<std::uint8_t>(static_cast<std::uint8_t>(h.codec));
  enc.Put<std::uint8_t>(0);   // flags
  enc.Put<std::uint16_t>(0);  // reserved
  enc.Put<std::uint64_t>(static_cast<std::uint64_t>(h.raw_bytes));
  enc.Put<std::uint64_t>(static_cast<std::uint64_t>(h.enc_bytes));
  enc.Put<std::uint32_t>(Crc32c({out.data() + base, 24}));
  PANDA_CHECK(static_cast<std::int64_t>(out.size() - base) ==
              kFrameHeaderBytes);
}

std::optional<FrameHeader> ParseFrameHeader(std::span<const std::byte> bytes) {
  if (static_cast<std::int64_t>(bytes.size()) < kFrameHeaderBytes) {
    return std::nullopt;
  }
  Decoder dec(bytes.first(static_cast<size_t>(kFrameHeaderBytes)));
  if (dec.Get<std::uint32_t>() != kFrameMagic) return std::nullopt;
  const std::uint8_t codec = dec.Get<std::uint8_t>();
  (void)dec.Get<std::uint8_t>();   // flags
  (void)dec.Get<std::uint16_t>();  // reserved
  const auto raw = static_cast<std::int64_t>(dec.Get<std::uint64_t>());
  const auto enc_bytes = static_cast<std::int64_t>(dec.Get<std::uint64_t>());
  const std::uint32_t stored_crc = dec.Get<std::uint32_t>();
  if (stored_crc != Crc32c(bytes.first(24))) return std::nullopt;
  if (!IsValidCodecId(codec)) return std::nullopt;
  if (raw < 0 || enc_bytes < 0) return std::nullopt;
  FrameHeader h;
  h.codec = static_cast<CodecId>(codec);
  h.raw_bytes = raw;
  h.enc_bytes = enc_bytes;
  return h;
}

// ---- wire frames -----------------------------------------------------

std::vector<std::byte> EncodeWireFrame(CodecId requested,
                                       std::span<const std::byte> raw,
                                       std::int64_t elem_size, CodecId* used) {
  std::vector<std::byte> out;
  if (requested != CodecId::kNone) {
    std::vector<std::byte> enc;
    GetCodec(requested).Encode(raw, elem_size, enc);
    if (enc.size() < raw.size()) {
      out.reserve(static_cast<size_t>(kFrameHeaderBytes) + enc.size());
      AppendFrameHeader(out,
                        {requested, static_cast<std::int64_t>(raw.size()),
                         static_cast<std::int64_t>(enc.size())});
      out.insert(out.end(), enc.begin(), enc.end());
      if (used != nullptr) *used = requested;
      return out;
    }
  }
  // Stored: incompressible (or codec none requested explicitly through
  // this path); decode cost is paid only where encoding won.
  out.reserve(static_cast<size_t>(kFrameHeaderBytes) + raw.size());
  AppendFrameHeader(out, {CodecId::kNone,
                          static_cast<std::int64_t>(raw.size()),
                          static_cast<std::int64_t>(raw.size())});
  out.insert(out.end(), raw.begin(), raw.end());
  if (used != nullptr) *used = CodecId::kNone;
  return out;
}

std::vector<std::byte> DecodeWireFrame(std::span<const std::byte> framed,
                                       std::int64_t expected_raw,
                                       std::int64_t elem_size, CodecId* used) {
  const std::optional<FrameHeader> h = ParseFrameHeader(framed);
  PANDA_REQUIRE(h.has_value(),
                "piece payload is not a valid codec frame (%zu bytes)",
                framed.size());
  PANDA_REQUIRE(h->raw_bytes == expected_raw,
                "frame raw size %lld does not match the plan's %lld",
                static_cast<long long>(h->raw_bytes),
                static_cast<long long>(expected_raw));
  PANDA_REQUIRE(static_cast<std::int64_t>(framed.size()) ==
                    kFrameHeaderBytes + h->enc_bytes,
                "frame length %zu does not match its header (%lld encoded)",
                framed.size(), static_cast<long long>(h->enc_bytes));
  std::vector<std::byte> raw(static_cast<size_t>(h->raw_bytes));
  GetCodec(h->codec).Decode(
      framed.subspan(static_cast<size_t>(kFrameHeaderBytes)), elem_size,
      raw);
  if (used != nullptr) *used = h->codec;
  return raw;
}

// ---- disk sub-chunk frames -------------------------------------------

SubchunkFrame EncodeSubchunkFrame(CodecId requested,
                                  std::span<const std::byte> raw,
                                  std::int64_t elem_size) {
  SubchunkFrame frame;
  if (requested == CodecId::kNone) return frame;  // stored-raw
  std::vector<std::byte> enc;
  GetCodec(requested).Encode(raw, elem_size, enc);
  // The frame must fit the sub-chunk's plan slot; anything else is
  // stored raw, byte-identical to a codec=none write.
  if (static_cast<std::int64_t>(enc.size()) + kFrameHeaderBytes >
      static_cast<std::int64_t>(raw.size())) {
    return frame;
  }
  frame.codec = requested;
  frame.bytes.reserve(static_cast<size_t>(kFrameHeaderBytes) + enc.size());
  AppendFrameHeader(frame.bytes,
                    {requested, static_cast<std::int64_t>(raw.size()),
                     static_cast<std::int64_t>(enc.size())});
  frame.bytes.insert(frame.bytes.end(), enc.begin(), enc.end());
  return frame;
}

std::vector<std::byte> DecodeSubchunkFrame(std::span<const std::byte> slot,
                                           CodecId codec,
                                           std::int64_t raw_bytes,
                                           std::int64_t elem_size) {
  if (codec == CodecId::kNone) {
    PANDA_REQUIRE(static_cast<std::int64_t>(slot.size()) == raw_bytes,
                  "stored-raw sub-chunk is %zu bytes, expected %lld",
                  slot.size(), static_cast<long long>(raw_bytes));
    return std::vector<std::byte>(slot.begin(), slot.end());
  }
  const std::optional<FrameHeader> h = ParseFrameHeader(slot);
  PANDA_REQUIRE(h.has_value(), "sub-chunk slot is not a valid codec frame");
  PANDA_REQUIRE(h->codec == codec,
                "frame codec %s does not match the directory's %s",
                CodecName(h->codec), CodecName(codec));
  PANDA_REQUIRE(h->raw_bytes == raw_bytes,
                "frame raw size %lld does not match the plan's %lld",
                static_cast<long long>(h->raw_bytes),
                static_cast<long long>(raw_bytes));
  PANDA_REQUIRE(static_cast<std::int64_t>(slot.size()) ==
                    kFrameHeaderBytes + h->enc_bytes,
                "frame slot is %zu bytes, header says %lld", slot.size(),
                static_cast<long long>(kFrameHeaderBytes + h->enc_bytes));
  std::vector<std::byte> raw(static_cast<size_t>(raw_bytes));
  GetCodec(codec).Decode(
      slot.subspan(static_cast<size_t>(kFrameHeaderBytes)), elem_size, raw);
  return raw;
}

std::vector<std::byte> ProbeDecodeSubchunk(std::span<const std::byte> slot,
                                           std::int64_t raw_bytes,
                                           std::int64_t elem_size,
                                           CodecId* used) {
  const std::optional<FrameHeader> h = ParseFrameHeader(slot);
  if (h.has_value() && h->raw_bytes == raw_bytes &&
      kFrameHeaderBytes + h->enc_bytes <=
          static_cast<std::int64_t>(slot.size())) {
    std::vector<std::byte> raw(static_cast<size_t>(raw_bytes));
    GetCodec(h->codec).Decode(
        slot.subspan(static_cast<size_t>(kFrameHeaderBytes),
                     static_cast<size_t>(h->enc_bytes)),
        elem_size, raw);
    if (used != nullptr) *used = h->codec;
    return raw;
  }
  PANDA_REQUIRE(static_cast<std::int64_t>(slot.size()) >= raw_bytes,
                "sub-chunk slot holds %zu bytes: neither a valid frame nor "
                "%lld raw bytes",
                slot.size(), static_cast<long long>(raw_bytes));
  if (used != nullptr) *used = CodecId::kNone;
  return std::vector<std::byte>(slot.begin(),
                                slot.begin() + static_cast<std::ptrdiff_t>(
                                                   raw_bytes));
}

}  // namespace panda
