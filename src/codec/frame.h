// Self-describing codec frames.
//
// A frame is `[header | encoded bytes]` where the 28-byte header names
// the codec and both lengths and carries its own CRC32C:
//
//   [ u32 magic | u8 codec | u8 flags | u16 reserved |
//     u64 raw_bytes | u64 enc_bytes | u32 header_crc(first 24) ]
//
// Wire piece payloads always carry the header when a collective
// negotiates a codec. On disk, frames are written at the sub-chunk's
// *plan* offset (so timestep append, checkpoint overwrite, adopted-chunk
// offsets and idempotent retries keep working) and must fit the
// sub-chunk's slot; when the encoding does not save at least a header's
// worth, the sub-chunk is stored raw with no header at all — exactly
// the bytes codec=none would write.
//
// Readers locate encoded sub-chunks through their shard's table
// (store/shard_table.h), whose records name each slot's codec and
// frame size. A torn or corrupt record is tolerated: readers fall back
// to probing the slot's self-describing header (a stored-raw slot has
// no header; the magic + header CRC make a false positive negligible).
//
// Integrity layering: table-record and journal data CRCs stay computed
// over the *uncompressed* bytes, so the one-re-read heal and the
// offline verifiers work unchanged on encoded segments.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "codec/codec.h"

namespace panda {

inline constexpr std::uint32_t kFrameMagic = 0x31465250;  // "PRF1"
inline constexpr std::int64_t kFrameHeaderBytes = 28;

struct FrameHeader {
  CodecId codec = CodecId::kNone;
  std::int64_t raw_bytes = 0;
  std::int64_t enc_bytes = 0;
};

// Appends the 28-byte header to `out`.
void AppendFrameHeader(std::vector<std::byte>& out, const FrameHeader& h);

// Parses a header from the first 28 bytes of `bytes`. Returns nullopt
// on short input, bad magic, bad header CRC, invalid codec id or
// nonsensical lengths — callers treat that as "not a frame".
std::optional<FrameHeader> ParseFrameHeader(std::span<const std::byte> bytes);

// ---- wire frames -----------------------------------------------------

// Encodes `raw` for the wire under `requested`. The header is always
// present; when the encoding does not shrink, the payload is stored
// (header.codec == kNone) so decode cost is paid only where it won.
// `used` (optional) reports the representation chosen.
std::vector<std::byte> EncodeWireFrame(CodecId requested,
                                       std::span<const std::byte> raw,
                                       std::int64_t elem_size,
                                       CodecId* used = nullptr);

// Decodes a wire frame back to raw bytes. Throws PandaError on a
// malformed frame or when the header's raw length differs from
// `expected_raw` (plans diverged or bytes corrupted in flight).
std::vector<std::byte> DecodeWireFrame(std::span<const std::byte> framed,
                                       std::int64_t expected_raw,
                                       std::int64_t elem_size,
                                       CodecId* used = nullptr);

// ---- disk sub-chunk frames -------------------------------------------

// The representation of one sub-chunk slot on disk.
struct SubchunkFrame {
  // The framed bytes to write at the sub-chunk's plan offset, or empty
  // when the sub-chunk is stored raw (write the raw bytes unchanged).
  std::vector<std::byte> bytes;
  // kNone means stored-raw (no header on disk).
  CodecId codec = CodecId::kNone;

  std::int64_t frame_bytes(std::int64_t raw_bytes) const {
    return codec == CodecId::kNone ? raw_bytes
                                   : static_cast<std::int64_t>(bytes.size());
  }
};

// Encodes a sub-chunk for disk: frames under `requested` when
// header + encoding fits the raw-size slot, stored-raw otherwise.
SubchunkFrame EncodeSubchunkFrame(CodecId requested,
                                  std::span<const std::byte> raw,
                                  std::int64_t elem_size);

// Decodes a slot whose representation is known (from a shard-table
// record): `slot` holds exactly frame_bytes. Throws PandaError on any
// mismatch or malformed encoding.
std::vector<std::byte> DecodeSubchunkFrame(std::span<const std::byte> slot,
                                           CodecId codec,
                                           std::int64_t raw_bytes,
                                           std::int64_t elem_size);

// Decodes a slot of *unknown* representation (torn or missing table
// record): probes the self-describing header; a slot that is
// not a valid frame must be stored-raw of exactly `raw_bytes`. Throws
// PandaError when it is neither. `used` reports what was found.
std::vector<std::byte> ProbeDecodeSubchunk(std::span<const std::byte> slot,
                                           std::int64_t raw_bytes,
                                           std::int64_t elem_size,
                                           CodecId* used = nullptr);

}  // namespace panda
