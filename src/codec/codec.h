// Sub-chunk codecs: dependency-free byte encoders for Panda's two data
// planes (wire piece payloads and on-disk sub-chunks).
//
// The paper turns file traffic into sequential <=1 MB operations; the
// remaining lever is how many bytes each sequential op and each wire
// transfer carries. This registry supplies the encodings:
//   none        - identity (the default; bit-identical to pre-codec runs)
//   rle         - byte-level run-length encoding (count,value pairs)
//   shuffle     - byte-plane transposition by element size (no size
//                 change; only useful chained)
//   delta       - per-element wrapping delta + zigzag varint
//   shuffle+rle - shuffle then rle (the workhorse for smooth numeric
//                 fields: near-constant high bytes become long runs)
//
// Codecs are pure byte transforms: no allocation tricks, no global
// state, no external libraries. Decode validates its input and throws
// PandaError on malformed bytes, so a torn or corrupted frame fails
// loudly instead of scrambling arrays. Framing (self-describing
// headers, stored-raw fallback) lives in codec/frame.h; virtual-time
// charging stays with the callers.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace panda {

// Stable on-wire / on-disk codec identifiers (frame headers, frame
// directory records, ArrayMeta). Never renumber.
enum class CodecId : std::uint8_t {
  kNone = 0,
  kRle = 1,
  kShuffle = 2,
  kDelta = 3,
  kShuffleRle = 4,
};

inline constexpr std::uint8_t kNumCodecIds = 5;

// True when `id` names a registered codec.
bool IsValidCodecId(std::uint8_t id);

// Stable name ("none", "rle", "shuffle", "delta", "shuffle+rle").
const char* CodecName(CodecId id);

// Parses a codec name; returns false (and leaves `id` alone) on an
// unknown name. Accepts exactly the CodecName spellings.
bool CodecFromName(std::string_view name, CodecId& id);

// All registered codec ids, ascending.
std::span<const CodecId> AllCodecIds();

// One codec: a reversible byte transform parameterized by the array's
// element size (shuffle transposes byte planes; delta works over
// element-width integers; byte-oriented codecs ignore it).
class Codec {
 public:
  virtual ~Codec() = default;

  virtual CodecId id() const = 0;
  virtual const char* name() const = 0;

  // Appends the encoded form of `raw` to `out`. Encoding never fails;
  // it may expand (rle worst case doubles) — framing falls back to
  // stored-raw when it does not shrink.
  virtual void Encode(std::span<const std::byte> raw, std::int64_t elem_size,
                      std::vector<std::byte>& out) const = 0;

  // Decodes `enc` into `out` (pre-sized to the original raw length by
  // the caller). Throws PandaError when `enc` is not a valid encoding
  // of exactly out.size() bytes.
  virtual void Decode(std::span<const std::byte> enc, std::int64_t elem_size,
                      std::span<std::byte> out) const = 0;
};

// The registry: one immutable instance per CodecId. Dies on an invalid
// id (wire/disk decode paths validate with IsValidCodecId first).
const Codec& GetCodec(CodecId id);

// Convenience: encoded size of `raw` under `id` (runs the encoder).
std::int64_t EncodedSize(CodecId id, std::span<const std::byte> raw,
                         std::int64_t elem_size);

}  // namespace panda
