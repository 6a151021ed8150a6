#include "util/crc32c.h"

#include <array>
#include <cstring>

#include "util/crc32c_internal.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

namespace panda {
namespace {

// Reflected CRC32C polynomial.
constexpr std::uint32_t kPoly = 0x82f63b78u;

struct Tables {
  // table[0] is the classic byte-at-a-time table; tables 1..7 extend it
  // for slice-by-8 (process 8 input bytes per iteration).
  std::uint32_t t[8][256];

  Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

#if defined(__x86_64__)

// Merging independent streams. For a raw CRC register (no inversions),
// the register after X || Y is x^(8|Y|) * reg(r, X) + reg(0, Y) modulo
// the polynomial, over GF(2). So streams started from 0 on adjacent
// blocks merge by advancing the earlier register over the later block's
// length in zero bytes, then xoring. In this reflected representation
// bit 31 holds the coefficient of x^0.

// a * b modulo the CRC polynomial.
constexpr std::uint32_t MultModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1) != 0 ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// x^(8n) modulo the polynomial: the operator that advances a register
// over n zero bytes.
constexpr std::uint32_t ZeroBytesOperator(std::size_t n) {
  std::uint32_t op = 1u << 31;      // x^0
  std::uint32_t square = 1u << 23;  // x^8, one zero byte
  for (; n != 0; n >>= 1) {
    if ((n & 1) != 0) op = MultModP(square, op);
    square = MultModP(square, square);
  }
  return op;
}

// The n-zero-byte operator tabulated per register byte, so that applying
// it costs four lookups: Shift(MakeShiftTable(n), r) ==
// MultModP(ZeroBytesOperator(n), r).
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTable MakeShiftTable(std::size_t n) {
  const std::uint32_t op = ZeroBytesOperator(n);
  ShiftTable table{};
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      table[k][b] = MultModP(op, b << (8 * k));
    }
  }
  return table;
}

template <std::size_t kBytes>
constexpr ShiftTable kZeroShift = MakeShiftTable(kBytes);

inline std::uint32_t Shift(const ShiftTable& table, std::uint32_t crc) {
  return table[0][crc & 0xff] ^ table[1][(crc >> 8) & 0xff] ^
         table[2][(crc >> 16) & 0xff] ^ table[3][crc >> 24];
}

inline std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Consumes whole runs of three adjacent kBlock-byte blocks, one `crc32q`
// stream per block. The instruction's latency is three cycles and its
// throughput one per cycle, so three independent streams keep it busy.
template <std::size_t kBlock>
__attribute__((target("sse4.2"))) inline std::uint32_t ThreeStreams(
    std::uint32_t crc, const unsigned char*& p, std::size_t& n) {
  for (; n >= 3 * kBlock; n -= 3 * kBlock) {
    std::uint64_t c0 = crc;
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (const unsigned char* end = p + kBlock; p != end; p += 8) {
      c0 = _mm_crc32_u64(c0, Load64(p));
      c1 = _mm_crc32_u64(c1, Load64(p + kBlock));
      c2 = _mm_crc32_u64(c2, Load64(p + 2 * kBlock));
    }
    const std::uint32_t ab =
        Shift(kZeroShift<kBlock>, static_cast<std::uint32_t>(c0)) ^
        static_cast<std::uint32_t>(c1);
    crc = Shift(kZeroShift<kBlock>, ab) ^ static_cast<std::uint32_t>(c2);
    p += 2 * kBlock;
  }
  return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t Sse42Kernel(
    const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (; n != 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0; --n) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  crc = ThreeStreams<8192>(crc, p, n);
  crc = ThreeStreams<256>(crc, p, n);
  std::uint64_t tail = crc;
  for (; n >= 8; n -= 8, p += 8) tail = _mm_crc32_u64(tail, Load64(p));
  crc = static_cast<std::uint32_t>(tail);
  for (; n != 0; --n) crc = _mm_crc32_u8(crc, *p++);
  return ~crc;
}

bool CpuHasSse42() {
  unsigned int eax = 0;
  unsigned int ebx = 0;
  unsigned int ecx = 0;
  unsigned int edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
         (ecx & bit_SSE4_2) != 0;
}

#endif  // defined(__x86_64__)

}  // namespace

namespace crc32c_internal {

std::uint32_t Portable(const void* data, std::size_t n, std::uint32_t seed) {
  const Tables& tb = tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  // Slice-by-8 main loop.
  while (n >= 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    static_cast<std::uint32_t>(p[1]) << 8 |
                                    static_cast<std::uint32_t>(p[2]) << 16 |
                                    static_cast<std::uint32_t>(p[3]) << 24);
    crc = tb.t[7][lo & 0xff] ^ tb.t[6][(lo >> 8) & 0xff] ^
          tb.t[5][(lo >> 16) & 0xff] ^ tb.t[4][lo >> 24] ^ tb.t[3][p[4]] ^
          tb.t[2][p[5]] ^ tb.t[1][p[6]] ^ tb.t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
  }
  return ~crc;
}

Kernel Sse42() {
#if defined(__x86_64__)
  return CpuHasSse42() ? &Sse42Kernel : nullptr;
#else
  return nullptr;
#endif
}

Kernel Selected() {
  // A function-local static runs its initializer once, under the
  // compiler's thread-safe guard, on first use: from a static
  // initializer before main or from any carrier thread alike.
  static const Kernel kernel = [] {
    const Kernel hardware = Sse42();
    return hardware != nullptr ? hardware : &Portable;
  }();
  return kernel;
}

}  // namespace crc32c_internal

std::uint32_t Crc32c(const void* data, std::size_t n, std::uint32_t seed) {
  return crc32c_internal::Selected()(data, n, seed);
}

std::uint32_t Crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  return Crc32c(data.data(), data.size(), seed);
}

}  // namespace panda
