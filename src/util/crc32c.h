// CRC32C (Castagnoli) checksums.
//
// Used for Panda's end-to-end integrity protection: piece payloads on
// the wire and sub-chunk shard-table records on disk both carry a CRC32C so
// corruption anywhere between a client's memory and an i/o node's disk
// (or vice versa) is detected at the first opportunity instead of
// silently scrambling arrays. CRC32C is the same polynomial iSCSI and
// ext4 use.
//
// The kernel is chosen once, by CPUID, on first use. On x86-64 with
// SSE4.2 it runs three interleaved `crc32q` streams over 8 KiB and then
// 256 B blocks and merges them with a GF(2) zero-shift operator; on any
// other CPU it is a portable slice-by-8 table walk. Both return the same
// value for every input, so stored and wire checksums do not depend on
// the host. No build flag or option selects the kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace panda {

// CRC32C of `data`, continuing from `seed` (pass the previous return
// value to checksum discontiguous buffers as one stream; 0 to start).
std::uint32_t Crc32c(std::span<const std::byte> data, std::uint32_t seed = 0);

// Convenience overload for raw pointers.
std::uint32_t Crc32c(const void* data, std::size_t n, std::uint32_t seed = 0);

}  // namespace panda
