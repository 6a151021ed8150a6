// CRC32C (Castagnoli) checksums.
//
// Used for Panda's end-to-end integrity protection: piece payloads on
// the wire and sub-chunk shard-table records on disk both carry a CRC32C so
// corruption anywhere between a client's memory and an i/o node's disk
// (or vice versa) is detected at the first opportunity instead of
// silently scrambling arrays. CRC32C is the same polynomial iSCSI and
// ext4 use; the implementation is a portable slice-by-8 table walk.
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
