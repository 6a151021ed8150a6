// The CRC32C kernels behind `Crc32c` (util/crc32c.h), one by one.
//
// Callers use `Crc32c`. This header exists so tests and `bench_kernels`
// can run each kernel directly: the hardware kernel against the
// portable reference, and the dispatcher against what the CPU reports.
#pragma once

#include <cstddef>
#include <cstdint>

namespace panda::crc32c_internal {

using Kernel = std::uint32_t (*)(const void* data, std::size_t n,
                                 std::uint32_t seed);

// The portable slice-by-8 table walk. Runs on every CPU; the reference
// the other kernel must agree with bit for bit.
std::uint32_t Portable(const void* data, std::size_t n, std::uint32_t seed);

// The three-stream SSE4.2 `crc32q` kernel, or nullptr when this build is
// not for x86-64 or CPUID does not report SSE4.2.
Kernel Sse42();

// The kernel `Crc32c` calls: Sse42() when it is available, else Portable.
// Chosen once, on first use.
Kernel Selected();

}  // namespace panda::crc32c_internal
