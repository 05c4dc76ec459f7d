// CRC-16/CCITT (X.25 variant) — the checksum used by the Qualcomm diag
// protocol our diag-log framing emulates: polynomial 0x1021 reflected
// (0x8408), initial value 0xFFFF, final XOR 0xFFFF.
//
// Three paths compute the same function.  crc16_ccitt_update dispatches:
// on x86-64 CPUs with PCLMULQDQ (probed once at start-up) an input of 48
// bytes or more goes to a carry-less-multiply kernel that folds 128-bit
// lanes, four at a time from 64 bytes on: ~15-20 GB/s on one core from
// cache and ~10 GB/s streaming a store block from DRAM, against
// slice-by-8's ~1.8 GB/s.  Shorter inputs, other CPUs and non-x86 builds
// take slice-by-8, which also finishes the kernel's last lane and tail.
// The bytewise loop is the oracle both are tested against.  Every caller
// (diag frames, the store's block and shard checks, the manifest,
// BufferedFileWriter) goes through the dispatch.
#pragma once

#include <cstdint>
#include <cstddef>

namespace mmlab {

std::uint16_t crc16_ccitt(const std::uint8_t* data, std::size_t size);

// Incremental interface for streaming writers (util/byteio): thread the
// state through successive update calls, then finalize once.  Equivalent to
// crc16_ccitt over the concatenated chunks.
inline constexpr std::uint16_t kCrc16CcittInit = 0xFFFF;
std::uint16_t crc16_ccitt_update(std::uint16_t state, const std::uint8_t* data,
                                 std::size_t size);

/// The portable path: slice-by-8, eight bytes per table round.  Named so
/// tests and benches reach it on every CPU, whichever path the dispatch
/// takes there.
std::uint16_t crc16_ccitt_update_slice8(std::uint16_t state,
                                        const std::uint8_t* data,
                                        std::size_t size);

/// The textbook byte-at-a-time update, kept as the test oracle the fast
/// paths are property-checked against.
std::uint16_t crc16_ccitt_update_reference(std::uint16_t state,
                                           const std::uint8_t* data,
                                           std::size_t size);
constexpr std::uint16_t crc16_ccitt_finalize(std::uint16_t state) {
  return static_cast<std::uint16_t>(state ^ 0xFFFF);
}

/// CRC-16/CCITT of the concatenation A||B from the finalized crc16_ccitt of
/// each part and B's length, in O(log len_b) without touching the bytes
/// (the zlib crc32_combine construction).  Lets a writer that already
/// checksums every block derive the whole-file CRC instead of a second pass.
std::uint16_t crc16_ccitt_combine(std::uint16_t crc_a, std::uint16_t crc_b,
                                  std::uint64_t len_b);

}  // namespace mmlab
