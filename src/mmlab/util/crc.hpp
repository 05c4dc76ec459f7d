// CRC-16/CCITT (X.25 variant) — the checksum used by the Qualcomm diag
// protocol our diag-log framing emulates: polynomial 0x1021 reflected
// (0x8408), initial value 0xFFFF, final XOR 0xFFFF.
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

/// The textbook byte-at-a-time update.  crc16_ccitt_update runs a
/// slice-by-8 variant (8 bytes per table round); this one is kept as the
/// test oracle the fast path is property-checked against.
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
