#include "mmlab/util/crc.hpp"

#include <array>

namespace mmlab {
namespace {

// kTables[0] is the classic one-byte table; kTables[k][i] is the state
// reached by pushing k further zero bytes through kTables[k-1][i].  Because
// the CRC update is GF(2)-linear, eight bytes then fold in one round:
//
//   s' = T7[(s ^ b0) & 0xFF] ^ T6[((s >> 8) ^ b1) & 0xFF]
//      ^ T5[b2] ^ T4[b3] ^ T3[b4] ^ T2[b5] ^ T1[b6] ^ T0[b7]
//
// (the 16-bit state only overlaps the first two bytes; b2..b7 enter with
// zero state so their table lookups need no state mixing).  Shard
// checksumming in the out-of-core store pushes hundreds of MB through this,
// hence slice-by-8 rather than slice-by-4; the bytewise reference below
// stays as the property-test oracle.
constexpr std::size_t kSlice = 8;

constexpr std::array<std::array<std::uint16_t, 256>, kSlice> make_tables() {
  std::array<std::array<std::uint16_t, 256>, kSlice> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t crc = static_cast<std::uint16_t>(i);
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc & 1u) ? static_cast<std::uint16_t>((crc >> 1) ^ 0x8408)
                       : static_cast<std::uint16_t>(crc >> 1);
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < kSlice; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = static_cast<std::uint16_t>((t[k - 1][i] >> 8) ^
                                           t[0][t[k - 1][i] & 0xFF]);
  return t;
}

constexpr auto kTables = make_tables();

// Polynomials over GF(2) modulo the CRC polynomial, in the reflected bit
// order of the register: bit 15 is x^0, bit 0 is x^15.
constexpr std::uint16_t kPolyOne = 0x8000;    // x^0
constexpr std::uint16_t kPolyXTo8 = 0x0080;   // x^8: one byte of shift

constexpr std::uint16_t mul_mod_poly(std::uint16_t a, std::uint16_t b) {
  std::uint16_t product = 0;
  for (std::uint16_t m = kPolyOne; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1u) ? static_cast<std::uint16_t>((b >> 1) ^ 0x8408)
                 : static_cast<std::uint16_t>(b >> 1);
  }
  return product;
}

}  // namespace

std::uint16_t crc16_ccitt_update_reference(std::uint16_t state,
                                           const std::uint8_t* data,
                                           std::size_t size) {
  for (std::size_t i = 0; i < size; ++i)
    state = static_cast<std::uint16_t>((state >> 8) ^
                                       kTables[0][(state ^ data[i]) & 0xFF]);
  return state;
}

std::uint16_t crc16_ccitt_update(std::uint16_t state, const std::uint8_t* data,
                                 std::size_t size) {
  while (size >= 8) {
    state = static_cast<std::uint16_t>(
        kTables[7][(state ^ data[0]) & 0xFF] ^
        kTables[6][((state >> 8) ^ data[1]) & 0xFF] ^ kTables[5][data[2]] ^
        kTables[4][data[3]] ^ kTables[3][data[4]] ^ kTables[2][data[5]] ^
        kTables[1][data[6]] ^ kTables[0][data[7]]);
    data += 8;
    size -= 8;
  }
  return crc16_ccitt_update_reference(state, data, size);
}

std::uint16_t crc16_ccitt(const std::uint8_t* data, std::size_t size) {
  return crc16_ccitt_finalize(crc16_ccitt_update(kCrc16CcittInit, data, size));
}

// With init == final XOR (both 0xFFFF), crc(A||B) = crc(A) * x^(8 len_b)
// ^ crc(B) mod P: the init and XOR terms of the two halves cancel.  The
// power is built by square-and-multiply over the bits of len_b.
std::uint16_t crc16_ccitt_combine(std::uint16_t crc_a, std::uint16_t crc_b,
                                  std::uint64_t len_b) {
  std::uint16_t shift = kPolyOne;
  for (std::uint16_t power = kPolyXTo8; len_b != 0; len_b >>= 1) {
    if (len_b & 1u) shift = mul_mod_poly(power, shift);
    power = mul_mod_poly(power, power);
  }
  return static_cast<std::uint16_t>(mul_mod_poly(shift, crc_a) ^ crc_b);
}

}  // namespace mmlab
