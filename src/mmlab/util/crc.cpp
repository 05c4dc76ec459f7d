#include "mmlab/util/crc.hpp"

#include <array>

#if defined(__x86_64__) && defined(__GNUC__)
#define MMLAB_CRC_CLMUL 1
#include <immintrin.h>
#endif

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
// zero state so their table lookups need no state mixing).
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
constexpr std::uint16_t kPolyX = 0x4000;      // x^1
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

/// base^n mod P by square-and-multiply over the bits of n.
constexpr std::uint16_t pow_mod_poly(std::uint16_t base, std::uint64_t n) {
  std::uint16_t result = kPolyOne;
  for (; n != 0; n >>= 1) {
    if (n & 1u) result = mul_mod_poly(base, result);
    base = mul_mod_poly(base, base);
  }
  return result;
}

#ifdef MMLAB_CRC_CLMUL

// The carry-less-multiply kernel folds the message in 128-bit lanes.  A
// lane loaded little-endian holds its first message bit (the highest
// power) in bit 0, so register bit m is x^(127 - m) counted from the
// lane's end, and its low qword is the high-degree half.  Moving a lane
// A = Lo x^64 + Hi forward by D bits needs A x^D mod P = Lo (x^(D+64) mod P)
// + Hi (x^D mod P).  PCLMULQDQ of two such 64-bit halves, read back as a
// lane, is their product times x, so the low qword's constant is
// x^(D+63) mod P and the high qword's x^(D-1) mod P, each a 16-bit
// reflected polynomial placed in the top 16 bits of its qword (bit 63 is
// x^0).  The folded product has degree < 80 and lands inside the lane D
// bits on, where it is XORed in.
struct FoldConstants {
  std::uint64_t lo, hi;
};

constexpr FoldConstants fold_constants(std::uint64_t distance_bits) {
  return {std::uint64_t{pow_mod_poly(kPolyX, distance_bits + 63)} << 48,
          std::uint64_t{pow_mod_poly(kPolyX, distance_bits - 1)} << 48};
}

constexpr FoldConstants kFold512 = fold_constants(512);  // 4 lanes on
constexpr FoldConstants kFold128 = fold_constants(128);  // the next lane

// The measured crossover (EXPERIMENTS.md): below 48 bytes slice-by-8 is
// as fast or faster, since the kernel always pays a 16-byte table finish.
constexpr std::size_t kClmulThreshold = 48;

// A store block reaches the check straight from the page cache, so the
// kernel streams from DRAM.  There the hardware prefetcher alone held it
// to ~5.5 GB/s; a software prefetch one page ahead of the lanes doubles
// that (EXPERIMENTS.md).
constexpr std::size_t kPrefetchAhead = 4096;

// The update is XOR-ing the incoming state into the first two message
// bytes and running from state 0, so the state goes into the first lane's
// low 16 bits.  Four independent lanes hide the multiply latency; they
// fold into one at D = 128, single lanes follow at D = 128, and the last
// lane plus the tail (under 16 bytes) finish through slice-by-8 from
// state 0: the lane's CRC is that of everything folded into it.  Requires
// size >= 16.
__attribute__((target("pclmul"))) std::uint16_t crc16_ccitt_update_clmul(
    std::uint16_t state, const std::uint8_t* data, std::size_t size) {
  const auto load = [](const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // Lambdas do not inherit the enclosing target, so this one names it.
  const auto fold = [](__m128i x, __m128i k, __m128i next)
      __attribute__((target("pclmul"))) {
        return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                           _mm_clmulepi64_si128(x, k, 0x11)),
                             next);
      };
  const __m128i k512 = _mm_set_epi64x(static_cast<long long>(kFold512.hi),
                                      static_cast<long long>(kFold512.lo));
  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(kFold128.hi),
                                      static_cast<long long>(kFold128.lo));
  __m128i x0 = _mm_xor_si128(load(data), _mm_cvtsi32_si128(state));
  data += 16;
  size -= 16;
  if (size >= 48) {
    __m128i x1 = load(data);
    __m128i x2 = load(data + 16);
    __m128i x3 = load(data + 32);
    data += 48;
    size -= 48;
    for (; size >= 64; data += 64, size -= 64) {
      if (size > kPrefetchAhead)
        _mm_prefetch(reinterpret_cast<const char*>(data + kPrefetchAhead),
                     _MM_HINT_T0);
      x0 = fold(x0, k512, load(data));
      x1 = fold(x1, k512, load(data + 16));
      x2 = fold(x2, k512, load(data + 32));
      x3 = fold(x3, k512, load(data + 48));
    }
    x0 = fold(fold(fold(x0, k128, x1), k128, x2), k128, x3);
  }
  for (; size >= 16; data += 16, size -= 16) x0 = fold(x0, k128, load(data));
  alignas(16) std::uint8_t lane[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(lane), x0);
  return crc16_ccitt_update_slice8(
      crc16_ccitt_update_slice8(0, lane, sizeof(lane)), data, size);
}

// Probed once, before main; a CRC taken during static initialisation
// before this runs sees false and takes slice-by-8, which gives the same
// answer.
const bool kHasClmul = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") != 0;
}();

#endif  // MMLAB_CRC_CLMUL

}  // namespace

std::uint16_t crc16_ccitt_update_reference(std::uint16_t state,
                                           const std::uint8_t* data,
                                           std::size_t size) {
  for (std::size_t i = 0; i < size; ++i)
    state = static_cast<std::uint16_t>((state >> 8) ^
                                       kTables[0][(state ^ data[i]) & 0xFF]);
  return state;
}

std::uint16_t crc16_ccitt_update_slice8(std::uint16_t state,
                                        const std::uint8_t* data,
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

std::uint16_t crc16_ccitt_update(std::uint16_t state, const std::uint8_t* data,
                                 std::size_t size) {
#ifdef MMLAB_CRC_CLMUL
  if (size >= kClmulThreshold && kHasClmul)
    return crc16_ccitt_update_clmul(state, data, size);
#endif
  return crc16_ccitt_update_slice8(state, data, size);
}

std::uint16_t crc16_ccitt(const std::uint8_t* data, std::size_t size) {
  return crc16_ccitt_finalize(crc16_ccitt_update(kCrc16CcittInit, data, size));
}

// With init == final XOR (both 0xFFFF), crc(A||B) = crc(A) * x^(8 len_b)
// ^ crc(B) mod P: the init and XOR terms of the two halves cancel.
std::uint16_t crc16_ccitt_combine(std::uint16_t crc_a, std::uint16_t crc_b,
                                  std::uint64_t len_b) {
  return static_cast<std::uint16_t>(
      mul_mod_poly(pow_mod_poly(kPolyXTo8, len_b), crc_a) ^ crc_b);
}

}  // namespace mmlab
