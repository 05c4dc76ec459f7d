#include "mmlab/util/bitio.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "mmlab/util/rng.hpp"

namespace mmlab {
namespace {

TEST(BitIo, SingleBits) {
  BitWriter w;
  w.write_bit(true);
  w.write_bit(false);
  w.write_bit(true);
  EXPECT_EQ(w.bit_size(), 3u);
  BitReader r(w.bytes());
  EXPECT_TRUE(r.read_bit());
  EXPECT_FALSE(r.read_bit());
  EXPECT_TRUE(r.read_bit());
}

TEST(BitIo, MsbFirstLayout) {
  BitWriter w;
  w.write(0b101, 3);
  w.align();
  ASSERT_EQ(w.bytes().size(), 1u);
  EXPECT_EQ(w.bytes()[0], 0b1010'0000);
}

TEST(BitIo, ZeroWidthIsNoop) {
  BitWriter w;
  w.write(123, 0);
  EXPECT_EQ(w.bit_size(), 0u);
}

TEST(BitIo, MasksExcessBits) {
  BitWriter w;
  w.write(0xFF, 4);  // only the low 4 bits survive
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(4), 0xFu);
}

TEST(BitIo, Width64RoundTrip) {
  BitWriter w;
  const std::uint64_t v = 0xDEADBEEFCAFEBABEULL;
  w.write(v, 64);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(64), v);
}

TEST(BitIo, RejectsWidthOver64) {
  BitWriter w;
  EXPECT_THROW(w.write(0, 65), std::invalid_argument);
  w.write(1, 8);
  BitReader r(w.bytes());
  EXPECT_THROW(r.read(65), std::invalid_argument);
}

TEST(BitIo, RangedRoundTrip) {
  BitWriter w;
  w.write_ranged(-3, -15, 5);
  w.write_ranged(100, 0, 7);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read_ranged(-15, 5), -3);
  EXPECT_EQ(r.read_ranged(0, 7), 100);
}

TEST(BitIo, RangedRejectsOutOfRange) {
  BitWriter w;
  EXPECT_THROW(w.write_ranged(-16, -15, 5), std::invalid_argument);
  EXPECT_THROW(w.write_ranged(17, 0, 4), std::invalid_argument);
}

TEST(BitIo, UnderflowThrows) {
  BitWriter w;
  w.write(3, 2);
  BitReader r(w.bytes());
  r.read(2);
  // The buffer pads to a full byte; reading past the byte must throw.
  r.read(6);
  EXPECT_THROW(r.read(1), BitUnderflow);
}

TEST(BitIo, AlignPadsWithZeros) {
  BitWriter w;
  w.write_bit(true);
  w.align();
  EXPECT_EQ(w.bit_size(), 8u);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(8), 0b1000'0000u);
}

TEST(BitIo, ReaderAlignSkips) {
  BitWriter w;
  w.write(1, 3);
  w.align();
  w.write(0xAB, 8);
  BitReader r(w.bytes());
  r.read(3);
  r.align();
  EXPECT_EQ(r.read(8), 0xABu);
}

class BitIoWidthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitIoWidthSweep, RandomRoundTrip) {
  const unsigned width = GetParam();
  Rng rng(width * 1337 + 1);
  BitWriter w;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t mask =
        width == 64 ? ~0ULL : ((1ULL << width) - 1);
    values.push_back(rng.next_u64() & mask);
    w.write(values.back(), width);
  }
  BitReader r(w.bytes());
  for (const auto v : values) EXPECT_EQ(r.read(width), v);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitIoWidthSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 8u, 9u, 13u,
                                           16u, 18u, 28u, 31u, 32u, 33u, 48u,
                                           63u, 64u));

// --- batched read() vs the bit-at-a-time oracle ------------------------------
// read() extracts each field from one 64-bit big-endian load whenever 8
// whole bytes remain at the cursor (with a spill byte for fields straddling
// past bit 64) and from the zero-padded remaining bytes on the tail;
// read_reference() IS the original loop, kept as the oracle.  The sweeps
// mirror the SWAR-varint-vs-reference property tests in byteio: every
// (width, bit offset, buffer size) combination — in-word extract, spill
// byte, tail fallback, and underflow — must agree with the oracle exactly,
// including the position-unchanged-on-throw contract.

TEST(BitIo, BatchedMatchesReferenceSweep) {
  Rng rng(0xB175);
  for (const std::size_t size : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u,
                                 24u, 64u}) {
    std::vector<std::uint8_t> buf(size);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::size_t bits = size * 8;
    for (unsigned offset = 0; offset < 8 && offset <= bits; ++offset) {
      for (unsigned width = 0; width <= 64; ++width) {
        BitReader batched(buf.data(), size);
        BitReader oracle(buf.data(), size);
        if (offset) {
          batched.read(offset);
          oracle.read_reference(offset);
        }
        if (offset + width > bits) {
          EXPECT_THROW(batched.read(width), BitUnderflow);
          EXPECT_THROW(oracle.read_reference(width), BitUnderflow);
          // Underflow must not move the cursor on either path.
          EXPECT_EQ(batched.position_bits(), offset);
          EXPECT_EQ(oracle.position_bits(), offset);
        } else {
          EXPECT_EQ(batched.read(width), oracle.read_reference(width))
              << "size " << size << " offset " << offset << " width "
              << width;
          EXPECT_EQ(batched.position_bits(), oracle.position_bits());
        }
      }
    }
  }
}

TEST(BitIo, BatchedMatchesReferenceRandomStream) {
  Rng rng(0x517EA);
  std::vector<std::uint8_t> buf(509);  // odd size: tail exercises fallback
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  BitReader batched(buf);
  BitReader oracle(buf);
  while (batched.remaining_bits() > 0) {
    const unsigned width =
        std::min<unsigned>(1 + static_cast<unsigned>(rng.below(64)),
                           static_cast<unsigned>(batched.remaining_bits()));
    EXPECT_EQ(batched.read(width), oracle.read_reference(width))
        << "at bit " << oracle.position_bits() << " width " << width;
  }
  EXPECT_EQ(batched.position_bits(), oracle.position_bits());
}

TEST(BitIo, BatchedAndReferenceInterleaveOnOneReader) {
  // Both entry points share the cursor, so a consumer may mix them freely;
  // alternate them on one reader against a pure-oracle reader.
  Rng rng(0x1A7E);
  std::vector<std::uint8_t> buf(128);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  BitReader mixed(buf);
  BitReader oracle(buf);
  bool use_batched = true;
  while (mixed.remaining_bits() > 0) {
    const unsigned width =
        std::min<unsigned>(1 + static_cast<unsigned>(rng.below(64)),
                           static_cast<unsigned>(mixed.remaining_bits()));
    const std::uint64_t got =
        use_batched ? mixed.read(width) : mixed.read_reference(width);
    EXPECT_EQ(got, oracle.read_reference(width));
    use_batched = !use_batched;
  }
}

TEST(BitIo, TailReadsMatchReferenceAtEveryEnd) {
  // Every read that starts at any bit of a 1-16-byte buffer, of every width
  // 0-64: the ones that end inside the buffer take the tail path at every
  // end position, the rest underflow — identically on both paths.
  Rng rng(0x7A11);
  for (std::size_t size = 1; size <= 16; ++size) {
    std::vector<std::uint8_t> buf(size);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::size_t bits = size * 8;
    for (std::size_t start = 0; start <= bits; ++start) {
      for (unsigned width = 0; width <= 64; ++width) {
        BitReader batched(buf.data(), size);
        BitReader oracle(buf.data(), size);
        for (std::size_t skip = start; skip > 0;) {
          const unsigned step = static_cast<unsigned>(std::min<std::size_t>(
              skip, 64));
          batched.read_reference(step);
          oracle.read_reference(step);
          skip -= step;
        }
        if (start + width > bits) {
          EXPECT_THROW(batched.read(width), BitUnderflow);
          EXPECT_THROW(oracle.read_reference(width), BitUnderflow);
          EXPECT_EQ(batched.position_bits(), start);
        } else {
          ASSERT_EQ(batched.read(width), oracle.read_reference(width))
              << "size " << size << " start " << start << " width " << width;
          EXPECT_EQ(batched.position_bits(), oracle.position_bits());
        }
      }
    }
  }
}

// --- byte-wise write() vs the bit-at-a-time oracle ---------------------------
// write() resizes once and fills the partial head byte, the whole bytes and
// the tail; write_reference() is the original loop.  Same bytes and bit
// size for every (start offset, width, value), and for random streams.

void expect_same_writer(const BitWriter& fast, const BitWriter& oracle) {
  EXPECT_EQ(fast.bit_size(), oracle.bit_size());
  EXPECT_EQ(fast.bytes(), oracle.bytes());
}

TEST(BitIo, ByteWiseWriteMatchesReferenceSweep) {
  Rng rng(0xB17E);
  for (unsigned offset = 0; offset < 16; ++offset) {
    for (unsigned width = 0; width <= 64; ++width) {
      for (int trial = 0; trial < 4; ++trial) {
        // All ones, all zeros, then random values with excess high bits
        // that must be masked off.
        const std::uint64_t value =
            trial == 0 ? ~0ULL : trial == 1 ? 0 : rng.next_u64();
        const std::uint64_t head = rng.next_u64();
        BitWriter fast, oracle;
        fast.write(head >> (64 - std::max(offset, 1u)), offset);
        oracle.write_reference(head >> (64 - std::max(offset, 1u)), offset);
        fast.write(value, width);
        oracle.write_reference(value, width);
        expect_same_writer(fast, oracle);
        // A following field lands on the same bits.
        fast.write(0x5, 3);
        oracle.write_reference(0x5, 3);
        expect_same_writer(fast, oracle);
      }
    }
  }
  BitWriter w;
  EXPECT_THROW(w.write(0, 65), std::invalid_argument);
  EXPECT_THROW(w.write_reference(0, 65), std::invalid_argument);
}

TEST(BitIo, ByteWiseWriteMatchesReferenceRandomStream) {
  Rng rng(0xF17E);
  BitWriter fast, oracle;
  for (int i = 0; i < 4000; ++i) {
    const unsigned width = static_cast<unsigned>(rng.below(65));
    const std::uint64_t value = rng.next_u64();
    fast.write(value, width);
    oracle.write_reference(value, width);
    if (rng.below(16) == 0) {
      fast.align();
      oracle.write_reference(0, (8 - oracle.bit_size() % 8) % 8);
    }
  }
  expect_same_writer(fast, oracle);
  BitReader r(fast.bytes());
  EXPECT_EQ(r.remaining_bits(), fast.bytes().size() * 8);
}

TEST(BitIo, MixedWidthSequence) {
  Rng rng(99);
  BitWriter w;
  std::vector<std::pair<std::uint64_t, unsigned>> seq;
  for (int i = 0; i < 500; ++i) {
    const unsigned width = 1 + static_cast<unsigned>(rng.below(64));
    const std::uint64_t mask = width == 64 ? ~0ULL : ((1ULL << width) - 1);
    seq.emplace_back(rng.next_u64() & mask, width);
    w.write(seq.back().first, width);
  }
  BitReader r(w.bytes());
  for (const auto& [v, width] : seq) EXPECT_EQ(r.read(width), v);
}

}  // namespace
}  // namespace mmlab
