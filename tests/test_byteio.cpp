#include "mmlab/util/byteio.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "mmlab/util/crc.hpp"

namespace mmlab {
namespace {

TEST(Zigzag, InterleavesSmallMagnitudes) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  EXPECT_EQ(zigzag_encode(2), 4u);
}

TEST(Zigzag, RoundTripsExtremes) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max(), std::int64_t{-123456789},
        std::int64_t{987654321}}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
}

TEST(ByteIo, VarintRoundTripsBoundaryValues) {
  ByteWriter w;
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const auto v : values) w.varint(v);
  ByteReader r(w.buffer());
  for (const auto v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIo, VarintUsesMinimalBytes) {
  ByteWriter w;
  w.varint(127);
  EXPECT_EQ(w.size(), 1u);
  w.varint(128);
  EXPECT_EQ(w.size(), 3u);  // +2
  w.varint(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(w.size(), 13u);  // +10
}

TEST(ByteIo, ScalarsAndStringsRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16le(0xBEEF);
  w.f64le(-0.0);
  w.f64le(std::numeric_limits<double>::quiet_NaN());
  w.f64le(1e308);
  w.svarint(-42);
  w.str("hello");
  w.str("");
  ByteReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16le(), 0xBEEF);
  const double neg_zero = r.f64le();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_TRUE(std::isnan(r.f64le()));
  EXPECT_EQ(r.f64le(), 1e308);
  EXPECT_EQ(r.svarint(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIo, ReaderThrowsPastEnd) {
  ByteWriter w;
  w.u8(1);
  ByteReader r(w.buffer());
  r.u8();
  EXPECT_THROW(r.u8(), ByteUnderflow);
  ByteReader r2(w.buffer());
  EXPECT_THROW(r2.f64le(), ByteUnderflow);
  EXPECT_THROW(r2.u16le(), ByteUnderflow);
  EXPECT_THROW(r2.skip(2), ByteUnderflow);
}

TEST(ByteIo, ReaderRejectsTruncatedVarint) {
  const std::uint8_t dangling[] = {0x80};  // continuation bit, then EOF
  ByteReader r(dangling, sizeof(dangling));
  EXPECT_THROW(r.varint(), ByteUnderflow);
}

TEST(ByteIo, ReaderRejectsOverlongVarint) {
  // 11 continuation bytes can't encode a 64-bit value.
  const std::uint8_t overlong[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                   0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  ByteReader r(overlong, sizeof(overlong));
  EXPECT_THROW(r.varint(), ByteUnderflow);
}

TEST(ByteIo, ReaderRejectsTruncatedString) {
  ByteWriter w;
  w.varint(100);  // claims 100 bytes follow
  w.u8('x');
  ByteReader r(w.buffer());
  EXPECT_THROW(r.str(), ByteUnderflow);
}

TEST(ByteIo, CountRejectsMoreEntriesThanBytesLeft) {
  ByteWriter w;
  w.varint(3);  // three one-byte entries follow: plausible
  w.u8('a');
  w.u8('b');
  w.u8('c');
  ByteReader ok(w.buffer());
  EXPECT_EQ(ok.count("test table"), 3u);

  ByteWriter big;
  big.varint(4);  // four entries cannot fit in three bytes
  big.u8('a');
  big.u8('b');
  big.u8('c');
  ByteReader r(big.buffer());
  try {
    r.count("test table");
    FAIL() << "count above remaining() accepted";
  } catch (const ByteUnderflow& e) {
    EXPECT_STREQ(e.what(), "test table count 4 exceeds the 3 bytes left");
  }
}

TEST(ByteIo, BufferedFileRoundTripWithCrc) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mmlab_byteio_test.bin")
          .string();
  std::string payload;
  for (int i = 0; i < 100'000; ++i) payload.push_back(static_cast<char>(i));
  std::uint16_t crc;
  {
    BufferedFileWriter out(path, 4096);  // small buffer: force refills
    out.write(payload.data(), payload.size());
    crc = out.crc16();
    out.flush();
  }
  EXPECT_EQ(crc, crc16_ccitt(
                     reinterpret_cast<const std::uint8_t*>(payload.data()),
                     payload.size()));

  std::string reread(payload.size(), '\0');
  BufferedFileReader in(path, 4096);
  EXPECT_EQ(in.read(reread.data(), reread.size()), payload.size());
  EXPECT_EQ(in.read(reread.data(), 1), 0u);  // EOF
  EXPECT_EQ(reread, payload);

  std::vector<std::uint8_t> slurped;
  ASSERT_TRUE(read_file_bytes(path, slurped));
  EXPECT_EQ(slurped.size(), payload.size());
  std::string text;
  ASSERT_TRUE(read_file_text(path, text));
  EXPECT_EQ(text, payload);
  std::filesystem::remove(path);
}

TEST(ByteIo, FileHelpersFailOnMissingFile) {
  std::vector<std::uint8_t> bytes;
  EXPECT_FALSE(read_file_bytes("/nonexistent/path/x.bin", bytes));
  EXPECT_THROW(BufferedFileReader("/nonexistent/path/x.bin"),
               std::runtime_error);
  EXPECT_THROW(BufferedFileWriter("/nonexistent/dir/x.bin"),
               std::runtime_error);
}

// A write that fails must throw, whether the bytes fail on their way out
// of the buffer (flush) or only at close.  /dev/full takes the open and
// refuses every write with ENOSPC.
TEST(ByteIo, WriteErrorsThrowOnFullDevice) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this system";
  const std::string payload(100, 'x');
  {
    BufferedFileWriter out("/dev/full");
    out.write(payload.data(), payload.size());
    EXPECT_THROW(out.flush(), std::runtime_error);
  }
  {
    BufferedFileWriter out("/dev/full");
    out.write(payload.data(), payload.size());
    EXPECT_THROW(out.close(), std::runtime_error);
  }
  {
    FileWriter out("/dev/full");
    EXPECT_THROW(out.write(payload.data(), payload.size()),
                 std::runtime_error);
    EXPECT_NO_THROW(out.close());  // nothing left pending
  }
}

TEST(ByteIo, FileWriterWritesThrough) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mmlab_filewriter_test.bin")
          .string();
  const std::string payload = "block body bytes";
  {
    FileWriter out(path);
    out.write(payload.data(), payload.size());
    out.write(payload.data(), 0);
    EXPECT_EQ(out.bytes_written(), payload.size());
    // Unbuffered: the bytes are in the file before close.
    EXPECT_EQ(std::filesystem::file_size(path), payload.size());
    out.close();
    out.close();  // idempotent
  }
  std::string text;
  ASSERT_TRUE(read_file_text(path, text));
  EXPECT_EQ(text, payload);
  std::filesystem::remove(path);
}

// --- fast varint vs reference oracle ------------------------------------------
//
// varint() takes a SWAR fast path whenever >= 10 bytes remain; the sweep
// drives both decoders over every encoded length, misalignment, truncation
// and an over-long tail, asserting identical values, identical exceptions
// and identical final positions.

/// Decode one varint with both decoders from `offset` in `buf`; assert the
/// outcomes (value-or-throw, plus final position) are bit-identical.
void expect_decoders_agree(const std::vector<std::uint8_t>& buf,
                           std::size_t offset) {
  ByteReader fast(buf.data() + offset, buf.size() - offset);
  ByteReader ref(buf.data() + offset, buf.size() - offset);
  std::uint64_t fast_value = 0, ref_value = 0;
  bool fast_threw = false, ref_threw = false;
  try {
    fast_value = fast.varint();
  } catch (const ByteUnderflow&) {
    fast_threw = true;
  }
  try {
    ref_value = ref.varint_reference();
  } catch (const ByteUnderflow&) {
    ref_threw = true;
  }
  ASSERT_EQ(fast_threw, ref_threw) << "offset " << offset;
  if (!fast_threw) {
    EXPECT_EQ(fast_value, ref_value) << "offset " << offset;
    EXPECT_EQ(fast.position(), ref.position()) << "offset " << offset;
  }
}

TEST(ByteIo, VarintFastPathMatchesReferenceAtEveryLength) {
  // One value per encoded length 1..10, each decoded at alignments 0..7
  // (the SWAR word load must not care where the varint starts).
  for (int len = 1; len <= 10; ++len) {
    const std::uint64_t v =
        len == 10 ? std::numeric_limits<std::uint64_t>::max()
                  : (std::uint64_t{1} << (7 * len)) - 1;
    ByteWriter w;
    w.varint(v);
    ASSERT_EQ(w.size(), static_cast<std::size_t>(len)) << v;
    for (std::size_t align = 0; align < 8; ++align) {
      std::vector<std::uint8_t> buf(align, 0xAA);
      buf.insert(buf.end(), w.buffer().begin(), w.buffer().end());
      buf.resize(buf.size() + 16, 0x55);  // slack: keep the fast path armed
      ByteReader r(buf.data() + align, buf.size() - align);
      EXPECT_EQ(r.varint(), v) << "len " << len << " align " << align;
      EXPECT_EQ(r.position(), static_cast<std::size_t>(len));
      expect_decoders_agree(buf, align);
    }
  }
}

TEST(ByteIo, VarintTruncationsMatchReference) {
  // Every proper prefix of every encoded length must throw from both
  // decoders — including prefixes long enough that the fast path would
  // have engaged had the buffer not ended.
  for (int len = 2; len <= 10; ++len) {
    const std::uint64_t v =
        len == 10 ? std::numeric_limits<std::uint64_t>::max()
                  : (std::uint64_t{1} << (7 * len)) - 1;
    ByteWriter w;
    w.varint(v);
    for (std::size_t keep = 0; keep + 1 < w.size(); ++keep) {
      std::vector<std::uint8_t> buf(w.buffer().begin(),
                                    w.buffer().begin() + keep + 1);
      buf.back() |= 0x80;  // ensure the cut byte still continues
      expect_decoders_agree(buf, 0);
      ByteReader r(buf);
      EXPECT_THROW(r.varint(), ByteUnderflow) << "len " << len;
    }
  }
}

TEST(ByteIo, VarintOverlongMatchesReference) {
  // 10 continuation bytes then more: unrepresentable in 64 bits.  Pad so
  // the fast path sees a full window and still must reject.
  std::vector<std::uint8_t> buf(16, 0xFF);
  expect_decoders_agree(buf, 0);
  ByteReader r(buf);
  EXPECT_THROW(r.varint(), ByteUnderflow);
}

TEST(ByteIo, VarintRandomStreamsMatchReference) {
  // Mixed-magnitude random streams decoded twice, once per decoder, with
  // positions compared after every value.  Magnitudes are skewed across
  // the full 1..10 byte range so every SWAR compaction step fires.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 20; ++trial) {
    ByteWriter w;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 500; ++i) {
      const int bits = 1 + static_cast<int>(next() % 64);
      const std::uint64_t v = next() >> (64 - bits);
      values.push_back(v);
      w.varint(v);
    }
    ByteReader fast(w.buffer());
    ByteReader ref(w.buffer());
    for (const std::uint64_t v : values) {
      EXPECT_EQ(fast.varint(), v);
      EXPECT_EQ(ref.varint_reference(), v);
      ASSERT_EQ(fast.position(), ref.position());
    }
    EXPECT_EQ(fast.remaining(), 0u);
  }
}

TEST(ByteIo, OneByteVarintAtEveryPositionMatchesReference) {
  // varint() reads a one-byte varint straight from its byte, before the
  // word scan.  Put one at every position of short buffers (where the
  // 10-byte window is never armed near the end), its last byte included,
  // beside continuation bytes that must still go to the slow path: value,
  // position and error must match the reference.
  for (std::size_t size = 1; size <= 12; ++size) {
    for (std::size_t pos = 0; pos < size; ++pos) {
      for (const std::uint8_t byte : {0x00, 0x01, 0x5A, 0x7F, 0x80, 0xFF}) {
        std::vector<std::uint8_t> buf(size, 0x81);
        buf[pos] = byte;
        if (pos + 1 < size) buf.back() = 0x05;  // ends any continuation
        expect_decoders_agree(buf, pos);
        if (byte < 0x80) {
          ByteReader r(buf.data() + pos, size - pos);
          EXPECT_EQ(r.varint(), byte) << "size " << size << " pos " << pos;
          EXPECT_EQ(r.position(), 1u);
        }
      }
    }
  }
}

TEST(Crc, IncrementalMatchesOneShot) {
  const std::uint8_t data[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::uint16_t state = kCrc16CcittInit;
  state = crc16_ccitt_update(state, data, 3);
  state = crc16_ccitt_update(state, data + 3, 6);
  EXPECT_EQ(crc16_ccitt_finalize(state), crc16_ccitt(data, sizeof(data)));
}

}  // namespace
}  // namespace mmlab
