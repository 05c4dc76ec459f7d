#include <gtest/gtest.h>

#include "mmlab/util/crc.hpp"
#include "mmlab/util/table.hpp"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "mmlab/util/rng.hpp"

namespace mmlab {
namespace {

TEST(Crc, KnownVector) {
  // CRC-16/X-25 check value for "123456789".
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(data, sizeof(data)), 0x906E);
}

TEST(Crc, EmptyInput) {
  EXPECT_EQ(crc16_ccitt(nullptr, 0), 0x0000);  // init ^ final-xor
}

TEST(Crc, SingleBitChangesChecksum) {
  std::uint8_t data[32];
  for (std::size_t i = 0; i < sizeof(data); ++i)
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  const auto base = crc16_ccitt(data, sizeof(data));
  for (std::size_t i = 0; i < sizeof(data); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(crc16_ccitt(data, sizeof(data)), base) << "byte " << i;
    data[i] ^= 0x01;
  }
}

TEST(Crc, SliceBy8MatchesBytewiseOracle) {
  // The shipped update is slice-by-8; the byte-at-a-time table walk is the
  // oracle.  Sweep every length 0..128 (all head/tail cases around the
  // 8-byte round) and random offsets — every alignment mod 8 — from random
  // intermediate states (chunked streaming never starts at the init value).
  Rng rng(0xc3c1);
  std::vector<std::uint8_t> buf(4096);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
  for (std::size_t len = 0; len <= 128; ++len) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto off = static_cast<std::size_t>(rng.below(buf.size() - 128));
      const auto state = static_cast<std::uint16_t>(rng.below(0x10000));
      EXPECT_EQ(crc16_ccitt_update(state, buf.data() + off, len),
                crc16_ccitt_update_reference(state, buf.data() + off, len))
          << "len " << len << " off " << off << " state " << state;
    }
  }
}

TEST(Crc, SliceBy8EveryAlignmentAndTail) {
  // Deterministic alignment grid: every (start mod 8, length mod 8)
  // combination across several round counts, so no alignment/tail pair of
  // the 8-byte main loop goes untested.
  Rng rng(0xc3c3);
  std::vector<std::uint8_t> buf(1024);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t tail = 0; tail < 8; ++tail) {
      for (std::size_t rounds : {0u, 1u, 2u, 7u, 64u}) {
        const std::size_t len = 8 * rounds + tail;
        ASSERT_LE(align + len, buf.size());
        EXPECT_EQ(
            crc16_ccitt_update(kCrc16CcittInit, buf.data() + align, len),
            crc16_ccitt_update_reference(kCrc16CcittInit, buf.data() + align,
                                         len))
            << "align " << align << " len " << len;
      }
    }
  }
}

TEST(Crc, SliceBy8MatchesOracleOnLongRandomBuffers) {
  Rng rng(0xc3c2);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<std::uint8_t> buf(1 + rng.below(100'000));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_EQ(
        crc16_ccitt_update(kCrc16CcittInit, buf.data(), buf.size()),
        crc16_ccitt_update_reference(kCrc16CcittInit, buf.data(), buf.size()));
  }
}

TEST(Crc, CombineMatchesConcatenation) {
  // crc16_ccitt_combine(crc(A), crc(B), |B|) == crc(A||B): every split of
  // small buffers (lengths 0, 1, 7, 8, 9 on either side), random splits of
  // buffers up to 1 MB, and chains folding many blocks the way the shard
  // writer folds its block CRCs onto the magic's.
  Rng rng(0xc3c4);
  std::vector<std::uint8_t> buf(1u << 20);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
  const auto crc = [&](std::size_t off, std::size_t len) {
    return crc16_ccitt(buf.data() + off, len);
  };
  for (std::size_t a : {0u, 1u, 7u, 8u, 9u})
    for (std::size_t b : {0u, 1u, 7u, 8u, 9u})
      EXPECT_EQ(crc16_ccitt_combine(crc(0, a), crc(a, b), b), crc(0, a + b))
          << "a " << a << " b " << b;
  for (int trial = 0; trial < 200; ++trial) {
    const auto total = static_cast<std::size_t>(rng.below(buf.size() + 1));
    const auto a = static_cast<std::size_t>(rng.below(total + 1));
    EXPECT_EQ(crc16_ccitt_combine(crc(0, a), crc(a, total - a), total - a),
              crc(0, total))
        << "a " << a << " total " << total;
  }
  for (int chain = 0; chain < 8; ++chain) {
    std::size_t pos = static_cast<std::size_t>(rng.below(9));
    std::uint16_t folded = crc(0, pos);
    for (int block = 0; block < 200; ++block) {
      const auto len = static_cast<std::size_t>(
          rng.below(chain % 2 ? 10 : 4000));
      if (pos + len > buf.size()) break;
      folded = crc16_ccitt_combine(folded, crc(pos, len), len);
      pos += len;
    }
    EXPECT_EQ(folded, crc(0, pos)) << "chain " << chain;
  }
}

// --- the dispatched update: carry-less-multiply kernel + slice-by-8 --------
//
// crc16_ccitt_update sends long inputs to the PCLMULQDQ kernel where the
// CPU has it and everything else to slice-by-8, which is also called by
// name here so the portable path stays tested on every CPU.

/// Random bytes from `seed`.
std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> buf(size);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
  return buf;
}

TEST(Crc, DispatchAndSliceBy8MatchOracleAtEveryLengthAndAlignment) {
  // Every length 0..1,100 covers the short path, the threshold, the
  // single-lane and four-lane folds and every tail, at every start
  // alignment mod 16, each from its own random state.
  Rng rng(0xc3d1);
  const auto buf = random_bytes(1100 + 16, 0xc3d2);
  for (std::size_t len = 0; len <= 1100; ++len) {
    for (std::size_t align = 0; align < 16; ++align) {
      const auto state = static_cast<std::uint16_t>(rng.below(0x10000));
      const std::uint8_t* p = buf.data() + align;
      const auto want = crc16_ccitt_update_reference(state, p, len);
      ASSERT_EQ(crc16_ccitt_update(state, p, len), want)
          << "len " << len << " align " << align << " state " << state;
      ASSERT_EQ(crc16_ccitt_update_slice8(state, p, len), want)
          << "len " << len << " align " << align << " state " << state;
    }
  }
}

TEST(Crc, DispatchMatchesOracleOnMebibyteInputs) {
  for (const std::size_t mib : {1u, 8u, 9u}) {
    const auto buf = random_bytes(mib << 20, 0xc3d3 + mib);
    for (const std::uint16_t state : {kCrc16CcittInit, std::uint16_t{0x1D0F}})
      EXPECT_EQ(crc16_ccitt_update(state, buf.data(), buf.size()),
                crc16_ccitt_update_reference(state, buf.data(), buf.size()))
          << mib << " MiB, state " << state;
  }
}

TEST(Crc, CheckValueThroughEveryPath) {
  // "123456789" -> 0x906E (CRC-16/X.25).  To reach the kernel with it,
  // prefix k zero bytes (state 0 stays 0) and the two bytes that take
  // state 0 to the init value, then the check string: run from state 0,
  // the whole buffer must still finalize to 0x906E.
  const std::string check = "123456789";
  const auto* check_bytes = reinterpret_cast<const std::uint8_t*>(check.data());
  const auto paths = {&crc16_ccitt_update, &crc16_ccitt_update_slice8,
                      &crc16_ccitt_update_reference};
  for (const auto path : paths)
    EXPECT_EQ(crc16_ccitt_finalize(
                  path(kCrc16CcittInit, check_bytes, check.size())),
              0x906E);
  std::uint8_t to_init[2] = {0, 0};
  for (std::uint32_t v = 0; v < 0x10000; ++v) {
    const std::uint8_t pair[2] = {static_cast<std::uint8_t>(v),
                                  static_cast<std::uint8_t>(v >> 8)};
    if (crc16_ccitt_update_reference(0, pair, 2) == kCrc16CcittInit) {
      to_init[0] = pair[0];
      to_init[1] = pair[1];
      break;
    }
  }
  ASSERT_EQ(crc16_ccitt_update_reference(0, to_init, 2), kCrc16CcittInit);
  for (const std::size_t zeros : {0u, 5u, 37u, 53u, 64u, 117u, 1000u, 4099u}) {
    std::vector<std::uint8_t> buf(zeros, 0);
    buf.insert(buf.end(), to_init, to_init + 2);
    buf.insert(buf.end(), check_bytes, check_bytes + check.size());
    for (const auto path : paths)
      EXPECT_EQ(crc16_ccitt_finalize(path(0, buf.data(), buf.size())), 0x906E)
          << "buffer of " << buf.size() << " bytes";
  }
}

TEST(Crc, CombineAndChainingSplitAtEveryOffsetAcrossFoldBoundaries) {
  // A message of 200 bytes spans the 64- and 128-byte fold boundaries;
  // split it at every offset and join the halves both ways.
  const auto buf = random_bytes(200, 0xc3d4);
  const auto whole = crc16_ccitt(buf.data(), buf.size());
  for (std::size_t a = 0; a <= buf.size(); ++a) {
    const std::size_t b = buf.size() - a;
    EXPECT_EQ(crc16_ccitt_combine(crc16_ccitt(buf.data(), a),
                                  crc16_ccitt(buf.data() + a, b), b),
              whole)
        << "split " << a;
    const auto state = crc16_ccitt_update(kCrc16CcittInit, buf.data(), a);
    EXPECT_EQ(crc16_ccitt_finalize(crc16_ccitt_update(state, buf.data() + a, b)),
              whole)
        << "split " << a;
  }
}

TEST(Table, RejectsArityMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, CsvEscaping) {
  TablePrinter t({"name", "value"});
  t.add_row({"has,comma", "has\"quote"});
  const std::string path = ::testing::TempDir() + "/mmlab_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "name,value");
  EXPECT_EQ(row, "\"has,comma\",\"has\"\"quote\"");
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.674, 1), "67.4%");
}

}  // namespace
}  // namespace mmlab
