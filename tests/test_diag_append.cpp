// Writer::append (stack header, chained CRC, one resize) against
// append_reference, the frame-at-a-time loop it replaced.  Records are drawn
// so that every field that reaches the wire — log code, timestamp, length,
// payload and the CRC itself — often holds the two bytes framing must escape
// (0x7E, 0x7D).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mmlab/diag/log.hpp"
#include "mmlab/util/crc.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::diag {
namespace {

bool is_special(std::uint8_t b) { return b == 0x7E || b == 0x7D; }

std::uint8_t biased_byte(Rng& rng) {
  if (rng.chance(0.4))
    return rng.chance(0.5) ? std::uint8_t{0x7E} : std::uint8_t{0x7D};
  return static_cast<std::uint8_t>(rng.below(256));
}

std::uint64_t biased_word(Rng& rng, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(biased_byte(rng)) << (8 * i);
  return v;
}

// The frame CRC the writer will compute for `rec`.
std::uint16_t frame_crc(const Record& rec) {
  std::vector<std::uint8_t> body;
  const auto put = [&body](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) body.push_back((v >> (8 * i)) & 0xFF);
  };
  put(static_cast<std::uint16_t>(rec.code), 2);
  put(static_cast<std::uint64_t>(rec.timestamp.ms), 8);
  put(rec.payload.size(), 2);
  body.insert(body.end(), rec.payload.begin(), rec.payload.end());
  return crc16_ccitt(body.data(), body.size());
}

Record random_record(Rng& rng) {
  static constexpr std::size_t kSpecialLengths[] = {0x7D,  0x7E,   0x17D,
                                                    0x27E, 0x7D7E, 0x7E7D};
  Record rec;
  rec.code = static_cast<LogCode>(biased_word(rng, 2));
  rec.timestamp = SimTime{static_cast<std::int64_t>(biased_word(rng, 8))};
  const std::size_t size = rng.chance(0.15)
                               ? kSpecialLengths[rng.below(6)]
                               : static_cast<std::size_t>(rng.below(300));
  rec.payload.resize(size);
  for (auto& b : rec.payload) b = biased_byte(rng);
  // Half the time, pick the last payload byte so a CRC byte needs escaping.
  if (size > 0 && rng.chance(0.5)) {
    for (int last = 0; last < 256; ++last) {
      rec.payload.back() = static_cast<std::uint8_t>(last);
      const std::uint16_t crc = frame_crc(rec);
      if (is_special(crc & 0xFF) || is_special(crc >> 8)) break;
    }
  }
  return rec;
}

TEST(Diag, AppendMatchesReferenceOnSpecialBytes) {
  Rng rng(0x7E7D);
  Writer fast;
  Writer reference;
  std::vector<Record> records;
  std::size_t special_crcs = 0;
  for (int i = 0; i < 800; ++i) {
    const Record rec = random_record(rng);
    const std::uint16_t crc = frame_crc(rec);
    special_crcs += is_special(crc & 0xFF) || is_special(crc >> 8);
    if (i % 2 == 0)
      fast.append(rec);
    else
      fast.append(rec.code, rec.timestamp, rec.payload.data(),
                  rec.payload.size());
    reference.append_reference(rec);
    records.push_back(rec);
  }
  EXPECT_GT(special_crcs, 200u);
  EXPECT_EQ(fast.record_count(), reference.record_count());
  ASSERT_EQ(fast.bytes(), reference.bytes());

  Parser parser(fast.bytes());
  EXPECT_EQ(parser.all(), records);
  EXPECT_EQ(parser.stats().records, records.size());
  EXPECT_EQ(parser.stats().crc_failures, 0u);
  EXPECT_EQ(parser.stats().malformed, 0u);
}

TEST(Diag, AppendMatchesReferenceOnEmptyAndMaximalPayloads) {
  for (std::size_t size : {std::size_t{0}, std::size_t{0xFFFF}}) {
    Record rec{LogCode::kLteRrcOta, SimTime{0x7E7D7E7D}, {}};
    rec.payload.assign(size, 0x7E);
    Writer fast;
    Writer reference;
    fast.append(rec);
    reference.append_reference(rec);
    EXPECT_EQ(fast.bytes(), reference.bytes()) << size;
  }
  Writer fast;
  const std::vector<std::uint8_t> too_big(0x10000, 0);
  EXPECT_THROW(fast.append(LogCode::kLteRrcOta, SimTime{0}, too_big.data(),
                           too_big.size()),
               std::invalid_argument);
  EXPECT_TRUE(fast.bytes().empty());
}

}  // namespace
}  // namespace mmlab::diag
