// Implausible table counts in the MMDS v2 manifest decoder.  A CRC-valid
// manifest may still declare a carrier, param, shard or block table far
// larger than the bytes that follow; the decoder must reject the count
// itself, with an error naming the table, before allocating anything in
// proportion to it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "mmlab/store/mmds2.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/crc.hpp"

namespace mmlab {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kCounts[] = {std::uint64_t{1} << 26,
                                     std::uint64_t{1} << 40};

/// Manifest header bytes (magic, version, flags).
ByteWriter header(std::uint8_t version, std::uint8_t flags) {
  ByteWriter w;
  w.raw(store::kMmdsMagic, sizeof(store::kMmdsMagic));
  w.u8(version);
  w.u8(flags);
  return w;
}

/// Appends the manifest's CRC-16 trailer.
std::vector<std::uint8_t> with_crc(const ByteWriter& w) {
  std::vector<std::uint8_t> bytes = w.buffer();
  const std::uint16_t crc = crc16_ccitt(bytes.data(), bytes.size());
  bytes.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  bytes.push_back(static_cast<std::uint8_t>(crc >> 8));
  return bytes;
}

std::string expected_error(const std::string& table, std::uint64_t count) {
  return table + " count " + std::to_string(count) + " exceeds";
}

TEST(StoreManifestCounts, ImplausibleTableCountsAreRejectedByName) {
  const fs::path dir = fs::path(::testing::TempDir()) / "mmlab_table_counts";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const std::uint64_t count : kCounts) {
    for (const std::string table :
         {"carrier table", "param table", "shard table", "block table"}) {
      ByteWriter w = header(store::kMmds2Version, 0x01);
      if (table != "carrier table") w.varint(0);
      if (table == "shard table" || table == "block table") w.varint(0);
      if (table == "block table") {
        w.varint(1);  // one shard, declaring `count` blocks
        w.str("shard-0000.mmds2");
        w.varint(sizeof(store::kShardMagic));  // file size
        w.u16le(0);                            // shard CRC
      }
      w.varint(count);
      const auto bytes = with_crc(w);
      {
        BufferedFileWriter out((dir / store::kMmds2ManifestName).string());
        out.write(bytes.data(), bytes.size());
        out.close();
      }
      const auto r = store::read_manifest(dir.string());
      ASSERT_FALSE(r.ok()) << table << " " << count;
      EXPECT_NE(r.error_message().find(expected_error(table, count)),
                std::string::npos)
          << r.error_message();
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mmlab
