// Implausible table counts in the two MMDS decoders.  A CRC-valid input
// may still declare a carrier, param, shard or block table far larger than
// the bytes that follow; both decoders must reject the count itself, with
// an error naming the table, before allocating anything in proportion to
// it (the MMDS v1 loader has carrier and param tables, the v2 manifest
// has all four).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "mmlab/core/dataset_io.hpp"
#include "mmlab/store/mmds2.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/crc.hpp"

namespace mmlab {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kCounts[] = {std::uint64_t{1} << 26,
                                     std::uint64_t{1} << 40};

/// Header bytes (magic, version, flags) of either format.
ByteWriter header(std::uint8_t version, std::uint8_t flags) {
  ByteWriter w;
  w.raw(core::kMmdsMagic, sizeof(core::kMmdsMagic));
  w.u8(version);
  w.u8(flags);
  return w;
}

/// Appends the CRC-16 trailer both formats end with.
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

TEST(DatasetBinaryCounts, ImplausibleTableCountsAreRejectedByName) {
  for (const std::uint64_t count : kCounts) {
    for (const std::string table : {"carrier table", "param table"}) {
      ByteWriter w = header(core::kMmdsVersion, 0);
      if (table == "param table") w.varint(0);  // empty carrier table
      w.varint(count);
      const auto bytes = with_crc(w);
      core::ConfigDatabase db;
      const auto r = core::load_dataset_binary(bytes.data(), bytes.size(), db);
      ASSERT_FALSE(r.ok()) << table << " " << count;
      EXPECT_NE(r.error_message().find(expected_error(table, count)),
                std::string::npos)
          << r.error_message();
    }
  }
}

TEST(StoreManifestCounts, ImplausibleTableCountsAreRejectedByName) {
  const fs::path dir = fs::path(::testing::TempDir()) / "mmlab_table_counts";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const std::uint64_t count : kCounts) {
    for (const std::string table :
         {"carrier table", "param table", "shard table", "block table"}) {
      ByteWriter w = header(core::kMmds2Version, 0x01);
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
        BufferedFileWriter out((dir / core::kMmds2ManifestName).string());
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
