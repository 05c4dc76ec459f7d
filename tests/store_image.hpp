// A store held in memory, for the store fuzz suites: its manifest and
// shard files as bytes, rewritten to disk per mutant with every length,
// offset and CRC recomputed (StoreImage), and a walk of a block body's
// cells and entries as the codec lays them out (BodyMap).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "mmlab/store/cell_codec.hpp"
#include "mmlab/store/mmds2.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/crc.hpp"

namespace mmlab::test {

/// A store held in memory: manifest plus shard files, rewritten to disk per
/// mutant with every length, offset and CRC recomputed.
struct StoreImage {
  store::Manifest manifest;
  std::vector<std::vector<std::uint8_t>> shards;  ///< full files

  static StoreImage read(const std::string& dir) {
    StoreImage img;
    auto m = store::read_manifest(dir);
    EXPECT_TRUE(m.ok()) << m.error_message();
    img.manifest = m.value();
    for (const auto& shard : img.manifest.shards) {
      img.shards.emplace_back();
      EXPECT_TRUE(read_file_bytes(
          (std::filesystem::path(dir) / shard.filename).string(),
          img.shards.back()));
    }
    return img;
  }
  std::vector<std::uint8_t> body(std::size_t s, std::size_t b) const {
    const store::BlockInfo& info = manifest.shards[s].blocks[b];
    const auto first = shards[s].begin() + static_cast<long>(info.offset);
    return {first, first + static_cast<long>(info.length)};
  }
  /// Replace one block body; offsets, sizes and CRCs follow.
  void set_body(std::size_t s, std::size_t b,
                const std::vector<std::uint8_t>& body) {
    std::vector<std::uint8_t> file(
        shards[s].begin(), shards[s].begin() + sizeof(store::kShardMagic));
    auto& blocks = manifest.shards[s].blocks;
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      const auto bytes = k == b ? body : this->body(s, k);
      blocks[k].offset = file.size();
      blocks[k].length = bytes.size();
      blocks[k].crc16 = crc16_ccitt(bytes.data(), bytes.size());
      file.insert(file.end(), bytes.begin(), bytes.end());
    }
    shards[s] = std::move(file);
    manifest.shards[s].file_size = shards[s].size();
    manifest.shards[s].crc16 = crc16_ccitt(shards[s].data(), shards[s].size());
  }
  void write(const std::string& dir) const {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      FileWriter out(
          (std::filesystem::path(dir) / manifest.shards[s].filename).string());
      out.write(shards[s].data(), shards[s].size());
      out.close();
    }
    store::write_manifest(dir, manifest);
  }
};

/// Where each cell and entry of a block body starts, walked as the codec
/// lays it out (stops quietly at damage).
struct BodyMap {
  struct Cell {
    std::size_t count_at = 0, count_len = 0;  ///< the n_obs varint
    std::uint64_t n = 0;
    std::vector<std::size_t> entries;  ///< entry starts, then the cell end
    std::vector<bool> marker;          ///< per entry
  };
  std::vector<Cell> cells;

  explicit BodyMap(const std::vector<std::uint8_t>& body) {
    ByteReader r(body.data(), body.size());
    try {
      while (r.remaining() > 0) {
        Cell c;
        (void)r.varint();
        (void)r.u8();
        (void)r.varint();
        (void)r.f64le();
        (void)r.f64le();
        c.count_at = r.position();
        c.n = r.varint();
        c.count_len = r.position() - c.count_at;
        for (std::uint64_t i = 0; i < c.n; ++i) {
          c.entries.push_back(r.position());
          (void)r.svarint();
          const bool marker = r.varint() == store::kRepeatMarker;
          c.marker.push_back(marker);
          if (!marker) {
            (void)r.f64le();
            (void)r.svarint();
          }
        }
        c.entries.push_back(r.position());
        cells.push_back(std::move(c));
      }
    } catch (const std::exception&) {
    }
  }
};

}  // namespace mmlab::test
