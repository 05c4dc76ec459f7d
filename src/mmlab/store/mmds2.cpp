#include "mmlab/store/mmds2.hpp"

#include <cstring>
#include <filesystem>

#include "mmlab/util/byteio.hpp"
#include "mmlab/util/crc.hpp"

namespace mmlab::store {

namespace {

/// Flags byte: bit 0 = per-block extras, the only layout there is; bit 1 =
/// the block bodies hold repeat markers.
constexpr std::uint8_t kManifestFlags = 0x01;
constexpr std::uint8_t kRepeatsFlag = 0x02;

std::string manifest_path(const std::string& dir) {
  return (std::filesystem::path(dir) / kMmds2ManifestName).string();
}

}  // namespace

bool is_store(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_directory(path, ec) &&
         std::filesystem::exists(manifest_path(path), ec);
}

std::uint64_t Manifest::total_rows() const {
  std::uint64_t n = 0;
  for (const auto& s : shards)
    for (const auto& b : s.blocks) n += b.row_count;
  return n;
}

std::uint64_t Manifest::total_blocks() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.blocks.size();
  return n;
}

void write_manifest(const std::string& dir, const Manifest& m) {
  ByteWriter w;
  w.raw(kMmdsMagic, sizeof(kMmdsMagic));
  w.u8(kMmds2Version);
  w.u8(m.repeats ? kManifestFlags | kRepeatsFlag : kManifestFlags);
  w.varint(m.carriers.size());
  for (const auto& c : m.carriers) w.str(c);
  w.varint(m.params.size());
  for (const auto& p : m.params) w.str(p);
  w.varint(m.shards.size());
  for (const auto& s : m.shards) {
    w.str(s.filename);
    w.varint(s.file_size);
    w.u16le(s.crc16);
    w.varint(s.blocks.size());
    for (const auto& b : s.blocks) {
      w.varint(b.carrier_index);
      w.varint(b.offset);
      w.varint(b.length);
      w.varint(b.cell_count);
      w.varint(b.row_count);
      w.u16le(b.crc16);
      w.varint(b.first_cell);
      w.varint(b.last_cell);
    }
  }

  BufferedFileWriter out(manifest_path(dir));
  out.write(w.buffer().data(), w.buffer().size());
  const std::uint16_t crc = out.crc16();
  const std::uint8_t trailer[2] = {static_cast<std::uint8_t>(crc & 0xFF),
                                   static_cast<std::uint8_t>(crc >> 8)};
  out.write(trailer, sizeof(trailer));
  out.close();
}

Result<Manifest> read_manifest(const std::string& dir) {
  using R = Result<Manifest>;
  std::vector<std::uint8_t> bytes;
  if (!read_file_bytes(manifest_path(dir), bytes))
    return R::error("read_manifest: cannot open " + manifest_path(dir));
  if (bytes.size() < sizeof(kMmdsMagic) + 2 + 2)
    return R::error("read_manifest: file too small for a manifest header");
  if (std::memcmp(bytes.data(), kMmdsMagic, sizeof(kMmdsMagic)) != 0)
    return R::error("read_manifest: bad magic (not an MMDS manifest)");
  if (bytes[4] != kMmds2Version)
    return R::error("read_manifest: unsupported version " +
                    std::to_string(bytes[4]) + " (expected " +
                    std::to_string(kMmds2Version) + ")");
  // Same policy as the version byte: the flags select the layout, and
  // this reader knows per-block extras (0x01) with or without repeat
  // markers (0x02).
  if ((bytes[5] & ~kRepeatsFlag) != kManifestFlags)
    return R::error("read_manifest: unsupported flags " +
                    std::to_string(bytes[5]) + " (expected " +
                    std::to_string(kManifestFlags) + " or " +
                    std::to_string(kManifestFlags | kRepeatsFlag) + ")");
  const std::size_t size = bytes.size();
  const std::uint16_t stored_crc = static_cast<std::uint16_t>(
      bytes[size - 2] | (static_cast<std::uint16_t>(bytes[size - 1]) << 8));
  if (crc16_ccitt(bytes.data(), size - 2) != stored_crc)
    return R::error(
        "read_manifest: CRC mismatch (manifest truncated or corrupted)");

  try {
    ByteReader r(bytes.data(), size - 2);
    r.skip(sizeof(kMmdsMagic) + 2);
    Manifest m;
    m.repeats = (bytes[5] & kRepeatsFlag) != 0;
    m.carriers.resize(r.count("carrier table"));
    for (auto& c : m.carriers) c = std::string(r.str());
    m.params.resize(r.count("param table"));
    for (auto& p : m.params) p = std::string(r.str());
    m.shards.resize(r.count("shard table"));
    for (auto& s : m.shards) {
      s.filename = std::string(r.str());
      if (s.filename.empty() ||
          s.filename.find('/') != std::string::npos ||
          s.filename.find('\\') != std::string::npos)
        return R::error("read_manifest: shard filename escapes the store: " +
                        s.filename);
      s.file_size = r.varint();
      s.crc16 = r.u16le();
      s.blocks.resize(r.count("block table"));
      std::uint64_t cursor = sizeof(kShardMagic);
      for (auto& b : s.blocks) {
        const std::uint64_t carrier_index = r.varint();
        if (carrier_index >= m.carriers.size())
          return R::error("read_manifest: carrier index out of range");
        b.carrier_index = static_cast<std::uint32_t>(carrier_index);
        b.offset = r.varint();
        b.length = r.varint();
        b.cell_count = r.varint();
        b.row_count = r.varint();
        b.crc16 = r.u16le();
        const std::uint64_t first = r.varint();
        const std::uint64_t last = r.varint();
        if (first > last || last > 0xFFFFFFFFull)
          return R::error("read_manifest: bad block cell-id range in " +
                          s.filename);
        b.first_cell = static_cast<std::uint32_t>(first);
        b.last_cell = static_cast<std::uint32_t>(last);
        // Blocks are written back to back; the manifest must agree, or the
        // offsets were corrupted in a way the CRC (of the manifest, not the
        // shard) cannot see.
        if (b.offset != cursor || b.offset + b.length > s.file_size)
          return R::error("read_manifest: block offsets inconsistent in " +
                          s.filename);
        cursor = b.offset + b.length;
      }
      if (cursor != s.file_size)
        return R::error("read_manifest: shard size disagrees with blocks: " +
                        s.filename);
    }
    if (r.remaining() != 0)
      return R::error("read_manifest: trailing bytes after shard table");
    return m;
  } catch (const std::exception& e) {
    return R::error("read_manifest: " + std::string(e.what()));
  }
}

}  // namespace mmlab::store
