// MMDS v2: the binary dataset format, a sharded out-of-core layout
// (DESIGN.md §11).  This header is its full specification, and the store
// module is the only code that reads or writes it (cells through
// store/cell_codec.hpp, the manifest through the codec below).
//
// A v2 store is a directory:
//
//   <dir>/manifest.mmds2        the only file parsed up front
//   <dir>/shard-0000.mmds2      raw carrier-run payloads
//   <dir>/shard-0001.mmds2      ...
//
// All multi-byte scalars are little-endian; varint = LEB128, svarint =
// zigzag + LEB128, f64 = IEEE-754 bits, str = varint length + bytes.
//
// Shard file layout: an 8-byte magic "MMS2SHRD" followed by concatenated
// *block bodies* — nothing else.  A block body is a run of cells of one
// carrier with ascending cell ids and no leading cell_count or per-block
// framing.  Each cell is encoded as
//
//   varint cell_id | u8 rat | varint channel | f64 x | f64 y | varint n_obs
//   then n_obs entries, in stored order, each an observation:
//     svarint delta_t_ms          vs. the previous entry (first vs. 0)
//     varint  param_index         into the manifest's param table
//     f64     value               raw bits, so every value round-trips
//     svarint context
//   or, only in a store whose manifest sets flags bit 1, a repeat marker:
//     svarint delta_t_ms          vs. the previous entry
//     varint  327680              kRepeatMarker (cell_codec.hpp): one past
//                                 the largest param table a store can hold
//
// Repeats.  A *snapshot* is a maximal run of consecutive equal-t
// observations.  A marker stands for the previous snapshot of the same
// cell run — the run of observations just before it, or what the marker
// just before it stands for — again, at the marker's time: same length,
// keys, value bits and contexts, in the same order.  The writer
// (encode_cell) writes a snapshot that equals the previous one that way as
// a marker, so a cell configured the same at every visit costs one full
// snapshot plus a few bytes per later visit.  A marker never comes first
// in a cell run: every run starts with a full snapshot, and a repeat never
// reaches into another run.  n_obs counts wire entries (observations plus
// markers), so it stays bounded by the bytes left (a marker takes at least
// 4 bytes, an observation at least 11).  Every row count outside the cell
// body counts *expanded* rows, as if each marker were its snapshot's
// observations again: the manifest's row_count, WriteStats::rows, and
// CellScan::rows.
//
// Amplification bound.  A marker of 4 bytes may stand for a snapshot of
// any length, so a body can claim far more rows than it has bytes.  No
// reader materializes a marker's rows before checking the block's running
// expanded row count against the manifest's row_count: load_database
// expands (or keeps as CellRecord::repeats) at most row_count rows per
// block, the direct fold checks the same sum as it decodes and expands
// only what it must (DESIGN.md §12), and a body that claims more fails the
// read.  Distinct observations stay bounded by the body (11 bytes each),
// and a marker costs one 32-byte Repeat record while its cell is decoded.
//
// Every structural fact (owning carrier, byte offset, byte length, cell
// count, row count) lives in the manifest, so the writer streams cells
// straight to disk in a single pass and a reader can map a shard and jump
// to any block without scanning.
//
// Manifest layout:
//
//   [4]  magic "MMDS"
//   [1]  version (= 2)
//   [1]  flags (0x01 or 0x03: bit 0 = per-block extras present, always
//        set; bit 1 = some block body holds a repeat marker)
//   carrier table: varint N, then N strings        first-seen order
//   param table:   varint P, then P registry names  first-seen order
//   varint shard_count, then per shard:
//     str    filename             relative to the store directory
//     varint file_size            bytes, magic included
//     u16le  crc16                CRC-16/CCITT of the whole shard file
//     varint block_count, then per block:
//       varint carrier_index
//       varint offset             into the shard file (>= 8, past the magic)
//       varint length             block body bytes
//       varint cell_count
//       varint row_count          observations, markers expanded
//       u16le  crc16              CRC-16/CCITT of the block body alone
//       varint first_cell         lowest cell id in the block
//       varint last_cell          highest cell id in the block
//   [2]  CRC-16/CCITT over every preceding manifest byte
//
// Versioning policy: the version byte bumps on any layout change, and
// readers reject versions they don't know.  The flags byte must be 0x01 or
// 0x03; any other value (an unknown bit, or bit 0 cleared by a writer that
// predates the extras) is rejected with an error naming it.  The writer
// sets bit 1 only when it wrote at least one marker, so a store without
// repeats keeps the plain encoding's bytes exactly, and a reader that
// predates markers refuses a store with them at the manifest.  Readers
// reject a marker in a store whose bit 1 is clear.  The per-block
// extras let the direct-fold query path checksum each block right before
// parsing it (mid-fold corruption rejection without a whole-store verify
// pass) and bound its merge window by cell-id range.  Every table count is
// checked against the bytes left before anything is allocated for it.
// A cell may appear in many blocks (each flush of the streaming writer
// emits a new run); readers merge runs under the ConfigDatabase::merge
// contract, in (shard, block) manifest order, which keeps every downstream
// result independent of chunking and thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmlab/util/result.hpp"

namespace mmlab::store {

inline constexpr std::uint8_t kMmdsMagic[4] = {'M', 'M', 'D', 'S'};
inline constexpr std::uint8_t kMmds2Version = 2;
/// Name of the manifest file inside a store directory.
inline constexpr char kMmds2ManifestName[] = "manifest.mmds2";

inline constexpr std::uint8_t kShardMagic[8] = {'M', 'M', 'S', '2',
                                                'S', 'H', 'R', 'D'};

struct BlockInfo {
  std::uint32_t carrier_index = 0;
  std::uint64_t offset = 0;  ///< into the shard file, past the magic
  std::uint64_t length = 0;
  std::uint64_t cell_count = 0;
  std::uint64_t row_count = 0;
  std::uint16_t crc16 = 0;        ///< CRC-16/CCITT of the block body alone
  std::uint32_t first_cell = 0;   ///< lowest cell id in the block
  std::uint32_t last_cell = 0;    ///< highest cell id in the block

  /// The block's cell-id range intersects [min_cell, max_cell].  A
  /// non-overlapping block cannot contain any in-range cell (ids within a
  /// block lie inside [first_cell, last_cell]), so a range query may skip
  /// it entirely.
  bool overlaps(std::uint32_t min_cell, std::uint32_t max_cell) const {
    return last_cell >= min_cell && first_cell <= max_cell;
  }
};

struct ShardInfo {
  std::string filename;  ///< relative to the store directory
  std::uint64_t file_size = 0;
  std::uint16_t crc16 = 0;  ///< finalized CRC of the whole file
  std::vector<BlockInfo> blocks;
};

struct Manifest {
  /// Flags bit 1: some cell run holds a repeat marker.  A store without
  /// one leaves it clear, so its bytes are the plain encoding's.
  bool repeats = false;
  std::vector<std::string> carriers;  ///< first-seen order
  std::vector<std::string> params;    ///< registry names, first-seen order
  std::vector<ShardInfo> shards;

  std::uint64_t total_rows() const;
  std::uint64_t total_blocks() const;
};

/// True for a directory that holds a manifest.mmds2 — the format sniff every
/// dataset reader uses.  A manifest file path is not a store.
bool is_store(const std::string& path);

/// Serialize `m` to <dir>/manifest.mmds2 (CRC trailer included).  Throws
/// std::runtime_error on I/O failure.
void write_manifest(const std::string& dir, const Manifest& m);

/// Parse <dir>/manifest.mmds2.  Structural damage (magic/version/flags/CRC,
/// table counts the input cannot hold, out-of-range indices, blocks outside
/// their shard's size) fails the load.
Result<Manifest> read_manifest(const std::string& dir);

}  // namespace mmlab::store
