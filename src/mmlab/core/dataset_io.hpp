// Dataset persistence: save a crawled ConfigDatabase and load it back — the
// release artifact of the paper's appendix ("our codes and datasets will be
// released").  Two formats share one loader interface:
//
// CSV (release format, human-readable), one row per observation:
//   carrier,cell_id,rat,channel,x_m,y_m,t_ms,param,value,context
// `param` is the registry name (config::param_name); loading resolves names
// back to keys, so the file is stable across enum reordering.  Doubles are
// written in shortest round-trip form (std::to_chars), so save -> load ->
// save is byte-identical and every value/position survives exactly.
//
// MMDS v1 (binary, for D2-scale replay), little-endian throughout:
//   [4]  magic "MMDS"
//   [1]  version (= 1)
//   [1]  flags (reserved, 0)
//   carrier table:  varint N, then N x (varint len + bytes)
//   param table:    varint P, then P x (varint len + bytes)   registry names
//   carrier blocks, one per table entry, in table order:
//     varint carrier_index        index into the carrier table
//     varint block_length         byte length of the body that follows
//     body: varint cell_count, then per cell (ascending id):
//       varint cell_id, u8 rat, varint channel, f64 x, f64 y,
//       varint n_obs, then per observation (stored order):
//         svarint delta_t_ms      vs. previous observation (first vs. 0)
//         varint  param_index     index into the param table
//         f64     value           raw IEEE-754 bits — exact round trip
//         svarint context
//   [2]  CRC-16/CCITT (util/crc) over every preceding byte
// varint = LEB128; svarint = zigzag varint; f64 = little-endian IEEE-754.
// The trailing CRC means truncated or corrupted files fail loudly instead
// of half-loading.  Versioning policy: the version byte bumps on any layout
// change; loaders reject versions they don't know (no silent best-effort).
// MMDS v2 is the sharded out-of-core layout (directory of shard files plus
// a version-2 manifest reusing this header); see src/mmlab/store.  This
// module only *recognizes* v2 (format sniffing) — reading and writing it is
// the store subsystem's job, so core stays free of mmap concerns.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mmlab/core/database.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/result.hpp"

namespace mmlab::core {

inline constexpr std::uint8_t kMmdsMagic[4] = {'M', 'M', 'D', 'S'};
inline constexpr std::uint8_t kMmdsVersion = 1;
inline constexpr std::uint8_t kMmds2Version = 2;
/// Name of the manifest file inside an MMDS v2 store directory.
inline constexpr char kMmds2ManifestName[] = "manifest.mmds2";

struct LoadStats {
  std::size_t rows = 0;      ///< observations parsed (including rejected)
  std::size_t bad_rows = 0;  ///< CSV only: skipped rows (wrong arity,
                             ///< unknown parameter, out-of-range numerics,
                             ///< non-finite values)
};

enum class DatasetFormat { kCsv, kBinary, kMmds2 };

// --- shared MMDS cell codec --------------------------------------------------
// One cell's wire encoding is identical in a v1 carrier block and a v2 shard
// run: varint cell_id, u8 rat, varint channel, f64 x, f64 y, varint n_obs,
// then per observation svarint delta_t / varint param_index / f64 value /
// svarint context.  Both writers and both readers go through these helpers,
// so the formats cannot drift apart.

namespace mmds {

inline constexpr std::uint8_t kMaxRat = 4;  // spectrum::Rat::kCdma1x

/// Dense (rat, param-id) -> table-index map.  Every slot starts at the
/// kUnassigned sentinel; assign() hands out indices 0, 1, 2, ... in call
/// order, so the v2 shard writer gets its first-sight param table straight
/// from the encode pass, and the v1 saver gets sorted indices by assigning
/// its keys in sorted order up front.
class ParamIndexMap {
 public:
  static constexpr std::uint32_t kUnassigned = 0xFFFFFFFF;
  static constexpr std::size_t kSlots = (std::size_t{kMaxRat} + 1) << 16;

  ParamIndexMap() : index_(kSlots, kUnassigned) {}
  /// The key's index, or kUnassigned.
  std::uint32_t get(config::ParamKey key) const { return index_[slot(key)]; }
  /// The key's index, assigning the next one on first sight.
  std::uint32_t assign(config::ParamKey key) {
    std::uint32_t& index = index_[slot(key)];
    if (index == kUnassigned) [[unlikely]] {
      index = static_cast<std::uint32_t>(keys_.size());
      keys_.push_back(key);
    }
    return index;
  }
  /// Assigned keys, in index order.
  const std::vector<config::ParamKey>& keys() const { return keys_; }

 private:
  static std::size_t slot(config::ParamKey key) {
    return (static_cast<std::size_t>(key.rat) << 16) | key.id;
  }
  std::vector<std::uint32_t> index_;
  std::vector<config::ParamKey> keys_;
};

/// Worst-case encoded bytes of a cell with `n_obs` observations: the
/// longest varint of every field (a param index is below kSlots).  The
/// encode kernel grows its output by this much up front; a record with
/// every field at its longest encoding reaches it exactly.
inline constexpr std::size_t kMaxObservationBytes =
    10 + varint_size(ParamIndexMap::kSlots - 1) + 8 + 10;
constexpr std::size_t max_encoded_cell_size(std::size_t n_obs) {
  return 5 + 1 + 5 + 16 + varint_size(n_obs) + n_obs * kMaxObservationBytes;
}

/// Append one cell's encoding to `out`, assigning table indices to unseen
/// keys (ParamIndexMap::assign).  The pointer kernel: one resize by
/// max_encoded_cell_size, raw stores, one trim.
void encode_cell(ByteWriter& out, std::uint32_t id, const CellRecord& rec,
                 ParamIndexMap& params);

/// The ByteWriter-call-per-field encoder encode_cell replaced, kept as the
/// test oracle (the varint_reference idiom): same bytes for the same map.
/// Every key must already be assigned.
void encode_cell_reference(ByteWriter& out, std::uint32_t id,
                           const CellRecord& rec, const ParamIndexMap& params);

/// Exact byte length encode_cell would emit, without materializing it — the
/// v1 saver's measuring pass for the block_length prefix.  Every key must
/// already be assigned.
std::size_t encoded_cell_size(std::uint32_t id, const CellRecord& rec,
                              const ParamIndexMap& params);

/// Parse one cell into `out` (upsert semantics: observations append, cell
/// identity metadata is taken only when the record was fresh).  Returns the
/// observation count.  Throws std::runtime_error subclasses on structural
/// damage (bad rat, out-of-range param index, implausible counts).
std::size_t parse_cell(ByteReader& r, const std::string& carrier,
                       const std::vector<config::ParamKey>& params,
                       ConfigDatabase& out);

/// Parse one cell into a standalone record (the out-of-core path, where no
/// database exists).  `rec` is reset first; rec.cell_id is filled.  Returns
/// the cell id.
std::uint32_t parse_cell(ByteReader& r,
                         const std::vector<config::ParamKey>& params,
                         CellRecord& rec);

/// Wire-level facts parse_cell_filtered reports about the *unfiltered* cell
/// run it just scanned — everything a filtering reader needs to (a) validate
/// raw counts against the manifest and (b) preserve the merge contract's
/// metadata tie-break, which is defined over unfiltered runs.
struct CellScan {
  std::uint64_t rows = 0;            ///< observations on the wire
  std::uint64_t values_skipped = 0;  ///< 8-byte value payloads not decoded
  std::int64_t front_t_ms = 0;  ///< first wire observation's t (has_front)
  bool has_front = false;       ///< the run had at least one observation
};

/// Predicate push-down variant of the record-reuse parse_cell: decodes the
/// cell's full wire structure (every varint must be walked to find the next
/// cell) but materializes only observations whose param-table index is set
/// in `keep` — the 8-byte value payload of a filtered observation is
/// *skipped*, never loaded, and counted in CellScan::values_skipped.  An
/// empty `keep` keeps every observation.  When the returned id falls
/// outside [min_cell, max_cell] nothing is materialized at all (the caller
/// drops the cell); `rec` still carries the header metadata either way.
/// Same structural-damage errors as parse_cell.
std::uint32_t parse_cell_filtered(ByteReader& r,
                                  const std::vector<config::ParamKey>& params,
                                  const std::vector<char>& keep,
                                  std::uint32_t min_cell,
                                  std::uint32_t max_cell, CellRecord& rec,
                                  CellScan& scan);

}  // namespace mmds

// --- CSV ---------------------------------------------------------------------

void save_dataset(const ConfigDatabase& db, std::ostream& out);
/// Convenience: write to a file path. Throws std::runtime_error on I/O error.
void save_dataset(const ConfigDatabase& db, const std::string& path);

Result<LoadStats> load_dataset(std::istream& in, ConfigDatabase& db);
Result<LoadStats> load_dataset(const std::string& path, ConfigDatabase& db);

// --- MMDS v1 binary ----------------------------------------------------------

/// Serialize into `out` (replacing its contents), CRC trailer included.
void save_dataset_binary(const ConfigDatabase& db,
                         std::vector<std::uint8_t>& out);
/// Stream to a file (buffered; the full image is never held in memory).
/// Throws std::runtime_error on I/O error.
void save_dataset_binary(const ConfigDatabase& db, const std::string& path);

/// Parse an MMDS image. Structural damage (bad magic/version, CRC mismatch,
/// truncation, out-of-range table index) fails the whole load — `db` may
/// hold partially merged data only on the single-threaded path, and no
/// error is ever silent.  `threads` != 1 shards per-carrier blocks over a
/// WorkerPool (0 = hardware concurrency); results are deterministic and
/// identical to the serial load.
Result<LoadStats> load_dataset_binary(const std::uint8_t* data,
                                      std::size_t size, ConfigDatabase& db,
                                      unsigned threads = 1);
Result<LoadStats> load_dataset_binary(const std::string& path,
                                      ConfigDatabase& db, unsigned threads = 1);

// --- format dispatch ---------------------------------------------------------

/// Sniff a path: a directory holding a manifest.mmds2 (or a bare version-2
/// manifest file) is kMmds2; a file starting with "MMDS" is kBinary;
/// everything else is kCsv.
DatasetFormat detect_dataset_format(const std::string& path);

/// kCsv / kBinary only; kMmds2 throws (use mmlab::store::save_database —
/// core cannot depend on the store subsystem).
void save_dataset(const ConfigDatabase& db, const std::string& path,
                  DatasetFormat format);
/// Load either in-memory format, chosen by magic sniffing.  kMmds2 paths
/// return an error directing callers to mmlab::store::load_database.
Result<LoadStats> load_dataset_any(const std::string& path, ConfigDatabase& db,
                                   unsigned threads = 1);

}  // namespace mmlab::core
