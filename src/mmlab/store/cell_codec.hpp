// The MMDS cell codec: one cell's wire encoding inside a v2 shard block body
// (store/mmds2.hpp has the layout around it).  The shard writer encodes
// through encode_cell; load_database and the direct fold parse through
// parse_cell_filtered, whose repeat markers decode into core::Repeat, the
// type a CellRecord holds its repeats in, and expand through
// core::expand_repeats, so writer and readers cannot drift apart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmlab/core/database.hpp"
#include "mmlab/util/byteio.hpp"

namespace mmlab::store {

inline constexpr std::uint8_t kMaxRat = 4;  // spectrum::Rat::kCdma1x

/// Dense (rat, param-id) -> table-index map.  Every slot starts at the
/// kUnassigned sentinel; assign() hands out indices 0, 1, 2, ... in call
/// order, so the shard writer gets its first-sight param table straight
/// from the encode pass.
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
  /// Unassign every key past the first `n` (a refused cell's new keys).
  void truncate(std::size_t n) {
    for (std::size_t i = n; i < keys_.size(); ++i)
      index_[slot(keys_[i])] = kUnassigned;
    keys_.resize(n);
  }
  /// The key's dense slot, below kSlots.
  static std::size_t slot(config::ParamKey key) {
    return (static_cast<std::size_t>(key.rat) << 16) | key.id;
  }

 private:
  std::vector<std::uint32_t> index_;
  std::vector<config::ParamKey> keys_;
};

/// The param index a repeat marker carries in place of a table index
/// (mmds2.hpp, manifest flags bit 1): one past the largest table a store
/// can hold, so it is out of range for every table, and a reader that
/// predates markers rejects it.  A streaming writer cannot use its own
/// table's size: the table may still grow after the marker is written.
inline constexpr std::uint64_t kRepeatMarker = ParamIndexMap::kSlots;

/// Worst-case encoded bytes of a cell with `n_obs` entries: the longest
/// varint of every field (a param index is below kSlots).  The encode
/// kernel grows its output by this much up front; a record with every
/// field at its longest encoding reaches it exactly.  A repeat marker is
/// shorter than an observation, so a record's distinct rows plus its
/// repeats (encoded_entries) bound its cell too.
inline constexpr std::size_t kMaxObservationBytes =
    10 + varint_size(ParamIndexMap::kSlots - 1) + 8 + 10;
constexpr std::size_t max_encoded_cell_size(std::size_t n_obs) {
  return 5 + 1 + 5 + 16 + varint_size(n_obs) + n_obs * kMaxObservationBytes;
}

/// The entries a record's cell can take at most: its distinct rows plus
/// one marker per repeat.
inline std::size_t encoded_entries(const core::CellRecord& rec) {
  return rec.observations.size() + rec.repeats.size();
}

/// Repeat snapshots an encode pass wrote as markers, and the rows they
/// stand for.
struct RepeatCount {
  std::uint64_t snapshots = 0;
  std::uint64_t rows = 0;
};

/// Append one cell's encoding to `out`, assigning table indices to unseen
/// keys (ParamIndexMap::assign).  Given `repeats`, each snapshot (a
/// maximal run of equal-t observations) that equals the previous snapshot
/// of the run in length, keys, value bits and contexts is written as one
/// repeat marker and counted there: a repeat the record holds is copied
/// through as a marker, with no comparison, and its distinct rows are
/// compared as before, so the bytes are those of the expanded rows.
/// Without `repeats` the record must hold none, and on a cell without
/// repeats the bytes are encode_cell_reference's.  The pointer kernel:
/// one resize by max_encoded_cell_size, raw stores, one trim.  Returns
/// whether every observation value is finite; a store must not hold one
/// that is not (the readers reject it), so ShardWriter::add_cell rolls
/// such a cell back (ByteWriter::truncate, ParamIndexMap::truncate) and
/// refuses it.
bool encode_cell(ByteWriter& out, std::uint32_t id,
                 const core::CellRecord& rec, ParamIndexMap& params,
                 RepeatCount* repeats = nullptr);

/// The same kernel against a table fixed in advance: every key must
/// already be assigned, and the map is only read, so parallel encoders may
/// share it (ShardWriter::add_database).
bool encode_cell(ByteWriter& out, std::uint32_t id,
                 const core::CellRecord& rec, const ParamIndexMap& params,
                 RepeatCount* repeats = nullptr);

/// The ByteWriter-call-per-field plain encoder (no repeat markers), kept as
/// the test oracle (the varint_reference idiom): encode_cell's bytes for
/// the same map on every cell without repeats.  Writes the expanded rows.
/// Every key must already be assigned.
void encode_cell_reference(ByteWriter& out, std::uint32_t id,
                           const core::CellRecord& rec,
                           const ParamIndexMap& params);

/// Wire-level facts a decode pass reports about the *unfiltered* cell run
/// it just scanned — everything a reader needs to (a) validate raw counts
/// against the manifest, (b) preserve the merge contract's metadata
/// tie-break, which is defined over unfiltered runs, and (c) decide
/// whether the run's repeats may be skipped or must be expanded.
struct CellScan {
  /// Expanded rows: wire observations plus every row a marker repeats.
  std::uint64_t rows = 0;
  std::uint64_t values_skipped = 0;  ///< wire observations not materialized
  std::int64_t front_t_ms = 0;  ///< first wire observation's t (has_front)
  bool has_front = false;       ///< the run had at least one observation
  bool sorted = true;  ///< entry times never decrease, markers included
  /// Markers, in wire order: the decoded rows [begin, end) of the snapshot
  /// each repeats, again at t_ms, placed before row `at`.  Positions index
  /// the output vector the pass appended to.
  std::vector<core::Repeat> repeats;
};

/// Which observations a decode pass materializes: all of them, those whose
/// param-table index is set in `mask` (params.size() flags), or none.
struct ObservationSelection {
  const char* mask = nullptr;  ///< null: no mask
  bool none = false;
  bool keeps(std::uint64_t param_index) const {
    return !none && (mask == nullptr || mask[param_index] != 0);
  }
};

/// The longest legal observation on the wire: a 10-byte time delta, a
/// param index and a context padded to 10 bytes each (LEB128 admits
/// redundant continuation bytes), and the 8-byte value.
inline constexpr std::size_t kMaxWireObservationBytes = 10 + 10 + 8 + 10;

/// Decode `n_obs` wire entries from r's position (the cell header already
/// read), appending the observations `select` keeps to `out`; fills every
/// CellScan field but has_front.  Every observation is walked and checked
/// whether kept or not: param index below params.size(), a finite value,
/// no over-long varint, no truncation.  With `repeats` (the store's
/// manifest flags bit 1) an entry whose param index is kRepeatMarker is a
/// repeat marker: it decodes into scan.repeats, never into `out`, and may
/// not come first.  Damage throws std::runtime_error subclasses.  The
/// pointer kernel: while kMaxWireObservationBytes remain it checks bounds
/// once per entry and decodes one-byte varints directly and longer ones by
/// SWAR (varint8_swar); the tail, varints of 9 or 10 bytes and any damaged
/// entry take decode_observations_reference, so records, scan, final
/// reader position and error text are the reference's on every input.
void decode_observations(ByteReader& r, std::uint64_t n_obs,
                         const std::vector<config::ParamKey>& params,
                         ObservationSelection select,
                         std::vector<core::Observation>& out, CellScan& scan,
                         bool repeats = false);

/// The ByteReader-call-per-field decoder the kernel replaced, kept as the
/// test oracle (the varint_reference idiom) and as the kernel's slow path.
void decode_observations_reference(ByteReader& r, std::uint64_t n_obs,
                                   const std::vector<config::ParamKey>& params,
                                   ObservationSelection select,
                                   std::vector<core::Observation>& out,
                                   CellScan& scan, bool repeats = false);

/// Parse one cell into a standalone record, with predicate push-down.
/// `rec` is reset first (its repeats too) but keeps its capacity;
/// rec.cell_id is filled.  Decodes the cell's full wire structure (every
/// varint must be walked to find the next cell) but materializes only
/// observations whose param-table index is set in `keep` — a filtered
/// observation is never materialized, and is counted in
/// CellScan::values_skipped.  Its 8-byte value is still read and must be
/// finite, so the filter never decides whether a store is accepted.  An
/// empty `keep` keeps every observation.  When the returned id falls
/// outside [min_cell, max_cell] nothing is materialized at all (the caller
/// drops the cell); `rec` still carries the header metadata either way.
/// Repeat markers (allowed by `repeats`) stay in scan.repeats: rec holds
/// the run's distinct snapshots until the caller expands them
/// (core::expand_repeats, which grows rec by the rows CellScan::rows
/// bounds: check that against the manifest first) or takes them as
/// rec.repeats.  Throws std::runtime_error subclasses on structural damage
/// (bad rat, out-of-range param index, implausible counts, a misplaced
/// marker) and on a non-finite (NaN or infinite) observation value.
std::uint32_t parse_cell_filtered(ByteReader& r,
                                  const std::vector<config::ParamKey>& params,
                                  bool repeats, const std::vector<char>& keep,
                                  std::uint32_t min_cell,
                                  std::uint32_t max_cell,
                                  core::CellRecord& rec, CellScan& scan);

}  // namespace mmlab::store
