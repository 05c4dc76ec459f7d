// Per-cell query-product kernel shared by every figure product.
//
// Given one cell's merged observation record, CellFolder derives the
// per-(cell, parameter) products the fig11–22 accumulators
// (core/figures.hpp) read: key-grouped observation order, first-seen unique
// values, unique (context, value) pairs (context >= 0 only), and the latest
// value under CellRecord::latest's tie-break.  Both cell sources — the
// ConfigDatabase carrier walk and store::DirectFold's merged shard records —
// run it per cell, so the dedup/latest semantics have one implementation.
//
// Grouping is one linear bucket pass, not a comparison sort: each
// observation's key goes through an open-addressed first-sight table
// (key -> cell-local index), only the k distinct keys are sorted, and the
// n observations are scattered into their key's bucket in ascending index.
// Cost O(n + k log k) per cell (a store cell has tens of keys and hundreds
// of observations); cells below kMinBucketObservations keep the
// O(n log n) sort, and fold_reference keeps it for every cell as the
// oracle.
//
// The dedup semantics are the legacy CellRecord ones, pinned here:
//   * unique values use operator== (NaN never equals itself, so every NaN
//     occurrence is "unique"; -0.0 == 0.0 collapses, first representation
//     kept), in first-seen order;
//   * (context, value) pairs use std::pair's < equivalence (the std::set
//     the legacy scan used), first-seen order;
//   * latest is the last max-t observation in stored order, with t below
//     the -1 sentinel never counting.
//
// Memory: every buffer keeps its capacity across calls, so a folder holds
// O(largest cell folded).  The grouping keeps 12 bytes per observation and
// fewer than 4 key-table slots (8 bytes each) per distinct key: at most
// 8 MiB, since a record can name at most 5 x 65536 keys; a store cell's
// table is 1 KiB.  The flat buffers stop allocating once they have grown,
// but the dedup spill containers past kLinearDedupLimit (uniq_seen_,
// ctx_seen_) allocate a node per insert on every cell that reaches them.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mmlab/core/database.hpp"

namespace mmlab::core {

/// A sorted, deduplicated set of parameter keys — the value side of a
/// query's ParamKey predicate.  An *empty* set is a valid object but never
/// means "match everything"; callers that want no filtering pass no set at
/// all (store::Query uses an empty key list for that, resolved before a
/// ParamKeySet is built).
class ParamKeySet {
 public:
  ParamKeySet() = default;
  explicit ParamKeySet(std::vector<config::ParamKey> keys);

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }
  const std::vector<config::ParamKey>& keys() const { return keys_; }
  bool contains(config::ParamKey key) const;

  /// Per-index keep mask over a dataset's param table (1 = key selected) —
  /// the O(1)-per-observation form the wire-level push-down parser consumes
  /// (store::parse_cell_filtered).
  std::vector<char> index_mask(
      const std::vector<config::ParamKey>& table) const;

 private:
  std::vector<config::ParamKey> keys_;  ///< sorted, unique
};

/// Per-span unique cardinality is tiny for real configs (a handful of
/// distinct settings), so dedup is a linear == scan — the exact legacy
/// std::find semantics at a fraction of the hashing cost.  Past this
/// threshold we spill to a hashed / ordered container to stay off the
/// O(n^2) cliff on adversarial data.
inline constexpr std::size_t kLinearDedupLimit = 64;

class CellFolder {
 public:
  /// One parameter's products: [obs_begin, obs_end) into grouped_order()
  /// (the cell's observations of this key, original order preserved),
  /// [uniq_begin, uniq_end) into unique_values(), [ctx_begin, ctx_end)
  /// into ctx_contexts()/ctx_values().
  struct KeySlice {
    config::ParamKey key;
    std::uint32_t obs_begin = 0, obs_end = 0;
    std::uint32_t uniq_begin = 0, uniq_end = 0;
    std::uint32_t ctx_begin = 0, ctx_end = 0;
    double latest = 0.0;      ///< valid only when has_latest
    bool has_latest = false;  ///< mirrors CellRecord::latest's nullopt cases
  };

  /// Key-table slots before the first growth (the table doubles whenever
  /// it would pass half full).
  static constexpr std::size_t kInitialKeySlots = 64;
  /// Below this many observations fold() groups by the comparison sort:
  /// on a cell that small the bucket pass's fixed cost loses
  /// (EXPERIMENTS.md "One linear grouping pass").
  static constexpr std::size_t kMinBucketObservations = 16;

  /// Recompute every product for `rec`.  Results alias internal buffers and
  /// stay valid until the next fold() or fold_reference() call.
  void fold(const CellRecord& rec);

  /// The std::sort-of-(key, index) grouping fold() replaced, kept as the
  /// test oracle (the encode_cell_reference idiom): same products, bit for
  /// bit, in the same order.
  void fold_reference(const CellRecord& rec);

  /// Slices in ascending key order (one per observed parameter).
  std::span<const KeySlice> keys() const { return keys_; }
  /// (key, original observation index) pairs, key-ascending and
  /// order-preserving within a key — the span layout of the cell.
  std::span<const std::pair<config::ParamKey, std::uint32_t>> grouped_order()
      const {
    return order_;
  }
  std::span<const double> unique_values() const { return uniq_; }
  std::span<const std::int64_t> ctx_contexts() const { return ctx_context_; }
  std::span<const double> ctx_values() const { return ctx_value_; }

  /// The unique-values slice of one key, or empty when the cell never
  /// observed it (binary search — slices are key-sorted).
  std::span<const double> unique_values(config::ParamKey key) const;
  const KeySlice* find(config::ParamKey key) const;

 private:
  struct KeySlot {
    std::uint32_t key;    ///< packed (rat << 16 | id), or kEmptySlot
    std::uint32_t local;  ///< cell-local index of the key (first sight)
  };
  struct LocalKey {
    std::uint32_t key;    ///< packed
    std::uint32_t slot;   ///< its key_table_ slot, for the clear
    std::uint32_t count;  ///< observations; then the scatter cursor
  };
  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFF;

  /// Fibonacci hashing: the top log2(size) bits of key * 2^32/phi.
  std::uint32_t hash_slot(std::uint32_t key) const {
    return (key * 0x9E3779B1u) >> key_shift_;
  }
  void sort_by_key(const std::vector<Observation>& obs);
  void group_by_key(const std::vector<Observation>& obs);
  void grow_key_table();
  void build_slices(const CellRecord& rec);

  std::vector<KeySlice> keys_;
  std::vector<std::pair<config::ParamKey, std::uint32_t>> order_;
  std::vector<double> uniq_;
  std::vector<std::int64_t> ctx_context_;
  std::vector<double> ctx_value_;
  // group_by_key working buffers.  key_table_ is all kEmptySlot between
  // calls.
  std::vector<KeySlot> key_table_;
  unsigned key_shift_ = 0;  ///< 32 - log2(key_table_.size())
  std::vector<LocalKey> local_keys_;  ///< first-sight order
  std::vector<std::uint32_t> local_of_;  ///< per observation: local index
  std::vector<std::uint64_t> sorted_keys_;
  // Spill containers, reused across cells (see kLinearDedupLimit).
  std::unordered_set<double> uniq_seen_;
  std::set<std::pair<std::int64_t, double>> ctx_seen_;
};

}  // namespace mmlab::core
