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
// Slots: the folder's key table persists across the cells it folds (one
// carrier's, in every caller) and gives each distinct key a dense slot in
// first-sight order.  Every KeySlice carries its slot, so accumulators index
// flat per-slot arrays, and find() reaches a fixed key's slice in O(1) (one
// hash probe; the entry's stamp says whether the current cell has the key).
// slot_keys() maps a slot back to its key when an accumulator finishes.
//
// Grouping is one linear bucket pass, not a comparison sort: each
// observation's key goes through the open-addressed slot table (packed key
// -> entry, Fibonacci hash), whose entry's stamp and cell-local index say
// whether the cell has seen the key yet, only the k distinct keys are
// sorted, and the n observations are scattered into their key's bucket in
// ascending index.
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
// O(largest cell folded + distinct keys seen).  The grouping keeps 12 bytes
// per observation; the slot table keeps fewer than 4 entries (16 bytes
// each) plus a 4-byte key per distinct key ever seen: at most ~21 MiB,
// since a folder can meet at most 5 x 65536 keys; a store carrier's is a
// few KiB.  The flat buffers stop allocating once they have grown, but the
// dedup spill containers past kLinearDedupLimit (uniq_seen_, ctx_seen_)
// allocate a node per insert on every cell that reaches them.
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
    std::uint32_t slot = 0;  ///< the key's slot (see slot_keys())
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
  /// observed it.
  std::span<const double> unique_values(config::ParamKey key) const;
  /// The current cell's slice of `key`, or nullptr: O(1).
  const KeySlice* find(config::ParamKey key) const;

  /// Every key this folder has seen, indexed by slot (dense, first-sight
  /// order, stable for the folder's lifetime).
  std::span<const config::ParamKey> slot_keys() const { return slot_keys_; }

 private:
  /// One slot-table entry.  `local` is meaningful only while `stamp` is
  /// the current cell's: during grouping it is the key's cell-local index,
  /// once the slices are built the index of its KeySlice in keys_.
  struct KeySlot {
    std::uint32_t key;  ///< packed (rat << 16 | id), or kEmptySlot
    std::uint32_t slot;
    std::uint32_t stamp;
    std::uint32_t local;
  };
  struct LocalKey {
    std::uint32_t key;    ///< packed
    std::uint32_t count;  ///< observations; then the scatter cursor
  };
  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFF;

  /// Fibonacci hashing: the top log2(size) bits of key * 2^32/phi.
  std::uint32_t hash_slot(std::uint32_t key) const {
    return (key * 0x9E3779B1u) >> key_shift_;
  }
  /// The entry of a packed key, or nullptr when it has none.
  const KeySlot* probe(std::uint32_t key) const;
  /// Give a packed key the table does not hold the next slot.
  KeySlot& insert_key(std::uint32_t key);
  /// The entry of a packed key, inserting it on first sight.
  KeySlot& find_or_add(std::uint32_t key) {
    if (!key_table_.empty()) {
      const auto mask = static_cast<std::uint32_t>(key_table_.size() - 1);
      KeySlot* table = key_table_.data();
      for (std::uint32_t s = hash_slot(key); table[s].key != kEmptySlot;
           s = (s + 1) & mask)
        if (table[s].key == key) return table[s];
    }
    return insert_key(key);
  }
  void next_stamp();
  void sort_by_key(const std::vector<Observation>& obs);
  void sort_packed(const std::vector<Observation>& obs);
  void group_by_key(const std::vector<Observation>& obs);
  void grow_key_table();
  void build_slices(const CellRecord& rec);

  std::vector<KeySlice> keys_;
  std::vector<std::pair<config::ParamKey, std::uint32_t>> order_;
  std::vector<double> uniq_;
  std::vector<std::int64_t> ctx_context_;
  std::vector<double> ctx_value_;
  // The slot table, kept across cells.
  std::vector<KeySlot> key_table_;
  unsigned key_shift_ = 0;  ///< 32 - log2(key_table_.size())
  std::vector<config::ParamKey> slot_keys_;
  std::uint32_t stamp_ = 0;  ///< the current cell's; 0 is never current
  // group_by_key working buffers.
  std::vector<LocalKey> local_keys_;  ///< first-sight order, by local
  std::vector<std::uint32_t> local_of_;  ///< per observation: local index
  std::vector<std::uint64_t> sorted_keys_;
  // Spill containers, reused across cells (see kLinearDedupLimit).
  std::unordered_set<double> uniq_seen_;
  std::set<std::pair<std::int64_t, double>> ctx_seen_;
};

}  // namespace mmlab::core
