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
// The dedup semantics are the legacy CellRecord ones, pinned here:
//   * unique values use operator== (NaN never equals itself, so every NaN
//     occurrence is "unique"; -0.0 == 0.0 collapses, first representation
//     kept), in first-seen order;
//   * (context, value) pairs use std::pair's < equivalence (the std::set
//     the legacy scan used), first-seen order;
//   * latest is the last max-t observation in stored order, with t below
//     the -1 sentinel never counting.
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

  /// Recompute every product for `rec`.  Results alias internal buffers and
  /// stay valid until the next fold() call; buffers keep their capacity
  /// across calls, so folding a stream of cells does not churn the heap.
  void fold(const CellRecord& rec);

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
  std::vector<KeySlice> keys_;
  std::vector<std::pair<config::ParamKey, std::uint32_t>> order_;
  std::vector<double> uniq_;
  std::vector<std::int64_t> ctx_context_;
  std::vector<double> ctx_value_;
  // Spill containers, reused across cells (see kLinearDedupLimit).
  std::unordered_set<double> uniq_seen_;
  std::set<std::pair<std::int64_t, double>> ctx_seen_;
};

}  // namespace mmlab::core
