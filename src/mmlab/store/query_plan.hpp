// Manifest-level query planning for shard-direct folds (DESIGN.md §13).
//
// A Query names what a fold is actually after — a carrier subset, a cell-id
// range, a ParamKey subset — instead of the caller folding everything and
// filtering the answer.  QueryPlan turns that declaration into a block
// selection using only the manifest: per-block carrier indices prune other
// carriers' blocks, and the manifest's per-block [first_cell, last_cell]
// ranges prune blocks that cannot intersect the requested id range.  A skipped block is never mapped,
// CRC-checked, or parsed — its bytes are simply never touched — and the
// skip counts surface in FoldStats so callers can see what the planner
// saved.
//
// The ParamKey predicate cannot prune blocks (the manifest has no per-block
// param census); it pushes down to the wire instead: the fold decodes each
// selected block's structure but skips the 8-byte value payload of every
// filtered observation (store::parse_cell_filtered), so a single-key
// query reads strictly fewer bytes than an unfiltered fold of the same
// blocks.
//
// Every manifest carries the per-block extras (read_manifest rejects one
// without them), so range pruning always applies and every selected
// carrier has an emission frontier.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mmlab/core/cell_fold.hpp"
#include "mmlab/store/shard_set.hpp"

namespace mmlab::store {

/// Declarative selection over a store.  Empty vectors mean "no predicate on
/// that axis", not "select nothing".
struct Query {
  /// Carriers to fold (any order, duplicates ignored); empty = all.
  /// Unknown names are ignored — the planner simply selects nothing for
  /// them, and folding such a carrier is an empty success.
  std::vector<std::string> carriers;
  /// Inclusive cell-id range.
  std::uint32_t min_cell = 0;
  std::uint32_t max_cell = std::numeric_limits<std::uint32_t>::max();
  /// Parameters whose values the query needs; empty = all.
  std::vector<config::ParamKey> params;

  bool all_cells() const {
    return min_cell == 0 &&
           max_cell == std::numeric_limits<std::uint32_t>::max();
  }
  /// No predicate on any axis: the plan selects every block of the store
  /// and the fold is the unfiltered one.
  bool selects_all() const {
    return carriers.empty() && params.empty() && all_cells();
  }
};

/// One selected carrier's share of a plan.
struct CarrierQueryPlan {
  std::string name;
  std::uint32_t carrier_index = 0;
  /// Selected global block indices (into ShardSet::blocks()), manifest
  /// order — the merge order contract is unchanged from the plain fold.
  std::vector<std::size_t> blocks;
  /// safe_floor[i] = min first_cell over blocks[i..] — the emission
  /// frontier over the *selected* subset.  Pruned blocks cannot contain
  /// in-range ids, so the frontier stays correct.  Parallel to `blocks`.
  std::vector<std::uint32_t> safe_floor;
  std::uint64_t rows = 0;   ///< manifest row total of selected blocks
  std::uint64_t bytes = 0;  ///< body bytes of selected blocks
  /// This carrier's blocks the cell-range predicate pruned (carrier-level
  /// pruning is accounted store-wide in QueryPlan, not here).
  std::uint64_t blocks_pruned = 0;
  std::uint64_t bytes_pruned = 0;
};

/// A Query bound to one opened ShardSet: the block selection, the emission
/// frontiers over it, and the param-index keep mask the wire filter needs.
/// Planning reads only the manifest (O(blocks + params), no I/O), so
/// building a throwaway plan per query is cheap.  The set must outlive the
/// plan.
class QueryPlan {
 public:
  QueryPlan(const ShardSet& set, Query query);

  const Query& query() const { return query_; }
  const ShardSet& shards() const { return *set_; }

  /// Selected carriers in sorted name order (the fold/merge order).
  const std::vector<CarrierQueryPlan>& carriers() const { return carriers_; }
  const CarrierQueryPlan* find_carrier(std::string_view name) const;

  /// Param-index keep mask over the store's param table; empty when the
  /// query has no param predicate.
  const std::vector<char>& param_mask() const { return param_mask_; }
  bool has_param_filter() const { return !query_.params.empty(); }
  /// A wire-level filter is active: folded records may differ from the
  /// stored runs (fewer observations, dropped cells).
  bool filtered() const {
    return has_param_filter() || !query_.all_cells();
  }

  /// Store-wide accounting: selected vs skipped over EVERY block of the
  /// store (other carriers' blocks count as skipped — that is exactly what
  /// a single-carrier query saves over a full fold).
  std::uint64_t blocks_selected() const { return blocks_selected_; }
  std::uint64_t bytes_selected() const { return bytes_selected_; }
  std::uint64_t blocks_skipped() const { return blocks_skipped_; }
  std::uint64_t bytes_skipped() const { return bytes_skipped_; }

 private:
  const ShardSet* set_;
  Query query_;
  std::vector<CarrierQueryPlan> carriers_;
  std::vector<char> param_mask_;
  std::uint64_t blocks_selected_ = 0;
  std::uint64_t bytes_selected_ = 0;
  std::uint64_t blocks_skipped_ = 0;
  std::uint64_t bytes_skipped_ = 0;
};

}  // namespace mmlab::store
