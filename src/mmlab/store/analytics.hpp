// The fig11–22 analysis mix straight off an out-of-core store.
//
// analyze_carrier folds one carrier once and fills every product;
// analyze_query schedules that mix across the carriers a query selects.
// Both drive the core::figures accumulators (the only implementation of the
// fig11–22 products, core/figures.hpp) with store::DirectFold as the cell
// source, so resident memory stays O(parse window + answer) and every
// answer is bit-identical to core::analyze_carrier over
// load_database(store).  They return Result because a fold can hit
// mid-stream corruption (block CRC or structural damage) — on error no
// partial answer escapes.
//
// Cost: per observation, the fold's decode (store/cell_codec's kernel),
// the CellFolder grouping and the accumulators' O(1) slot and tally work;
// per carrier, one finish() that builds the ordered products (run on the
// pool by analyze_query).  Memory: the fold's window plus one accumulator
// bundle per selected carrier (core/figures.hpp).
//
// Both are planned: `query` (default: select everything) prunes blocks
// (other carriers, non-overlapping cell ranges) and its ParamKey predicate
// pushes down to the wire (store/query_plan.hpp).  A planned answer equals
// the same mix computed over a pre-filtered database (property-tested in
// test_query_plan.cpp).
#pragma once

#include <string>
#include <vector>

#include "mmlab/core/figures.hpp"
#include "mmlab/store/direct_fold.hpp"

namespace mmlab::store {

using core::MixOptions;
using core::SpatialQuery;

/// Every fig11–22 product of one carrier plus the fold that produced it.
struct CarrierAnalysis : core::CarrierFigures {
  FoldStats stats;
};

/// Fold `carrier` once and compute every product.  The explicit carrier
/// wins over query.carriers.  Only the query's selected blocks of `carrier`
/// fold (the returned stats carry the plan's store-wide skip counts).  An
/// empty query.params decodes every parameter; with a non-empty predicate,
/// fixed-key products whose keys were filtered out come back empty (that is
/// what the query asked for).
Result<CarrierAnalysis> analyze_carrier(const DirectFold& direct,
                                        const std::string& carrier,
                                        const MixOptions& options = {},
                                        const Query& query = {});

/// The scheduled multi-carrier mix: every carrier the query selects,
/// analyzed via DirectFold::fold_query — concurrent cross-carrier jobs
/// (largest first) under the engine's shared window budget when
/// options().threads > 1, the sequential per-carrier loop when 1.  The
/// carriers' finish() steps then run on as many threads, largest first.
struct QueryAnalysis {
  std::vector<std::string> carriers;  ///< selected, sorted name order
  /// Parallel to `carriers`; each entry's stats are that carrier's own
  /// fold (rows/cells/blocks/bytes, no plan-wide skip counts).
  std::vector<CarrierAnalysis> results;
  /// Aggregate over all carrier folds; includes the plan's skip counts and
  /// the *concurrent* peak_resident_blocks (the shared-budget number).
  FoldStats stats;
};

Result<QueryAnalysis> analyze_query(const DirectFold& direct,
                                    const Query& query,
                                    const MixOptions& options = {});

}  // namespace mmlab::store
