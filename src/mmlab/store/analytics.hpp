// Figure-level analyses straight off an out-of-core store.
//
// Each entry point drives the core::figures accumulators (the only
// implementation of the fig11–22 products, core/figures.hpp) with
// store::DirectFold as the cell source: one streaming fold over the
// carrier's merged cells, so resident memory stays O(parse window + answer)
// and every answer is bit-identical to the same product over
// load_database(store).  They return Result because a fold can hit
// mid-stream corruption (block CRC or structural damage) — on error no
// partial answer escapes.
//
// Every entry point is planned: `query` (default: select everything)
// prunes blocks (other carriers, non-overlapping cell ranges) and its
// ParamKey predicate pushes down to the wire (store/query_plan.hpp).  An
// explicit carrier argument wins over query.carriers.  When the query has
// no param predicate, a product that reads fixed keys (priorities, gaps,
// spatial) narrows the fold to exactly those keys, so it decodes only their
// values; census products (diversity, dependence) read every parameter and
// never narrow.  A planned answer equals the same product computed over a
// pre-filtered database (property-tested in test_query_plan.cpp).
//
// For the whole fig11–22 mix, analyze_carrier folds the carrier ONCE and
// fills every product, and analyze_query schedules that across carriers.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mmlab/core/figures.hpp"
#include "mmlab/store/direct_fold.hpp"

namespace mmlab::store {

using core::MixOptions;
using core::SpatialQuery;

Result<std::vector<core::ParamDiversity>> diversity_by_param(
    const DirectFold& direct, const std::string& carrier,
    std::optional<spectrum::Rat> rat = std::nullopt, const Query& query = {});

Result<std::vector<core::ParamDependence>> frequency_dependence(
    const DirectFold& direct, const std::string& carrier,
    const Query& query = {});

Result<std::map<long, stats::ValueCounts>> priority_by_channel(
    const DirectFold& direct, const std::string& carrier, bool candidate,
    const Query& query = {});

Result<double> multi_priority_cell_fraction(const DirectFold& direct,
                                            const std::string& carrier,
                                            const Query& query = {});

Result<std::map<long, stats::ValueCounts>> priority_by_city(
    const DirectFold& direct, const std::string& carrier,
    const std::vector<geo::City>& cities, const Query& query = {});

Result<std::vector<double>> spatial_diversity(const DirectFold& direct,
                                              const std::string& carrier,
                                              config::ParamKey key,
                                              const geo::City& city,
                                              double radius_m,
                                              const Query& query = {});

/// Empty carrier = pooled over the query's selected carriers, in name order.
Result<core::MeasurementGaps> measurement_decision_gaps(
    const DirectFold& direct, const std::string& carrier = "",
    const Query& query = {});

// --- the one-pass analysis mix ----------------------------------------------

/// Every fig11–22 product of one carrier plus the fold that produced it.
struct CarrierAnalysis : core::CarrierFigures {
  FoldStats stats;
};

/// Fold `carrier` once and compute every product — each member equals the
/// corresponding standalone entry point.  Only the query's selected blocks
/// of `carrier` fold (the returned stats carry the plan's store-wide skip
/// counts).  The mix reads every parameter, so an empty query.params is NOT
/// narrowed; with a non-empty predicate, fixed-key products whose keys were
/// filtered out come back empty (that is what the query asked for).
Result<CarrierAnalysis> analyze_carrier(const DirectFold& direct,
                                        const std::string& carrier,
                                        const MixOptions& options = {},
                                        const Query& query = {});

/// The scheduled multi-carrier mix: every carrier the query selects,
/// analyzed via DirectFold::fold_query — concurrent cross-carrier jobs
/// (largest first) under the engine's shared window budget when
/// options().threads > 1, the sequential per-carrier loop when 1.
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
