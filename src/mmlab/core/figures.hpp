// Figure products of paper §5 (Figs 11–22) as accumulators over a stream of
// merged cell records.
//
// Every product is a fold: consume(rec, folder) sees each of a carrier's
// cells exactly once, in ascending id order, with core::CellFolder already
// run on the record; finish() produces the figure's output.  These
// accumulators are the only implementation of the products, and exactly two
// cell sources drive them:
//
//   * the ConfigDatabase carrier walk below (analyze_carrier /
//     analyze_database), for a database already in memory;
//   * store::DirectFold (store/analytics.hpp), which merges each cell's runs
//     straight off mapped MMDS v2 shards.
//
// Both sources hand over identical merged records in identical order, so
// their answers are bit-identical by construction.  The ConfigDatabase scans
// in core/analysis.hpp are written independently and kept as the test
// oracle (tests/test_figures.cpp, tests/test_direct_fold.cpp).
//
// Cost: consume() does O(1) work per unique value and per fixed-key lookup.
// Per-key state lives in flat arrays indexed by the CellFolder's slot, and
// every per-value count goes through a stats::ValueTally (O(1) at any
// cardinality).  The ordered forms the products return (ValueCounts, maps
// keyed by ParamKey, channel, context or city) are built once, in finish().
// Memory: O(distinct keys + distinct values per key) for the diversity
// totals, O(LTE keys x serving channels) tallies for the dependence groups,
// and a few bytes per observing cell for the serving-priority and spatial
// retention.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/cell_fold.hpp"
#include "mmlab/core/database.hpp"
#include "mmlab/geo/grid_index.hpp"
#include "mmlab/geo/region.hpp"
#include "mmlab/stats/diversity.hpp"

namespace mmlab::core {

/// The Fig 21 spatial-diversity query's inputs.
struct SpatialQuery {
  config::ParamKey key;
  geo::City city;
  double radius_m = 0.0;
};

struct MixOptions {
  /// Fig 16's optional RAT filter for the diversity sweep.
  std::optional<spectrum::Rat> diversity_rat;
  /// Cities for the Fig 20 location join (empty = every cell maps to -1 and
  /// priority_by_city comes back empty, matching values_grouped semantics).
  std::vector<geo::City> cities;
  /// Fig 21, run only when set.
  std::optional<SpatialQuery> spatial;
};

/// One parameter's whole-carrier aggregate: ConfigDatabase::values(carrier,
/// key) plus the number of cells that observed the key.
struct KeyTotals {
  stats::ValueCounts values;
  std::size_t cells = 0;
};

/// Every fig11–22 product of one carrier, from one pass over its cells.
struct CarrierFigures {
  std::string carrier;
  std::vector<ParamDiversity> diversity;                // fig 16/17/22
  std::vector<ParamDependence> dependence;              // fig 19
  std::map<long, stats::ValueCounts> serving_priority;  // fig 18
  std::map<long, stats::ValueCounts> candidate_priority;
  double multi_priority_fraction = 0.0;
  std::map<long, stats::ValueCounts> priority_by_city;  // fig 20
  std::vector<double> spatial_diversity;                // fig 21
  MeasurementGaps gaps;                                 // fig 11
  /// Per observed key, ascending (fig 14/15/17 distributions).
  std::map<config::ParamKey, KeyTotals> totals;

  /// ConfigDatabase::values(carrier, key); empty when no cell observed it.
  const stats::ValueCounts& values(config::ParamKey key) const;
};

/// Fig 16's ordering of per-key totals: keys of `rat` (all when unset),
/// sorted by increasing Simpson index.
std::vector<ParamDiversity> rank_diversity(
    const std::map<config::ParamKey, KeyTotals>& totals,
    std::optional<spectrum::Rat> rat);

/// Fig 11 pooled over carriers: the per-carrier gap vectors concatenated in
/// the given (name) order.
MeasurementGaps pooled_gaps(const std::vector<CarrierFigures>& figures);

// --- the accumulators -------------------------------------------------------
// Each consumes every cell it is given.  A source that filters observations
// (a planned store fold with a param predicate) still hands over every cell,
// so census counts such as the LTE cell total behind multi_priority_fraction
// do not shift under filtering.

/// Values grouped by a factor (a channel, target channel or city id): one
/// ValueTally per factor, found by hash; finish() builds the factor-ordered
/// map of ValueCounts the products return.  Only add() creates a group.
class FactorTallies {
 public:
  void add(long factor, double value);
  std::map<long, stats::ValueCounts> finish() const;

 private:
  std::unordered_map<long, std::uint32_t> index_;
  std::vector<std::pair<long, stats::ValueTally>> tallies_;
};

/// Fig 16/17/22: per-key value totals and observing-cell counts, by slot.
struct DiversityAcc {
  struct SlotTotals {
    stats::ValueTally values;
    std::size_t cells = 0;
  };
  std::vector<SlotTotals> slots;

  void consume(const CellRecord& rec, const CellFolder& folder);
  /// Per observed key in ascending ParamKey order — the order
  /// rank_diversity's unstable sort must see (slot order would reorder
  /// Simpson ties).
  std::map<config::ParamKey, KeyTotals> finish(
      std::span<const config::ParamKey> slot_keys) const;
};

/// Fig 19: each LTE key's uniques grouped by the serving channel of the LTE
/// cells that observed it: a tally per (slot, channel index).
struct DependenceAcc {
  std::unordered_map<long, std::uint32_t> channel_index;
  std::vector<long> channels;  ///< by channel index
  std::vector<std::vector<stats::ValueTally>> groups;  ///< [slot][channel]

  void consume(const CellRecord& rec, const CellFolder& folder);
  std::vector<ParamDependence> finish(
      std::span<const config::ParamKey> slot_keys) const;
};

/// Fig 18 (serving): serving-priority uniques grouped by channel, plus the
/// compact per-cell retention the multi-priority minority pass needs — the
/// groups only finalize after the whole carrier, so each observing LTE cell
/// keeps its channel and unique priority values (a few bytes per cell).
struct ServingPriorityAcc {
  FactorTallies groups;
  std::size_t lte_cells = 0;
  std::vector<long> cell_channel;
  std::vector<std::uint32_t> value_begin;
  std::vector<double> values;

  void consume(const CellRecord& rec, const CellFolder& folder);
  /// `finished` is groups.finish().
  double multi_priority_fraction(
      const std::map<long, stats::ValueCounts>& finished) const;
};

/// Fig 18 (candidate): neighbor priorities grouped by target channel.
struct CandidatePriorityAcc {
  FactorTallies groups;

  void consume(const CellRecord& rec, const CellFolder& folder);
};

/// Fig 20: serving-priority uniques grouped by the city holding the cell.
struct CityPriorityAcc {
  explicit CityPriorityAcc(const std::vector<geo::City>& city_list)
      : cities(&city_list) {}

  const std::vector<geo::City>* cities;
  FactorTallies groups;

  void consume(const CellRecord& rec, const CellFolder& folder);
};

/// Fig 21: Simpson index of `key` among the LTE cells within radius of each
/// LTE cell in the city.  finish() tallies each cell's neighborhood in one
/// reused ValueTally.
struct SpatialAcc {
  explicit SpatialAcc(const SpatialQuery& q) : query(q), index(q.radius_m) {}

  SpatialQuery query;
  geo::GridIndex index;
  std::vector<geo::Point> positions;
  std::vector<std::uint32_t> value_begin;
  std::vector<double> values;

  void consume(const CellRecord& rec, const CellFolder& folder);
  std::vector<double> finish() const;
};

/// Fig 11: per LTE cell, the pairwise gaps between the latest measurement
/// and decision thresholds.
struct GapsAcc {
  MeasurementGaps gaps;

  void consume(const CellRecord& rec, const CellFolder& folder);
};

/// The whole accumulator set behind one pass, with its own CellFolder (the
/// folder is stateful — one bundle per concurrent carrier).  consume() runs
/// the folder once per cell and hands the folded cell to every accumulator.
class FiguresAcc {
 public:
  explicit FiguresAcc(const MixOptions& options);

  void consume(const CellRecord& rec);
  CarrierFigures finish(std::string carrier);

 private:
  const MixOptions* options_;
  CellFolder folder_;
  DiversityAcc diversity_;
  DependenceAcc dependence_;
  ServingPriorityAcc serving_;
  CandidatePriorityAcc candidate_;
  CityPriorityAcc city_;
  GapsAcc gaps_;
  std::optional<SpatialAcc> spatial_;
};

// --- the ConfigDatabase cell source ----------------------------------------

/// Every product of one carrier from one walk over its cells.  An unknown
/// carrier yields empty products.
CarrierFigures analyze_carrier(const ConfigDatabase& db,
                               const std::string& carrier,
                               const MixOptions& options = {});

/// Every carrier, in name order.  Carriers walk concurrently on `threads`
/// workers (0 = hardware concurrency), largest first so the longest walk
/// starts immediately; each carrier's result is independent of the others,
/// so the output is identical for every thread count.
std::vector<CarrierFigures> analyze_database(const ConfigDatabase& db,
                                             const MixOptions& options = {},
                                             unsigned threads = 0);

}  // namespace mmlab::core
