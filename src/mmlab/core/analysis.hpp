// Figure-level analyses over the crawled ConfigDatabase (paper §5).
//
// Each function computes exactly one figure's statistic from crawled data.
// Nothing here reads the deployment — only the database, plus city extents
// for the location joins (the MMLab server knows the measurement cities).
//
// The fig11–22 scans below are plain, per-call database scans kept as the
// reference oracle: production callers compute those products through the
// accumulators in core/figures.hpp, and the test suites pin the two
// bit-identical.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mmlab/core/database.hpp"
#include "mmlab/geo/region.hpp"
#include "mmlab/stats/descriptive.hpp"

namespace mmlab::core {

// --- Fig 16 / 17 / 22: diversity ------------------------------------------

struct ParamDiversity {
  config::ParamKey key;
  stats::DiversityMeasures measures;
  std::size_t cells = 0;  ///< cells contributing at least one value
};

/// Diversity of every observed parameter of one carrier (optionally one
/// RAT), sorted by increasing Simpson index (Fig 16's x-axis order).
std::vector<ParamDiversity> diversity_by_param(
    const ConfigDatabase& db, const std::string& carrier,
    std::optional<spectrum::Rat> rat = std::nullopt);

// --- Fig 19: frequency dependence ------------------------------------------

struct ParamDependence {
  config::ParamKey key;
  double zeta_simpson = 0.0;
  double zeta_cv = 0.0;
};

/// Eq. 5 with the factor = serving channel, per parameter (LTE cells).
std::vector<ParamDependence> frequency_dependence(const ConfigDatabase& db,
                                                  const std::string& carrier);

// --- Fig 18: priority per channel -------------------------------------------

/// Serving-priority (or candidate-priority) value counts per EARFCN.
std::map<long, stats::ValueCounts> priority_by_channel(
    const ConfigDatabase& db, const std::string& carrier, bool candidate);

/// Fraction of LTE cells whose channel carries more than one observed
/// serving-priority value (the paper's 6.3 % conflict figure).
double multi_priority_cell_fraction(const ConfigDatabase& db,
                                    const std::string& carrier);

// --- Fig 20 / 21: location --------------------------------------------------

/// Serving-priority counts per city (cities located by the GPS join).
std::map<long, stats::ValueCounts> priority_by_city(
    const ConfigDatabase& db, const std::string& carrier,
    const std::vector<geo::City>& cities);

/// Fig 21 spatial diversity: for every LTE cell of the carrier inside
/// `city`, the Simpson index of `key` values among cells within
/// `radius_m`.  Returns the per-cell values (boxplot them).
std::vector<double> spatial_diversity(const ConfigDatabase& db,
                                      const std::string& carrier,
                                      config::ParamKey key,
                                      const geo::City& city, double radius_m);

// --- Fig 13: temporal dynamics ----------------------------------------------

struct TemporalStats {
  /// Histogram of per-cell sample counts for the serving-priority parameter
  /// (Fig 13a), bucketed 1..20, last bucket = 20+.
  std::vector<std::size_t> samples_per_cell_histogram;
  double fraction_multi_sample = 0.0;  ///< cells with > 1 sample
  /// Fraction of multi-sample cells whose idle-state (resp. active-state)
  /// parameters were observed with more than one value — the Fig 13b
  /// update rates.
  double idle_update_fraction = 0.0;
  double active_update_fraction = 0.0;
  /// Fig 13b's x-axis: cumulative update fractions for updates detected
  /// within a given observation gap.
  struct Horizon {
    double days = 0.0;
    double idle_fraction = 0.0;
    double active_fraction = 0.0;
  };
  std::vector<Horizon> by_horizon;  ///< 1/24, 1, 7, 30, 180, +inf days
};

TemporalStats temporal_dynamics(const ConfigDatabase& db,
                                const std::string& carrier);

// --- Fig 11: measurement-vs-decision gaps -----------------------------------

struct MeasurementGaps {
  std::vector<double> intra_minus_nonintra;   ///< Θintra − Θnonintra
  std::vector<double> intra_minus_slow;       ///< Θintra − Θ(s)lower
  std::vector<double> nonintra_minus_slow;    ///< Θnonintra − Θ(s)lower
};

/// Per LTE cell (latest values). Empty carrier = pool all carriers.
MeasurementGaps measurement_decision_gaps(const ConfigDatabase& db,
                                          const std::string& carrier = "");

// --- reconfiguration forensics ------------------------------------------------

/// One observed parameter change at a cell (from multi-round crawling).
struct ConfigChange {
  config::ParamKey key;
  double from = 0.0;
  double to = 0.0;
  SimTime first_seen;   ///< when the old value was last observed
  SimTime changed_at;   ///< when the new value was first observed
  bool active_state = false;
};

/// All single-occurrence-parameter changes visible in a cell's observation
/// history, in time order — what an operator would want to see when
/// auditing a reconfiguration (§6's troubleshooting suggestion).
std::vector<ConfigChange> describe_changes(const CellRecord& rec);

// --- Tab 4: RAT breakdown ----------------------------------------------------

struct RatShare {
  spectrum::Rat rat;
  std::size_t cells = 0;
  double fraction = 0.0;
};

std::vector<RatShare> rat_breakdown(const ConfigDatabase& db);

}  // namespace mmlab::core
