#include "mmlab/core/analysis.hpp"

#include <algorithm>

#include "mmlab/geo/grid_index.hpp"

namespace mmlab::core {

std::vector<ParamDiversity> diversity_by_param(
    const ConfigDatabase& db, const std::string& carrier,
    std::optional<spectrum::Rat> rat) {
  std::vector<ParamDiversity> out;
  for (const auto& key : db.observed_params(carrier)) {
    if (rat && key.rat != *rat) continue;
    stats::ValueCounts vc;
    std::size_t cells = 0;
    const auto* cell_map = db.cells_of(carrier);
    if (!cell_map) continue;
    for (const auto& [id, rec] : *cell_map) {
      const auto values = rec.unique_values(key);
      if (values.empty()) continue;
      ++cells;
      for (double v : values) vc.add(v);
    }
    out.push_back({key, stats::measure_diversity(vc), cells});
  }
  std::sort(out.begin(), out.end(),
            [](const ParamDiversity& a, const ParamDiversity& b) {
              return a.measures.simpson < b.measures.simpson;
            });
  return out;
}

std::vector<ParamDependence> frequency_dependence(const ConfigDatabase& db,
                                                  const std::string& carrier) {
  std::vector<ParamDependence> out;
  const auto by_channel = [](const CellRecord& rec) {
    return rec.rat == spectrum::Rat::kLte ? static_cast<long>(rec.channel)
                                          : -1L;
  };
  for (const auto& key : db.observed_params(carrier)) {
    if (key.rat != spectrum::Rat::kLte) continue;
    const auto groups = db.values_grouped(carrier, key, by_channel);
    if (groups.empty()) continue;
    ParamDependence dep;
    dep.key = key;
    dep.zeta_simpson =
        stats::dependence_measure(groups, stats::DiversityMetric::kSimpson);
    dep.zeta_cv =
        stats::dependence_measure(groups, stats::DiversityMetric::kCv);
    out.push_back(dep);
  }
  return out;
}

std::map<long, stats::ValueCounts> priority_by_channel(
    const ConfigDatabase& db, const std::string& carrier, bool candidate) {
  if (candidate) {
    // Candidate priorities are per target frequency (observation context).
    return db.values_by_context(
        carrier, config::lte_param(config::ParamId::kNeighborPriority));
  }
  return db.values_grouped(
      carrier, config::lte_param(config::ParamId::kServingPriority),
      [](const CellRecord& rec) {
        return rec.rat == spectrum::Rat::kLte ? static_cast<long>(rec.channel)
                                              : -1L;
      });
}

double multi_priority_cell_fraction(const ConfigDatabase& db,
                                    const std::string& carrier) {
  // A cell is "conflicted" when its channel carries more than one observed
  // serving-priority value across the carrier's cells.
  const auto groups = priority_by_channel(db, carrier, /*candidate=*/false);
  const auto* cells = db.cells_of(carrier);
  if (!cells) return 0.0;
  // Among conflicted channels, only the minority-value cells are actually
  // inconsistent; count cells holding a non-modal value.
  std::size_t lte_cells = 0, minority = 0;
  const auto prio_key = config::lte_param(config::ParamId::kServingPriority);
  for (const auto& [id, rec] : *cells) {
    if (rec.rat != spectrum::Rat::kLte) continue;
    ++lte_cells;
    const auto it = groups.find(static_cast<long>(rec.channel));
    if (it == groups.end() || it->second.richness() <= 1) continue;
    const double mode = it->second.mode();
    for (double v : rec.unique_values(prio_key))
      if (v != mode) {
        ++minority;
        break;
      }
  }
  return lte_cells == 0 ? 0.0
                        : static_cast<double>(minority) /
                              static_cast<double>(lte_cells);
}

std::map<long, stats::ValueCounts> priority_by_city(
    const ConfigDatabase& db, const std::string& carrier,
    const std::vector<geo::City>& cities) {
  const auto key = config::lte_param(config::ParamId::kServingPriority);
  return db.values_grouped(carrier, key, [&](const CellRecord& rec) -> long {
    if (rec.rat != spectrum::Rat::kLte) return -1;
    for (const auto& city : cities)
      if (geo::contains(city, rec.position)) return city.id;
    return -1;
  });
}

std::vector<double> spatial_diversity(const ConfigDatabase& db,
                                      const std::string& carrier,
                                      config::ParamKey key,
                                      const geo::City& city, double radius_m) {
  const auto* cells = db.cells_of(carrier);
  std::vector<double> out;
  if (!cells) return out;
  // Spatial index over this carrier's LTE cells in the city.
  std::vector<const CellRecord*> recs;
  geo::GridIndex index(radius_m);
  for (const auto& [id, rec] : *cells) {
    if (rec.rat != spectrum::Rat::kLte) continue;
    if (!geo::contains(city, rec.position)) continue;
    index.insert(static_cast<std::uint32_t>(recs.size()), rec.position);
    recs.push_back(&rec);
  }
  for (const auto* center : recs) {
    stats::ValueCounts cluster;
    index.for_each_in_radius(center->position, radius_m, [&](std::uint32_t i) {
      for (double v : recs[i]->unique_values(key)) cluster.add(v);
    });
    if (cluster.total() >= 2) out.push_back(cluster.simpson_index());
  }
  return out;
}

TemporalStats temporal_dynamics(const ConfigDatabase& db,
                                const std::string& carrier) {
  TemporalStats ts;
  ts.samples_per_cell_histogram.assign(21, 0);  // [0]=1 sample ... [19]=20, [20]=20+
  const auto* cells = db.cells_of(carrier);
  if (!cells) return ts;
  const auto prio_key = config::lte_param(config::ParamId::kServingPriority);
  std::size_t lte_cells = 0, multi = 0, idle_updated = 0, active_updated = 0;
  std::vector<Millis> idle_gaps, active_gaps;
  for (const auto& [id, rec] : *cells) {
    if (rec.rat != spectrum::Rat::kLte) continue;
    const std::size_t n = rec.sample_count(prio_key);
    if (n == 0) continue;
    ++lte_cells;
    const std::size_t bucket = std::min<std::size_t>(n, 21) - 1;
    ++ts.samples_per_cell_histogram[bucket];
    if (n <= 1) continue;
    ++multi;
    // A parameter "updated" = observed with >1 distinct value over time.
    // Per-frequency / per-event parameters can legitimately hold several
    // simultaneous values in one snapshot; only single-occurrence
    // parameters give clean temporal evidence.  Record the smallest
    // observation gap at which a change is visible, per class.
    auto is_idle_evidence = [&](config::ParamKey key) {
      return key == prio_key ||
             key == config::lte_param(config::ParamId::kSNonIntraSearch) ||
             key == config::lte_param(config::ParamId::kThreshServingLow) ||
             key == config::lte_param(config::ParamId::kQOffsetEqual) ||
             key == config::lte_param(config::ParamId::kSIntraSearch);
    };
    auto is_active_evidence = [&](config::ParamKey key) {
      return key == config::lte_param(config::ParamId::kA3Offset) ||
             key == config::lte_param(config::ParamId::kA5Threshold1) ||
             key == config::lte_param(config::ParamId::kA5Threshold2) ||
             key == config::lte_param(config::ParamId::kA2Threshold) ||
             key == config::lte_param(config::ParamId::kPeriodicInterval);
    };
    std::map<config::ParamKey, std::vector<std::pair<SimTime, double>>> series;
    rec.for_each_row([&](const Observation& obs) {
      if (is_idle_evidence(obs.key) || is_active_evidence(obs.key))
        series[obs.key].emplace_back(obs.t, obs.value);
    });
    Millis idle_gap = -1, active_gap = -1;
    auto note_gap = [](Millis& slot, Millis gap) {
      if (slot < 0 || gap < slot) slot = gap;
    };
    for (auto& [key, points] : series) {
      std::sort(points.begin(), points.end());
      for (std::size_t i = 1; i < points.size(); ++i) {
        if (points[i].second == points[i - 1].second) continue;
        const Millis gap = points[i].first - points[i - 1].first;
        if (is_idle_evidence(key)) note_gap(idle_gap, gap);
        if (is_active_evidence(key)) note_gap(active_gap, gap);
        break;
      }
    }
    // A reconfiguration that swaps the decisive event type (A3 <-> A5)
    // leaves each parameter single-valued but both families observed.
    const auto a3_it =
        series.find(config::lte_param(config::ParamId::kA3Offset));
    const auto a5_it =
        series.find(config::lte_param(config::ParamId::kA5Threshold1));
    if (a3_it != series.end() && a5_it != series.end()) {
      const Millis gap = std::abs(a5_it->second.front().first -
                                  a3_it->second.front().first);
      note_gap(active_gap, gap);
    }
    if (idle_gap >= 0) {
      ++idle_updated;
      idle_gaps.push_back(idle_gap);
    }
    if (active_gap >= 0) {
      ++active_updated;
      active_gaps.push_back(active_gap);
    }
  }
  ts.fraction_multi_sample =
      lte_cells == 0 ? 0.0
                     : static_cast<double>(multi) / static_cast<double>(lte_cells);
  ts.idle_update_fraction =
      multi == 0 ? 0.0
                 : static_cast<double>(idle_updated) / static_cast<double>(multi);
  ts.active_update_fraction =
      multi == 0 ? 0.0
                 : static_cast<double>(active_updated) / static_cast<double>(multi);
  const double horizons_days[] = {1.0 / 24.0, 1.0, 7.0, 30.0, 180.0, 1e9};
  for (const double days : horizons_days) {
    TemporalStats::Horizon h;
    h.days = days;
    const auto horizon_ms = static_cast<Millis>(days * kMillisPerDay);
    std::size_t idle_n = 0, active_n = 0;
    for (const Millis g : idle_gaps) idle_n += g <= horizon_ms;
    for (const Millis g : active_gaps) active_n += g <= horizon_ms;
    if (multi > 0) {
      h.idle_fraction = static_cast<double>(idle_n) / static_cast<double>(multi);
      h.active_fraction =
          static_cast<double>(active_n) / static_cast<double>(multi);
    }
    ts.by_horizon.push_back(h);
  }
  return ts;
}

MeasurementGaps measurement_decision_gaps(const ConfigDatabase& db,
                                          const std::string& carrier) {
  MeasurementGaps gaps;
  auto process = [&](const ConfigDatabase::CellMap& cells) {
    for (const auto& [id, rec] : cells) {
      if (rec.rat != spectrum::Rat::kLte) continue;
      const auto intra =
          rec.latest(config::lte_param(config::ParamId::kSIntraSearch));
      const auto nonintra =
          rec.latest(config::lte_param(config::ParamId::kSNonIntraSearch));
      const auto slow =
          rec.latest(config::lte_param(config::ParamId::kThreshServingLow));
      if (intra && nonintra)
        gaps.intra_minus_nonintra.push_back(*intra - *nonintra);
      if (intra && slow) gaps.intra_minus_slow.push_back(*intra - *slow);
      if (nonintra && slow)
        gaps.nonintra_minus_slow.push_back(*nonintra - *slow);
    }
  };
  if (!carrier.empty()) {
    if (const auto* cells = db.cells_of(carrier)) process(*cells);
  } else {
    for (const auto& [name, cells] : db.carriers()) process(cells);
  }
  return gaps;
}

std::vector<ConfigChange> describe_changes(const CellRecord& rec) {
  // Only single-occurrence parameters give unambiguous change evidence;
  // per-frequency and per-event parameters may legitimately coexist with
  // several values inside one snapshot.
  std::map<config::ParamKey, std::vector<std::pair<SimTime, double>>> series;
  rec.for_each_row([&series](const Observation& obs) {
    if (obs.context >= 0) return;  // per-frequency: skip
    series[obs.key].emplace_back(obs.t, obs.value);
  });
  std::vector<ConfigChange> changes;
  for (auto& [key, points] : series) {
    std::stable_sort(points.begin(), points.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    // Parameters that occur several times within one snapshot (e.g. the
    // report amount of each configured event) are ambiguous — skip them.
    bool ambiguous = false;
    for (std::size_t i = 1; i < points.size(); ++i)
      if (points[i].first == points[i - 1].first &&
          points[i].second != points[i - 1].second)
        ambiguous = true;
    if (ambiguous) continue;
    for (std::size_t i = 1; i < points.size(); ++i) {
      if (points[i].second == points[i - 1].second) continue;
      if (points[i].first == points[i - 1].first) continue;  // same snapshot
      ConfigChange change;
      change.key = key;
      change.from = points[i - 1].second;
      change.to = points[i].second;
      change.first_seen = points[i - 1].first;
      change.changed_at = points[i].first;
      change.active_state = config::is_active_state_param(key);
      changes.push_back(change);
    }
  }
  std::sort(changes.begin(), changes.end(),
            [](const ConfigChange& a, const ConfigChange& b) {
              return a.changed_at < b.changed_at;
            });
  return changes;
}

std::vector<RatShare> rat_breakdown(const ConfigDatabase& db) {
  std::map<spectrum::Rat, std::size_t> counts;
  std::size_t total = 0;
  for (const auto& [carrier, cells] : db.carriers()) {
    for (const auto& [id, rec] : cells) {
      ++counts[rec.rat];
      ++total;
    }
  }
  std::vector<RatShare> out;
  for (const auto rat : spectrum::kAllRats) {
    RatShare share;
    share.rat = rat;
    share.cells = counts.count(rat) ? counts[rat] : 0;
    share.fraction = total == 0 ? 0.0
                                : static_cast<double>(share.cells) /
                                      static_cast<double>(total);
    out.push_back(share);
  }
  return out;
}

}  // namespace mmlab::core
