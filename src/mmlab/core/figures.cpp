#include "mmlab/core/figures.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "mmlab/util/worker_pool.hpp"

namespace mmlab::core {

namespace {

config::ParamKey serving_key() {
  return config::lte_param(config::ParamId::kServingPriority);
}
config::ParamKey candidate_key() {
  return config::lte_param(config::ParamId::kNeighborPriority);
}

}  // namespace

const stats::ValueCounts& CarrierFigures::values(config::ParamKey key) const {
  static const stats::ValueCounts kEmpty;
  const auto it = totals.find(key);
  return it == totals.end() ? kEmpty : it->second.values;
}

std::vector<ParamDiversity> rank_diversity(
    const std::map<config::ParamKey, KeyTotals>& totals,
    std::optional<spectrum::Rat> rat) {
  std::vector<ParamDiversity> out;
  out.reserve(totals.size());
  for (const auto& [key, kt] : totals) {
    if (rat && key.rat != *rat) continue;
    out.push_back({key, stats::measure_diversity(kt.values), kt.cells});
  }
  std::sort(out.begin(), out.end(),
            [](const ParamDiversity& a, const ParamDiversity& b) {
              return a.measures.simpson < b.measures.simpson;
            });
  return out;
}

MeasurementGaps pooled_gaps(const std::vector<CarrierFigures>& figures) {
  MeasurementGaps out;
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const auto& f : figures) {
    append(out.intra_minus_nonintra, f.gaps.intra_minus_nonintra);
    append(out.intra_minus_slow, f.gaps.intra_minus_slow);
    append(out.nonintra_minus_slow, f.gaps.nonintra_minus_slow);
  }
  return out;
}

// --- accumulators -----------------------------------------------------------

void FactorTallies::add(long factor, double value) {
  const auto [it, fresh] = index_.try_emplace(
      factor, static_cast<std::uint32_t>(tallies_.size()));
  if (fresh) tallies_.emplace_back(factor, stats::ValueTally{});
  tallies_[it->second].second.add(value);
}

std::map<long, stats::ValueCounts> FactorTallies::finish() const {
  std::map<long, stats::ValueCounts> out;
  for (const auto& [factor, tally] : tallies_)
    out.emplace(factor, tally.counts());
  return out;
}

void DiversityAcc::consume(const CellRecord&, const CellFolder& folder) {
  if (slots.size() < folder.slot_keys().size())
    slots.resize(folder.slot_keys().size());
  const auto uniq = folder.unique_values();
  for (const auto& slice : folder.keys()) {
    SlotTotals& st = slots[slice.slot];
    ++st.cells;
    for (std::uint32_t j = slice.uniq_begin; j < slice.uniq_end; ++j)
      st.values.add(uniq[j]);
  }
}

std::map<config::ParamKey, KeyTotals> DiversityAcc::finish(
    std::span<const config::ParamKey> slot_keys) const {
  std::map<config::ParamKey, KeyTotals> out;
  for (std::size_t slot = 0; slot < slots.size(); ++slot)
    if (slots[slot].cells != 0)
      out.emplace(slot_keys[slot],
                  KeyTotals{slots[slot].values.counts(), slots[slot].cells});
  return out;
}

void DependenceAcc::consume(const CellRecord& rec, const CellFolder& folder) {
  if (rec.rat != spectrum::Rat::kLte) return;
  const long f = static_cast<long>(rec.channel);
  const auto [it, fresh] = channel_index.try_emplace(
      f, static_cast<std::uint32_t>(channels.size()));
  if (fresh) channels.push_back(f);
  const std::uint32_t c = it->second;
  if (groups.size() < folder.slot_keys().size())
    groups.resize(folder.slot_keys().size());
  const auto uniq = folder.unique_values();
  for (const auto& slice : folder.keys()) {
    if (slice.key.rat != spectrum::Rat::kLte) continue;
    auto& by_channel = groups[slice.slot];
    if (by_channel.size() <= c) by_channel.resize(c + 1);
    stats::ValueTally& tally = by_channel[c];
    for (std::uint32_t j = slice.uniq_begin; j < slice.uniq_end; ++j)
      tally.add(uniq[j]);
  }
}

std::vector<ParamDependence> DependenceAcc::finish(
    std::span<const config::ParamKey> slot_keys) const {
  // Keys observed only at non-LTE cells have no tallies, exactly as the
  // oracle skips keys whose grouping comes back empty.  Output is in
  // ascending key order, as the oracle's.
  std::vector<std::pair<config::ParamKey, std::size_t>> keyed;
  for (std::size_t slot = 0; slot < groups.size(); ++slot)
    if (!groups[slot].empty()) keyed.emplace_back(slot_keys[slot], slot);
  std::sort(keyed.begin(), keyed.end());
  std::vector<ParamDependence> out;
  out.reserve(keyed.size());
  for (const auto& [key, slot] : keyed) {
    std::map<long, stats::ValueCounts> by_channel;
    for (std::size_t c = 0; c < groups[slot].size(); ++c)
      if (!groups[slot][c].empty())
        by_channel.emplace(channels[c], groups[slot][c].counts());
    ParamDependence dep;
    dep.key = key;
    dep.zeta_simpson =
        stats::dependence_measure(by_channel, stats::DiversityMetric::kSimpson);
    dep.zeta_cv =
        stats::dependence_measure(by_channel, stats::DiversityMetric::kCv);
    out.push_back(dep);
  }
  return out;
}

void ServingPriorityAcc::consume(const CellRecord& rec,
                                 const CellFolder& folder) {
  const bool lte = rec.rat == spectrum::Rat::kLte;
  if (lte) ++lte_cells;
  const auto uniq = folder.unique_values(serving_key());
  // values_grouped contract: the factor is only consulted for observing
  // cells, and the channel factor maps non-LTE cells to -1 (dropped).
  if (uniq.empty() || !lte) return;
  const long f = static_cast<long>(rec.channel);
  for (const double v : uniq) groups.add(f, v);
  cell_channel.push_back(f);
  value_begin.push_back(static_cast<std::uint32_t>(values.size()));
  values.insert(values.end(), uniq.begin(), uniq.end());
}

double ServingPriorityAcc::multi_priority_fraction(
    const std::map<long, stats::ValueCounts>& finished) const {
  // Among channels carrying more than one serving priority, count the cells
  // holding a non-modal value.
  std::size_t minority = 0;
  for (std::size_t i = 0; i < cell_channel.size(); ++i) {
    const auto it = finished.find(cell_channel[i]);
    if (it == finished.end() || it->second.richness() <= 1) continue;
    const double mode = it->second.mode();
    const std::size_t begin = value_begin[i];
    const std::size_t end =
        i + 1 < value_begin.size() ? value_begin[i + 1] : values.size();
    for (std::size_t j = begin; j < end; ++j)
      if (values[j] != mode) {
        ++minority;
        break;
      }
  }
  return lte_cells == 0 ? 0.0
                        : static_cast<double>(minority) /
                              static_cast<double>(lte_cells);
}

void CandidatePriorityAcc::consume(const CellRecord&,
                                   const CellFolder& folder) {
  const auto* slice = folder.find(candidate_key());
  if (!slice) return;
  const auto contexts = folder.ctx_contexts();
  const auto values = folder.ctx_values();
  for (std::uint32_t j = slice->ctx_begin; j < slice->ctx_end; ++j)
    groups.add(static_cast<long>(contexts[j]), values[j]);
}

void CityPriorityAcc::consume(const CellRecord& rec, const CellFolder& folder) {
  const auto uniq = folder.unique_values(serving_key());
  if (uniq.empty()) return;
  long f = -1;
  if (rec.rat == spectrum::Rat::kLte) {
    for (const auto& city : *cities)
      if (geo::contains(city, rec.position)) {
        f = city.id;
        break;
      }
  }
  if (f < 0) return;
  for (const double v : uniq) groups.add(f, v);
}

void SpatialAcc::consume(const CellRecord& rec, const CellFolder& folder) {
  if (rec.rat != spectrum::Rat::kLte) return;
  if (!geo::contains(query.city, rec.position)) return;
  index.insert(static_cast<std::uint32_t>(positions.size()), rec.position);
  positions.push_back(rec.position);
  value_begin.push_back(static_cast<std::uint32_t>(values.size()));
  const auto uniq = folder.unique_values(query.key);
  values.insert(values.end(), uniq.begin(), uniq.end());
}

std::vector<double> SpatialAcc::finish() const {
  std::vector<double> out;
  stats::ValueTally cluster;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    cluster.clear();
    index.for_each_in_radius(
        positions[i], query.radius_m, [&](std::uint32_t m) {
          const std::size_t begin = value_begin[m];
          const std::size_t end =
              m + 1 < value_begin.size() ? value_begin[m + 1] : values.size();
          for (std::size_t j = begin; j < end; ++j) cluster.add(values[j]);
        });
    // Counts stay far below 2^26 here, so the tally's Simpson is the
    // ordered map's, bit for bit.
    if (cluster.total() >= 2) out.push_back(cluster.simpson_index());
  }
  return out;
}

void GapsAcc::consume(const CellRecord& rec, const CellFolder& folder) {
  if (rec.rat != spectrum::Rat::kLte) return;
  const auto latest = [&](config::ParamId id) -> std::optional<double> {
    const auto* slice = folder.find(config::lte_param(id));
    if (!slice || !slice->has_latest) return std::nullopt;
    return slice->latest;
  };
  const auto intra = latest(config::ParamId::kSIntraSearch);
  const auto nonintra = latest(config::ParamId::kSNonIntraSearch);
  const auto slow = latest(config::ParamId::kThreshServingLow);
  if (intra && nonintra)
    gaps.intra_minus_nonintra.push_back(*intra - *nonintra);
  if (intra && slow) gaps.intra_minus_slow.push_back(*intra - *slow);
  if (nonintra && slow) gaps.nonintra_minus_slow.push_back(*nonintra - *slow);
}

FiguresAcc::FiguresAcc(const MixOptions& options)
    : options_(&options), city_(options.cities) {
  if (options.spatial) spatial_.emplace(*options.spatial);
}

void FiguresAcc::consume(const CellRecord& rec) {
  folder_.fold(rec);
  diversity_.consume(rec, folder_);
  dependence_.consume(rec, folder_);
  serving_.consume(rec, folder_);
  candidate_.consume(rec, folder_);
  city_.consume(rec, folder_);
  gaps_.consume(rec, folder_);
  if (spatial_) spatial_->consume(rec, folder_);
}

CarrierFigures FiguresAcc::finish(std::string carrier) {
  const auto slot_keys = folder_.slot_keys();
  CarrierFigures out;
  out.carrier = std::move(carrier);
  out.totals = diversity_.finish(slot_keys);
  out.diversity = rank_diversity(out.totals, options_->diversity_rat);
  out.dependence = dependence_.finish(slot_keys);
  out.serving_priority = serving_.groups.finish();
  out.multi_priority_fraction =
      serving_.multi_priority_fraction(out.serving_priority);
  out.candidate_priority = candidate_.groups.finish();
  out.priority_by_city = city_.groups.finish();
  if (spatial_) out.spatial_diversity = spatial_->finish();
  out.gaps = std::move(gaps_.gaps);
  return out;
}

// --- ConfigDatabase cell source ---------------------------------------------

CarrierFigures analyze_carrier(const ConfigDatabase& db,
                               const std::string& carrier,
                               const MixOptions& options) {
  FiguresAcc acc(options);
  if (const auto* cells = db.cells_of(carrier))
    for (const auto& [id, rec] : *cells) acc.consume(rec);
  return acc.finish(carrier);
}

std::vector<CarrierFigures> analyze_database(const ConfigDatabase& db,
                                             const MixOptions& options,
                                             unsigned threads) {
  std::vector<const std::string*> names;
  std::vector<std::size_t> rows;
  for (const auto& [name, cells] : db.carriers()) {
    names.push_back(&name);
    std::size_t n = 0;
    for (const auto& [id, rec] : cells) n += rec.row_count();
    rows.push_back(n);
  }
  // The worker pool starts jobs in submission order, so submitting the
  // largest carrier first keeps it from becoming the tail.
  std::vector<std::size_t> order(names.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rows[a] > rows[b];
                   });

  std::vector<CarrierFigures> out(names.size());
  parallel_for_index(threads, order.size(), [&](std::size_t k) {
    const std::size_t i = order[k];
    out[i] = analyze_carrier(db, *names[i], options);
  });
  return out;
}

}  // namespace mmlab::core
