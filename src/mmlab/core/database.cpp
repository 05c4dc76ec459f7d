#include "mmlab/core/database.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace mmlab::core {

std::vector<double> CellRecord::unique_values(config::ParamKey key) const {
  std::vector<double> out;
  for (const auto& obs : observations) {
    if (obs.key != key) continue;
    if (std::find(out.begin(), out.end(), obs.value) == out.end())
      out.push_back(obs.value);
  }
  return out;
}

std::optional<double> CellRecord::latest(config::ParamKey key) const {
  std::optional<double> best;
  SimTime best_t{-1};
  for (const auto& obs : observations) {
    if (obs.key == key && obs.t >= best_t) {
      best = obs.value;
      best_t = obs.t;
    }
  }
  return best;
}

std::size_t CellRecord::sample_count(config::ParamKey key) const {
  std::size_t n = 0;
  for (const auto& obs : observations)
    if (obs.key == key) ++n;
  for (const Repeat& r : repeats)
    for (std::size_t k = r.begin; k < r.end; ++k)
      if (observations[k].key == key) ++n;
  return n;
}

std::size_t CellRecord::row_count() const {
  std::size_t n = observations.size();
  for (const Repeat& r : repeats) n += r.end - r.begin;
  return n;
}

std::vector<Observation> CellRecord::expanded() const {
  std::vector<Observation> rows;
  rows.reserve(row_count());
  for_each_row([&rows](const Observation& obs) { rows.push_back(obs); });
  return rows;
}

void CellRecord::expand() {
  if (repeats.empty()) return;
  auto& obs = observations;
  std::size_t added = 0;
  for (const Repeat& m : repeats) added += m.end - m.begin;
  // Back to front, in place: the rows after each repeat move up to their
  // final place, then the repeat's rows are copied in below them.  Every
  // row still to be read lies below `read` and every write lands at or
  // above it, so no source is overwritten before it is copied.
  std::size_t read = obs.size();
  obs.reserve(read + added);  // exactly: a record keeps no slack
  obs.resize(read + added);
  std::size_t write = obs.size();
  for (auto m = repeats.rbegin(); m != repeats.rend(); ++m) {
    const auto first = obs.begin();
    std::move_backward(first + static_cast<std::ptrdiff_t>(m->at),
                       first + static_cast<std::ptrdiff_t>(read),
                       first + static_cast<std::ptrdiff_t>(write));
    write -= read - m->at;
    read = m->at;
    write -= m->end - m->begin;
    for (std::size_t k = 0; k < m->end - m->begin; ++k) {
      obs[write + k] = obs[m->begin + k];
      obs[write + k].t = SimTime{m->t_ms};
    }
  }
  repeats = {};
}

bool CellRecord::operator==(const CellRecord& o) const {
  if (cell_id != o.cell_id || rat != o.rat || channel != o.channel ||
      position != o.position)
    return false;
  if (repeats.empty() && o.repeats.empty())
    return observations == o.observations;
  return row_count() == o.row_count() && expanded() == o.expanded();
}

void CellRecord::merge_from(CellRecord&& other) {
  if (other.observations.empty()) return;
  expand();
  other.expand();
  rows_only = false;  // the merged rows are re-checked before a repeat
  if (observations.empty() ||
      other.observations.front().t < observations.front().t) {
    // The other side saw this cell first; its camp metadata wins, as it
    // would have under serial extraction.
    rat = other.rat;
    channel = other.channel;
    position = other.position;
  }
  auto& obs = observations;
  const auto mid_pos = static_cast<std::ptrdiff_t>(obs.size());
  obs.insert(obs.end(), std::make_move_iterator(other.observations.begin()),
             std::make_move_iterator(other.observations.end()));
  const auto by_t = [](const Observation& a, const Observation& b) {
    return a.t < b.t;
  };
  const auto mid = obs.begin() + mid_pos;
  // Extraction appends observations in crawl-time order, so both halves are
  // already timestamp-sorted and an O(n) merge suffices.  inplace_merge
  // keeps first-range-before-second for equal timestamps — the same
  // this-before-other stability stable_sort gave.  Hand-built databases may
  // violate the sorted precondition, so check and fall back rather than
  // hand inplace_merge UB.
  if (std::is_sorted(obs.begin(), mid, by_t) &&
      std::is_sorted(mid, obs.end(), by_t)) {
    std::inplace_merge(obs.begin(), mid, obs.end(), by_t);
  } else {
    std::stable_sort(obs.begin(), obs.end(), by_t);
  }
}

namespace {

/// Rows [0, n) form one t-sorted run whose first t is >= -1.
bool sorted_from_minus_one(const std::vector<Observation>& obs) {
  if (!obs.empty() && obs.front().t.ms < -1) return false;
  for (std::size_t i = 1; i < obs.size(); ++i)
    if (obs[i].t < obs[i - 1].t) return false;
  return true;
}

/// Start of the maximal equal-t run of rows ending before `end`, not
/// reaching below `floor`.
std::size_t run_begin(const std::vector<Observation>& obs, std::size_t floor,
                      std::size_t end) {
  std::size_t b = end - 1;
  while (b > floor && obs[b - 1].t == obs[end - 1].t) --b;
  return b;
}

}  // namespace

bool CellRecord::repeats_hold() const {
  if (repeats.empty()) return true;
  const auto& obs = observations;
  if (!sorted_from_minus_one(obs)) return false;
  for (std::size_t k = 0; k < repeats.size(); ++k) {
    const Repeat& r = repeats[k];
    if (r.at == 0 || r.at > obs.size()) return false;
    const Repeat* prev = k > 0 ? &repeats[k - 1] : nullptr;
    std::int64_t prev_t;
    if (prev && prev->at > r.at) return false;
    if (prev && prev->at == r.at) {  // a repeat again
      if (r.begin != prev->begin || r.end != prev->end) return false;
      prev_t = prev->t_ms;
    } else {  // the run of rows just before it
      if (r.end != r.at || r.begin != run_begin(obs, prev ? prev->at : 0, r.at))
        return false;
      prev_t = obs[r.at - 1].t.ms;
    }
    if (r.t_ms <= prev_t) return false;
    if (k + 1 < repeats.size() && repeats[k + 1].at == r.at) continue;
    if (r.at < obs.size() && obs[r.at].t.ms <= r.t_ms) return false;
  }
  return true;
}

namespace {

/// The time of the record's last entry: its trailing repeat's, or its
/// last row's.  The record holds rows.
std::int64_t last_t(const CellRecord& rec) {
  const auto& obs = rec.observations;
  return !rec.repeats.empty() && rec.repeats.back().at == obs.size()
             ? rec.repeats.back().t_ms
             : obs.back().t.ms;
}

/// File `n` rows at `t` as a repeat of the tail snapshot (the last repeat,
/// when it is the last entry, or else the last run of equal-t rows), when
/// the invariant allows it and `same(tail rows)` says they equal it.  `t`
/// is tested first, so a filing at the tail's time never walks the tail.
/// A record whose rows turn out to break the invariant is marked rows_only.
template <typename Same>
bool file_repeat(CellRecord& rec, SimTime t, std::size_t n, Same same) {
  if (n == 0 || rec.rows_only || rec.observations.empty() ||
      t.ms <= last_t(rec))
    return false;
  const auto& obs = rec.observations;
  std::size_t begin, end = obs.size();
  if (!rec.repeats.empty() && rec.repeats.back().at == end) {
    begin = rec.repeats.back().begin;
    end = rec.repeats.back().end;
  } else {
    begin = run_begin(obs, rec.repeats.empty() ? 0 : rec.repeats.back().at,
                      end);
  }
  if (end - begin != n || !same(obs.data() + begin)) return false;
  if (rec.repeats.empty() && !sorted_from_minus_one(obs)) {
    rec.rows_only = true;
    return false;
  }
  rec.repeats.push_back({t.ms, obs.size(), begin, end});
  return true;
}

/// Append `params` at `t` as rows.  A record with repeats is expanded
/// first when the rows would break the invariant (out of time order, or
/// sharing the time of a trailing repeat).
void file_rows(CellRecord& rec, std::uint32_t cell_id, spectrum::Rat rat,
               std::uint32_t channel, geo::Point position, SimTime t,
               const std::vector<config::ParamObservation>& params) {
  if (rec.observations.empty()) {  // the first-camp rule
    rec.cell_id = cell_id;
    rec.rat = rat;
    rec.channel = channel;
    rec.position = position;
  }
  if (!params.empty() && !rec.repeats.empty()) {
    const std::int64_t tail_t = last_t(rec);
    const bool repeat_tail = rec.repeats.back().at == rec.observations.size();
    if (t.ms < tail_t || (t.ms == tail_t && repeat_tail)) {
      if (t.ms < tail_t) rec.rows_only = true;
      rec.expand();
    }
  }
  rec.observations.reserve(rec.observations.size() + params.size());
  for (const auto& p : params)
    rec.observations.push_back({p.key, p.value, t, p.context});
}

}  // namespace

void ConfigDatabase::add_snapshot(
    const std::string& carrier, std::uint32_t cell_id, spectrum::Rat rat,
    std::uint32_t channel, geo::Point position, SimTime t,
    const std::vector<config::ParamObservation>& params) {
  CellRecord& rec = carriers_[carrier][cell_id];
  if (!file_repeat(rec, t, params.size(), [&params](const Observation* rows) {
        return same_snapshot(rows, params.data(), params.size());
      }))
    file_rows(rec, cell_id, rat, channel, position, t, params);
}

void ConfigDatabase::refile_snapshot(const std::string& carrier,
                                     std::uint32_t cell_id, spectrum::Rat rat,
                                     std::uint32_t channel,
                                     geo::Point position, SimTime t,
                                     std::size_t n) {
  CellRecord& rec = carriers_[carrier][cell_id];
  // The tail holds the last filing: a repeat of n rows, or rows that end in
  // its n rows.  Equal to the tail snapshot exactly when that is n long.
  if (file_repeat(rec, t, n, [](const Observation*) { return true; })) return;
  std::vector<config::ParamObservation> params;
  if (n > 0) {
    const auto& obs = rec.observations;
    if (obs.size() < n)
      throw std::logic_error("refile_snapshot: the cell holds no such filing");
    const bool repeat = !rec.repeats.empty() && rec.repeats.back().at == obs.size();
    const std::size_t begin = repeat ? rec.repeats.back().begin : obs.size() - n;
    params.reserve(n);
    for (std::size_t k = begin; k < begin + n; ++k)
      params.push_back({obs[k].key, obs[k].value, obs[k].context});
  }
  file_rows(rec, cell_id, rat, channel, position, t, params);
}

void ConfigDatabase::trim_repeats(const std::string& carrier) {
  const auto it = carriers_.find(carrier);
  if (it == carriers_.end()) return;
  for (auto& [id, rec] : it->second) rec.repeats.shrink_to_fit();
}

void ConfigDatabase::merge(ConfigDatabase&& other) {
  for (auto& [carrier, cells] : other.carriers_) {
    CellMap& dst = carriers_[carrier];
    for (auto& [id, rec] : cells) {
      auto [it, inserted] = dst.try_emplace(id, std::move(rec));
      if (inserted) continue;
      it->second.merge_from(std::move(rec));
    }
  }
  other.carriers_.clear();
}

const ConfigDatabase::CellMap* ConfigDatabase::cells_of(
    const std::string& carrier) const {
  const auto it = carriers_.find(carrier);
  return it == carriers_.end() ? nullptr : &it->second;
}

std::size_t ConfigDatabase::cell_count(const std::string& carrier) const {
  const auto* cells = cells_of(carrier);
  return cells ? cells->size() : 0;
}

std::size_t ConfigDatabase::sample_count(const std::string& carrier) const {
  const auto* cells = cells_of(carrier);
  if (!cells) return 0;
  std::size_t n = 0;
  for (const auto& [id, rec] : *cells) n += rec.row_count();
  return n;
}

std::size_t ConfigDatabase::total_cells() const {
  std::size_t n = 0;
  for (const auto& [carrier, cells] : carriers_) n += cells.size();
  return n;
}

std::size_t ConfigDatabase::total_samples() const {
  std::size_t n = 0;
  for (const auto& [carrier, cells] : carriers_)
    for (const auto& [id, rec] : cells) n += rec.row_count();
  return n;
}

stats::ValueCounts ConfigDatabase::values(const std::string& carrier,
                                          config::ParamKey key) const {
  stats::ValueCounts vc;
  const auto* cells = cells_of(carrier);
  if (!cells) return vc;
  for (const auto& [id, rec] : *cells)
    for (double v : rec.unique_values(key)) vc.add(v);
  return vc;
}

std::map<long, stats::ValueCounts> ConfigDatabase::values_grouped(
    const std::string& carrier, config::ParamKey key,
    const std::function<long(const CellRecord&)>& factor) const {
  std::map<long, stats::ValueCounts> groups;
  const auto* cells = cells_of(carrier);
  if (!cells) return groups;
  for (const auto& [id, rec] : *cells) {
    const long f = factor(rec);
    if (f < 0) continue;
    for (double v : rec.unique_values(key)) groups[f].add(v);
  }
  return groups;
}

std::map<long, stats::ValueCounts> ConfigDatabase::values_by_context(
    const std::string& carrier, config::ParamKey key) const {
  std::map<long, stats::ValueCounts> groups;
  const auto* cells = cells_of(carrier);
  if (!cells) return groups;
  for (const auto& [id, rec] : *cells) {
    // Unique (context, value) pairs per cell.
    std::set<std::pair<std::int64_t, double>> seen;
    for (const auto& obs : rec.observations) {
      if (obs.key != key || obs.context < 0) continue;
      if (seen.insert({obs.context, obs.value}).second)
        groups[static_cast<long>(obs.context)].add(obs.value);
    }
  }
  return groups;
}

std::vector<config::ParamKey> ConfigDatabase::observed_params(
    const std::string& carrier) const {
  std::set<config::ParamKey> keys;
  const auto* cells = cells_of(carrier);
  if (!cells) return {};
  for (const auto& [id, rec] : *cells)
    for (const auto& obs : rec.observations) keys.insert(obs.key);
  return {keys.begin(), keys.end()};
}

}  // namespace mmlab::core
