// The crawled-configuration database — MMLab's central data structure.
//
// Everything here is built from decoded diag logs only (device-side view);
// tests assert it agrees with simulator ground truth.  An observation is one
// (parameter, value) pair seen at one cell at one time; a cell accumulates
// observations across crawl rounds.  Queries follow the paper's methodology:
// distribution/diversity statistics count *unique* (cell, value) pairs so
// repeatedly-sampled cells don't tip the distributions (§5.1), while raw
// observation counts are the paper's "samples" (Fig 12).
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mmlab/config/params.hpp"
#include "mmlab/geo/geometry.hpp"
#include "mmlab/stats/diversity.hpp"
#include "mmlab/util/clock.hpp"

namespace mmlab::core {

struct Observation {
  config::ParamKey key;
  double value = 0.0;
  SimTime t;
  std::int64_t context = -1;  ///< see config::ParamObservation::context

  bool operator==(const Observation&) const = default;
};

/// Whether `n` rows of `a` and `b` (Observations or ParamObservations) are
/// one snapshot: key, context and value bits (so -0.0 never repeats 0.0).
/// The one snapshot equality: add_snapshot and encode_cell decide by it.
template <typename A, typename B>
bool same_snapshot(const A* a, const B* b, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k)
    if (a[k].key != b[k].key || a[k].context != b[k].context ||
        std::bit_cast<std::uint64_t>(a[k].value) !=
            std::bit_cast<std::uint64_t>(b[k].value))
      return false;
  return true;
}

/// One repeated snapshot of a CellRecord: the rows [begin, end) of its
/// `observations` again, at `t_ms`, placed before row `at`.  MMDS v2 repeat
/// markers decode into a record's repeats (store/cell_codec.hpp), so the
/// database and the store share one expansion (CellRecord::expand).
struct Repeat {
  std::int64_t t_ms = 0;
  std::size_t at = 0;
  std::size_t begin = 0;
  std::size_t end = 0;

  bool operator==(const Repeat&) const = default;
};

/// One cell's configuration history.
///
/// Repeats.  A *snapshot* is a maximal run of equal-t rows.  A snapshot
/// that equals the one before it (same length, same_snapshot) may be held
/// as a Repeat instead of rows: `observations` holds the
/// distinct snapshots' rows, and `repeats` says where each repeat goes.
/// The *expanded* rows (for_each_row, expanded()) are the rows as filed.
/// A record with repeats keeps this invariant (repeats_hold()):
///   - its expanded rows are one t-sorted run whose first t is >= -1;
///   - each repeat's t is strictly above the entry before it and strictly
///     below the entry after it, so it is a snapshot of its own, and it
///     stands for the whole snapshot before it.
/// So a repeat adds no first-seen value or (context, value) pair and never
/// decides a key's latest value: unique_values, latest, values_by_context
/// and CellFolder read the distinct rows alone and answer as over the
/// expanded rows.  Readers that count or walk rows by time take the
/// expanded view.  Equality is over the expanded rows.
///
/// Accessor costs: unique_values, latest: O(distinct rows); sample_count:
/// O(distinct rows + repeated rows of the key's snapshots), no allocation;
/// row_count: O(repeats); for_each_row: O(expanded rows), no allocation;
/// expanded(): one allocation of the expanded rows.
struct CellRecord {
  std::uint32_t cell_id = 0;
  spectrum::Rat rat = spectrum::Rat::kLte;
  std::uint32_t channel = 0;
  geo::Point position;  ///< device GPS at first camp
  std::vector<Observation> observations;  ///< the distinct snapshots' rows
  std::vector<Repeat> repeats;            ///< in row order
  /// Set once the rows are known to break the invariant (out of time
  /// order, or a first t below -1): ConfigDatabase::add_snapshot then
  /// files rows only.  Not part of equality.
  bool rows_only = false;

  /// Unique values this cell was observed with for `key`, in first-seen
  /// time order.
  std::vector<double> unique_values(config::ParamKey key) const;
  /// Most recent observation of `key`.
  std::optional<double> latest(config::ParamKey key) const;
  /// Number of observations of `key`, repeats included (the Fig 13a
  /// per-cell sample count).
  std::size_t sample_count(config::ParamKey key) const;
  /// Expanded rows: distinct rows plus every repeat's rows.
  std::size_t row_count() const;

  /// Call f(const Observation&) on every expanded row, in order.
  template <typename F>
  void for_each_row(F&& f) const {
    std::size_t i = 0;
    for (const Repeat& r : repeats) {
      for (; i < r.at; ++i) f(observations[i]);
      for (std::size_t k = r.begin; k < r.end; ++k) {
        Observation row = observations[k];
        row.t = SimTime{r.t_ms};
        f(row);
      }
    }
    for (; i < observations.size(); ++i) f(observations[i]);
  }
  /// The expanded rows, as a new vector.
  std::vector<Observation> expanded() const;
  /// Replace the repeats by their rows, in place, growing `observations`
  /// by exactly those rows (no spare capacity).
  void expand();
  /// Whether the repeats meet the invariant above.  O(rows).
  bool repeats_hold() const;
  /// The one keep-or-expand rule, which both store readers apply to every
  /// decoded cell run: keep the repeats when they hold, else expand them.
  void keep_or_expand() {
    if (!repeats_hold()) expand();
  }

  /// Absorb another record of the same cell under ConfigDatabase::merge's
  /// ordering contract: observations re-ordered by timestamp (stable,
  /// this-before-other on equal t, with a stable_sort fallback when either
  /// side isn't already t-sorted), and identity metadata following the side
  /// whose first observation is earliest.  An observation-less `other`
  /// contributes nothing — not even metadata.  Either side's repeats are
  /// expanded first, so the result holds rows only.  Exposed so out-of-core
  /// shard loaders can merge one cell's per-run records bit-identically to a
  /// whole-database merge.
  void merge_from(CellRecord&& other);

  /// Identity metadata and expanded rows equal.
  bool operator==(const CellRecord& o) const;
};

class ConfigDatabase {
 public:
  using CellMap = std::map<std::uint32_t, CellRecord>;

  /// Record one decoded configuration snapshot of a cell: as a Repeat when
  /// CellRecord's invariant allows it (`params` same_snapshot as the
  /// cell's previous snapshot, `t` above its last time, its rows one
  /// t-sorted run from -1), else as rows by an exact `size + n` reserve.
  /// A fresh record takes the camp's identity (the first-camp rule).
  /// Expanded, the record is the rows appended filing by filing
  /// (upsert_cell's append, the reference).  `t` is tested first, so
  /// row-at-a-time filing costs O(1) per row.
  void add_snapshot(const std::string& carrier, std::uint32_t cell_id,
                    spectrum::Rat rat, std::uint32_t channel,
                    geo::Point position, SimTime t,
                    const std::vector<config::ParamObservation>& params);

  /// add_snapshot with the params of the cell's last filing, which had
  /// `n` of them, without naming them: what StreamExtractor files for a
  /// camp whose RRC payloads repeat the cell's previous camp.  The caller
  /// guarantees the cell's last filing had `n` params and that nothing
  /// else changed the record since.
  void refile_snapshot(const std::string& carrier, std::uint32_t cell_id,
                       spectrum::Rat rat, std::uint32_t channel,
                       geo::Point position, SimTime t, std::size_t n);

  /// Bulk-load entry point for dataset deserializers: the (possibly fresh)
  /// record for (carrier, cell_id), for appending observations directly
  /// without per-observation map lookups.  Callers must fill the identity
  /// fields of a fresh record themselves (add_snapshot's first-camp rule),
  /// and may append rows only to a record without repeats.
  CellRecord& upsert_cell(const std::string& carrier, std::uint32_t cell_id) {
    return carriers_[carrier][cell_id];
  }

  /// Give back the spare capacity add_snapshot left in a carrier's repeats.
  void trim_repeats(const std::string& carrier);

  /// Absorb another database (a parallel extraction worker's private shard),
  /// leaving `other` empty.  Deterministic: carriers and cells land in key
  /// order regardless of which worker produced them, and when both sides
  /// observed the same cell its observations are re-ordered by timestamp
  /// (stable, so same-timestamp observations keep this-before-other order).
  /// Cell identity metadata (rat/channel/position) follows the earliest
  /// observation, matching what serial extraction would have recorded first.
  void merge(ConfigDatabase&& other);

  bool operator==(const ConfigDatabase&) const = default;

  const std::map<std::string, CellMap>& carriers() const { return carriers_; }
  const CellMap* cells_of(const std::string& carrier) const;

  std::size_t cell_count(const std::string& carrier) const;
  /// Expanded rows (repeats included), O(cells + repeats).
  std::size_t sample_count(const std::string& carrier) const;
  std::size_t total_cells() const;
  std::size_t total_samples() const;

  /// Unique-per-cell value counts of one parameter across a carrier's
  /// cells (optionally restricted to one RAT).
  stats::ValueCounts values(const std::string& carrier,
                            config::ParamKey key) const;

  /// Same, grouped by an arbitrary cell-level factor (frequency channel,
  /// city id, ...). Cells mapping to a negative factor are skipped.
  std::map<long, stats::ValueCounts> values_grouped(
      const std::string& carrier, config::ParamKey key,
      const std::function<long(const CellRecord&)>& factor) const;

  /// Unique (cell, context, value) counts grouped by observation context —
  /// e.g. candidate priorities grouped by their target channel (Fig 18
  /// bottom). Observations without context (-1) are skipped.
  std::map<long, stats::ValueCounts> values_by_context(
      const std::string& carrier, config::ParamKey key) const;

  /// Every parameter key observed for a carrier (sorted).
  std::vector<config::ParamKey> observed_params(
      const std::string& carrier) const;

 private:
  std::map<std::string, CellMap> carriers_;
};

}  // namespace mmlab::core
