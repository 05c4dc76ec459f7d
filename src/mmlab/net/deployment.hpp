// The carrier network model: cells, carriers, and the Deployment container
// with spatial indexes and the radio environment.
//
// A Deployment is the ground truth the simulator runs against.  MMLab (the
// measurement side) never reads it directly — it sees only what cells
// broadcast over the air; tests assert the crawled view matches this truth.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mmlab/config/cell_config.hpp"
#include "mmlab/geo/grid_index.hpp"
#include "mmlab/geo/region.hpp"
#include "mmlab/radio/link.hpp"
#include "mmlab/spectrum/bands.hpp"

namespace mmlab::net {

using CellId = std::uint32_t;     ///< global cell identity (28-bit)
using CarrierId = std::uint16_t;

struct Carrier {
  CarrierId id = 0;
  std::string name;     ///< "AT&T"
  std::string acronym;  ///< Tab 3 bold letters: "A", "T", "CM", ...
  std::string country;  ///< "US", "CN", ...
};

struct Cell {
  CellId id = 0;
  std::uint16_t pci = 0;   ///< physical cell id (0..503)
  CarrierId carrier = 0;
  spectrum::Channel channel;     ///< RAT + channel number
  geo::Point position;
  geo::CityId city = 0;
  double tx_power_dbm = 15.0;    ///< per-RE reference-signal power
  int bandwidth_prbs = 50;
  /// LTE configuration (meaningful when channel.rat == kLte).
  config::CellConfig lte_config;
  /// Legacy configuration (meaningful otherwise).
  config::LegacyCellConfig legacy_config;

  bool is_lte() const { return channel.rat == spectrum::Rat::kLte; }
};

class Deployment {
 public:
  Deployment();

  // --- construction ---
  /// Registers a carrier and returns its id.  The caller's id is preserved
  /// when not already taken (ids need NOT be dense or equal to the carrier's
  /// position in carriers()); a colliding id is replaced by one larger than
  /// every existing id.
  CarrierId add_carrier(Carrier carrier);
  void add_city(geo::City city);
  /// Adds the cell and indexes it.  Cell ids must be unique: a duplicate id
  /// throws std::invalid_argument and leaves the deployment unchanged.  The
  /// cell's radio constants (path-loss intercept, LTE band) are computed
  /// here, so its position and channel are fixed from now on.
  void add_cell(Cell cell);

  /// Replace a cell's LTE configuration (temporal reconfiguration, Fig 13).
  /// Throws std::invalid_argument for an unknown id.
  void update_lte_config(CellId id, config::CellConfig cfg);

  // --- lookup ---
  const std::vector<Carrier>& carriers() const { return carriers_; }
  const std::vector<geo::City>& cities() const { return cities_; }
  const std::vector<Cell>& cells() const { return cells_; }
  /// Mutable access by index (position and channel are fixed at add time;
  /// only the configuration may be edited — used by temporal
  /// reconfiguration).
  Cell& cell_at(std::size_t index) { return cells_.at(index); }
  /// O(log cells) through the id index.
  const Cell* find_cell(CellId id) const;
  /// Index into cells() of the cell with this id, or kNoCell.
  static constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);
  std::size_t cell_index(CellId id) const;
  /// Index into cells() of `cell`, which must be an element of cells().
  std::size_t index_of(const Cell& cell) const {
    return static_cast<std::size_t>(&cell - cells_.data());
  }
  const Carrier* find_carrier(CarrierId id) const;
  const geo::City* find_city(geo::CityId id) const;

  /// Position of carrier `id` within carriers(), or kNoCarrier if unknown.
  /// Carrier ids are opaque labels; anything indexing a per-carrier array
  /// must go through this instead of using the id directly.
  static constexpr std::size_t kNoCarrier = static_cast<std::size_t>(-1);
  std::size_t carrier_position(CarrierId id) const;

  /// Indices (into cells()) of one carrier's cells within radius of p.
  std::vector<std::uint32_t> cells_near(geo::Point p, double radius_m,
                                        CarrierId carrier) const;

  /// Allocation-free cells_near for the per-tick hot path (UE measurement
  /// and interference scans): invokes fn(index into cells()) per cell in
  /// range.  cells_near stays for the analysis path.
  template <typename Fn>
  void for_each_cell_near(geo::Point p, double radius_m, CarrierId carrier,
                          Fn&& fn) const {
    const std::size_t pos = carrier_position(carrier);
    if (pos == kNoCarrier) return;
    index_per_carrier_[pos]->visit_in_radius(p, radius_m,
                                             std::forward<Fn>(fn));
  }
  /// Both radii in one pass (GridIndex::visit_in_radii): fn(index, inner)
  /// for every cell within radius_m, `inner` set for those that
  /// for_each_cell_near(p, inner_radius_m, carrier) visits, which come in
  /// that call's order.
  template <typename Fn>
  void for_each_cell_near(geo::Point p, double radius_m, double inner_radius_m,
                          CarrierId carrier, Fn&& fn) const {
    const std::size_t pos = carrier_position(carrier);
    if (pos == kNoCarrier) return;
    index_per_carrier_[pos]->visit_in_radii(p, radius_m, inner_radius_m,
                                            std::forward<Fn>(fn));
  }

  // --- radio environment ---
  const radio::PathLossModel& pathloss() const { return pathloss_; }
  const radio::ShadowingField& shadowing() const { return *shadowing_; }
  /// Replace the path-loss model; recomputes every cell's intercept.
  void set_pathloss(radio::PathLossModel m);
  /// Replace the shadowing field (tests use sigma = 0 for exact radio).
  void set_shadowing(std::uint64_t seed, double sigma_db,
                     double corr_distance_m);

  /// RSRP of `cell` at `p` (no measurement noise).
  double rsrp_at(const Cell& cell, geo::Point p) const;

  /// The per-tick hot path: RSRP of cells()[index] at `p` from the cell's
  /// precomputed constants, with the caller's shadowing-corner memo for
  /// that cell.  Bit-equal to rsrp_at(cells()[index], p).
  double rsrp_at(std::size_t index, geo::Point p,
                 radio::ShadowingField::Corners& corners) const;

  /// E-UTRA band of cells()[index], or -1 when the cell is not LTE or its
  /// EARFCN is outside the band table (no band lookup per call).
  int lte_band(std::size_t index) const { return radio_[index].lte_band; }

  /// Per-RE powers of co-channel cells (same carrier, same channel,
  /// excluding `serving`) audible at `p` — the interference set, in
  /// for_each_cell_near visit order.
  std::vector<double> cochannel_interference(const Cell& serving,
                                             geo::Point p) const;

 private:
  radio::Transmitter transmitter_of(const Cell& cell) const;

  /// Per-cell radio constants, index-aligned with cells_.
  struct CellRadio {
    double ref_loss_db = 0.0;  ///< fspl_db(freq, pathloss_.ref_distance_m)
    int lte_band = -1;
  };

  std::vector<Carrier> carriers_;
  std::unordered_map<CarrierId, std::size_t> carrier_pos_;  ///< id -> position
  std::vector<geo::City> cities_;
  std::vector<Cell> cells_;
  std::vector<CellRadio> radio_;
  /// (id, index into cells_), sorted by id.
  std::vector<std::pair<CellId, std::uint32_t>> id_index_;
  /// Index-aligned with carriers() (NOT indexed by carrier id).
  std::vector<std::unique_ptr<geo::GridIndex>> index_per_carrier_;
  radio::PathLossModel pathloss_{3.5, 100.0};
  std::unique_ptr<radio::ShadowingField> shadowing_;
};

/// Audible-signal floor: cells whose RSRP would fall below this are not
/// detectable by a UE and are skipped during measurement.
constexpr double kDetectionFloorDbm = -132.0;

/// Default search radius when enumerating candidate cells around a UE.
constexpr double kAudibleRadiusM = 6'000.0;

/// Search radius for co-channel interference; beyond this each interferer
/// contributes less than the noise floor under the urban path-loss model.
constexpr double kInterferenceRadiusM = 4'000.0;

}  // namespace mmlab::net
