#include "mmlab/net/deployment.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmlab::net {

Deployment::Deployment()
    : shadowing_(std::make_unique<radio::ShadowingField>(0x5eedf1e1dULL, 7.0,
                                                         50.0)) {}

CarrierId Deployment::add_carrier(Carrier carrier) {
  if (carrier_pos_.count(carrier.id)) {
    CarrierId next = 0;
    for (const auto& c : carriers_)
      next = std::max<CarrierId>(next, static_cast<CarrierId>(c.id + 1));
    carrier.id = next;
  }
  carrier_pos_[carrier.id] = carriers_.size();
  carriers_.push_back(std::move(carrier));
  index_per_carrier_.push_back(std::make_unique<geo::GridIndex>(2000.0));
  return carriers_.back().id;
}

void Deployment::add_city(geo::City city) { cities_.push_back(std::move(city)); }

void Deployment::set_shadowing(std::uint64_t seed, double sigma_db,
                               double corr_distance_m) {
  shadowing_ = std::make_unique<radio::ShadowingField>(seed, sigma_db,
                                                       corr_distance_m);
}

namespace {

bool id_less(const std::pair<CellId, std::uint32_t>& entry, CellId id) {
  return entry.first < id;
}

}  // namespace

void Deployment::add_cell(Cell cell) {
  const std::size_t pos = carrier_position(cell.carrier);
  if (pos == kNoCarrier)
    throw std::invalid_argument("Deployment: unknown carrier");
  // Generated worlds add ids in ascending order: those append unsearched.
  auto slot = id_index_.end();
  if (!id_index_.empty() && id_index_.back().first >= cell.id) {
    slot = std::lower_bound(id_index_.begin(), id_index_.end(), cell.id,
                            id_less);
    if (slot->first == cell.id)
      throw std::invalid_argument("Deployment: duplicate cell id");
  }
  const auto index = static_cast<std::uint32_t>(cells_.size());
  id_index_.insert(slot, {cell.id, index});
  index_per_carrier_[pos]->insert(index, cell.position);
  CellRadio radio;
  radio.ref_loss_db =
      radio::fspl_db(transmitter_of(cell).freq_mhz, pathloss_.ref_distance_m);
  if (cell.is_lte())
    radio.lte_band = spectrum::lte_band_for_earfcn(cell.channel.number)
                         .value_or(-1);
  radio_.push_back(radio);
  cells_.push_back(std::move(cell));
}

void Deployment::set_pathloss(radio::PathLossModel m) {
  pathloss_ = m;
  for (std::size_t i = 0; i < cells_.size(); ++i)
    radio_[i].ref_loss_db = radio::fspl_db(transmitter_of(cells_[i]).freq_mhz,
                                           pathloss_.ref_distance_m);
}

void Deployment::update_lte_config(CellId id, config::CellConfig cfg) {
  const std::size_t index = cell_index(id);
  if (index == kNoCell)
    throw std::invalid_argument("Deployment: unknown cell id");
  cells_[index].lte_config = std::move(cfg);
}

std::size_t Deployment::cell_index(CellId id) const {
  const auto it =
      std::lower_bound(id_index_.begin(), id_index_.end(), id, id_less);
  return it != id_index_.end() && it->first == id ? it->second : kNoCell;
}

const Cell* Deployment::find_cell(CellId id) const {
  const std::size_t index = cell_index(id);
  return index == kNoCell ? nullptr : &cells_[index];
}

const Carrier* Deployment::find_carrier(CarrierId id) const {
  const std::size_t pos = carrier_position(id);
  return pos == kNoCarrier ? nullptr : &carriers_[pos];
}

std::size_t Deployment::carrier_position(CarrierId id) const {
  const auto it = carrier_pos_.find(id);
  return it == carrier_pos_.end() ? kNoCarrier : it->second;
}

const geo::City* Deployment::find_city(geo::CityId id) const {
  for (const auto& city : cities_)
    if (city.id == id) return &city;
  return nullptr;
}

std::vector<std::uint32_t> Deployment::cells_near(geo::Point p, double radius_m,
                                                  CarrierId carrier) const {
  const std::size_t pos = carrier_position(carrier);
  if (pos == kNoCarrier) return {};
  return index_per_carrier_[pos]->query(p, radius_m);
}

radio::Transmitter Deployment::transmitter_of(const Cell& cell) const {
  double freq_mhz = 2000.0;
  switch (cell.channel.rat) {
    case spectrum::Rat::kLte:
      if (auto f = spectrum::lte_dl_frequency_mhz(cell.channel.number))
        freq_mhz = *f;
      break;
    case spectrum::Rat::kUmts:
      freq_mhz = spectrum::umts_dl_frequency_mhz(cell.channel.number);
      break;
    case spectrum::Rat::kGsm:
      freq_mhz = 900.0;
      break;
    case spectrum::Rat::kEvdo:
    case spectrum::Rat::kCdma1x:
      freq_mhz = 850.0;
      break;
  }
  return radio::Transmitter{cell.id, cell.position, cell.tx_power_dbm,
                            freq_mhz};
}

double Deployment::rsrp_at(const Cell& cell, geo::Point p) const {
  return radio::rsrp_dbm(transmitter_of(cell), p, pathloss_, *shadowing_);
}

double Deployment::rsrp_at(std::size_t index, geo::Point p,
                           radio::ShadowingField::Corners& corners) const {
  // The same expression as radio::rsrp_dbm, term for term.
  const Cell& cell = cells_[index];
  const double d = geo::distance(cell.position, p);
  return cell.tx_power_dbm -
         pathloss_.loss_db_from_ref(radio_[index].ref_loss_db, d) +
         shadowing_->sample_db(cell.id, p, corners);
}

std::vector<double> Deployment::cochannel_interference(const Cell& serving,
                                                       geo::Point p) const {
  std::vector<double> out;
  for_each_cell_near(
      p, kInterferenceRadiusM, serving.carrier, [&](std::uint32_t idx) {
        const Cell& other = cells_[idx];
        if (other.id == serving.id || other.channel != serving.channel) return;
        const double rsrp = rsrp_at(other, p);
        if (rsrp > kDetectionFloorDbm - 10.0) out.push_back(rsrp);
      });
  return out;
}

}  // namespace mmlab::net
