#include "mmlab/ue/radio_memo.hpp"

#include <iterator>

namespace mmlab::ue {

RadioMemo::RadioMemo(const net::Deployment& network)
    : net_(network), noise_mw_(radio::dbm_to_mw(radio::kNoisePerReDbm)) {}

void RadioMemo::begin_tick(geo::Point p, SimTime t) {
  pos_ = p;
  now_ = t;
  ++tick_;
}

double RadioMemo::rsrp(std::size_t index) {
  CellEntry& e = cells_[index];
  if (e.tick != tick_) {
    e.rsrp_dbm = net_.rsrp_at(index, pos_, e.corners);
    e.tick = tick_;
  }
  e.last_seen = now_;
  return e.rsrp_dbm;
}

const std::vector<RadioMemo::Nearby>& RadioMemo::nearby(
    net::CarrierId carrier) {
  NearbyList* list = nullptr;
  for (auto& l : nearby_) {
    if (l.carrier == carrier) {
      if (l.tick == tick_) return l.cells;
      list = &l;
      break;
    }
  }
  if (list == nullptr) list = &nearby_.emplace_back();
  list->carrier = carrier;
  list->tick = tick_;
  list->cells.clear();
  net_.for_each_cell_near(pos_, net::kAudibleRadiusM,
                          net::kInterferenceRadiusM, carrier,
                          [&](std::uint32_t idx, bool interferes) {
                            list->cells.push_back({idx, interferes});
                          });
  return list->cells;
}

const std::vector<RadioMemo::Interferer>& RadioMemo::cochannel(
    net::CarrierId carrier, spectrum::Channel channel) {
  ChannelList* list = nullptr;
  for (auto& l : cochannel_) {
    if (l.carrier == carrier && l.channel == channel) {
      if (l.tick == tick_) return l.cells;
      list = &l;
      break;
    }
  }
  if (list == nullptr) list = &cochannel_.emplace_back();
  list->carrier = carrier;
  list->channel = channel;
  list->tick = tick_;
  list->cells.clear();
  for (const Nearby& nb : nearby(carrier)) {
    if (!nb.interferes) continue;
    const net::Cell& other = net_.cells()[nb.index];
    if (other.channel != channel) continue;
    const double dbm = rsrp(nb.index);
    if (dbm > net::kDetectionFloorDbm - 10.0)
      list->cells.push_back({other.id, dbm, radio::dbm_to_mw(dbm)});
  }
  return list->cells;
}

double RadioMemo::noise_interference_mw(const net::Cell& cell) {
  double sum = noise_mw_;
  for (const Interferer& i : cochannel(cell.carrier, cell.channel))
    if (i.id != cell.id) sum += i.mw;
  return sum;
}

void RadioMemo::evict_unseen_before(SimTime cutoff) {
  for (auto it = cells_.begin(); it != cells_.end();)
    it = it->second.last_seen < cutoff ? cells_.erase(it) : std::next(it);
}

}  // namespace mmlab::ue
