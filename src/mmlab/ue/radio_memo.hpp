// Per-UE memo of the radio quantities one tick needs more than once.
//
// Within one tick the UE measures at one position: the neighbour prescan,
// the L3 measurement chain, attach and the interference sums all ask for
// the RSRP of the same cells, and every measured cell on a channel sums the
// same co-channel interferers.  RadioMemo computes each of those once per
// tick and keeps each cell's shadowing-lattice corners across ticks (DESIGN.md
// "Drive-engine radio memos").
//
// Every value it returns is bit-equal to the uncached Deployment call:
// rsrp() to Deployment::rsrp_at(cell, p), noise_interference_mw() to
// radio::noise_plus_interference_mw(Deployment::cochannel_interference(cell,
// p)).  The memo is keyed on (position, tick): begin_tick() drops every
// per-tick value, so it must be called whenever the position may change.
// It belongs to one Ue (never shared, never thread_local) and only reads
// the Deployment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mmlab/net/deployment.hpp"

namespace mmlab::ue {

class RadioMemo {
 public:
  explicit RadioMemo(const net::Deployment& network);

  /// Start a tick at position `p`, time `t`: forgets every RSRP and
  /// interferer list of the previous tick (the corner memos stay).
  void begin_tick(geo::Point p, SimTime t);

  /// RSRP of cells()[index] at the tick's position, computed once per tick.
  double rsrp(std::size_t index);

  /// One cell of a carrier within kAudibleRadiusM of the tick's position.
  struct Nearby {
    std::uint32_t index = 0;  ///< into Deployment::cells()
    bool interferes = false;  ///< also within kInterferenceRadiusM
  };
  /// for_each_cell_near(p, kAudibleRadiusM, carrier) as a list, in its
  /// visit order, from one grid pass per (carrier, tick).  The entries
  /// flagged `interferes` are, in order, what
  /// for_each_cell_near(p, kInterferenceRadiusM, carrier) visits.
  const std::vector<Nearby>& nearby(net::CarrierId carrier);

  /// One co-channel cell audible at the tick's position.
  struct Interferer {
    net::CellId id = 0;
    double rsrp_dbm = 0.0;
    double mw = 0.0;  ///< radio::dbm_to_mw(rsrp_dbm)
  };
  /// Every cell of `carrier` on `channel` within kInterferenceRadiusM whose
  /// RSRP clears the interference floor, in for_each_cell_near visit order:
  /// built once per (carrier, channel, tick) from nearby(carrier).
  /// Deployment::cochannel_interference(cell, p) is this list minus
  /// `cell`'s own entry.
  const std::vector<Interferer>& cochannel(net::CarrierId carrier,
                                           spectrum::Channel channel);

  /// Noise plus co-channel power (mW) that `cell` sees at the tick's
  /// position: the noise term, then cochannel()'s entries other than `cell`
  /// in list order — the summation order of radio::sinr_db/rsrq_db.
  double noise_interference_mw(const net::Cell& cell);

  /// Drops the memo of every cell not asked for since `cutoff`.
  void evict_unseen_before(SimTime cutoff);

  /// Cells with a memo entry (touched and not yet evicted).
  std::size_t cells() const { return cells_.size(); }

 private:
  struct CellEntry {
    radio::ShadowingField::Corners corners;
    double rsrp_dbm = 0.0;
    std::uint64_t tick = 0;  ///< rsrp_dbm is valid when tick == tick_
    SimTime last_seen{0};
  };
  struct NearbyList {
    net::CarrierId carrier = 0;
    std::uint64_t tick = 0;
    std::vector<Nearby> cells;
  };
  struct ChannelList {
    net::CarrierId carrier = 0;
    spectrum::Channel channel;
    std::uint64_t tick = 0;
    std::vector<Interferer> cells;
  };

  const net::Deployment& net_;
  double noise_mw_;
  geo::Point pos_;
  SimTime now_{0};
  std::uint64_t tick_ = 0;
  std::unordered_map<std::size_t, CellEntry> cells_;  ///< by cell index
  std::vector<NearbyList> nearby_;   ///< one per carrier seen
  std::vector<ChannelList> cochannel_;  ///< one per (carrier, channel) seen
};

}  // namespace mmlab::ue
