// Shared fixtures: small hand-built deployments with exact (shadowing-free)
// radio, so protocol behaviour is deterministic and assertable.
#pragma once

#include "mmlab/net/deployment.hpp"

namespace mmlab::test {

inline config::CellConfig basic_lte_config(int priority = 4) {
  config::CellConfig cfg;
  cfg.serving.priority = priority;
  cfg.serving.q_hyst_db = 4.0;
  cfg.serving.q_rxlevmin_dbm = -122.0;
  cfg.serving.s_intrasearch_db = 62.0;
  cfg.serving.s_nonintrasearch_db = 8.0;
  cfg.serving.thresh_serving_low_db = 6.0;
  cfg.serving.t_reselection = 1000;
  cfg.q_offset_equal_db = 4.0;
  return cfg;
}

inline config::EventConfig a3_event(double offset_db, Millis ttt = 320,
                                    double hysteresis_db = 1.0) {
  config::EventConfig ev;
  ev.type = config::EventType::kA3;
  ev.offset_db = offset_db;
  ev.hysteresis_db = hysteresis_db;
  ev.time_to_trigger = ttt;
  ev.report_amount = 1;
  return ev;
}

inline net::Cell lte_cell(net::CellId id, net::CarrierId carrier,
                          geo::Point pos, std::uint32_t earfcn,
                          config::CellConfig cfg) {
  net::Cell cell;
  cell.id = id;
  cell.pci = static_cast<std::uint16_t>(id % 504);
  cell.carrier = carrier;
  cell.channel = {spectrum::Rat::kLte, earfcn};
  cell.position = pos;
  cell.city = 0;
  cell.tx_power_dbm = 15.0;
  cell.bandwidth_prbs = 50;
  cell.lte_config = std::move(cfg);
  return cell;
}

/// Two same-channel LTE cells 2 km apart, no shadowing, no legacy layers.
/// Cell 1 at x=0, cell 2 at x=2000. A UE driving from x=0 to x=2000 must
/// hand off (or reselect) roughly mid-way.
inline net::Deployment two_cell_corridor(
    const config::EventConfig& decisive_event,
    config::CellConfig base = basic_lte_config()) {
  net::Deployment net;
  net.set_shadowing(1, 0.0, 50.0);
  net.add_carrier({0, "TestCarrier", "X", "US"});
  geo::City city{.id = 0,
                 .name = "Testville",
                 .code = "T0",
                 .country = "US",
                 .origin = {-1000, -1000},
                 .extent_m = 5000};
  net.add_city(city);
  base.report_configs = {decisive_event};
  net.add_cell(lte_cell(1, 0, {0, 0}, 850, base));
  net.add_cell(lte_cell(2, 0, {2000, 0}, 850, base));
  return net;
}

}  // namespace mmlab::test
