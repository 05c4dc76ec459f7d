// World generation: turn the carrier catalogue into a concrete Deployment —
// cell sites in cities, channels, per-cell configurations drawn from the
// profiles — plus each cell's temporal reconfiguration schedule (Fig 13).
#pragma once

#include <vector>

#include "mmlab/net/deployment.hpp"
#include "mmlab/netgen/profile.hpp"

namespace mmlab::netgen {

struct WorldOptions {
  std::uint64_t seed = 42;
  /// Cell-count multiplier. 1.0 = the paper's ~32k cells; tests use ~0.02.
  double scale = 1.0;
  /// Length of the D2 collection window in days (reconfigurations happen
  /// inside it).
  double window_days = 540.0;
};

/// One scheduled reconfiguration of a cell.
struct ConfigUpdate {
  double day = 0.0;
  bool active_params = false;  ///< true: reporting events; false: SIB params
};

struct GeneratedWorld {
  net::Deployment network;
  /// Per cell (index-aligned with network.cells()): the scheduled updates,
  /// sorted by day.
  std::vector<std::vector<ConfigUpdate>> update_schedule;
  /// Index-aligned with network.carriers().
  std::vector<const CarrierProfile*> profiles;
  WorldOptions options;
};

GeneratedWorld generate_world(const WorldOptions& options);

/// Draw one LTE cell configuration from a profile (exposed for tests and
/// the drive-test benches that need a cell with specific knobs).
config::CellConfig make_lte_config(const CarrierProfile& profile,
                                   std::uint64_t world_seed,
                                   net::CellId cell_id,
                                   spectrum::Channel channel,
                                   geo::CityId city, geo::Point position,
                                   const std::vector<FreqPolicy>& city_freqs);

/// Apply one scheduled reconfiguration to cell `cell_index` of the world.
/// Deterministic in (world seed, cell, update day).
///
/// Writes ONLY the target cell — no other cell, carrier, schedule or world
/// state is touched.  The parallel crawl engine (sim::run_crawl) relies on
/// this to apply each carrier's updates from that carrier's shard without
/// synchronisation; internally the draw is routed through a helper that
/// takes just the one `net::Cell&` so the compiler enforces the contract
/// (pinned by ApplyConfigUpdate.WritesOnlyTargetCell).
void apply_config_update(GeneratedWorld& world, std::size_t cell_index,
                         const ConfigUpdate& update);

}  // namespace mmlab::netgen
