// Streaming world generation for out-of-core datasets.
//
// generate_world() materialises the whole Deployment — fine at the paper's
// ~32k cells, hopeless at countrywide scale (≥300k cells, 100M+ parameter
// rows).  stream_world() walks the exact same per-carrier RNG sequence but
// holds only ONE cell at a time: for each cell it draws the configuration
// and update schedule, simulates the drive-by visits across the collection
// window (applying scheduled reconfigurations between visits, Fig 13), and
// emits each visit as a snapshot to a SnapshotSink.  Peak memory is O(one
// cell), independent of scale.
//
// Determinism contract (pinned by StreamGen.MatchesGenerateWorld): for equal
// (seed, scale, window_days), the cell identities, channels, positions and
// configurations emitted here are identical to generate_world()'s — both
// consume the same carrier_rng draws in the same order.  Visit times come
// from an independent per-cell stream so adding visits never perturbs the
// world itself.
//
// netgen cannot depend on core or store (DESIGN.md §2), so the sink speaks
// only net/config/geo/util vocabulary; adapters to ConfigDatabase or the
// MMDS v2 StreamingDatasetSink live with the callers (tools/store_soak,
// mmlab_cli).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmlab/config/params.hpp"
#include "mmlab/geo/geometry.hpp"
#include "mmlab/net/deployment.hpp"
#include "mmlab/util/clock.hpp"

namespace mmlab::netgen {

/// Receives one decoded configuration snapshot per cell visit.  Mirrors
/// ConfigDatabase::add_snapshot so an adapter is a one-line forward; a
/// visit that sees the cell's previous configuration again is sent whole,
/// and add_snapshot holds it as a repeat.
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;
  virtual void snapshot(const std::string& carrier, net::CellId cell_id,
                        spectrum::Rat rat, std::uint32_t channel,
                        geo::Point position, SimTime t,
                        const std::vector<config::ParamObservation>& params) = 0;
};

/// Cell-count multiplier for the countrywide tier: ~10x the paper's 32k
/// cells (≥300k cells, 100M+ parameter rows at the default visit count).
constexpr double kCountrywideScale = 10.0;

struct StreamWorldOptions {
  std::uint64_t seed = 42;
  /// Cell-count multiplier; kCountrywideScale for the soak tier.
  double scale = 1.0;
  /// D2 collection window (reconfigurations land inside it).
  double window_days = 540.0;
  /// Snapshots per cell, spread uniformly over the window.  The paper's D2
  /// revisits cells a handful of times; 3 exercises the reconfiguration
  /// paths without inflating the row count.
  int visits_per_cell = 3;
};

struct StreamStats {
  std::uint64_t cells = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t rows = 0;             ///< parameter observations emitted
  std::uint64_t updates_applied = 0;  ///< reconfigurations hit by a visit
};

/// Generate the world cell by cell, emitting every visit to `sink`.
/// Snapshots arrive grouped by carrier, cells in ascending id order, each
/// cell's visits in ascending time — exactly the order StreamingDatasetSink
/// spills best, and the order that makes chunked writes bit-identical to a
/// single in-memory database (see store/shard_writer.hpp).
StreamStats stream_world(const StreamWorldOptions& options, SnapshotSink& sink);

}  // namespace mmlab::netgen
