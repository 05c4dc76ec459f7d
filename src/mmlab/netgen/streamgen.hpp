// Streaming world generation for out-of-core datasets.
//
// generate_world() materialises the whole Deployment — fine at the paper's
// ~32k cells, hopeless at countrywide scale (≥300k cells, 100M+ parameter
// rows).  stream_world() walks the exact same per-carrier RNG sequence but
// never holds the world: for each cell it draws the configuration and
// update schedule, simulates the drive-by visits across the collection
// window (applying scheduled reconfigurations between visits, Fig 13), and
// emits each visit as a snapshot to a SnapshotSink.
//
// It runs as two stages.  One generator worker draws the cells and their
// visits; it extracts a cell's parameters on its first visit and again only
// on a visit that follows at least one applied update, and every other
// visit carries just its time (StreamStats::reused_visits counts them).  The
// calling thread drains a fixed ring of kStreamRingBatches batches of
// whole cells, in order, and makes every SnapshotSink call itself.  Peak
// memory is O(ring) — about a thousand cells at 8 visits — independent of
// scale.
//
// Sink contract: every snapshot() call comes from the thread that called
// stream_world, one call at a time, so a sink needs no locking.  If the
// sink throws, stream_world stops the worker, joins it and rethrows; an
// error in the generator reaches the caller after the batches before it.
//
// Determinism contract (pinned by StreamGen.MatchesGenerateWorld, and visit
// by visit by StreamGen.EveryVisitMatchesReplay): for equal
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

#include <cstddef>
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
  /// Visits with no update since the cell's previous visit: emitted with
  /// that visit's parameters, not re-extracted.
  std::uint64_t reused_visits = 0;
};

/// The hand-off between the generator worker and the calling thread: a
/// batch holds whole cells and closes after the cell that brings it to
/// kStreamBatchRows entries (extracted rows plus one per visit); the worker
/// runs at most kStreamRingBatches batches ahead.  At 8 visits per cell the
/// ring spans ~1k cells: a larger ring hides more of the sink's spills but
/// strands its high-water memory in the worker's malloc arena.
constexpr std::size_t kStreamBatchRows = 8 * 1024;
constexpr std::size_t kStreamRingBatches = 8;

/// Generate the world cell by cell, emitting every visit to `sink`.
/// Snapshots arrive grouped by carrier, cells in ascending id order, each
/// cell's visits in ascending time — exactly the order StreamingDatasetSink
/// spills best, and the order that makes chunked writes bit-identical to a
/// single in-memory database (see store/shard_writer.hpp).
StreamStats stream_world(const StreamWorldOptions& options, SnapshotSink& sink);

}  // namespace mmlab::netgen
