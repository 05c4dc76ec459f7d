// Type-I measurements (paper §3): crowdsourced configuration crawling —
// dataset D2.
//
// Volunteers' phones camp across nearby cells (MMLab's proactive cell
// switching) and log every broadcast SIB into the diag stream.  The crawl
// engine visits each cell on a sampling schedule spread over the collection
// window (giving Fig 13a's samples-per-cell distribution), applies each
// cell's scheduled reconfigurations as their day arrives (Fig 13b's temporal
// dynamics), and emits one diag log per carrier — the exact input MMLab's
// analyzer consumes.
//
// The engine is split into two phases (see DESIGN.md §8):
//   * plan    — serial and cheap: draw every cell's visit rounds and days
//               from the crawl Rng exactly as the historical serial walk
//               did, sort them into one global timeline, and derive the
//               per-carrier UE seeds via Rng::fork (which is const, so the
//               seeds are independent of any execution order).
//   * execute — fan the per-carrier visit subsequences out over
//               util::WorkerPool.  Each shard owns exactly one carrier: its
//               crawling UE, its (disjoint) set of cells, and those cells'
//               reconfiguration schedules, which it applies lazily as its
//               visits pass them.  It encodes a cell's camp frames once per
//               configuration and drops them when an update lands on it.
// Because a crawl UE only ever reads the cell it camps on, cells belong to
// exactly one carrier, and netgen::apply_config_update writes only the
// target cell, shards share no mutable state — the CrawlResult is
// bit-identical for every thread count (same contract style as
// core::extract_configs_parallel; pinned by the CrawlParallel test suite).
#pragma once

#include <string>
#include <vector>

#include "mmlab/netgen/generator.hpp"

namespace mmlab::sim {

struct CrawlOptions {
  std::uint64_t seed = 7;
  /// Mean number of visit rounds per cell (paper: 48.1 % of cells have >1
  /// sample, tail up to 20+).
  double mean_rounds = 3.2;
  /// Worker threads for the execute phase: 0 = one per hardware thread,
  /// 1 = run the shards inline on the calling thread.  The result is
  /// bit-identical for every value.
  unsigned threads = 0;
};

/// One carrier's pooled diag log (a volunteer's phone knows its operator).
struct CarrierLog {
  net::CarrierId carrier = 0;
  std::string acronym;
  std::vector<std::uint8_t> diag_log;
};

struct CrawlResult {
  std::vector<CarrierLog> logs;
  std::size_t total_camps = 0;
};

/// Runs the crawl. Mutates `world` (temporal reconfigurations are applied to
/// the deployment as their scheduled day passes).
CrawlResult run_crawl(netgen::GeneratedWorld& world,
                      const CrawlOptions& options);

}  // namespace mmlab::sim
