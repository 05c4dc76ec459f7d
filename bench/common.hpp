// Shared bench harness: builds the D2 crawl dataset and D1 drive campaigns
// the figure benches consume, honouring these environment knobs:
//   MMLAB_SCALE   — world scale (default 1.0 = the paper's ~32k cells)
//   MMLAB_DRIVES  — city drives per city for D1 campaigns (default 4)
//   MMLAB_THREADS — worker threads for the crawl/campaign simulation AND the
//                   extraction (default: hardware concurrency); results are
//                   bit-identical for every value
//   MMLAB_DATASET — path of a saved dataset (an MMDS v2 store directory or
//                   a CSV, sniffed by store::is_store): if the path exists,
//                   build_d2 replays it instead of re-running the
//                   crawl+extract; if it does not exist yet, the freshly
//                   built database is saved there (a v2 store when the path
//                   ends in .mmds, CSV otherwise), so the first bench of a
//                   session pays the crawl and the rest replay.
// Every bench prints the paper-style rows to stdout and mirrors them to
// bench_out/<name>.csv.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mmlab/core/analysis.hpp"
#include "mmlab/core/extractor.hpp"
#include "mmlab/core/figures.hpp"
#include "mmlab/core/parallel_extract.hpp"
#include "mmlab/sim/crawl.hpp"
#include "mmlab/sim/drive_test.hpp"
#include "mmlab/stats/cdf.hpp"
#include "mmlab/util/table.hpp"

namespace mmlab::bench {

double env_scale();
int env_drives();
unsigned env_threads();

struct D2Data {
  netgen::GeneratedWorld world;
  core::ConfigDatabase db;
  std::size_t camps = 0;
  core::ParallelExtractStats extract;  ///< throughput of the D2 extraction

  /// Every carrier's fig11–22 products (core::analyze_database on
  /// env_threads() workers, default MixOptions), computed on first use and
  /// shared by every figure a bench prints.  Benches that need the city
  /// join or a spatial query run core::analyze_carrier themselves.
  const std::vector<core::CarrierFigures>& figures() const;
  /// One carrier's products; empty products for an unknown carrier.
  const core::CarrierFigures& figures(const std::string& carrier) const;

 private:
  mutable std::optional<std::vector<core::CarrierFigures>> figures_;
};

/// Generate the world, run the Type-I crawl, extract into the database.
/// mean_rounds 5.5 lands the sample volume near the paper's 8M at scale 1.
D2Data build_d2(double scale = env_scale(), double mean_rounds = 5.5);

/// Carrier id by Tab 3 acronym; throws if unknown.
net::CarrierId carrier_id(const net::Deployment& net, const std::string& acr);

/// A D1-style campaign (speedtest by default) for one carrier.
sim::CampaignResult build_d1(const net::Deployment& net,
                             net::CarrierId carrier,
                             sim::Workload workload = sim::Workload::kSpeedtest,
                             std::uint64_t seed = 1);

/// Print the figure banner.
void intro(const char* id, const char* title);

/// bench_out/<name>.csv (directory created on demand).
std::string out_csv(const std::string& name);

/// Mean of a vector helper for terse bench code (0 for empty).
double mean_or_zero(const std::vector<double>& xs);

/// Controlled corridor experiment (the paper's guided Type-II runs): a
/// two-cell corridor whose cells use `decisive` as their handoff policy,
/// driven `seeds` times with a speedtest; returns the annotated handoffs.
/// Handoffs executing within `min_separation_ms` of the previous one in the
/// same drive are dropped (ping-pong repeats would contaminate the
/// pre-handoff throughput window — the paper hand-picks clean instances).
std::vector<sim::HandoffPerf> corridor_experiment(
    const config::EventConfig& decisive, int seeds = 10,
    double shadow_sigma_db = 3.0, Millis min_separation_ms = 10'000);

}  // namespace mmlab::bench
