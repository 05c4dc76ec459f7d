#include "mmlab/sim/crawl.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "mmlab/ue/ue.hpp"
#include "mmlab/util/worker_pool.hpp"

namespace mmlab::sim {

namespace {

/// Visit-round count: geometric-ish with a heavy-one mass, calibrated to
/// Fig 13a (about half the cells observed once, tail reaching 20+).
int draw_rounds(Rng& rng, double mean_rounds) {
  if (rng.chance(0.52)) return 1;
  // Remaining mass: shifted geometric with mean chosen to hit mean_rounds.
  const double remaining_mean = (mean_rounds - 0.52) / 0.48;
  const double p = 1.0 / std::max(1.5, remaining_mean - 1.0);
  int n = 2;
  while (n < 24 && rng.chance(1.0 - p)) ++n;
  return n;
}

struct Visit {
  double day;
  std::uint32_t cell_index;
};

}  // namespace

CrawlResult run_crawl(netgen::GeneratedWorld& world,
                      const CrawlOptions& options) {
  const auto& network = world.network;
  const double window_days = world.options.window_days;

  // --- Plan phase (serial) --------------------------------------------------
  // Per-cell visit schedules; draw order is the historical serial one, so
  // the visit timeline is byte-for-byte what the single-threaded engine
  // produced.
  Rng rng(options.seed);
  std::vector<Visit> visits;
  visits.reserve(static_cast<std::size_t>(
      static_cast<double>(network.cells().size()) * options.mean_rounds));
  for (std::uint32_t i = 0; i < network.cells().size(); ++i) {
    const int rounds = draw_rounds(rng, options.mean_rounds);
    for (int r = 0; r < rounds; ++r)
      visits.push_back({rng.uniform(0.0, window_days), i});
  }
  std::sort(visits.begin(), visits.end(),
            [](const Visit& a, const Visit& b) { return a.day < b.day; });

  // Cut the global timeline into per-carrier subsequences (each preserves
  // the time order).  Carrier ids are opaque labels and need not be dense,
  // so every id-keyed lookup goes through carrier_position().
  const std::size_t n_carriers = network.carriers().size();
  std::vector<std::vector<Visit>> shards(n_carriers);
  for (const auto& visit : visits) {
    const net::Cell& cell = network.cells()[visit.cell_index];
    const std::size_t pos = network.carrier_position(cell.carrier);
    if (pos == net::Deployment::kNoCarrier)
      throw std::logic_error("run_crawl: cell references unknown carrier");
    shards[pos].push_back(visit);
  }

  // --- Execute phase --------------------------------------------------------
  // One crawling UE per carrier, pooling all its volunteers' logs.  Each
  // shard touches only its own carrier's cells (visits, lazy
  // reconfigurations, camps), so shards run concurrently without
  // synchronization and the merged result does not depend on scheduling.
  //
  // Rng::fork is const — concurrent forks off the (no longer advanced) plan
  // rng are plain reads, and each seed equals the one the serial walk drew.
  CrawlResult result;
  result.logs.resize(n_carriers);
  std::vector<std::size_t> shard_camps(n_carriers, 0);
  parallel_for_index(options.threads, n_carriers, [&](std::size_t pos) {
    const net::Carrier& carrier = network.carriers()[pos];
    ue::UeOptions opts;
    opts.seed = rng.fork(carrier.id).next_u64();
    opts.carrier = carrier.id;
    // The crawl phone opens a short data connection at each camped cell so
    // the log also captures measConfig (the paper's D2 covers reporting
    // events, which are signalled — not broadcast).
    opts.active_mode = true;
    opts.log_radio_snapshots = false;
    ue::Ue crawler(network, opts);

    // Walk this carrier's visits in time order; apply due reconfigurations
    // lazily per cell.  Each cell belongs to exactly one carrier, so the
    // cursors (and the cells they update) are private to this shard.
    //
    // A cell's camp frames are encoded on its first visit and reused until a
    // reconfiguration lands on it: this loop is the only writer of its
    // cells, so the update below is the one place an entry goes stale.
    std::vector<std::size_t> next_update(network.cells().size(), 0);
    std::unordered_map<std::uint32_t, ue::CampFrames> frames;
    for (const Visit& visit : shards[pos]) {
      auto& schedule = world.update_schedule[visit.cell_index];
      auto& cursor = next_update[visit.cell_index];
      while (cursor < schedule.size() && schedule[cursor].day <= visit.day) {
        netgen::apply_config_update(world, visit.cell_index, schedule[cursor]);
        frames.erase(visit.cell_index);
        ++cursor;
      }
      const net::Cell& cell = network.cells()[visit.cell_index];
      auto it = frames.find(visit.cell_index);
      if (it == frames.end())
        it = frames.emplace(visit.cell_index, ue::encode_camp_frames(cell))
                 .first;
      crawler.force_camp(cell, it->second, cell.position,
                         SimTime::from_days(visit.day));
    }
    shard_camps[pos] = shards[pos].size();

    CarrierLog log;
    log.carrier = carrier.id;
    log.acronym = carrier.acronym;
    log.diag_log = crawler.take_diag_log();
    result.logs[pos] = std::move(log);
  });

  // Fold the per-shard camp counts in carriers() order — the same total the
  // serial walk accumulated visit by visit.
  for (std::size_t camps : shard_camps) result.total_camps += camps;
  return result;
}

}  // namespace mmlab::sim
