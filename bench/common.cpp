#include "common.hpp"

#include "mmlab/core/dataset_io.hpp"
#include "mmlab/mobility/route.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/store/shard_writer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string_view>

namespace mmlab::bench {

double env_scale() {
  if (const char* env = std::getenv("MMLAB_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.0;
}

int env_drives() {
  if (const char* env = std::getenv("MMLAB_DRIVES")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 4;
}

unsigned env_threads() {
  if (const char* env = std::getenv("MMLAB_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 0;  // hardware concurrency
}

const std::vector<core::CarrierFigures>& D2Data::figures() const {
  if (!figures_) figures_ = core::analyze_database(db, {}, env_threads());
  return *figures_;
}

const core::CarrierFigures& D2Data::figures(const std::string& carrier) const {
  static const core::CarrierFigures kEmpty;
  const auto& all = figures();
  const auto it = std::lower_bound(
      all.begin(), all.end(), carrier,
      [](const core::CarrierFigures& f, const std::string& name) {
        return f.carrier < name;
      });
  return it != all.end() && it->carrier == carrier ? *it : kEmpty;
}

namespace {

/// A store directory through the store, anything else as CSV.
Result<core::LoadStats> load_replay(const char* path,
                                    core::ConfigDatabase& db) {
  if (!store::is_store(path)) return core::load_dataset(path, db);
  auto set = store::ShardSet::open(path);
  if (!set.ok()) return Result<core::LoadStats>::error(set.error_message());
  return store::load_database(set.value(), db, env_threads());
}

}  // namespace

D2Data build_d2(double scale, double mean_rounds) {
  D2Data data;
  netgen::WorldOptions wopts;
  wopts.seed = 42;
  wopts.scale = scale;
  data.world = netgen::generate_world(wopts);

  // Dataset replay: MMLAB_DATASET points at a saved crawl (a v2 store or a
  // CSV).  An existing path short-circuits the crawl — at D2 scale the
  // store load is orders of magnitude faster than re-crawling.
  const char* dataset = std::getenv("MMLAB_DATASET");
  if (dataset && std::filesystem::exists(dataset)) {
    const auto stats = load_replay(dataset, data.db);
    if (!stats.ok())
      throw std::runtime_error("MMLAB_DATASET: " + stats.error_message());
    std::fprintf(stderr, "[bench] replayed %zu observations from %s\n",
                 stats.value().rows, dataset);
    return data;
  }

  sim::CrawlOptions copts;
  copts.mean_rounds = mean_rounds;
  copts.threads = env_threads();
  auto crawl = sim::run_crawl(data.world, copts);
  data.camps = crawl.total_camps;
  data.extract =
      core::extract_configs_parallel(crawl.logs, data.db, env_threads());

  if (dataset) {
    const bool binary = std::string_view(dataset).ends_with(".mmds");
    if (binary)
      store::save_database(data.db, dataset);
    else
      core::save_dataset(data.db, dataset);
    std::fprintf(stderr, "[bench] saved dataset to %s (%s)\n", dataset,
                 binary ? "MMDS v2 store" : "csv");
  }
  return data;
}

net::CarrierId carrier_id(const net::Deployment& net, const std::string& acr) {
  for (const auto& carrier : net.carriers())
    if (carrier.acronym == acr) return carrier.id;
  throw std::invalid_argument("unknown carrier acronym: " + acr);
}

sim::CampaignResult build_d1(const net::Deployment& net,
                             net::CarrierId carrier, sim::Workload workload,
                             std::uint64_t seed) {
  sim::CampaignOptions opts;
  opts.seed = seed;
  opts.carrier = carrier;
  opts.workload = workload;
  opts.cities = {0, 2, 4};  // the paper's three measurement cities
  opts.city_drives_per_city = env_drives();
  opts.highway_drives_per_city = 2;
  opts.city_drive_duration = 15 * kMillisPerMinute;
  opts.threads = env_threads();
  return sim::run_campaign(net, opts);
}

void intro(const char* id, const char* title) {
  std::printf("=== %s — %s ===\n", id, title);
  std::printf("(scale=%.2f; shapes reproduce the paper, absolute values are "
              "simulator-specific)\n\n",
              env_scale());
}

std::string out_csv(const std::string& name) {
  std::filesystem::create_directories("bench_out");
  return "bench_out/" + name + ".csv";
}

std::vector<sim::HandoffPerf> corridor_experiment(
    const config::EventConfig& decisive, int seeds, double shadow_sigma_db,
    Millis min_separation_ms) {
  std::vector<sim::HandoffPerf> out;
  for (int seed = 1; seed <= seeds; ++seed) {
    net::Deployment net;
    net.set_shadowing(1000 + seed, shadow_sigma_db, 60.0);
    net.add_carrier({0, "TestCarrier", "X", "US"});
    geo::City city;
    city.origin = {-1000, -1000};
    city.extent_m = 6000;
    net.add_city(city);
    config::CellConfig cfg;
    cfg.report_configs = {decisive};
    auto make_cell = [&](net::CellId id, double x) {
      net::Cell cell;
      cell.id = id;
      cell.pci = static_cast<std::uint16_t>(id);
      cell.carrier = 0;
      cell.channel = {spectrum::Rat::kLte, 1975};
      cell.position = {x, 0};
      cell.tx_power_dbm = 15.0;
      cell.bandwidth_prbs = 50;
      cell.lte_config = cfg;
      return cell;
    };
    net.add_cell(make_cell(1, 0));
    net.add_cell(make_cell(2, 2400));
    const auto route = mobility::highway_drive({0, 0}, {2400, 0}, 16.0);
    sim::DriveTestOptions opts;
    opts.seed = static_cast<std::uint64_t>(seed) * 77 + 5;
    const auto result = run_drive_test(net, route, opts);
    SimTime last_exec{-1'000'000};
    for (auto& hp : sim::annotate_handoffs(result)) {
      const bool clean = hp.rec.exec_time - last_exec >= min_separation_ms;
      last_exec = hp.rec.exec_time;
      if (clean) out.push_back(hp);
    }
  }
  return out;
}

double mean_or_zero(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

}  // namespace mmlab::bench
