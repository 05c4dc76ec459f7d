// Device-side handoff prediction (paper §6): because the serving cell
// broadcasts its handoff policy, a device can replay the trigger logic on
// its own measurements and see handoffs coming.  This example runs a drive
// with a predictor alongside the real stack and scores it.
//
//   $ ./handoff_predictor
#include <cstdio>

#include "mmlab/core/predictor.hpp"
#include "mmlab/netgen/generator.hpp"
#include "mmlab/mobility/route.hpp"
#include "mmlab/ue/ue.hpp"

int main() {
  using namespace mmlab;

  netgen::WorldOptions wopts;
  wopts.seed = 11;
  wopts.scale = 0.1;
  auto world = netgen::generate_world(wopts);
  const geo::City& city = world.network.cities()[2];

  Rng rng(3);
  const auto route = mobility::manhattan_drive(
      rng, city, mobility::kph(40), 12 * kMillisPerMinute);

  ue::UeOptions opts;
  opts.carrier = 0;
  opts.active_mode = true;
  ue::Ue device(world.network, opts);

  // The predictor consumes the crawled config of whatever cell the device
  // camps on, plus the same measurements the modem reports.
  std::unique_ptr<core::HandoffPredictor> predictor;
  const net::Cell* predicted_for = nullptr;
  std::size_t warnings = 0, predicted_handoffs = 0, handoffs_seen = 0;
  std::vector<double> lead_times_ms;
  // Start of the current run of imminent-handoff warnings, if one is open.
  bool warning_open = false;
  SimTime first_warning;

  for (Millis t = 0; t <= route.duration(); t += 100) {
    const auto pos = route.position_at(t);
    const std::size_t handoffs_before = device.handoffs().size();
    device.step(pos, SimTime{t});

    const net::Cell* serving = device.serving_cell();
    if (!serving) continue;
    if (serving != predicted_for) {
      // New serving cell: if a handoff just executed, score the prediction.
      if (handoffs_before != device.handoffs().size()) {
        ++handoffs_seen;
        if (warning_open) {
          ++predicted_handoffs;
          lead_times_ms.push_back(
              static_cast<double>(SimTime{t} - first_warning));
        }
      }
      predictor = std::make_unique<core::HandoffPredictor>(
          serving->lte_config);
      predicted_for = serving;
      warning_open = false;
      continue;
    }

    // Feed the predictor the device's own filtered measurements.
    // (A production integration would read them from the diag stream.)
    ue::CellMeas serving_meas{serving->id, serving->channel,
                              device.link_tick().sinr_db, 0.0};
    serving_meas.rsrp_dbm =
        world.network.rsrp_at(*serving, pos);  // device-visible RSRP
    std::vector<ue::CellMeas> neighbors;
    for (auto idx :
         world.network.cells_near(pos, net::kAudibleRadiusM, opts.carrier)) {
      const net::Cell& cand = world.network.cells()[idx];
      if (cand.id == serving->id || !cand.is_lte()) continue;
      const double rsrp = world.network.rsrp_at(cand, pos);
      if (rsrp < -125.0) continue;
      neighbors.push_back({cand.id, cand.channel, rsrp, -10.0});
    }
    const auto prediction =
        predictor->update(SimTime{t}, serving_meas, neighbors);
    if (prediction.imminent) {
      ++warnings;
      if (!warning_open) first_warning = SimTime{t};
      warning_open = true;
    } else {
      warning_open = false;
    }
  }

  std::printf("drive: %zu handoffs, %zu predicted in advance (recall %.0f%%)\n",
              handoffs_seen, predicted_handoffs,
              handoffs_seen ? 100.0 * predicted_handoffs / handoffs_seen : 0.0);
  if (!lead_times_ms.empty()) {
    double sum = 0.0;
    for (double v : lead_times_ms) sum += v;
    std::printf("mean warning lead time: %.0f ms (enough for TCP/app "
                "adaptation, as §6 argues)\n",
                sum / lead_times_ms.size());
  }
  std::printf("warning ticks issued: %zu over %lld ticks\n", warnings,
              static_cast<long long>(route.duration() / 100));
  return 0;
}
