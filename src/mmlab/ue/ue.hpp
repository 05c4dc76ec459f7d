// The UE protocol stack: measurement, reporting, reselection, handoff
// execution — everything between the radio model below and the apps above.
//
// One Ue follows Figure 1's loop.  Camped on a serving cell, it acquires the
// cell's broadcast configuration (and, when active, its measConfig), then
// every tick it measures (L3-filtered, noise-perturbed), evaluates either
// the idle-mode reselection rules or the connected-mode reporting events,
// and executes cell switches.  Every protocol observable — SIBs, measConfig,
// measurement reports, camping changes, periodic radio snapshots — is also
// written to the diag log, which is the *only* channel the measurement side
// (MMLab) reads; the analyzer never touches simulator ground truth.
//
// Network-side behaviour lives here too: on a decisive measurement report,
// the serving cell decides and commands the handoff after an 80-230 ms
// decision delay (the paper's observed report->handoff latency), and the
// radio is interrupted for ~50 ms while the switch executes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "mmlab/diag/log.hpp"
#include "mmlab/net/deployment.hpp"
#include "mmlab/rrc/messages.hpp"
#include "mmlab/traffic/apps.hpp"
#include "mmlab/ue/broadcast.hpp"
#include "mmlab/ue/event_engine.hpp"
#include "mmlab/ue/radio_memo.hpp"
#include "mmlab/ue/reselection.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::ue {

/// Why an active-state handoff decision failed to produce a switch.
enum class HandoffFailure : std::uint8_t {
  kTargetNotSupported,  ///< device lacks the target band (§5.4.1)
  kTargetVanished,      ///< target no longer audible at execution time
};

struct UeOptions {
  std::uint64_t seed = 1;
  net::CarrierId carrier = 0;
  spectrum::BandSupport band_support = spectrum::BandSupport::all();
  bool active_mode = false;       ///< true = user traffic (active handoffs)
  bool log_radio_snapshots = false;
  double measurement_noise_db = 1.5;
  int l3_filter_k = 4;  ///< TS 36.331 filterCoefficient (a = 1/2^(k/4))
  Millis decision_delay_min = 80;   ///< report -> handoff command
  Millis decision_delay_max = 230;
  Millis interruption_ms = 50;      ///< radio gap during execution
  /// Margin a periodically-reported neighbour must exceed the serving cell
  /// by before the network hands off on a P report.
  double periodic_handoff_margin_db = 6.0;
  /// Network-side sanity bound: a threshold-event target (A4/A5/B1/B2) is
  /// rejected when weaker than the serving cell by more than this (real
  /// eNBs cross-check candidates; without it A5's "no serving requirement"
  /// configs ping-pong continuously).
  double target_sanity_margin_db = 6.0;
  /// Handoff prohibit timer: after an executed handoff the (new) serving
  /// cell will not command another one for this long.
  Millis handoff_prohibit_ms = 3'000;
};

/// One completed handoff, with everything the D1 analyses need.
struct HandoffRecord {
  SimTime report_time;          ///< decisive report (active) / decision (idle)
  SimTime exec_time;
  net::CellId from = 0;
  net::CellId to = 0;
  bool active_state = false;
  config::EventType trigger = config::EventType::kA3;  ///< decisive event
  config::SignalMetric metric = config::SignalMetric::kRsrp;
  config::EventConfig decisive_config;  ///< full config of the decisive event
  double old_rsrp_dbm = 0.0, new_rsrp_dbm = 0.0;
  double old_rsrq_db = 0.0, new_rsrq_db = 0.0;
  spectrum::Channel from_channel, to_channel;
  int serving_priority = 0;  ///< Ps of the old cell
  int target_priority = 0;   ///< Pc of the target from the old cell's view
};

class Ue {
 public:
  Ue(const net::Deployment& network, UeOptions options);

  /// Camp on the strongest audible, band-supported cell. False if none.
  /// Starts a new radio tick at `pos` (nothing measured at an earlier
  /// position is reused).
  bool attach(geo::Point pos, SimTime t);

  /// Advance one tick (caller controls cadence; 100 ms typical).  Each
  /// cell's RSRP at `pos` is computed once for the whole tick.
  void step(geo::Point pos, SimTime t);

  /// Type-I proactive cell switching: camp on a specific cell directly.
  /// False if no cell with that id exists.
  ///
  /// Thread-safety contract (the parallel crawl engine relies on this):
  /// force_camp has no cross-UE shared state.  It writes only this Ue's
  /// members (serving pointer, monitors, diag log) and reads only the
  /// target Cell object plus the Ue's own immutable options — it draws no
  /// random numbers and performs no radio measurement, so distinct Ue
  /// instances may force_camp concurrently as long as nothing else mutates
  /// the cells they camp on (sim::run_crawl guarantees that by sharding
  /// per carrier).  The id-keyed overload additionally reads the
  /// deployment's immutable id index during lookup.
  bool force_camp(net::CellId id, geo::Point pos, SimTime t);
  /// Same, with the cell already in hand — skips the id lookup (the crawl
  /// engine visits cells by index, so the lookup is pure overhead there).
  /// `cell` must belong to this Ue's deployment.
  void force_camp(const net::Cell& cell, geo::Point pos, SimTime t);
  /// Same, logging `frames` instead of encoding the cell's broadcast and
  /// measConfig afresh.  `frames` must equal encode_camp_frames(cell) for
  /// the cell's current configuration; the log is then byte-identical to
  /// the overload above.
  void force_camp(const net::Cell& cell, const CampFrames& frames,
                  geo::Point pos, SimTime t);

  /// Detach (camp on nothing); next step() will re-attach.
  void detach();

  const net::Cell* serving_cell() const { return serving_; }
  const std::vector<HandoffRecord>& handoffs() const { return handoffs_; }
  const std::vector<std::pair<SimTime, HandoffFailure>>& handoff_failures()
      const {
    return failures_;
  }
  std::size_t radio_link_failures() const { return rlf_count_; }

  /// Link state computed at the last step() — input for the traffic apps.
  const traffic::LinkTick& link_tick() const { return link_tick_; }

  /// Measurement-activity counters (§4.2's efficiency question: how often
  /// do the configured gates keep the measurement chains running?).
  struct MeasurementStats {
    std::size_t ticks = 0;            ///< steps with a serving cell
    std::size_t intra_active = 0;     ///< intra-freq measurement gate open
    std::size_t nonintra_active = 0;  ///< non-intra gate open
    double intra_duty() const {
      return ticks ? static_cast<double>(intra_active) / ticks : 0.0;
    }
    double nonintra_duty() const {
      return ticks ? static_cast<double>(nonintra_active) / ticks : 0.0;
    }
  };
  const MeasurementStats& measurement_stats() const { return meas_stats_; }

  /// The device diag log (the measurement side reads this).
  const diag::Writer& diag_log() const { return diag_; }
  std::vector<std::uint8_t> take_diag_log() { return std::move(diag_).take(); }

 private:
  struct PendingHandoff {
    SimTime report_time;
    SimTime exec_time;
    net::CellId target = 0;
    config::EventType trigger = config::EventType::kA3;
    config::SignalMetric metric = config::SignalMetric::kRsrp;
    config::EventConfig decisive_config;
  };

  /// Camp and log from freshly encoded frames.
  void camp_on(const net::Cell& cell, geo::Point pos, SimTime t,
               diag::CampCause cause);
  void camp_on(const net::Cell& cell, const CampFrames& frames,
               geo::Point pos, SimTime t, diag::CampCause cause);
  /// attach() within the current radio tick.
  bool attach_in_tick(geo::Point pos, SimTime t);
  void log_rrc(SimTime t, const rrc::Message& msg);
  /// Measure a cell at the tick's position with noise + L3 filtering;
  /// returns filled CellMeas.
  CellMeas measure(const net::Cell& cell);
  /// Audible candidate cells of our carrier (band-supported), measured at
  /// the tick's position.
  std::vector<CellMeas> measure_neighbors(SimTime t,
                                          const MeasurementGate& gate);
  void run_idle(SimTime t, const CellMeas& serving_meas,
                const std::vector<CellMeas>& neighbors, geo::Point pos);
  void run_active(SimTime t, const CellMeas& serving_meas,
                  const std::vector<CellMeas>& neighbors, geo::Point pos);
  void send_measurement_report(SimTime t, const EventTrigger& trig,
                               const CellMeas& serving_meas,
                               const std::vector<CellMeas>& neighbors);
  int priority_of_candidate(const net::Cell& cand) const;
  double srxlev_of(const net::Cell& cell, double rsrp_dbm) const;

  const net::Deployment& net_;
  UeOptions opts_;
  Rng rng_;

  const net::Cell* serving_ = nullptr;
  IdleReselection reselection_;
  std::vector<EventMonitor> monitors_;
  std::optional<PendingHandoff> pending_;
  SimTime interruption_until_{-1};
  SimTime handoff_prohibit_until_{-1};

  // Per-cell measurement state (filters persist while a cell stays audible).
  struct MeasState {
    radio::L3Filter rsrp_filter;
    radio::L3Filter rsrq_filter;
    std::unique_ptr<radio::MeasurementNoise> noise;
    SimTime last_seen{0};
  };
  std::map<net::CellId, MeasState> meas_state_;
  SimTime now_{0};
  RadioMemo radio_;

  diag::Writer diag_;
  std::vector<HandoffRecord> handoffs_;
  std::vector<std::pair<SimTime, HandoffFailure>> failures_;
  std::size_t rlf_count_ = 0;
  int rlf_streak_ = 0;
  MeasurementStats meas_stats_;
  traffic::LinkTick link_tick_;
};

}  // namespace mmlab::ue
