#include "mmlab/ue/ue.hpp"

#include <algorithm>

#include "mmlab/rrc/codec.hpp"
#include "mmlab/ue/broadcast.hpp"

namespace mmlab::ue {

namespace {

/// Idle-mode rules need a CellConfig even when camped on a legacy cell;
/// synthesize one from the legacy parameters (always-measure gates, LTE
/// strongly preferred as in operator practice).
config::CellConfig legacy_idle_config(const net::Cell& cell) {
  config::CellConfig cfg;
  cfg.serving.priority = cell.legacy_config.priority;
  cfg.serving.q_hyst_db = cell.legacy_config.q_hyst_db;
  cfg.serving.q_rxlevmin_dbm = cell.legacy_config.q_rxlevmin_dbm;
  cfg.serving.s_intrasearch_db = 62.0;
  cfg.serving.s_nonintrasearch_db = 62.0;  // always search for LTE
  cfg.serving.thresh_serving_low_db = 6.0;
  cfg.serving.t_reselection = cell.legacy_config.t_reselection;
  cfg.q_offset_equal_db = 4.0;
  return cfg;
}

constexpr double kRlfRsrpDbm = -134.0;
constexpr int kRlfTicks = 10;
constexpr std::size_t kMaxReportedNeighbors = 8;
constexpr std::size_t kMaxTrackedNeighbors = 12;

}  // namespace

Ue::Ue(const net::Deployment& network, UeOptions options)
    : net_(network), opts_(options), rng_(options.seed), radio_(network) {}

void Ue::log_rrc(SimTime t, const rrc::Message& msg) {
  diag::Record rec;
  rec.code = std::holds_alternative<rrc::LegacySystemInfo>(msg)
                 ? diag::LogCode::kLegacyRrcOta
                 : diag::LogCode::kLteRrcOta;
  rec.timestamp = t;
  rec.payload = rrc::encode(msg);
  diag_.append(rec);
}

int Ue::priority_of_candidate(const net::Cell& cand) const {
  if (!serving_) return -1;
  if (serving_->is_lte()) {
    const auto& cfg = serving_->lte_config;
    if (cand.channel == serving_->channel) return cfg.serving.priority;
    if (const auto* nf = cfg.find_freq(cand.channel)) return nf->priority;
    return -1;  // not a configured neighbour frequency
  }
  // Camped on legacy: LTE is always preferred; same-RAT cells rank equal.
  if (cand.is_lte()) return 7;
  if (cand.channel.rat == serving_->channel.rat)
    return serving_->legacy_config.priority;
  return -1;
}

double Ue::srxlev_of(const net::Cell& cell, double rsrp_dbm) const {
  // Calibration (paper §2.2): r = measured - Delta_min. Use the serving
  // cell's broadcast per-frequency Delta_min when it lists the channel, the
  // target's own otherwise.
  double q_rxlevmin = cell.is_lte() ? cell.lte_config.serving.q_rxlevmin_dbm
                                    : cell.legacy_config.q_rxlevmin_dbm;
  if (serving_ && serving_->is_lte()) {
    if (cell.channel == serving_->channel)
      q_rxlevmin = serving_->lte_config.serving.q_rxlevmin_dbm;
    else if (const auto* nf = serving_->lte_config.find_freq(cell.channel))
      q_rxlevmin = nf->q_rxlevmin_dbm;
  }
  return rsrp_dbm - q_rxlevmin;
}

CellMeas Ue::measure(const net::Cell& cell) {
  auto& st = meas_state_[cell.id];
  if (!st.noise) {
    st.noise = std::make_unique<radio::MeasurementNoise>(
        rng_.fork(cell.id).next_u64(), opts_.measurement_noise_db);
    st.rsrp_filter = radio::L3Filter(opts_.l3_filter_k);
    st.rsrq_filter = radio::L3Filter(opts_.l3_filter_k);
  }
  st.last_seen = now_;
  const double raw_rsrp =
      radio_.rsrp(net_.index_of(cell)) + st.noise->next();
  const double filtered_rsrp = st.rsrp_filter.update(raw_rsrp);
  const double raw_rsrq =
      radio::rsrq_db_mw(raw_rsrp, radio_.noise_interference_mw(cell));
  const double filtered_rsrq = st.rsrq_filter.update(raw_rsrq);
  CellMeas meas;
  meas.cell_id = cell.id;
  meas.channel = cell.channel;
  meas.rsrp_dbm = filtered_rsrp;
  meas.rsrq_db = filtered_rsrq;
  return meas;
}

std::vector<CellMeas> Ue::measure_neighbors(SimTime t,
                                            const MeasurementGate& gate) {
  std::vector<CellMeas> out;
  if (!serving_) return out;
  const int serving_priority = serving_->is_lte()
                                   ? serving_->lte_config.serving.priority
                                   : serving_->legacy_config.priority;
  // Cheap prescan (path loss + shadowing only) selects the strongest
  // candidates; the full measurement chain (noise, L3 filters, RSRQ with
  // interference) runs only for those — a real UE similarly tracks a small
  // monitored set.
  std::vector<std::pair<double, const net::Cell*>> prescan;
  static const std::vector<std::uint32_t> kNoForbidden;
  const auto& forbidden = serving_->is_lte()
                              ? serving_->lte_config.forbidden_cells
                              : kNoForbidden;
  for (const RadioMemo::Nearby& nb : radio_.nearby(opts_.carrier)) {
    const std::uint32_t idx = nb.index;
    const net::Cell& cand = net_.cells()[idx];
    if (cand.id == serving_->id) continue;
    if (cand.is_lte() && !opts_.band_support.supports_band(net_.lte_band(idx)))
      continue;
    // SIB4 access control: blacklisted cells are never candidates.
    if (std::find(forbidden.begin(), forbidden.end(), cand.id) !=
        forbidden.end())
      continue;
    const int prio = priority_of_candidate(cand);
    if (prio < 0) continue;
    const bool intra = cand.channel == serving_->channel;
    const bool higher = prio > serving_priority;
    if (!higher) {
      if (intra && !gate.measure_intra) continue;
      if (!intra && !gate.measure_nonintra) continue;
    } else if (!gate.measure_higher_priority) {
      continue;
    }
    const double approx_rsrp = radio_.rsrp(idx);
    if (approx_rsrp <= net::kDetectionFloorDbm - 3.0) continue;
    prescan.emplace_back(approx_rsrp, &cand);
  }
  // Only the strongest kMaxTrackedNeighbors are kept, so only they are
  // ordered.  Without exact RSRP ties this is the order a full sort gives.
  const std::size_t tracked = std::min(prescan.size(), kMaxTrackedNeighbors);
  std::partial_sort(
      prescan.begin(), prescan.begin() + static_cast<std::ptrdiff_t>(tracked),
      prescan.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  prescan.resize(tracked);
  for (const auto& [approx, cand] : prescan) {
    CellMeas meas = measure(*cand);
    if (meas.rsrp_dbm <= net::kDetectionFloorDbm) continue;
    out.push_back(meas);
  }
  std::sort(out.begin(), out.end(), [](const CellMeas& a, const CellMeas& b) {
    return a.rsrp_dbm > b.rsrp_dbm;
  });
  // Drop measurement state and radio memos of cells unseen for 5 s.
  for (auto it = meas_state_.begin(); it != meas_state_.end();) {
    it = (t - it->second.last_seen > 5'000) ? meas_state_.erase(it)
                                            : std::next(it);
  }
  radio_.evict_unseen_before(t - 5'000);
  return out;
}

void Ue::camp_on(const net::Cell& cell, geo::Point pos, SimTime t,
                 diag::CampCause cause) {
  camp_on(cell, encode_camp_frames(cell), pos, t, cause);
}

void Ue::camp_on(const net::Cell& cell, const CampFrames& frames,
                 geo::Point pos, SimTime t, diag::CampCause cause) {
  serving_ = &cell;
  pending_.reset();
  monitors_.clear();
  if (cell.is_lte())
    reselection_.configure(cell.lte_config);
  else
    reselection_.configure(legacy_idle_config(cell));

  diag::CampEvent ev;
  ev.cell_identity = cell.id;
  ev.pci = cell.pci;
  ev.rat = static_cast<std::uint8_t>(cell.channel.rat);
  ev.channel = cell.channel.number;
  ev.cause = static_cast<std::uint8_t>(cause);
  ev.x_dm = static_cast<std::int32_t>(pos.x * 10.0);
  ev.y_dm = static_cast<std::int32_t>(pos.y * 10.0);
  const diag::CampEventBytes event = diag::encode_camp_event_bytes(ev);
  diag_.append(diag::LogCode::kServingCellInfo, t, event.data(), event.size());

  // The broadcast, then (active, LTE only) the measConfig and its monitors.
  const std::size_t logged =
      opts_.active_mode ? frames.frames.size() : frames.broadcast;
  for (std::size_t i = 0; i < logged; ++i) {
    const CampFrames::Frame& frame = frames.frames[i];
    diag_.append(frame.code, t, frames.bytes.data() + frame.offset,
                 frame.size);
  }
  if (opts_.active_mode && cell.is_lte())
    for (const auto& cfg : cell.lte_config.report_configs)
      monitors_.emplace_back(cfg);
}

bool Ue::attach(geo::Point pos, SimTime t) {
  radio_.begin_tick(pos, t);
  return attach_in_tick(pos, t);
}

bool Ue::attach_in_tick(geo::Point pos, SimTime t) {
  const net::Cell* best = nullptr;
  double best_rsrp = net::kDetectionFloorDbm;
  bool best_is_lte = false;
  for (const RadioMemo::Nearby& nb : radio_.nearby(opts_.carrier)) {
    const std::uint32_t idx = nb.index;
    const net::Cell& cand = net_.cells()[idx];
    if (cand.is_lte() && !opts_.band_support.supports_band(net_.lte_band(idx)))
      continue;
    const double rsrp = radio_.rsrp(idx);
    if (rsrp <= net::kDetectionFloorDbm) continue;
    // Prefer any audible LTE cell over any legacy cell.
    const bool better = (cand.is_lte() && !best_is_lte) ||
                        (cand.is_lte() == best_is_lte && rsrp > best_rsrp);
    if (best == nullptr || better) {
      best = &cand;
      best_rsrp = rsrp;
      best_is_lte = cand.is_lte();
    }
  }
  if (!best) return false;
  camp_on(*best, pos, t, diag::CampCause::kInitial);
  return true;
}

bool Ue::force_camp(net::CellId id, geo::Point pos, SimTime t) {
  const net::Cell* cell = net_.find_cell(id);
  if (!cell) return false;
  force_camp(*cell, pos, t);
  return true;
}

void Ue::force_camp(const net::Cell& cell, geo::Point pos, SimTime t) {
  camp_on(cell, pos, t, diag::CampCause::kForcedSwitch);
}

void Ue::force_camp(const net::Cell& cell, const CampFrames& frames,
                    geo::Point pos, SimTime t) {
  camp_on(cell, frames, pos, t, diag::CampCause::kForcedSwitch);
}

void Ue::detach() {
  serving_ = nullptr;
  pending_.reset();
  monitors_.clear();
}

void Ue::send_measurement_report(SimTime t, const EventTrigger& trig,
                                 const CellMeas& serving_meas,
                                 const std::vector<CellMeas>& neighbors) {
  rrc::MeasurementReport report;
  report.trigger = trig.type;
  report.metric = trig.metric;
  report.serving_pci = serving_->pci;
  report.serving_rsrp_dbm = serving_meas.rsrp_dbm;
  report.serving_rsrq_db = serving_meas.rsrq_db;
  for (const auto& nb : neighbors) {
    if (report.neighbors.size() >= kMaxReportedNeighbors) break;
    const net::Cell* cell = net_.find_cell(nb.cell_id);
    rrc::NeighborMeasurement nm;
    nm.pci = cell ? cell->pci : 0;
    nm.channel = nb.channel;
    nm.rsrp_dbm = nb.rsrp_dbm;
    nm.rsrq_db = nb.rsrq_db;
    report.neighbors.push_back(nm);
  }
  log_rrc(t, rrc::Message{report});
}

void Ue::run_active(SimTime t, const CellMeas& serving_meas,
                    const std::vector<CellMeas>& neighbors, geo::Point pos) {
  (void)pos;
  for (auto& monitor : monitors_) {
    for (const auto& trig : monitor.update(t, serving_meas, neighbors)) {
      send_measurement_report(t, trig, serving_meas, neighbors);
      const bool nominates =
          config::event_involves_neighbor(trig.type) &&
          trig.type != config::EventType::kPeriodic;
      if (pending_ || t < handoff_prohibit_until_) {
        // Report not acted on; the UE keeps the event armed.
        if (nominates) monitor.rearm(trig.neighbor_cell_id);
        continue;
      }

      net::CellId target = 0;
      if (trig.type == config::EventType::kPeriodic) {
        // The network acts on a periodic report only when the strongest
        // reported neighbour clearly beats the serving cell.
        const CellMeas* best = nullptr;
        for (const auto& nb : neighbors)
          if (nb.channel.rat == spectrum::Rat::kLte &&
              (best == nullptr || nb.rsrp_dbm > best->rsrp_dbm))
            best = &nb;
        if (best != nullptr &&
            best->rsrp_dbm >
                serving_meas.rsrp_dbm + opts_.periodic_handoff_margin_db)
          target = best->cell_id;
      } else if (config::event_involves_neighbor(trig.type)) {
        target = trig.neighbor_cell_id;
        // Network-side cross-check for threshold-only events: A3 already
        // guarantees a relative margin, but A4/A5/B1/B2 say nothing about
        // the target vs the serving cell.
        if (trig.type != config::EventType::kA3) {
          for (const auto& nb : neighbors) {
            if (nb.cell_id != target) continue;
            if (nb.rsrp_dbm <
                serving_meas.rsrp_dbm - opts_.target_sanity_margin_db)
              target = 0;
            break;
          }
          if (target == 0) monitor.rearm(trig.neighbor_cell_id);
        }
      }
      if (target == 0) continue;

      PendingHandoff ph;
      ph.report_time = t;
      ph.exec_time =
          t + rng_.between(opts_.decision_delay_min, opts_.decision_delay_max);
      ph.target = target;
      ph.trigger = trig.type;
      ph.metric = trig.metric;
      ph.decisive_config = monitor.config();
      pending_ = ph;
    }
  }
}

void Ue::run_idle(SimTime t, const CellMeas& serving_meas,
                  const std::vector<CellMeas>& neighbors, geo::Point pos) {
  std::vector<RankedCandidate> cands;
  cands.reserve(neighbors.size());
  for (const auto& nb : neighbors) {
    const net::Cell* cell = net_.find_cell(nb.cell_id);
    if (!cell) continue;
    RankedCandidate rc;
    rc.cell_id = nb.cell_id;
    rc.channel = nb.channel;
    rc.priority = priority_of_candidate(*cell);
    rc.srxlev_db = srxlev_of(*cell, nb.rsrp_dbm);
    cands.push_back(rc);
  }
  const double serving_srxlev = srxlev_of(*serving_, serving_meas.rsrp_dbm);
  const auto target_id = reselection_.update(t, serving_srxlev, cands);
  if (!target_id) return;
  const net::Cell* target = net_.find_cell(*target_id);
  if (!target) return;

  HandoffRecord rec;
  rec.report_time = t;
  rec.exec_time = t;
  rec.from = serving_->id;
  rec.to = target->id;
  rec.active_state = false;
  rec.trigger = config::EventType::kPeriodic;  // not event-triggered
  rec.old_rsrp_dbm = serving_meas.rsrp_dbm;
  rec.old_rsrq_db = serving_meas.rsrq_db;
  for (const auto& nb : neighbors) {
    if (nb.cell_id == target->id) {
      rec.new_rsrp_dbm = nb.rsrp_dbm;
      rec.new_rsrq_db = nb.rsrq_db;
      break;
    }
  }
  rec.from_channel = serving_->channel;
  rec.to_channel = target->channel;
  rec.serving_priority = serving_->is_lte()
                             ? serving_->lte_config.serving.priority
                             : serving_->legacy_config.priority;
  rec.target_priority = priority_of_candidate(*target);
  handoffs_.push_back(rec);
  camp_on(*target, pos, t, diag::CampCause::kIdleReselection);
}

void Ue::step(geo::Point pos, SimTime t) {
  now_ = t;
  radio_.begin_tick(pos, t);
  if (!serving_) {
    attach_in_tick(pos, t);
    if (!serving_) {
      link_tick_ = traffic::LinkTick{t, -20.0, 0, true};
      return;
    }
  }

  CellMeas serving_meas = measure(*serving_);

  // Radio link failure: sustained deep outage forces a re-attach.
  static_assert(kRlfTicks > 0);
  if (serving_meas.rsrp_dbm < kRlfRsrpDbm) {
    if (++rlf_streak_ >= kRlfTicks) {
      ++rlf_count_;
      rlf_streak_ = 0;
      detach();
      attach_in_tick(pos, t);
      if (!serving_) {
        link_tick_ = traffic::LinkTick{t, -20.0, 0, true};
        return;
      }
      serving_meas = measure(*serving_);
    }
  } else {
    rlf_streak_ = 0;
  }

  // Execute a due handoff command.
  if (pending_ && t >= pending_->exec_time) {
    const PendingHandoff ph = *pending_;
    pending_.reset();
    const net::Cell* target = net_.find_cell(ph.target);
    if (!target) {
      failures_.emplace_back(t, HandoffFailure::kTargetVanished);
    } else if (target->is_lte() && !opts_.band_support.supports_band(
                                       net_.lte_band(net_.index_of(*target)))) {
      failures_.emplace_back(t, HandoffFailure::kTargetNotSupported);
    } else {
      CellMeas target_meas = measure(*target);
      if (target_meas.rsrp_dbm <= net::kDetectionFloorDbm) {
        failures_.emplace_back(t, HandoffFailure::kTargetVanished);
      } else {
        HandoffRecord rec;
        rec.report_time = ph.report_time;
        rec.exec_time = t;
        rec.from = serving_->id;
        rec.to = target->id;
        rec.active_state = true;
        rec.trigger = ph.trigger;
        rec.metric = ph.metric;
        rec.decisive_config = ph.decisive_config;
        rec.old_rsrp_dbm = serving_meas.rsrp_dbm;
        rec.old_rsrq_db = serving_meas.rsrq_db;
        rec.new_rsrp_dbm = target_meas.rsrp_dbm;
        rec.new_rsrq_db = target_meas.rsrq_db;
        rec.from_channel = serving_->channel;
        rec.to_channel = target->channel;
        rec.serving_priority = serving_->is_lte()
                                   ? serving_->lte_config.serving.priority
                                   : serving_->legacy_config.priority;
        rec.target_priority = priority_of_candidate(*target);
        handoffs_.push_back(rec);

        // Handoff command over the air, then the execution gap.
        rrc::RrcConnectionReconfiguration cmd;
        cmd.mobility =
            rrc::MobilityControlInfo{target->pci, target->channel};
        log_rrc(t, rrc::Message{cmd});
        camp_on(*target, pos, t, diag::CampCause::kActiveHandoff);
        interruption_until_ = t + opts_.interruption_ms;
        handoff_prohibit_until_ = t + opts_.handoff_prohibit_ms;
        serving_meas = measure(*serving_);
      }
    }
  }

  const MeasurementGate gate =
      opts_.active_mode
          ? MeasurementGate{true, true, true}
          : evaluate_measurement_gate(
                reselection_.serving_config().serving,
                srxlev_of(*serving_, serving_meas.rsrp_dbm));
  ++meas_stats_.ticks;
  meas_stats_.intra_active += gate.measure_intra;
  meas_stats_.nonintra_active += gate.measure_nonintra;
  const auto neighbors = measure_neighbors(t, gate);

  if (opts_.active_mode && serving_->is_lte())
    run_active(t, serving_meas, neighbors, pos);
  else
    run_idle(t, serving_meas, neighbors, pos);

  // Link state for the traffic layer.
  const double sinr = radio::sinr_db_mw(
      serving_meas.rsrp_dbm, radio_.noise_interference_mw(*serving_));
  link_tick_ = traffic::LinkTick{t, sinr, serving_->bandwidth_prbs,
                                 t < interruption_until_};

  if (opts_.log_radio_snapshots) {
    diag::RadioSnapshot snap;
    snap.rsrp_cdbm = static_cast<std::int16_t>(serving_meas.rsrp_dbm * 100.0);
    snap.rsrq_cdb = static_cast<std::int16_t>(serving_meas.rsrq_db * 100.0);
    snap.sinr_cdb = static_cast<std::int16_t>(sinr * 100.0);
    diag_.append({diag::LogCode::kRadioMeasurement, t,
                  diag::encode_radio_snapshot(snap)});
  }
}

}  // namespace mmlab::ue
