#include "mmlab/rrc/describe.hpp"

#include <cstdarg>
#include <cstdio>

namespace mmlab::rrc {

namespace {

std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

std::string describe_event(const config::EventConfig& ev) {
  const std::string name(config::event_name(ev.type));
  const std::string metric(config::metric_name(ev.metric));
  switch (ev.type) {
    case config::EventType::kA1:
    case config::EventType::kA2:
    case config::EventType::kA4:
    case config::EventType::kB1:
      return fmt("%s(%s) thresh=%.1f hys=%.1f ttt=%lld", name.c_str(),
                 metric.c_str(), ev.threshold1, ev.hysteresis_db,
                 static_cast<long long>(ev.time_to_trigger));
    case config::EventType::kA3:
    case config::EventType::kA6:
      return fmt("%s(%s) offset=%.1f hys=%.1f ttt=%lld", name.c_str(),
                 metric.c_str(), ev.offset_db, ev.hysteresis_db,
                 static_cast<long long>(ev.time_to_trigger));
    case config::EventType::kA5:
    case config::EventType::kB2:
      return fmt("%s(%s) thS=%.1f thC=%.1f hys=%.1f ttt=%lld", name.c_str(),
                 metric.c_str(), ev.threshold1, ev.threshold2,
                 ev.hysteresis_db, static_cast<long long>(ev.time_to_trigger));
    case config::EventType::kPeriodic:
      return fmt("P interval=%lldms", static_cast<long long>(ev.report_interval));
    default:
      return name;
  }
}

struct Visitor {
  std::string operator()(const Sib1& m) {
    return fmt("SIB1 cell=%u tac=%u earfcn=%u qRxLevMin=%.0fdBm bw=%dPRB",
               m.cell_identity, m.tracking_area, m.earfcn, m.q_rxlevmin_dbm,
               m.bandwidth_prbs);
  }
  std::string operator()(const Sib3& m) {
    return fmt("SIB3 prio=%d qHyst=%.0fdB sIntra=%.0fdB sNonIntra=%.0fdB "
               "threshSrvLow=%.0fdB tResel=%llds dEqual=%.0fdB",
               m.serving.priority, m.serving.q_hyst_db,
               m.serving.s_intrasearch_db, m.serving.s_nonintrasearch_db,
               m.serving.thresh_serving_low_db,
               static_cast<long long>(m.serving.t_reselection / 1000),
               m.q_offset_equal_db);
  }
  std::string operator()(const Sib4& m) {
    return fmt("SIB4 %zu forbidden cells", m.forbidden_cells.size());
  }
  std::string freq_list(const char* label, const NeighborFreqList& m) {
    std::string out = fmt("%s %zu carriers:", label, m.freqs.size());
    for (const auto& nf : m.freqs)
      out += fmt(" [%s prio=%d thHigh=%.0f thLow=%.0f]",
                 spectrum::to_string(nf.channel).c_str(), nf.priority,
                 nf.thresh_high_db, nf.thresh_low_db);
    return out;
  }
  std::string operator()(const Sib5& m) { return freq_list("SIB5", m); }
  std::string operator()(const Sib6& m) { return freq_list("SIB6", m); }
  std::string operator()(const Sib7& m) { return freq_list("SIB7", m); }
  std::string operator()(const Sib8& m) { return freq_list("SIB8", m); }
  std::string operator()(const RrcConnectionReconfiguration& m) {
    std::string out = "RRCConnectionReconfiguration";
    if (m.mobility)
      out += fmt(" [handoff -> pci=%u %s]", m.mobility->target_pci,
                 spectrum::to_string(m.mobility->target_channel).c_str());
    for (const auto& ev : m.report_configs) {
      // Appended: GCC 12 at -O3 flags `" " + std::string` with a false
      // -Wrestrict.
      out += ' ';
      out += describe_event(ev);
    }
    return out;
  }
  std::string operator()(const MeasurementReport& m) {
    std::string out =
        fmt("MeasurementReport %s serving pci=%u rsrp=%.0fdBm rsrq=%.1fdB",
            std::string(config::event_name(m.trigger)).c_str(), m.serving_pci,
            m.serving_rsrp_dbm, m.serving_rsrq_db);
    for (const auto& nb : m.neighbors)
      out += fmt(" [pci=%u %s rsrp=%.0f]", nb.pci,
                 spectrum::to_string(nb.channel).c_str(), nb.rsrp_dbm);
    return out;
  }
  std::string operator()(const LegacySystemInfo& m) {
    return fmt("%s SystemInfo cell=%u ch=%u prio=%d qRxLevMin=%.1fdBm "
               "(%zu params)",
               std::string(spectrum::rat_name(m.config.rat)).c_str(),
               m.cell_identity, m.channel, m.config.priority,
               m.config.q_rxlevmin_dbm, 4 + m.config.extra_params.size());
  }
};

}  // namespace

std::string describe(const Message& msg) { return std::visit(Visitor{}, msg); }

}  // namespace mmlab::rrc
