#include "mmlab/rrc/codec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mmlab/config/quant.hpp"
#include "mmlab/util/bitio.hpp"

namespace mmlab::rrc {

namespace {

namespace quant = config::quant;

// --- measured-value quantization (TS 36.133 reporting ranges) -------------
// Configured thresholds must sit exactly on their grid (quant:: throws
// otherwise); *measured* values are legitimately continuous, so the encoder
// clamps and rounds them the way a real UE quantizes its reports.

std::uint64_t encode_meas_rsrp(double dbm) {
  const double clamped = std::clamp(dbm, -140.0, -44.0);
  return static_cast<std::uint64_t>(std::llround(clamped + 140.0));
}
double decode_meas_rsrp(std::uint64_t ie) {
  if (ie > 96) throw std::invalid_argument("rrc: bad measured RSRP IE");
  return static_cast<double>(ie) - 140.0;
}

std::uint64_t encode_meas_rsrq(double db) {
  const double clamped = std::clamp(db, -19.5, -3.0);
  return static_cast<std::uint64_t>(std::llround((clamped + 19.5) * 2.0));
}
double decode_meas_rsrq(std::uint64_t ie) {
  if (ie > 34) throw std::invalid_argument("rrc: bad measured RSRQ IE");
  return static_cast<double>(ie) / 2.0 - 19.5;
}

// --- event thresholds: grid depends on the metric --------------------------

std::uint64_t encode_threshold(double v, config::SignalMetric metric) {
  return metric == config::SignalMetric::kRsrp
             ? quant::encode_rsrp_threshold(v)
             : quant::encode_rsrq_threshold(v);
}
double decode_threshold(std::uint64_t ie, config::SignalMetric metric) {
  return metric == config::SignalMetric::kRsrp
             ? quant::decode_rsrp_threshold(ie)
             : quant::decode_rsrq_threshold(ie);
}

const std::vector<int>& bandwidth_grid() {
  static const std::vector<int> kGrid = {6, 15, 25, 50, 75, 100};
  return kGrid;
}

// --- field-group encoders ---------------------------------------------------

void put_event_config(BitWriter& w, const config::EventConfig& ev) {
  w.write(static_cast<std::uint64_t>(ev.type), 4);
  w.write(ev.metric == config::SignalMetric::kRsrq ? 1 : 0, 1);
  const bool uses_threshold1 = ev.type != config::EventType::kA3 &&
                               ev.type != config::EventType::kA6 &&
                               ev.type != config::EventType::kPeriodic;
  const bool uses_threshold2 = ev.type == config::EventType::kA5 ||
                               ev.type == config::EventType::kB2;
  w.write(uses_threshold1 ? encode_threshold(ev.threshold1, ev.metric) : 0, 7);
  w.write(uses_threshold2 ? encode_threshold(ev.threshold2, ev.metric) : 0, 7);
  const bool uses_offset = ev.type == config::EventType::kA3 ||
                           ev.type == config::EventType::kA6;
  w.write(uses_offset ? quant::encode_a3_offset(ev.offset_db) : 30, 6);
  w.write(quant::encode_hysteresis(ev.hysteresis_db), 5);
  w.write(quant::encode_ttt(ev.time_to_trigger), 4);
  if (ev.report_interval > 0) {
    w.write_bit(true);
    w.write(quant::encode_report_interval(ev.report_interval), 4);
  } else {
    w.write_bit(false);
  }
  if (ev.report_amount < 1 || ev.report_amount > 16)
    throw std::invalid_argument("rrc: reportAmount out of range");
  w.write(static_cast<std::uint64_t>(ev.report_amount - 1), 4);
}

config::EventConfig get_event_config(BitReader& r) {
  config::EventConfig ev;
  const auto type = r.read(4);
  if (type > static_cast<std::uint64_t>(config::EventType::kPeriodic))
    throw std::invalid_argument("rrc: bad event type");
  ev.type = static_cast<config::EventType>(type);
  ev.metric = r.read_bit() ? config::SignalMetric::kRsrq
                           : config::SignalMetric::kRsrp;
  const auto t1 = r.read(7);
  const auto t2 = r.read(7);
  const bool uses_threshold1 = ev.type != config::EventType::kA3 &&
                               ev.type != config::EventType::kA6 &&
                               ev.type != config::EventType::kPeriodic;
  const bool uses_threshold2 = ev.type == config::EventType::kA5 ||
                               ev.type == config::EventType::kB2;
  if (uses_threshold1) ev.threshold1 = decode_threshold(t1, ev.metric);
  if (uses_threshold2) ev.threshold2 = decode_threshold(t2, ev.metric);
  const auto off = r.read(6);
  const bool uses_offset = ev.type == config::EventType::kA3 ||
                           ev.type == config::EventType::kA6;
  if (uses_offset) ev.offset_db = quant::decode_a3_offset(off);
  ev.hysteresis_db = quant::decode_hysteresis(r.read(5));
  ev.time_to_trigger = quant::decode_ttt(r.read(4));
  if (r.read_bit()) ev.report_interval = quant::decode_report_interval(r.read(4));
  ev.report_amount = static_cast<int>(r.read(4)) + 1;
  return ev;
}

void put_neighbor_freq(BitWriter& w, const config::NeighborFreqConfig& nf) {
  w.write(static_cast<std::uint64_t>(nf.channel.rat), 3);
  w.write(nf.channel.number, 18);
  w.write_ranged(nf.priority, 0, 3);
  w.write(quant::encode_q_rxlevmin(nf.q_rxlevmin_dbm), 6);
  w.write(quant::encode_search_threshold(nf.thresh_high_db), 5);
  w.write(quant::encode_search_threshold(nf.thresh_low_db), 5);
  w.write(quant::encode_q_offset(nf.q_offset_freq_db), 5);
  w.write(quant::encode_meas_bandwidth(nf.meas_bandwidth_mhz), 3);
  w.write(quant::encode_t_reselection(nf.t_reselection), 3);
}

config::NeighborFreqConfig get_neighbor_freq(BitReader& r) {
  config::NeighborFreqConfig nf;
  const auto rat = r.read(3);
  if (rat > 4) throw std::invalid_argument("rrc: bad neighbour RAT");
  nf.channel.rat = static_cast<spectrum::Rat>(rat);
  nf.channel.number = static_cast<std::uint32_t>(r.read(18));
  nf.priority = static_cast<int>(r.read(3));
  nf.q_rxlevmin_dbm = quant::decode_q_rxlevmin(r.read(6));
  nf.thresh_high_db = quant::decode_search_threshold(r.read(5));
  nf.thresh_low_db = quant::decode_search_threshold(r.read(5));
  nf.q_offset_freq_db = quant::decode_q_offset(r.read(5));
  nf.meas_bandwidth_mhz = quant::decode_meas_bandwidth(r.read(3));
  nf.t_reselection = quant::decode_t_reselection(r.read(3));
  return nf;
}

void put_sib1(BitWriter& w, const Sib1& m) {
  w.write(m.cell_identity, 28);
  w.write(m.tracking_area, 16);
  w.write(m.earfcn, 18);
  w.write(quant::encode_q_rxlevmin(m.q_rxlevmin_dbm), 6);
  const auto& grid = bandwidth_grid();
  const auto it = std::find(grid.begin(), grid.end(), m.bandwidth_prbs);
  if (it == grid.end()) throw std::invalid_argument("rrc: bad bandwidth");
  w.write(static_cast<std::uint64_t>(it - grid.begin()), 3);
}

Sib1 get_sib1(BitReader& r) {
  Sib1 m;
  m.cell_identity = static_cast<std::uint32_t>(r.read(28));
  m.tracking_area = static_cast<std::uint16_t>(r.read(16));
  m.earfcn = static_cast<std::uint32_t>(r.read(18));
  m.q_rxlevmin_dbm = quant::decode_q_rxlevmin(r.read(6));
  const auto bw = r.read(3);
  if (bw >= bandwidth_grid().size())
    throw std::invalid_argument("rrc: bad bandwidth IE");
  m.bandwidth_prbs = bandwidth_grid()[bw];
  return m;
}

void put_sib3(BitWriter& w, const Sib3& m) {
  const auto& s = m.serving;
  w.write_ranged(s.priority, 0, 3);
  w.write(quant::encode_q_hyst(s.q_hyst_db), 4);
  w.write(quant::encode_q_rxlevmin(s.q_rxlevmin_dbm), 6);
  w.write(quant::encode_search_threshold(s.s_intrasearch_db), 5);
  w.write(quant::encode_search_threshold(s.s_nonintrasearch_db), 5);
  w.write(quant::encode_search_threshold(s.thresh_serving_low_db), 5);
  w.write(quant::encode_t_reselection(s.t_reselection), 3);
  if (s.t_higher_meas % 1000 != 0 || s.t_higher_meas < 0 ||
      s.t_higher_meas > 255'000)
    throw std::invalid_argument("rrc: t_higher_meas off grid");
  w.write(static_cast<std::uint64_t>(s.t_higher_meas / 1000), 8);
  w.write(quant::encode_q_offset(m.q_offset_equal_db), 5);
}

Sib3 get_sib3(BitReader& r) {
  Sib3 m;
  auto& s = m.serving;
  s.priority = static_cast<int>(r.read(3));
  s.q_hyst_db = quant::decode_q_hyst(r.read(4));
  s.q_rxlevmin_dbm = quant::decode_q_rxlevmin(r.read(6));
  s.s_intrasearch_db = quant::decode_search_threshold(r.read(5));
  s.s_nonintrasearch_db = quant::decode_search_threshold(r.read(5));
  s.thresh_serving_low_db = quant::decode_search_threshold(r.read(5));
  s.t_reselection = quant::decode_t_reselection(r.read(3));
  s.t_higher_meas = static_cast<Millis>(r.read(8)) * 1000;
  m.q_offset_equal_db = quant::decode_q_offset(r.read(5));
  return m;
}

void put_sib4(BitWriter& w, const Sib4& m) {
  if (m.forbidden_cells.size() > 63)
    throw std::invalid_argument("rrc: forbidden list too long");
  w.write(m.forbidden_cells.size(), 6);
  for (auto id : m.forbidden_cells) w.write(id, 28);
}

Sib4 get_sib4(BitReader& r) {
  Sib4 m;
  const auto n = r.read(6);
  m.forbidden_cells.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    m.forbidden_cells.push_back(static_cast<std::uint32_t>(r.read(28)));
  return m;
}

void put_freq_list(BitWriter& w, const NeighborFreqList& m) {
  w.write(static_cast<std::uint64_t>(m.target_rat), 3);
  if (m.freqs.size() > 31) throw std::invalid_argument("rrc: freq list too long");
  w.write(m.freqs.size(), 5);
  for (const auto& nf : m.freqs) put_neighbor_freq(w, nf);
}

template <typename SibT>
SibT get_freq_list(BitReader& r) {
  SibT m;
  const auto rat = r.read(3);
  if (rat > 4) throw std::invalid_argument("rrc: bad list RAT");
  m.target_rat = static_cast<spectrum::Rat>(rat);
  const auto n = r.read(5);
  m.freqs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) m.freqs.push_back(get_neighbor_freq(r));
  return m;
}

void put_reconfiguration(BitWriter& w, const RrcConnectionReconfiguration& m) {
  w.write_bit(m.mobility.has_value());
  if (m.mobility) {
    w.write(m.mobility->target_pci, 9);
    w.write(static_cast<std::uint64_t>(m.mobility->target_channel.rat), 3);
    w.write(m.mobility->target_channel.number, 18);
  }
  if (m.report_configs.size() > 15)
    throw std::invalid_argument("rrc: too many report configs");
  w.write(m.report_configs.size(), 4);
  for (const auto& ev : m.report_configs) put_event_config(w, ev);
}

RrcConnectionReconfiguration get_reconfiguration(BitReader& r) {
  RrcConnectionReconfiguration m;
  if (r.read_bit()) {
    MobilityControlInfo mci;
    mci.target_pci = static_cast<Pci>(r.read(9));
    const auto rat = r.read(3);
    if (rat > 4) throw std::invalid_argument("rrc: bad mobility RAT");
    mci.target_channel.rat = static_cast<spectrum::Rat>(rat);
    mci.target_channel.number = static_cast<std::uint32_t>(r.read(18));
    m.mobility = mci;
  }
  const auto n = r.read(4);
  m.report_configs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    m.report_configs.push_back(get_event_config(r));
  return m;
}

void put_measurement_report(BitWriter& w, const MeasurementReport& m) {
  w.write(static_cast<std::uint64_t>(m.trigger), 4);
  w.write(m.metric == config::SignalMetric::kRsrq ? 1 : 0, 1);
  w.write(m.serving_pci, 9);
  w.write(encode_meas_rsrp(m.serving_rsrp_dbm), 7);
  w.write(encode_meas_rsrq(m.serving_rsrq_db), 6);
  if (m.neighbors.size() > 15)
    throw std::invalid_argument("rrc: too many neighbour measurements");
  w.write(m.neighbors.size(), 4);
  for (const auto& nb : m.neighbors) {
    w.write(nb.pci, 9);
    w.write(static_cast<std::uint64_t>(nb.channel.rat), 3);
    w.write(nb.channel.number, 18);
    w.write(encode_meas_rsrp(nb.rsrp_dbm), 7);
    w.write(encode_meas_rsrq(nb.rsrq_db), 6);
  }
}

MeasurementReport get_measurement_report(BitReader& r) {
  MeasurementReport m;
  const auto trig = r.read(4);
  if (trig > static_cast<std::uint64_t>(config::EventType::kPeriodic))
    throw std::invalid_argument("rrc: bad report trigger");
  m.trigger = static_cast<config::EventType>(trig);
  m.metric = r.read_bit() ? config::SignalMetric::kRsrq
                          : config::SignalMetric::kRsrp;
  m.serving_pci = static_cast<Pci>(r.read(9));
  m.serving_rsrp_dbm = decode_meas_rsrp(r.read(7));
  m.serving_rsrq_db = decode_meas_rsrq(r.read(6));
  const auto n = r.read(4);
  m.neighbors.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    NeighborMeasurement nb;
    nb.pci = static_cast<Pci>(r.read(9));
    const auto rat = r.read(3);
    if (rat > 4) throw std::invalid_argument("rrc: bad neighbour RAT");
    nb.channel.rat = static_cast<spectrum::Rat>(rat);
    nb.channel.number = static_cast<std::uint32_t>(r.read(18));
    nb.rsrp_dbm = decode_meas_rsrp(r.read(7));
    nb.rsrq_db = decode_meas_rsrq(r.read(6));
    m.neighbors.push_back(nb);
  }
  return m;
}

void put_legacy(BitWriter& w, const LegacySystemInfo& m) {
  w.write(static_cast<std::uint64_t>(m.config.rat), 3);
  w.write(m.cell_identity, 28);
  w.write(m.channel, 18);
  w.write_ranged(m.config.priority, 0, 3);
  // Legacy q-RxLevMin grid: 0.5 dB fixed point over [-160, -32.5] dBm.
  const double q2 = m.config.q_rxlevmin_dbm * 2.0;
  if (q2 != std::floor(q2))
    throw std::invalid_argument("rrc: legacy q_rxlevmin off 0.5 dB grid");
  w.write_ranged(static_cast<std::int64_t>(q2), -320, 8);
  const double h2 = m.config.q_hyst_db * 2.0;
  if (h2 != std::floor(h2) || h2 < 0)
    throw std::invalid_argument("rrc: legacy q_hyst off grid");
  w.write_ranged(static_cast<std::int64_t>(h2), 0, 6);
  w.write(quant::encode_t_reselection(m.config.t_reselection), 3);
  if (m.config.extra_params.size() > 127)
    throw std::invalid_argument("rrc: too many legacy params");
  w.write(m.config.extra_params.size(), 7);
  for (double v : m.config.extra_params) {
    // 0.25-step fixed point over [-1024, +1023.75].
    const double v4 = v * 4.0;
    if (v4 != std::floor(v4) || v4 < -4096 || v4 > 4095)
      throw std::invalid_argument("rrc: legacy extra param off grid");
    w.write_ranged(static_cast<std::int64_t>(v4), -4096, 13);
  }
}

LegacySystemInfo get_legacy(BitReader& r) {
  LegacySystemInfo m;
  const auto rat = r.read(3);
  if (rat == 0 || rat > 4)
    throw std::invalid_argument("rrc: bad legacy RAT");
  m.config.rat = static_cast<spectrum::Rat>(rat);
  m.cell_identity = static_cast<std::uint32_t>(r.read(28));
  m.channel = static_cast<std::uint32_t>(r.read(18));
  m.config.priority = static_cast<int>(r.read(3));
  m.config.q_rxlevmin_dbm =
      static_cast<double>(r.read_ranged(-320, 8)) / 2.0;
  m.config.q_hyst_db = static_cast<double>(r.read_ranged(0, 6)) / 2.0;
  m.config.t_reselection = quant::decode_t_reselection(r.read(3));
  const auto n = r.read(7);
  m.config.extra_params.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    m.config.extra_params.push_back(
        static_cast<double>(r.read_ranged(-4096, 13)) / 4.0);
  return m;
}

}  // namespace

MessageType message_type(const Message& msg) {
  struct Visitor {
    MessageType operator()(const Sib1&) { return MessageType::kSib1; }
    MessageType operator()(const Sib3&) { return MessageType::kSib3; }
    MessageType operator()(const Sib4&) { return MessageType::kSib4; }
    MessageType operator()(const Sib5&) { return MessageType::kSib5; }
    MessageType operator()(const Sib6&) { return MessageType::kSib6; }
    MessageType operator()(const Sib7&) { return MessageType::kSib7; }
    MessageType operator()(const Sib8&) { return MessageType::kSib8; }
    MessageType operator()(const RrcConnectionReconfiguration&) {
      return MessageType::kRrcReconfiguration;
    }
    MessageType operator()(const MeasurementReport&) {
      return MessageType::kMeasurementReport;
    }
    MessageType operator()(const LegacySystemInfo&) {
      return MessageType::kLegacySystemInfo;
    }
  };
  return std::visit(Visitor{}, msg);
}

const char* message_type_name(MessageType t) {
  switch (t) {
    case MessageType::kSib1: return "SIB1";
    case MessageType::kSib3: return "SIB3";
    case MessageType::kSib4: return "SIB4";
    case MessageType::kSib5: return "SIB5";
    case MessageType::kSib6: return "SIB6";
    case MessageType::kSib7: return "SIB7";
    case MessageType::kSib8: return "SIB8";
    case MessageType::kRrcReconfiguration: return "RRCConnectionReconfiguration";
    case MessageType::kMeasurementReport: return "MeasurementReport";
    case MessageType::kLegacySystemInfo: return "LegacySystemInfo";
  }
  return "?";
}

std::vector<std::uint8_t> encode(const Message& msg) {
  BitWriter w;
  w.reserve(64);  // most messages fit: no regrowth per field
  w.write(static_cast<std::uint64_t>(message_type(msg)), 8);
  struct Visitor {
    BitWriter& w;
    void operator()(const Sib1& m) { put_sib1(w, m); }
    void operator()(const Sib3& m) { put_sib3(w, m); }
    void operator()(const Sib4& m) { put_sib4(w, m); }
    void operator()(const Sib5& m) { put_freq_list(w, m); }
    void operator()(const Sib6& m) { put_freq_list(w, m); }
    void operator()(const Sib7& m) { put_freq_list(w, m); }
    void operator()(const Sib8& m) { put_freq_list(w, m); }
    void operator()(const RrcConnectionReconfiguration& m) {
      put_reconfiguration(w, m);
    }
    void operator()(const MeasurementReport& m) {
      put_measurement_report(w, m);
    }
    void operator()(const LegacySystemInfo& m) { put_legacy(w, m); }
  };
  std::visit(Visitor{w}, msg);
  w.align();
  return std::move(w).take();
}

Result<Message> decode(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return Result<Message>::error("rrc: empty buffer");
  BitReader r(data, size);
  try {
    const auto type = static_cast<MessageType>(r.read(8));
    switch (type) {
      case MessageType::kSib1: return Message{get_sib1(r)};
      case MessageType::kSib3: return Message{get_sib3(r)};
      case MessageType::kSib4: return Message{get_sib4(r)};
      case MessageType::kSib5: return Message{get_freq_list<Sib5>(r)};
      case MessageType::kSib6: return Message{get_freq_list<Sib6>(r)};
      case MessageType::kSib7: return Message{get_freq_list<Sib7>(r)};
      case MessageType::kSib8: return Message{get_freq_list<Sib8>(r)};
      case MessageType::kRrcReconfiguration:
        return Message{get_reconfiguration(r)};
      case MessageType::kMeasurementReport:
        return Message{get_measurement_report(r)};
      case MessageType::kLegacySystemInfo: return Message{get_legacy(r)};
    }
    return Result<Message>::error("rrc: unknown message type " +
                                  std::to_string(static_cast<int>(type)));
  } catch (const BitUnderflow&) {
    return Result<Message>::error("rrc: truncated message");
  } catch (const std::invalid_argument& e) {
    return Result<Message>::error(e.what());
  }
}

}  // namespace mmlab::rrc
