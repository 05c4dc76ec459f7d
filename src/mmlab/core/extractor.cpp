#include "mmlab/core/extractor.hpp"

#include <array>
#include <optional>
#include <stdexcept>

#include "mmlab/rrc/codec.hpp"

namespace mmlab::core {

namespace {

/// Configuration parts decoded from one camp's RRC messages.
struct CampConfig {
  config::CellConfig cfg;
  /// Neighbour-frequency lists keyed by source SIB (0 = SIB5 .. 3 = SIB8).
  /// Cells re-broadcast SIBs periodically; keeping the latest copy per SIB
  /// makes re-receptions within one camp idempotent instead of appending
  /// duplicate entries (which inflated Fig 18's candidate-priority counts).
  std::array<std::vector<config::NeighborFreqConfig>, 4> sib_neighbors;
  bool saw_sib3 = false;
  std::optional<config::LegacyCellConfig> legacy;

  void apply(const rrc::Message& msg) {
    if (const auto* sib1 = std::get_if<rrc::Sib1>(&msg)) {
      // q-RxLevMin also appears in SIB1; SIB3's copy wins if present.
      if (!saw_sib3) cfg.serving.q_rxlevmin_dbm = sib1->q_rxlevmin_dbm;
    } else if (const auto* sib3 = std::get_if<rrc::Sib3>(&msg)) {
      cfg.serving = sib3->serving;
      cfg.q_offset_equal_db = sib3->q_offset_equal_db;
      saw_sib3 = true;
    } else if (const auto* sib4 = std::get_if<rrc::Sib4>(&msg)) {
      cfg.forbidden_cells = sib4->forbidden_cells;
    } else if (const auto* sib5 = std::get_if<rrc::Sib5>(&msg)) {
      sib_neighbors[0] = sib5->freqs;
    } else if (const auto* sib6 = std::get_if<rrc::Sib6>(&msg)) {
      sib_neighbors[1] = sib6->freqs;
    } else if (const auto* sib7 = std::get_if<rrc::Sib7>(&msg)) {
      sib_neighbors[2] = sib7->freqs;
    } else if (const auto* sib8 = std::get_if<rrc::Sib8>(&msg)) {
      sib_neighbors[3] = sib8->freqs;
    } else if (const auto* reconf =
                   std::get_if<rrc::RrcConnectionReconfiguration>(&msg)) {
      if (!reconf->report_configs.empty())
        cfg.report_configs = reconf->report_configs;
    } else if (const auto* legacy_info =
                   std::get_if<rrc::LegacySystemInfo>(&msg)) {
      legacy = legacy_info->config;
    }
    // MeasurementReports carry no configuration.
  }

  /// The snapshot to file, if the camp captured a trustworthy one.
  std::optional<std::vector<config::ParamObservation>> params() {
    if (legacy) return config::extract_parameters(*legacy);
    if (!saw_sib3) return std::nullopt;  // partial capture
    cfg.neighbor_freqs.clear();
    for (const auto& list : sib_neighbors)
      cfg.neighbor_freqs.insert(cfg.neighbor_freqs.end(), list.begin(),
                                list.end());
    return config::extract_parameters(cfg);
  }
};

/// Append one RRC record to a camp's payload sequence: its log code, its
/// length and its bytes.
void append_payload(std::vector<std::uint8_t>& seq, const diag::Record& rec) {
  const auto code = static_cast<std::uint16_t>(rec.code);
  const auto size = static_cast<std::uint32_t>(rec.payload.size());
  const std::uint8_t head[6] = {
      static_cast<std::uint8_t>(code), static_cast<std::uint8_t>(code >> 8),
      static_cast<std::uint8_t>(size), static_cast<std::uint8_t>(size >> 8),
      static_cast<std::uint8_t>(size >> 16),
      static_cast<std::uint8_t>(size >> 24)};
  seq.insert(seq.end(), head, head + 6);
  seq.insert(seq.end(), rec.payload.begin(), rec.payload.end());
}

}  // namespace

/// The current camp: its event and its RRC payloads, not yet decoded.
struct StreamExtractor::Pending {
  diag::CampEvent camp;
  SimTime camp_time;
  std::vector<std::uint8_t> payloads;  ///< append_payload's sequence
};

StreamExtractor::StreamExtractor(std::string carrier, ConfigDatabase& db)
    : carrier_(std::move(carrier)), db_(db) {}

StreamExtractor::~StreamExtractor() = default;

bool StreamExtractor::finished() const { return finished_; }

void StreamExtractor::flush() {
  const diag::CampEvent& camp = pending_->camp;
  const geo::Point pos{static_cast<double>(camp.x_dm) / 10.0,
                       static_cast<double>(camp.y_dm) / 10.0};
  const auto rat = static_cast<spectrum::Rat>(camp.rat);
  // A cell first seen here gets an empty memo: the outcome of decoding no
  // payloads, which a camp with none repeats correctly.
  CampMemo& memo = memo_[camp.cell_identity];
  if (memo.payloads == pending_->payloads) {
    // The same bytes decode to the same messages and the same snapshot.
    stats_.rrc_messages += memo.messages;
    stats_.rrc_errors += memo.errors;
    if (memo.filed) {
      db_.refile_snapshot(carrier_, camp.cell_identity, rat, camp.channel, pos,
                          pending_->camp_time, memo.rows);
      ++stats_.snapshots;
    }
    return;
  }
  CampConfig parts;
  memo.messages = 0;
  memo.errors = 0;
  const std::vector<std::uint8_t>& seq = pending_->payloads;
  for (std::size_t at = 0; at < seq.size();) {
    const std::size_t size = static_cast<std::size_t>(seq[at + 2]) |
                             static_cast<std::size_t>(seq[at + 3]) << 8 |
                             static_cast<std::size_t>(seq[at + 4]) << 16 |
                             static_cast<std::size_t>(seq[at + 5]) << 24;
    auto decoded = rrc::decode(seq.data() + at + 6, size);
    at += 6 + size;
    if (!decoded) {
      ++memo.errors;
      continue;
    }
    ++memo.messages;
    parts.apply(decoded.value());
  }
  stats_.rrc_messages += memo.messages;
  stats_.rrc_errors += memo.errors;
  memo.payloads.swap(pending_->payloads);
  const auto params = parts.params();
  memo.filed = params.has_value();
  memo.rows = params ? params->size() : 0;
  if (!params) return;
  db_.add_snapshot(carrier_, camp.cell_identity, rat, camp.channel, pos,
                   pending_->camp_time, *params);
  ++stats_.snapshots;
}

void StreamExtractor::on_record(const diag::Record& rec) {
  if (finished_)
    throw std::logic_error("StreamExtractor: on_record after finish");
  ++stats_.records;
  switch (rec.code) {
    case diag::LogCode::kServingCellInfo: {
      diag::CampEvent ev;
      if (!decode_camp_event(rec.payload, ev)) {
        ++stats_.malformed;
        break;
      }
      if (pending_)
        flush();
      else
        pending_ = std::make_unique<Pending>();
      pending_->camp = ev;
      pending_->camp_time = rec.timestamp;
      pending_->payloads.clear();
      ++stats_.camps;
      break;
    }
    case diag::LogCode::kLteRrcOta:
    case diag::LogCode::kLegacyRrcOta: {
      if (pending_) {
        append_payload(pending_->payloads, rec);
        break;
      }
      // A message before any camp is unattributable; it is only counted.
      if (rrc::decode(rec.payload))
        ++stats_.rrc_messages;
      else
        ++stats_.rrc_errors;
      break;
    }
    case diag::LogCode::kRadioMeasurement:
      break;  // not configuration
  }
}

void StreamExtractor::finish() {
  if (finished_) return;
  finished_ = true;
  if (pending_) {
    flush();
    pending_.reset();
  }
  memo_.clear();
  db_.trim_repeats(carrier_);
}

ExtractStats extract_configs(const std::string& carrier,
                             const std::uint8_t* data, std::size_t size,
                             ConfigDatabase& db) {
  diag::Parser parser(data, size);
  StreamExtractor extractor(carrier, db);
  diag::Record rec;
  while (parser.next(rec)) extractor.on_record(rec);
  extractor.finish();
  ExtractStats stats = extractor.stats();
  stats.bytes = size;
  stats.crc_failures = parser.stats().crc_failures;
  stats.malformed += parser.stats().malformed;
  return stats;
}

ExtractStats& ExtractStats::operator+=(const ExtractStats& o) {
  bytes += o.bytes;
  records += o.records;
  camps += o.camps;
  snapshots += o.snapshots;
  rrc_messages += o.rrc_messages;
  rrc_errors += o.rrc_errors;
  crc_failures += o.crc_failures;
  malformed += o.malformed;
  return *this;
}

}  // namespace mmlab::core
