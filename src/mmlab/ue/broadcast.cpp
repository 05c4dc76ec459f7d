#include "mmlab/ue/broadcast.hpp"

#include "mmlab/rrc/codec.hpp"

namespace mmlab::ue {

std::vector<rrc::Message> broadcast_system_information(const net::Cell& cell) {
  std::vector<rrc::Message> out;
  if (!cell.is_lte()) {
    rrc::LegacySystemInfo info;
    info.config = cell.legacy_config;
    info.cell_identity = cell.id;
    info.channel = cell.channel.number;
    out.emplace_back(info);
    return out;
  }

  rrc::Sib1 sib1;
  sib1.cell_identity = cell.id;
  sib1.tracking_area = static_cast<std::uint16_t>(cell.city);
  sib1.earfcn = cell.channel.number;
  sib1.q_rxlevmin_dbm = cell.lte_config.serving.q_rxlevmin_dbm;
  sib1.bandwidth_prbs = cell.bandwidth_prbs;
  out.emplace_back(sib1);

  rrc::Sib3 sib3;
  sib3.serving = cell.lte_config.serving;
  sib3.q_offset_equal_db = cell.lte_config.q_offset_equal_db;
  out.emplace_back(sib3);

  if (!cell.lte_config.forbidden_cells.empty()) {
    rrc::Sib4 sib4;
    sib4.forbidden_cells = cell.lte_config.forbidden_cells;
    out.emplace_back(sib4);
  }

  auto emit_list = [&](spectrum::Rat rat, auto make) {
    rrc::NeighborFreqList list;
    list.target_rat = rat;
    for (const auto& nf : cell.lte_config.neighbor_freqs)
      if (nf.channel.rat == rat) list.freqs.push_back(nf);
    if (!list.freqs.empty()) out.emplace_back(make(std::move(list)));
  };
  emit_list(spectrum::Rat::kLte,
            [](rrc::NeighborFreqList l) { return rrc::Sib5{std::move(l)}; });
  emit_list(spectrum::Rat::kUmts,
            [](rrc::NeighborFreqList l) { return rrc::Sib6{std::move(l)}; });
  emit_list(spectrum::Rat::kGsm,
            [](rrc::NeighborFreqList l) { return rrc::Sib7{std::move(l)}; });
  // SIB8 carries both CDMA2000 families.
  {
    rrc::NeighborFreqList list;
    list.target_rat = spectrum::Rat::kEvdo;
    for (const auto& nf : cell.lte_config.neighbor_freqs)
      if (nf.channel.rat == spectrum::Rat::kEvdo ||
          nf.channel.rat == spectrum::Rat::kCdma1x)
        list.freqs.push_back(nf);
    if (!list.freqs.empty()) out.emplace_back(rrc::Sib8{std::move(list)});
  }
  return out;
}

rrc::RrcConnectionReconfiguration make_measurement_config(
    const net::Cell& cell) {
  rrc::RrcConnectionReconfiguration reconf;
  reconf.report_configs = cell.lte_config.report_configs;
  return reconf;
}

CampFrames encode_camp_frames(const net::Cell& cell) {
  CampFrames out;
  auto add = [&out](const rrc::Message& msg) {
    const auto payload = rrc::encode(msg);
    out.frames.push_back({std::holds_alternative<rrc::LegacySystemInfo>(msg)
                              ? diag::LogCode::kLegacyRrcOta
                              : diag::LogCode::kLteRrcOta,
                          static_cast<std::uint32_t>(out.bytes.size()),
                          static_cast<std::uint32_t>(payload.size())});
    out.bytes.insert(out.bytes.end(), payload.begin(), payload.end());
  };
  for (const auto& msg : broadcast_system_information(cell)) add(msg);
  out.broadcast = out.frames.size();
  if (cell.is_lte()) add(rrc::Message{make_measurement_config(cell)});
  return out;
}

}  // namespace mmlab::ue
