#include "mmlab/core/stability.hpp"

#include <map>
#include <set>

namespace mmlab::core {

PingPongStats analyze_pingpong(const std::vector<HandoffInstance>& instances,
                               Millis window) {
  PingPongStats stats;
  stats.handoffs = instances.size();
  for (std::size_t i = 1; i < instances.size(); ++i) {
    const auto& prev = instances[i - 1];
    const auto& cur = instances[i];
    if (cur.from_cell == prev.to_cell && cur.to_cell == prev.from_cell &&
        cur.exec_time - prev.exec_time <= window)
      ++stats.pingpongs;
  }
  for (std::size_t i = 2; i < instances.size(); ++i) {
    const auto& a = instances[i - 2];
    const auto& b = instances[i - 1];
    const auto& c = instances[i];
    const bool chained = b.from_cell == a.to_cell && c.from_cell == b.to_cell;
    const bool returns = c.to_cell == a.from_cell;
    const bool distinct = a.to_cell != c.from_cell;  // not just a 2-cycle
    if (chained && returns && distinct &&
        c.exec_time - a.exec_time <= 2 * window)
      ++stats.loops3;
  }
  return stats;
}

std::vector<PriorityLoop> detect_priority_loops(const ConfigDatabase& db,
                                                const std::string& carrier) {
  // For every LTE cell: its serving channel & priority, and the priorities
  // it advertises for each neighbour channel.
  const auto* cells = db.cells_of(carrier);
  std::vector<PriorityLoop> loops;
  if (!cells) return loops;

  const auto serving_key =
      config::lte_param(config::ParamId::kServingPriority);
  const auto neighbor_key =
      config::lte_param(config::ParamId::kNeighborPriority);

  // (channel_from, channel_to) -> number of cells on `from` that list `to`
  // strictly above their own priority.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> raised;
  for (const auto& [id, rec] : *cells) {
    if (rec.rat != spectrum::Rat::kLte) continue;
    const auto own = rec.latest(serving_key);
    if (!own) continue;
    // Latest advertised priority per neighbour channel.
    std::map<std::int64_t, std::pair<SimTime, double>> advertised;
    rec.for_each_row([&](const Observation& obs) {
      if (obs.key != neighbor_key || obs.context < 0) return;
      auto& slot = advertised[obs.context];
      if (obs.t >= slot.first) slot = {obs.t, obs.value};
    });
    for (const auto& [channel, entry] : advertised) {
      if (entry.second > *own)
        ++raised[{rec.channel, static_cast<std::uint32_t>(channel)}];
    }
  }

  std::set<std::pair<std::uint32_t, std::uint32_t>> reported;
  for (const auto& [edge, count_ab] : raised) {
    const auto [a, b] = edge;
    if (a >= b) continue;  // visit each unordered pair once
    const auto back = raised.find({b, a});
    if (back == raised.end()) continue;
    if (reported.insert({a, b}).second)
      loops.push_back({a, b, count_ab, back->second});
  }
  return loops;
}

}  // namespace mmlab::core
