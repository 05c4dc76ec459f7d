#include "mmlab/store/query_plan.hpp"

#include <algorithm>
#include <numeric>

namespace mmlab::store {

QueryPlan::QueryPlan(const ShardSet& set, Query query)
    : set_(&set), query_(std::move(query)) {
  const Manifest& m = set.manifest();
  if (!query_.params.empty())
    param_mask_ = core::ParamKeySet(query_.params).index_mask(set.params());

  // Carrier predicate as a per-index mask (unknown names match nothing).
  std::vector<char> want(m.carriers.size(), query_.carriers.empty() ? 1 : 0);
  for (const std::string& name : query_.carriers) {
    for (std::size_t ci = 0; ci < m.carriers.size(); ++ci)
      if (m.carriers[ci] == name) want[ci] = 1;
  }

  std::vector<std::vector<std::size_t>> blocks_of(m.carriers.size());
  std::vector<std::uint64_t> pruned_blocks(m.carriers.size(), 0);
  std::vector<std::uint64_t> pruned_bytes(m.carriers.size(), 0);
  std::uint64_t total_blocks = 0, total_bytes = 0;
  for (std::size_t i = 0; i < set.blocks().size(); ++i) {
    const BlockInfo& info = *set.blocks()[i].info;
    ++total_blocks;
    total_bytes += info.length;
    if (!want[info.carrier_index]) continue;
    if (!info.overlaps(query_.min_cell, query_.max_cell)) {
      ++pruned_blocks[info.carrier_index];
      pruned_bytes[info.carrier_index] += info.length;
      continue;
    }
    blocks_of[info.carrier_index].push_back(i);
  }

  // Selected carriers in sorted name order — the deterministic fold order
  // every result path merges in.
  std::vector<std::uint32_t> order;
  for (std::uint32_t ci = 0; ci < m.carriers.size(); ++ci)
    if (want[ci]) order.push_back(ci);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return m.carriers[a] < m.carriers[b];
  });

  carriers_.reserve(order.size());
  for (const std::uint32_t ci : order) {
    CarrierQueryPlan cp;
    cp.name = m.carriers[ci];
    cp.carrier_index = ci;
    cp.blocks = std::move(blocks_of[ci]);
    cp.blocks_pruned = pruned_blocks[ci];
    cp.bytes_pruned = pruned_bytes[ci];
    for (const std::size_t b : cp.blocks) {
      const BlockInfo& info = *set.blocks()[b].info;
      cp.rows += info.row_count;
      cp.bytes += info.length;
    }
    cp.safe_floor.resize(cp.blocks.size());
    std::uint32_t floor = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t i = cp.blocks.size(); i-- > 0;) {
      floor = std::min(floor, set.blocks()[cp.blocks[i]].info->first_cell);
      cp.safe_floor[i] = floor;
    }
    blocks_selected_ += cp.blocks.size();
    bytes_selected_ += cp.bytes;
    carriers_.push_back(std::move(cp));
  }
  blocks_skipped_ = total_blocks - blocks_selected_;
  bytes_skipped_ = total_bytes - bytes_selected_;
}

const CarrierQueryPlan* QueryPlan::find_carrier(std::string_view name) const {
  const auto it = std::lower_bound(
      carriers_.begin(), carriers_.end(), name,
      [](const CarrierQueryPlan& cp, std::string_view n) {
        return cp.name < n;
      });
  if (it == carriers_.end() || it->name != name) return nullptr;
  return &*it;
}

}  // namespace mmlab::store
