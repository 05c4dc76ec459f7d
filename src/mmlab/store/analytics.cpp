#include "mmlab/store/analytics.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "mmlab/util/worker_pool.hpp"

namespace mmlab::store {

Result<CarrierAnalysis> analyze_carrier(const DirectFold& direct,
                                        const std::string& carrier,
                                        const MixOptions& options,
                                        const Query& query) {
  Query q = query;
  q.carriers = {carrier};
  const QueryPlan plan(direct.shards(), std::move(q));
  core::FiguresAcc acc(options);
  const auto r = direct.fold_planned(
      plan, carrier,
      [&](std::uint32_t, const core::CellRecord& rec) { acc.consume(rec); });
  if (!r) return Result<CarrierAnalysis>::error(r.error_message());
  return CarrierAnalysis{acc.finish(carrier), r.value()};
}

Result<QueryAnalysis> analyze_query(const DirectFold& direct,
                                    const Query& query,
                                    const MixOptions& options) {
  const QueryPlan plan(direct.shards(), query);
  QueryAnalysis out;

  // One independent accumulator bundle per selected carrier; fold_query
  // drives each from exactly one job, so no bundle is ever shared.
  std::vector<core::FiguresAcc> accs;
  accs.reserve(plan.carriers().size());
  for (std::size_t i = 0; i < plan.carriers().size(); ++i)
    accs.emplace_back(options);

  std::vector<FoldStats> per;
  const auto r = direct.fold_query(
      plan,
      [&](std::size_t slot, const CarrierQueryPlan&) {
        return [&accs, slot](std::uint32_t, const core::CellRecord& rec) {
          accs[slot].consume(rec);
        };
      },
      &per);
  if (!r) return Result<QueryAnalysis>::error(r.error_message());

  // Each carrier's finish() (ordered maps, ranking, the spatial clusters)
  // is independent of the others', so they run on the fold's thread count,
  // largest carrier first so its finish is not the tail.
  const std::size_t n = plan.carriers().size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return per[a].rows > per[b].rows;
                   });
  out.results.resize(n);
  parallel_for_index(direct.options().threads, n, [&](std::size_t k) {
    const std::size_t i = order[k];
    // Each entry carries its own fold's rows/cells/blocks/bytes; the
    // plan-wide skip counts live only in the aggregate (no double count).
    out.results[i] =
        CarrierAnalysis{accs[i].finish(plan.carriers()[i].name), per[i]};
  });
  out.carriers.reserve(n);
  for (const auto& cp : plan.carriers()) out.carriers.push_back(cp.name);
  out.stats = r.value();
  return out;
}

}  // namespace mmlab::store
