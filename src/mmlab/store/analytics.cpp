#include "mmlab/store/analytics.hpp"

#include <utility>

namespace mmlab::store {

namespace {

Query for_carrier(const Query& query, const std::string& carrier) {
  Query q = query;
  q.carriers = {carrier};
  return q;
}

/// Fold every carrier `query` selects (name order) into one accumulator.
/// When the query has no param predicate of its own, the keys the
/// accumulator reads become the push-down set.  Returns the first fold
/// error, or an empty string.
template <typename Acc>
std::string fold_into(const DirectFold& direct, Query query, Acc& acc) {
  if (query.params.empty()) query.params = acc.reads();
  const QueryPlan plan(direct.shards(), std::move(query));
  core::CellFolder folder;
  const auto consume = [&](std::uint32_t, const core::CellRecord& rec) {
    folder.fold(rec);
    acc.consume(rec, folder);
  };
  for (const CarrierQueryPlan& cp : plan.carriers()) {
    const auto r = direct.fold_planned(plan, cp.name, consume);
    if (!r) return r.error_message();
  }
  return {};
}

/// One standalone product: fold into `acc`, then `finish` it.
template <typename Acc, typename Finish>
auto product(const DirectFold& direct, Query query, Acc acc, Finish finish)
    -> Result<decltype(finish(acc))> {
  using R = Result<decltype(finish(acc))>;
  const std::string err = fold_into(direct, std::move(query), acc);
  if (!err.empty()) return R::error(err);
  return finish(acc);
}

}  // namespace

Result<std::vector<core::ParamDiversity>> diversity_by_param(
    const DirectFold& direct, const std::string& carrier,
    std::optional<spectrum::Rat> rat, const Query& query) {
  return product(direct, for_carrier(query, carrier), core::DiversityAcc{},
                 [&](const core::DiversityAcc& a) { return a.finish(rat); });
}

Result<std::vector<core::ParamDependence>> frequency_dependence(
    const DirectFold& direct, const std::string& carrier, const Query& query) {
  return product(direct, for_carrier(query, carrier), core::DependenceAcc{},
                 [](const core::DependenceAcc& a) { return a.finish(); });
}

Result<std::map<long, stats::ValueCounts>> priority_by_channel(
    const DirectFold& direct, const std::string& carrier, bool candidate,
    const Query& query) {
  if (candidate)
    return product(direct, for_carrier(query, carrier),
                   core::CandidatePriorityAcc{},
                   [](core::CandidatePriorityAcc& a) {
                     return std::move(a.groups);
                   });
  return product(direct, for_carrier(query, carrier),
                 core::ServingPriorityAcc{}, [](core::ServingPriorityAcc& a) {
                   return std::move(a.groups);
                 });
}

Result<double> multi_priority_cell_fraction(const DirectFold& direct,
                                            const std::string& carrier,
                                            const Query& query) {
  return product(direct, for_carrier(query, carrier),
                 core::ServingPriorityAcc{},
                 [](const core::ServingPriorityAcc& a) {
                   return a.multi_priority_fraction();
                 });
}

Result<std::map<long, stats::ValueCounts>> priority_by_city(
    const DirectFold& direct, const std::string& carrier,
    const std::vector<geo::City>& cities, const Query& query) {
  return product(direct, for_carrier(query, carrier),
                 core::CityPriorityAcc(cities),
                 [](core::CityPriorityAcc& a) { return std::move(a.groups); });
}

Result<std::vector<double>> spatial_diversity(const DirectFold& direct,
                                              const std::string& carrier,
                                              config::ParamKey key,
                                              const geo::City& city,
                                              double radius_m,
                                              const Query& query) {
  return product(direct, for_carrier(query, carrier),
                 core::SpatialAcc({key, city, radius_m}),
                 [](const core::SpatialAcc& a) { return a.finish(); });
}

Result<core::MeasurementGaps> measurement_decision_gaps(
    const DirectFold& direct, const std::string& carrier, const Query& query) {
  // Pooled = every selected carrier in name order: the per-carrier gap
  // vectors concatenate.
  return product(direct,
                 carrier.empty() ? query : for_carrier(query, carrier),
                 core::GapsAcc{},
                 [](core::GapsAcc& a) { return std::move(a.gaps); });
}

Result<CarrierAnalysis> analyze_carrier(const DirectFold& direct,
                                        const std::string& carrier,
                                        const MixOptions& options,
                                        const Query& query) {
  const QueryPlan plan(direct.shards(), for_carrier(query, carrier));
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

  out.carriers.reserve(plan.carriers().size());
  out.results.reserve(plan.carriers().size());
  for (std::size_t i = 0; i < plan.carriers().size(); ++i) {
    const std::string& name = plan.carriers()[i].name;
    out.carriers.push_back(name);
    // Each entry carries its own fold's rows/cells/blocks/bytes; the
    // plan-wide skip counts live only in the aggregate (no double count).
    out.results.push_back(CarrierAnalysis{accs[i].finish(name), per[i]});
  }
  out.stats = r.value();
  return out;
}

}  // namespace mmlab::store
