// Fig 19: frequency dependence zeta(D) and zeta(Cv) per parameter (Eq. 5),
// AT&T, in Fig 16's parameter order.
#include "common.hpp"

int main() {
  using namespace mmlab;
  bench::intro("Fig 19", "frequency dependence per parameter (AT&T)");

  const auto data = bench::build_d2();
  const auto& deps = data.figures("A").dependence;
  // Order by Fig 16's sort (increasing overall Simpson index).
  const auto diversity =
      core::rank_diversity(data.figures("A").totals, spectrum::Rat::kLte);

  TablePrinter table({"idx", "Param", "zeta(D)", "zeta(Cv)", "overall D"});
  int idx = 0;
  for (const auto& d : diversity) {
    for (const auto& dep : deps) {
      if (dep.key != d.key) continue;
      table.add_row({std::to_string(idx), config::param_name(d.key),
                     fmt_double(dep.zeta_simpson, 3),
                     fmt_double(dep.zeta_cv, 3),
                     fmt_double(d.measures.simpson, 3)});
    }
    ++idx;
  }
  table.print();
  table.write_csv(bench::out_csv("fig19_freq_dependence"));

  // Headline contrast: priority strongly frequency-dependent, the A3
  // offset (relative comparison) not.
  double prio_zeta = 0, a3_zeta = 0;
  for (const auto& dep : deps) {
    if (dep.key == config::lte_param(config::ParamId::kServingPriority))
      prio_zeta = dep.zeta_simpson;
    if (dep.key == config::lte_param(config::ParamId::kA3Offset))
      a3_zeta = dep.zeta_simpson;
  }
  std::printf("\nzeta(D): Ps=%.3f vs DA3=%.3f (paper: priorities and A5 "
              "thresholds frequency-dependent; A3's relative offset not)\n",
              prio_zeta, a3_zeta);
  return 0;
}
