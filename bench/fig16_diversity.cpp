// Fig 16: Simpson index, coefficient of variation and richness of every
// observed AT&T LTE handoff parameter, sorted by increasing Simpson index.
#include "common.hpp"

int main() {
  using namespace mmlab;
  bench::intro("Fig 16", "diversity measures of LTE parameters (AT&T)");

  const auto data = bench::build_d2();
  const auto diversity =
      core::rank_diversity(data.figures("A").totals, spectrum::Rat::kLte);

  TablePrinter table({"idx", "Param", "richness", "Simpson D", "Cv", "cells"});
  int idx = 0;
  std::size_t no_diversity = 0;
  for (const auto& d : diversity) {
    table.add_row({std::to_string(idx++), config::param_name(d.key),
                   std::to_string(d.measures.richness),
                   fmt_double(d.measures.simpson, 3),
                   fmt_double(d.measures.cv, 3), std::to_string(d.cells)});
    if (d.measures.simpson < 0.01) ++no_diversity;
  }
  table.print();
  table.write_csv(bench::out_csv("fig16_diversity"));
  std::printf("\nparameters with ~no diversity: %zu of %zu "
              "(paper: first ~8 single-valued, next ~8 dominated)\n",
              no_diversity, diversity.size());
  return 0;
}
