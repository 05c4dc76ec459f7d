// Fig 21: spatial diversity of the serving priority under various radii in
// Indianapolis (C3) — boxplots per carrier and radius.
#include "common.hpp"

int main() {
  using namespace mmlab;
  bench::intro("Fig 21", "spatial diversity of Ps vs radius (Indianapolis)");

  const auto data = bench::build_d2();
  const auto& indy = data.world.network.cities()[2];
  const auto key = config::lte_param(config::ParamId::kServingPriority);

  TablePrinter table({"Carrier", "radius (km)", "cells", "q1", "median", "q3",
                      "mean"});
  for (const char* carrier : {"A", "V", "S", "T"}) {
    for (const double radius : {500.0, 1000.0, 2000.0}) {
      core::MixOptions options;
      options.spatial = core::SpatialQuery{key, indy, radius};
      const auto values =
          core::analyze_carrier(data.db, carrier, options).spatial_diversity;
      if (values.empty()) continue;
      const auto box = stats::boxplot(values);
      table.add_row({carrier, fmt_double(radius / 1000.0, 1),
                     std::to_string(values.size()), fmt_double(box.q1, 3),
                     fmt_double(box.median, 3), fmt_double(box.q3, 3),
                     fmt_double(bench::mean_or_zero(values), 3)});
    }
  }
  table.print();
  table.write_csv(bench::out_csv("fig21_spatial"));
  std::printf("\npaper shape: AT&T/Verizon/Sprint tune cells even within "
              "0.5 km (nonzero); T-Mobile ~zero everywhere\n");
  return 0;
}
