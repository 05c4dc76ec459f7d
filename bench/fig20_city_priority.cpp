// Fig 20: city-level serving-priority distributions for the four US
// carriers across the five measurement cities.
#include "common.hpp"

int main() {
  using namespace mmlab;
  bench::intro("Fig 20", "city-level priority distributions (US carriers)");

  const auto data = bench::build_d2();
  const auto& cities = data.world.network.cities();
  core::MixOptions options;
  options.cities = cities;

  TablePrinter table({"Carrier", "City", "cells", "priority shares"});
  for (const char* carrier : {"A", "T", "V", "S"}) {
    const auto by_city =
        core::analyze_carrier(data.db, carrier, options).priority_by_city;
    for (const auto& [city_id, counts] : by_city) {
      if (city_id > 4) continue;  // US cities C1..C5 only
      std::string shares;
      for (const auto& [value, count] : counts.counts())
        shares += (shares.empty() ? "" : ", ") + fmt_double(value, 0) + ":" +
                  fmt_percent(static_cast<double>(count) /
                                  static_cast<double>(counts.total()),
                              0);
      table.add_row({carrier, cities[city_id].code,
                     std::to_string(counts.total()), shares});
    }
  }
  table.print();
  table.write_csv(bench::out_csv("fig20_city_priority"));
  std::printf("\npaper shape: C1 (Chicago) clearly differs from the other "
              "cities — operators configure per market area\n");
  return 0;
}
