// Fig 15: distributions of four representative parameters across nine
// carriers (Ps, Dmin, ThSrvLow, DA3).
#include "common.hpp"

int main() {
  using namespace mmlab;
  using config::ParamId;
  bench::intro("Fig 15", "four parameters across nine carriers");

  const auto data = bench::build_d2();
  const char* carriers[] = {"A", "T", "S", "V", "CM", "SK", "MO", "CH", "CW"};
  const ParamId params[] = {ParamId::kServingPriority, ParamId::kQRxLevMin,
                            ParamId::kThreshServingLow, ParamId::kA3Offset};

  for (const auto id : params) {
    const auto key = config::lte_param(id);
    std::printf("-- %s --\n", config::param_name(key).c_str());
    TablePrinter table({"Carrier", "richness", "top values (share)"});
    for (const char* carrier : carriers) {
      const auto vc = data.figures(carrier).values(key);
      if (vc.empty()) {
        table.add_row({carrier, "0", "-"});
        continue;
      }
      // Top 4 values by count.
      std::vector<std::pair<std::size_t, double>> ranked;
      for (const auto& [value, count] : vc.counts())
        ranked.emplace_back(count, value);
      std::sort(ranked.rbegin(), ranked.rend());
      std::string tops;
      for (std::size_t i = 0; i < std::min<std::size_t>(4, ranked.size()); ++i)
        tops += (i ? ", " : "") + fmt_double(ranked[i].second, 1) + " (" +
                fmt_percent(static_cast<double>(ranked[i].first) /
                                static_cast<double>(vc.total()),
                            0) +
                ")";
      table.add_row({carrier, std::to_string(vc.richness()), tops});
    }
    table.print();
    std::printf("\n");
  }
  std::printf("paper shape: each parameter is carrier-specific; SK and MO "
              "near single-valued, the rest diverse\n");
  return 0;
}
