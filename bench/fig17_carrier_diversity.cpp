// Fig 17: diversity measures (D and Cv) of eight representative parameters
// across nine carriers.
#include "common.hpp"

int main() {
  using namespace mmlab;
  using config::ParamId;
  bench::intro("Fig 17", "diversity of eight parameters across carriers");

  const auto data = bench::build_d2();
  const char* carriers[] = {"A", "T", "S", "V", "CM", "SK", "MO", "CH", "CW"};
  const ParamId params[] = {
      ParamId::kServingPriority, ParamId::kQHyst,
      ParamId::kQRxLevMin,       ParamId::kSNonIntraSearch,
      ParamId::kThreshServingLow, ParamId::kA3Offset,
      ParamId::kA5Threshold1,    ParamId::kA3Ttt};

  for (const auto metric : {0, 1}) {
    std::printf("-- %s --\n", metric == 0 ? "Simpson index D"
                                          : "coefficient of variation Cv");
    std::vector<std::string> header = {"Param"};
    for (const char* c : carriers) header.push_back(c);
    TablePrinter table(header);
    for (const auto id : params) {
      const auto key = config::lte_param(id);
      std::vector<std::string> row = {config::param_name(key)};
      for (const char* carrier : carriers) {
        const auto vc = data.figures(carrier).values(key);
        row.push_back(fmt_double(
            metric == 0 ? vc.simpson_index() : vc.coefficient_of_variation(),
            2));
      }
      table.add_row(row);
    }
    table.print();
    std::printf("\n");
  }
  // SK Telecom should be the least diverse across the board.
  double sk_sum = 0.0, att_sum = 0.0;
  for (const auto id : params) {
    sk_sum += data.figures("SK").values(config::lte_param(id)).simpson_index();
    att_sum += data.figures("A").values(config::lte_param(id)).simpson_index();
  }
  std::printf("sum of D over the 8 params: SK=%.2f vs AT&T=%.2f "
              "(paper: SK lowest diversity of all carriers)\n",
              sk_sum, att_sum);
  return 0;
}
