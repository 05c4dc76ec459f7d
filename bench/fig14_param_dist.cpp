// Fig 14: value distributions of eight representative AT&T LTE parameters,
// with their Simpson index and coefficient of variation.
#include "common.hpp"

int main() {
  using namespace mmlab;
  using config::ParamId;
  bench::intro("Fig 14", "eight representative parameter distributions (AT&T)");

  const auto data = bench::build_d2();
  const ParamId params[] = {
      ParamId::kServingPriority, ParamId::kQHyst,       ParamId::kQRxLevMin,
      ParamId::kThreshServingLow, ParamId::kSNonIntraSearch,
      ParamId::kA3Offset,        ParamId::kA5Threshold1,
      ParamId::kReportInterval};
  // The paper's eighth panel is TreportTrigger; we report both the TTT of
  // the decisive event (via A3 TTT) and the report interval.
  const ParamId ttt_param = ParamId::kA3Ttt;

  TablePrinter summary({"Param", "richness", "Simpson D", "Cv", "mode",
                        "mode share"});
  auto add_param = [&](ParamId id) {
    const auto key = config::lte_param(id);
    const auto vc = data.figures("A").values(key);
    if (vc.empty()) return;
    summary.add_row({config::param_name(key), std::to_string(vc.richness()),
                     fmt_double(vc.simpson_index(), 3),
                     fmt_double(vc.coefficient_of_variation(), 3),
                     fmt_double(vc.mode(), 1),
                     fmt_percent(vc.fraction(vc.mode()), 1)});
  };
  for (const auto id : params) add_param(id);
  add_param(ttt_param);
  summary.print();
  summary.write_csv(bench::out_csv("fig14_param_dist"));

  std::printf("\n-- full distributions --\n");
  for (const auto id : {ParamId::kServingPriority, ParamId::kA3Offset,
                        ParamId::kA5Threshold1, ParamId::kA3Ttt}) {
    const auto key = config::lte_param(id);
    const auto vc = data.figures("A").values(key);
    std::printf("%s:", config::param_name(key).c_str());
    for (const auto& [value, count] : vc.counts())
      std::printf(" %g(%.1f%%)", value,
                  100.0 * static_cast<double>(count) /
                      static_cast<double>(vc.total()));
    std::printf("\n");
  }
  std::printf("\npaper anchors: Hs single-valued 4 dB; Dmin ~ -122; DA3 in "
              "[0,5] dominated by 3; ThA5S spanning ~[-140,-8]; "
              "TTT spanning [40,1280] ms\n");
  return 0;
}
