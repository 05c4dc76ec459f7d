// Fig 22: boxplots of the Simpson diversity of all parameters per RAT —
// configuration diversity grows along the RAT evolution.
#include "common.hpp"

int main() {
  using namespace mmlab;
  bench::intro("Fig 22", "parameter-diversity boxplots per RAT");

  const auto data = bench::build_d2();
  struct Panel {
    const char* label;
    const char* carrier;
    spectrum::Rat rat;
  };
  const Panel panels[] = {
      {"ATT-LTE", "A", spectrum::Rat::kLte},
      {"ATT-WCDMA", "A", spectrum::Rat::kUmts},
      {"Sprint-EVDO", "S", spectrum::Rat::kEvdo},
      {"ATT-GSM", "A", spectrum::Rat::kGsm},
  };

  TablePrinter table({"Panel", "#params", "q1", "median", "q3", "max"});
  std::map<std::string, double> medians;
  for (const auto& panel : panels) {
    const auto diversity =
        core::rank_diversity(data.figures(panel.carrier).totals, panel.rat);
    std::vector<double> simpsons;
    for (const auto& d : diversity) simpsons.push_back(d.measures.simpson);
    if (simpsons.empty()) continue;
    const auto box = stats::boxplot(simpsons);
    medians[panel.label] = box.median;
    table.add_row({panel.label, std::to_string(simpsons.size()),
                   fmt_double(box.q1, 3), fmt_double(box.median, 3),
                   fmt_double(box.q3, 3),
                   fmt_double(stats::max_of(simpsons), 3)});
  }
  table.print();
  table.write_csv(bench::out_csv("fig22_rat_evolution"));
  std::printf("\npaper shape: LTE and WCDMA clearly more diverse than EVDO "
              "and GSM (legacy RATs near-static)\n");
  return 0;
}
