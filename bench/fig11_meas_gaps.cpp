// Fig 11: CDFs of the gaps between measurement-trigger thresholds and the
// idle-handoff decision threshold — the "premature measurement / overdue
// decision" finding (§4.2).
#include "common.hpp"

namespace {

void print_cdf(const char* label, const std::vector<double>& values,
               mmlab::TablePrinter& csv) {
  using namespace mmlab;
  if (values.empty()) return;
  stats::EmpiricalCdf cdf(values);
  std::printf("%s (n=%zu):", label, values.size());
  for (const double q : {0.05, 0.25, 0.5, 0.75, 0.95})
    std::printf("  p%.0f=%.1f", q * 100.0, cdf.quantile(q));
  std::printf("\n");
  for (const auto& [x, f] : cdf.series(13))
    csv.add_row({label, fmt_double(x, 1), fmt_double(f, 4)});
}

}  // namespace

int main() {
  using namespace mmlab;
  bench::intro("Fig 11", "measurement vs decision threshold gaps");

  const auto data = bench::build_d2();
  TablePrinter csv({"series", "gap_db", "cdf"});

  // Left panel: Θintra − Θnonintra pooled over all carriers.
  const auto pooled = core::pooled_gaps(data.figures());
  print_cdf("Th_intra - Th_nonintra (all carriers)",
            pooled.intra_minus_nonintra, csv);
  std::size_t negative = 0, zero = 0;
  for (const double g : pooled.intra_minus_nonintra) {
    negative += g < 0.0;
    zero += g == 0.0;
  }
  std::printf("  swapped (negative) cells: %zu (%.2f%%) — the rare "
              "counterexamples; equal gates: %.1f%% (paper: ~5%%)\n",
              negative,
              100.0 * static_cast<double>(negative) /
                  static_cast<double>(pooled.intra_minus_nonintra.size()),
              100.0 * static_cast<double>(zero) /
                  static_cast<double>(pooled.intra_minus_nonintra.size()));

  // Middle/right panels: gaps to the decision threshold, AT&T.
  const auto& att = data.figures("A").gaps;
  print_cdf("Th_intra - Th_srv_low (AT&T)", att.intra_minus_slow, csv);
  std::size_t big = 0;
  for (const double g : att.intra_minus_slow) big += g > 30.0;
  std::printf("  gap > 30 dB: %.1f%% (paper: >30 dB in 95%% of cells — "
              "premature measurements)\n",
              100.0 * static_cast<double>(big) /
                  static_cast<double>(att.intra_minus_slow.size()));
  print_cdf("Th_nonintra - Th_srv_low (AT&T)", att.nonintra_minus_slow, csv);
  std::size_t late = 0;
  for (const double g : att.nonintra_minus_slow) late += g < 0.0;
  std::printf("  negative (non-intra measured too late): %.1f%%\n",
              100.0 * static_cast<double>(late) /
                  static_cast<double>(att.nonintra_minus_slow.size()));

  csv.write_csv(bench::out_csv("fig11_meas_gaps"));
  return 0;
}
