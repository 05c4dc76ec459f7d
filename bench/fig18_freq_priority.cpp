// Fig 18: breakdown of serving and candidate cell priorities per frequency
// channel (AT&T), plus the multi-valued-priority conflict share.
#include "common.hpp"

int main() {
  using namespace mmlab;
  bench::intro("Fig 18", "priority breakdown per EARFCN (AT&T)");

  const auto data = bench::build_d2();
  const auto& att = data.figures("A");
  for (const bool candidate : {false, true}) {
    std::printf("-- %s priorities --\n",
                candidate ? "candidate (Pc)" : "serving (Ps)");
    const auto& by_channel =
        candidate ? att.candidate_priority : att.serving_priority;
    TablePrinter table({"EARFCN", "band", "cells", "priority values (share)"});
    for (const auto& [channel, counts] : by_channel) {
      const auto band =
          spectrum::lte_band_for_earfcn(static_cast<std::uint32_t>(channel));
      std::string values;
      for (const auto& [value, count] : counts.counts())
        values += (values.empty() ? "" : ", ") + fmt_double(value, 0) + " (" +
                  fmt_percent(static_cast<double>(count) /
                                  static_cast<double>(counts.total()),
                              0) +
                  ")";
      table.add_row({std::to_string(channel),
                     band ? std::to_string(*band) : "?",
                     std::to_string(counts.total()), values});
    }
    table.print();
    if (!candidate) table.write_csv(bench::out_csv("fig18_freq_priority"));
    std::printf("\n");
  }
  std::printf("cells holding a non-modal priority on a conflicted channel: "
              "%s (paper: 6.3%% of AT&T cells)\n",
              fmt_percent(att.multi_priority_fraction, 1).c_str());
  std::printf("paper anchors: bands 12/17 (5110/5145/5780) priority 2; band "
              "30 (9820) highest (5); 1975/2000/2425/9820 multi-valued\n");
  return 0;
}
