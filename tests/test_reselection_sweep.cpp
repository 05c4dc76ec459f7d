// Parameterized sweep of the Eq. 3 ranking over every priority relation and
// threshold regime — the decision table, exhaustively.
#include <gtest/gtest.h>

#include "mmlab/ue/reselection.hpp"

namespace mmlab::ue {
namespace {

struct RankingCase {
  const char* name;
  int serving_priority;
  int candidate_priority;
  double serving_srxlev;
  double candidate_srxlev;
  bool expect_ranks_higher;
};

// Without this, gtest prints the case as raw bytes, which include the address
// of `name`; the ctest names gtest_discover_tests derives from that print would
// then change with every build and run.
void PrintTo(const RankingCase& c, std::ostream* os) {
  *os << c.name << " {prio " << c.serving_priority << "->"
      << c.candidate_priority << ", srxlev " << c.serving_srxlev << "->"
      << c.candidate_srxlev << ", expect " << std::boolalpha
      << c.expect_ranks_higher << "}";
}

class RankingSweep : public ::testing::TestWithParam<RankingCase> {};

config::CellConfig sweep_config() {
  config::CellConfig cfg;
  cfg.serving.thresh_serving_low_db = 6.0;
  cfg.q_offset_equal_db = 4.0;
  config::NeighborFreqConfig nf;
  nf.channel = {spectrum::Rat::kLte, 9999};
  nf.thresh_high_db = 12.0;
  nf.thresh_low_db = 4.0;
  cfg.neighbor_freqs.push_back(nf);
  return cfg;
}

TEST_P(RankingSweep, MatchesEq3) {
  const auto& c = GetParam();
  const auto cfg = sweep_config();
  RankedCandidate cand;
  cand.cell_id = 9;
  cand.channel = {spectrum::Rat::kLte, 9999};
  cand.priority = c.candidate_priority;
  cand.srxlev_db = c.candidate_srxlev;
  EXPECT_EQ(ranks_higher(cfg, c.serving_priority, c.serving_srxlev, cand),
            c.expect_ranks_higher)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Eq3Table, RankingSweep,
    ::testing::Values(
        // Higher priority: only the candidate's absolute level matters.
        RankingCase{"higher_above_thresh", 4, 6, 50.0, 12.5, true},
        RankingCase{"higher_at_thresh", 4, 6, 50.0, 12.0, false},
        RankingCase{"higher_below_thresh", 4, 6, 1.0, 11.0, false},
        RankingCase{"higher_weak_serving_irrelevant", 4, 6, 0.5, 13.0, true},
        // Equal priority: relative margin ∆equal = 4 dB.
        RankingCase{"equal_clears_margin", 4, 4, 20.0, 24.5, true},
        RankingCase{"equal_exact_margin", 4, 4, 20.0, 24.0, false},
        RankingCase{"equal_below_margin", 4, 4, 20.0, 23.0, false},
        RankingCase{"equal_much_stronger", 4, 4, -5.0, 30.0, true},
        // Lower priority: both serving-weak and candidate-strong required.
        RankingCase{"lower_both_hold", 4, 2, 5.0, 8.0, true},
        RankingCase{"lower_serving_too_good", 4, 2, 6.5, 30.0, false},
        RankingCase{"lower_candidate_too_weak", 4, 2, 2.0, 3.5, false},
        RankingCase{"lower_serving_at_thresh", 4, 2, 6.0, 10.0, false},
        RankingCase{"lower_candidate_at_thresh", 4, 2, 3.0, 4.0, false}),
    [](const auto& param_info) { return param_info.param.name; });

// --- interaction: Treselection x priority classes -----------------------------

class PersistenceSweep : public ::testing::TestWithParam<Millis> {};

TEST_P(PersistenceSweep, WinnerEmergesExactlyAtTreselection) {
  const Millis t_resel = GetParam();
  auto cfg = sweep_config();
  cfg.serving.priority = 4;
  cfg.serving.t_reselection = t_resel;
  IdleReselection resel;
  resel.configure(cfg);
  RankedCandidate cand{9, {spectrum::Rat::kLte, 9999}, 6, 20.0};
  std::optional<std::uint32_t> winner;
  Millis first_win = -1;
  for (Millis t = 0; t <= t_resel + 1'000; t += 100) {
    winner = resel.update(SimTime{t}, 50.0, {cand});
    if (winner) {
      first_win = t;
      break;
    }
  }
  ASSERT_TRUE(winner.has_value()) << "t_resel " << t_resel;
  EXPECT_EQ(first_win, t_resel == 0 ? 0 : t_resel);
}

INSTANTIATE_TEST_SUITE_P(Treselection, PersistenceSweep,
                         ::testing::Values(0, 1'000, 2'000, 5'000, 7'000));

}  // namespace
}  // namespace mmlab::ue
