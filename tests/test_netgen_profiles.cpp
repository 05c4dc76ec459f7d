// Catalogue-level guarantees: every distribution in every carrier profile
// produces only standards-grid values (so no crawl can ever hit an encoder
// error), and the profile set stays internally consistent.
#include <gtest/gtest.h>

#include <algorithm>

#include "mmlab/config/quant.hpp"
#include "mmlab/netgen/generator.hpp"
#include "mmlab/rrc/codec.hpp"
#include "mmlab/ue/broadcast.hpp"

namespace mmlab::netgen {
namespace {

namespace quant = config::quant;

class ProfileSweep : public ::testing::TestWithParam<int> {
 protected:
  const CarrierProfile& profile() const {
    return standard_carrier_profiles()[GetParam()];
  }
};

TEST_P(ProfileSweep, IdleDistributionsOnGrid) {
  const auto& p = profile();
  for (double v : p.dmin.values())
    EXPECT_NO_THROW(quant::encode_q_rxlevmin(v)) << p.name << " dmin " << v;
  for (double v : p.q_hyst.values())
    EXPECT_NO_THROW(quant::encode_q_hyst(v)) << p.name;
  for (double v : p.s_intra.values())
    EXPECT_NO_THROW(quant::encode_search_threshold(v)) << p.name;
  for (double v : p.s_nonintra.values())
    EXPECT_NO_THROW(quant::encode_search_threshold(v)) << p.name;
  for (double v : p.thresh_serving_low.values())
    EXPECT_NO_THROW(quant::encode_search_threshold(v)) << p.name;
  for (double v : p.thresh_high.values())
    EXPECT_NO_THROW(quant::encode_search_threshold(v)) << p.name;
  for (double v : p.thresh_low.values())
    EXPECT_NO_THROW(quant::encode_search_threshold(v)) << p.name;
  for (double v : p.q_offset_equal.values())
    EXPECT_NO_THROW(quant::encode_q_offset(v)) << p.name;
  for (double v : p.q_offset_freq.values())
    EXPECT_NO_THROW(quant::encode_q_offset(v)) << p.name;
  for (double v : p.meas_bandwidth.values())
    EXPECT_NO_THROW(quant::encode_meas_bandwidth(v)) << p.name;
  for (Millis v : p.t_resel.values())
    EXPECT_NO_THROW(quant::encode_t_reselection(v)) << p.name;
  for (Millis v : p.ttt.values()) EXPECT_NO_THROW(quant::encode_ttt(v)) << p.name;
  for (Millis v : p.periodic_interval.values())
    EXPECT_NO_THROW(quant::encode_report_interval(v)) << p.name;
}

TEST_P(ProfileSweep, EventDistributionsOnGrid) {
  const auto& p = profile();
  for (double v : p.a2_threshold.values())
    EXPECT_NO_THROW(quant::encode_rsrp_threshold(v)) << p.name;
  for (double v : p.a2_hysteresis.values())
    EXPECT_NO_THROW(quant::encode_hysteresis(v)) << p.name;
  for (const auto& d : p.decisive) {
    const auto encode_threshold = [&](double v) {
      if (d.metric == config::SignalMetric::kRsrp)
        quant::encode_rsrp_threshold(v);
      else
        quant::encode_rsrq_threshold(v);
    };
    for (double v : d.threshold1.values())
      EXPECT_NO_THROW(encode_threshold(v)) << p.name;
    for (double v : d.threshold2.values())
      EXPECT_NO_THROW(encode_threshold(v)) << p.name;
    for (double v : d.offset.values())
      EXPECT_NO_THROW(quant::encode_a3_offset(v)) << p.name;
    for (double v : d.hysteresis.values())
      EXPECT_NO_THROW(quant::encode_hysteresis(v)) << p.name;
    for (Millis v : d.report_interval.values())
      EXPECT_NO_THROW(quant::encode_report_interval(v)) << p.name;
  }
}

TEST_P(ProfileSweep, ChannelsMapToKnownBands) {
  for (const auto& f : profile().lte_freqs)
    EXPECT_TRUE(spectrum::lte_band_for_earfcn(f.earfcn).has_value())
        << profile().name << " EARFCN " << f.earfcn;
}

TEST_P(ProfileSweep, FreqWeightsPositiveAndNormalizable) {
  double total = 0.0;
  for (const auto& f : profile().lte_freqs) {
    EXPECT_GT(f.weight, 0.0) << profile().name;
    total += f.weight;
  }
  EXPECT_GT(total, 0.0);
}

TEST_P(ProfileSweep, LegacySharesLeaveRoomForLte) {
  double legacy = 0.0;
  for (const auto& l : profile().legacy) legacy += l.share;
  EXPECT_LT(legacy, 0.5) << profile().name;  // LTE must dominate (Tab 4)
}

TEST_P(ProfileSweep, HundredGeneratedConfigsEncode) {
  const auto& p = profile();
  for (net::CellId id = 1; id <= 100; ++id) {
    const auto& fp = p.lte_freqs[id % p.lte_freqs.size()];
    const auto cfg = make_lte_config(
        p, /*world_seed=*/97, id, {spectrum::Rat::kLte, fp.earfcn}, 0,
        {static_cast<double>(id) * 131.0, static_cast<double>(id % 7) * 53.0},
        p.lte_freqs);
    rrc::Sib3 sib3;
    sib3.serving = cfg.serving;
    sib3.q_offset_equal_db = cfg.q_offset_equal_db;
    EXPECT_NO_THROW(rrc::encode(rrc::Message{sib3})) << p.name << " " << id;
    rrc::RrcConnectionReconfiguration reconf;
    reconf.report_configs = cfg.report_configs;
    EXPECT_NO_THROW(rrc::encode(rrc::Message{reconf})) << p.name << " " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCarriers, ProfileSweep, ::testing::Range(0, 30),
    [](const ::testing::TestParamInfo<int>& param_info) {
      std::string name = standard_carrier_profiles()[param_info.param].name;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(ProfileCatalogue, RegionalOthersKeepTheirSaltsAndVariants) {
  // The 13 small regional carriers (Tab 3 "others"): carrier k has salt
  // 0x90C + k and variant 11 + k.  The variant picks the three LTE
  // channels and the tract size; channels mod 8, 6 and 5 pin it exactly.
  const char* const acronyms[] = {"OR", "DT", "VO", "MS", "EE", "TE", "ND",
                                  "SB", "AI", "RO", "TS", "TI", "PX"};
  const auto& profiles = standard_carrier_profiles();
  const auto find = [&](const char* acronym) {
    return std::find_if(
        profiles.begin(), profiles.end(),
        [&](const CarrierProfile& p) { return p.acronym == acronym; });
  };
  for (std::uint32_t k = 0; k < 13; ++k) {
    const auto it = find(acronyms[k]);
    ASSERT_NE(it, profiles.end()) << acronyms[k];
    const std::uint32_t variant = 11 + k;
    EXPECT_EQ(it->seed_salt, 0x90Cu + k) << it->acronym;
    ASSERT_EQ(it->lte_freqs.size(), 3u) << it->acronym;
    EXPECT_EQ(it->lte_freqs[0].earfcn, 1200 + 25 * (variant % 8)) << it->acronym;
    EXPECT_EQ(it->lte_freqs[1].earfcn, 100 + 50 * (variant % 6)) << it->acronym;
    EXPECT_EQ(it->lte_freqs[2].earfcn, 2800 + 100 * (variant % 5))
        << it->acronym;
    EXPECT_EQ(it->tract_m, variant % 3 == 0 ? 500.0 : 0.0) << it->acronym;
  }
  EXPECT_EQ(find("OR")->lte_freqs[0].earfcn, 1275u);
}

}  // namespace
}  // namespace mmlab::netgen
