#include "mmlab/spectrum/bands.hpp"

#include <gtest/gtest.h>

namespace mmlab::spectrum {
namespace {

TEST(Rat, Names) {
  EXPECT_EQ(rat_name(Rat::kLte), "LTE");
  EXPECT_EQ(rat_name(Rat::kCdma1x), "CDMA1x");
}

TEST(Rat, StandardParameterCountsMatchTab4) {
  EXPECT_EQ(standard_parameter_count(Rat::kLte), 66);
  EXPECT_EQ(standard_parameter_count(Rat::kUmts), 64);
  EXPECT_EQ(standard_parameter_count(Rat::kGsm), 9);
  EXPECT_EQ(standard_parameter_count(Rat::kEvdo), 14);
  EXPECT_EQ(standard_parameter_count(Rat::kCdma1x), 4);
  // 66 LTE + 91 across the four legacy RATs, as the paper counts.
  EXPECT_EQ(standard_parameter_count(Rat::kUmts) +
                standard_parameter_count(Rat::kGsm) +
                standard_parameter_count(Rat::kEvdo) +
                standard_parameter_count(Rat::kCdma1x),
            91);
}

TEST(Rat, Generations) {
  EXPECT_EQ(rat_generation(Rat::kLte), 4);
  EXPECT_EQ(rat_generation(Rat::kUmts), 3);
  EXPECT_EQ(rat_generation(Rat::kEvdo), 3);
  EXPECT_EQ(rat_generation(Rat::kGsm), 2);
}

TEST(Bands, KnownBandLookups) {
  EXPECT_EQ(lte_band_for_earfcn(850), 2);     // 1900 PCS
  EXPECT_EQ(lte_band_for_earfcn(1975), 4);    // AWS-1
  EXPECT_EQ(lte_band_for_earfcn(5110), 12);   // 700 a
  EXPECT_EQ(lte_band_for_earfcn(5330), 14);   // 700 PS (FirstNet)
  EXPECT_EQ(lte_band_for_earfcn(5780), 17);   // 700 b
  EXPECT_EQ(lte_band_for_earfcn(9720), 29);   // 700 d SDL
  EXPECT_EQ(lte_band_for_earfcn(9820), 30);   // 2300 WCS — the §5.4.1 band
  EXPECT_EQ(lte_band_for_earfcn(40000), 41);
  EXPECT_FALSE(lte_band_for_earfcn(999'999).has_value());
}

TEST(Bands, FrequencyFormula) {
  // Band 2: F_DL = 1930 + 0.1 (N - 600); EARFCN 850 -> 1955 MHz.
  EXPECT_NEAR(*lte_dl_frequency_mhz(850), 1955.0, 1e-9);
  // Band 30: EARFCN 9820 -> 2350 + 0.1*50 = 2355 MHz.
  EXPECT_NEAR(*lte_dl_frequency_mhz(9820), 2355.0, 1e-9);
  EXPECT_FALSE(lte_dl_frequency_mhz(500'000).has_value());
}

TEST(Bands, UmtsFrequency) {
  EXPECT_NEAR(umts_dl_frequency_mhz(4435), 887.0, 1e-9);
}

TEST(Bands, Fig18ChannelsAllMapToBands) {
  for (const auto ch : att_fig18_channels())
    EXPECT_TRUE(lte_band_for_earfcn(ch).has_value()) << "EARFCN " << ch;
}

TEST(Bands, TableRangesAreDisjointAndOrdered) {
  const auto& table = lte_band_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_LT(table[i].earfcn_lo, table[i].earfcn_hi);
    for (std::size_t j = i + 1; j < table.size(); ++j) {
      const bool disjoint = table[i].earfcn_hi < table[j].earfcn_lo ||
                            table[j].earfcn_hi < table[i].earfcn_lo;
      EXPECT_TRUE(disjoint) << "bands " << table[i].band << " and "
                            << table[j].band;
    }
  }
}

TEST(BandSupport, AllSupportsEverything) {
  const auto bs = BandSupport::all();
  for (const auto& row : lte_band_table())
    EXPECT_TRUE(bs.supports_band(row.band));
  EXPECT_TRUE(bs.supports_earfcn(9820));
}

TEST(BandSupport, ExceptMasksBand) {
  const auto bs = BandSupport::all_except({30});
  EXPECT_FALSE(bs.supports_band(30));
  EXPECT_FALSE(bs.supports_earfcn(9820));
  EXPECT_TRUE(bs.supports_band(12));
  EXPECT_TRUE(bs.supports_earfcn(5110));
}

TEST(BandSupport, HighBandMasking) {
  const auto bs = BandSupport::all_except({66});
  EXPECT_FALSE(bs.supports_earfcn(66500));
  EXPECT_TRUE(bs.supports_earfcn(850));
}

TEST(BandSupport, UnknownEarfcnUnsupported) {
  EXPECT_FALSE(BandSupport::all().supports_earfcn(999'999));
}

TEST(Channel, Ordering) {
  const Channel a{Rat::kLte, 100}, b{Rat::kLte, 200}, c{Rat::kUmts, 100};
  EXPECT_LT(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(to_string(a), "LTE/100");
}

class BandFrequencySweep
    : public ::testing::TestWithParam<LteBandInfo> {};

TEST_P(BandFrequencySweep, EdgesConsistent) {
  const auto& band = GetParam();
  EXPECT_EQ(lte_band_for_earfcn(band.earfcn_lo), band.band);
  EXPECT_EQ(lte_band_for_earfcn(band.earfcn_hi), band.band);
  EXPECT_NEAR(*lte_dl_frequency_mhz(band.earfcn_lo), band.f_dl_low_mhz, 1e-9);
  const double hi = *lte_dl_frequency_mhz(band.earfcn_hi);
  EXPECT_GT(hi, band.f_dl_low_mhz);
  EXPECT_LT(hi, band.f_dl_low_mhz + 200.0);  // no band wider than 200 MHz here
}

INSTANTIATE_TEST_SUITE_P(AllBands, BandFrequencySweep,
                         ::testing::ValuesIn(lte_band_table()),
                         [](const auto& param_info) {
                           return "Band" +
                                  std::to_string(param_info.param.band);
                         });

}  // namespace
}  // namespace mmlab::spectrum
