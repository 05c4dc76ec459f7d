// Calibrated carrier catalogue (Tab 3).  Distributions are tuned so the
// crawled dataset reproduces the paper's reported statistics; see
// EXPERIMENTS.md for the target-vs-measured ledger.
#include "mmlab/netgen/profile.hpp"

namespace mmlab::netgen {

namespace {

using D = stats::Discrete<double>;
using DM = stats::Discrete<Millis>;
using DI = stats::Discrete<int>;
using config::EventType;
using config::SignalMetric;

DI prio(std::initializer_list<std::pair<int, double>> entries) {
  return DI(entries);
}

FreqPolicy freq(std::uint32_t earfcn, double weight, DI priority) {
  FreqPolicy f;
  f.earfcn = earfcn;
  f.weight = weight;
  f.priority = std::move(priority);
  return f;
}

EventPolicy a3_policy(double weight, D offset, D hysteresis) {
  EventPolicy p;
  p.type = EventType::kA3;
  p.metric = SignalMetric::kRsrp;
  p.weight = weight;
  p.offset = std::move(offset);
  p.hysteresis = std::move(hysteresis);
  return p;
}

EventPolicy a5_policy(double weight, SignalMetric metric, D th_serving,
                      D th_candidate, D hysteresis) {
  EventPolicy p;
  p.type = EventType::kA5;
  p.metric = metric;
  p.weight = weight;
  p.threshold1 = std::move(th_serving);
  p.threshold2 = std::move(th_candidate);
  p.hysteresis = std::move(hysteresis);
  return p;
}

EventPolicy periodic_policy(double weight, DM interval) {
  EventPolicy p;
  p.type = EventType::kPeriodic;
  p.weight = weight;
  p.report_interval = std::move(interval);
  return p;
}

/// Baseline every profile starts from; carriers override what makes them
/// distinctive.  Values follow the common practice the paper reports
/// (∆min -122, Hs 4 dB, Θintra 62, modal A3 offset 3 dB).
CarrierProfile base_profile() {
  CarrierProfile p;
  p.dmin = D{{-122, 0.9}, {-124, 0.06}, {-120, 0.04}};
  p.q_hyst = D::fixed(4);
  p.s_intra = D{{62, 0.9}, {42, 0.05}, {52, 0.03}, {22, 0.02}};
  p.s_nonintra = D{{8, 0.55}, {28, 0.2}, {6, 0.1}, {4, 0.1}, {2, 0.05}};
  p.thresh_serving_low = D{{6, 0.7}, {4, 0.1}, {8, 0.1}, {10, 0.05}, {2, 0.05}};
  p.q_offset_equal = D{{4, 0.85}, {2, 0.1}, {6, 0.05}};
  p.t_resel = DM{{1000, 0.7}, {2000, 0.25}, {0, 0.05}};
  // Θ(c)higher sits high on the Srxlev scale: operators only pull devices
  // up to a higher-priority layer once it is decently strong, yet a weaker-
  // than-serving target remains possible (the Fig 10 finding).
  p.thresh_high = D{{26, 0.3}, {30, 0.25}, {34, 0.2}, {22, 0.15}, {38, 0.05},
                    {18, 0.05}};
  p.thresh_low = D{{4, 0.55}, {2, 0.15}, {6, 0.1}, {8, 0.1}, {10, 0.05}, {0, 0.05}};
  p.q_offset_freq = D{{0, 0.7}, {2, 0.1}, {4, 0.08}, {-2, 0.06}, {6, 0.04}, {1, 0.02}};
  p.meas_bandwidth = D{{10, 0.6}, {20, 0.25}, {5, 0.15}};
  p.a2_gate_prob = 0.9;
  p.a2_threshold = D{{-110, 0.4}, {-112, 0.2}, {-108, 0.15}, {-115, 0.1},
                     {-105, 0.1}, {-118, 0.05}};
  p.a2_hysteresis = D{{1, 0.6}, {2, 0.4}};
  p.decisive = {
      a3_policy(0.6, D{{3, 0.5}, {2, 0.25}, {4, 0.25}}, D{{1, 0.7}, {2, 0.3}}),
      a5_policy(0.25, SignalMetric::kRsrp, D{{-112, 0.5}, {-118, 0.5}},
                D{{-108, 0.5}, {-112, 0.5}}, D{{1, 0.7}, {2, 0.3}}),
      periodic_policy(0.15, DM{{1024, 0.5}, {2048, 0.5}}),
  };
  p.extra_periodic_prob = 0.2;
  p.ttt = DM{{320, 0.3}, {256, 0.2}, {480, 0.2}, {128, 0.15}, {640, 0.15}};
  p.periodic_interval = DM{{1024, 0.5}, {2048, 0.3}, {5120, 0.2}};
  return p;
}

CarrierProfile att_profile() {
  CarrierProfile p = base_profile();
  p.name = "AT&T";
  p.acronym = "A";
  p.country = "US";
  p.cell_count = 7000;
  p.tract_m = 0.0;  // per-cell draws: AT&T fine-tunes cell by cell (Fig 21)
  p.seed_salt = 0xA77;

  // Fig 18: serving cells concentrate on 850/1975/2000/5110/5780/9820;
  // LTE-exclusive 700 MHz bands (12/17) get LOW priority 2, band 30 (9820,
  // 2300 WCS, newly acquired) the HIGHEST; some channels are multi-valued
  // (the 6.3 % conflicting-priority story).
  p.lte_freqs = {
      freq(675, 0.008, prio({{3, 1}})),  freq(700, 0.008, prio({{3, 1}})),
      freq(725, 0.008, prio({{3, 1}})),  freq(750, 0.008, prio({{3, 1}})),
      freq(775, 0.008, prio({{3, 1}})),  freq(800, 0.008, prio({{3, 1}})),
      freq(825, 0.008, prio({{3, 1}})),  freq(850, 0.170, prio({{3, 1}})),
      freq(1975, 0.160, prio({{3, 0.82}, {4, 0.18}})),
      freq(2000, 0.140, prio({{3, 0.85}, {4, 0.15}})),
      freq(2175, 0.008, prio({{4, 1}})), freq(2200, 0.008, prio({{4, 1}})),
      freq(2225, 0.008, prio({{4, 1}})),
      freq(2425, 0.010, prio({{4, 0.92}, {5, 0.08}})),
      freq(2430, 0.008, prio({{4, 1}})), freq(2535, 0.008, prio({{4, 1}})),
      freq(2538, 0.008, prio({{4, 1}})), freq(2600, 0.008, prio({{4, 1}})),
      freq(5110, 0.120, prio({{2, 1}})), freq(5145, 0.010, prio({{2, 1}})),
      freq(5330, 0.008, prio({{2, 1}})), freq(5760, 0.010, prio({{2, 1}})),
      freq(5780, 0.140, prio({{2, 1}})),
      freq(5815, 0.010, prio({{2, 0.8}, {3, 0.2}})),
      freq(9000, 0.008, prio({{3, 1}})), freq(9720, 0.010, prio({{6, 1}})),
      freq(9820, 0.100, prio({{5, 0.85}, {4, 0.15}})),
  };
  // Chicago (C1) runs a different band mix (Fig 20): more WCS + 700 a,
  // less 850.
  for (auto& f : p.lte_freqs) {
    if (f.earfcn == 9820) f.city_weight_mult[0] = 2.2;
    if (f.earfcn == 5110) f.city_weight_mult[0] = 1.8;
    if (f.earfcn == 850) f.city_weight_mult[0] = 0.35;
    if (f.earfcn == 1975) f.city_weight_mult[0] = 0.7;
  }

  // Fig 14 calibration.
  p.dmin = D{{-122, 0.994}, {-124, 0.004}, {-94, 0.002}};
  p.s_nonintra = D{{8, 0.40},  {28, 0.22}, {2, 0.05},  {4, 0.05},  {6, 0.05},
                   {10, 0.04}, {12, 0.03}, {14, 0.03}, {16, 0.02}, {18, 0.02},
                   {20, 0.02}, {24, 0.02}, {34, 0.01}, {40, 0.01}, {48, 0.01},
                   {56, 0.01}, {62, 0.01}};
  p.thresh_serving_low =
      D{{6, 0.68},   {4, 0.06},   {8, 0.06},  {2, 0.04},  {10, 0.04},
        {14, 0.03},  {22, 0.02},  {30, 0.02}, {38, 0.015}, {46, 0.01},
        {54, 0.01},  {62, 0.005}, {0, 0.01},  {12, 0.01},  {16, 0.01},
        {18, 0.005}, {20, 0.005}, {24, 0.005}, {26, 0.0025}, {28, 0.0025}};
  p.q_offset_equal = D{{4, 0.8}, {2, 0.1}, {3, 0.05}, {5, 0.03}, {6, 0.02}};

  // Fig 5a event mix: A3 67.4 %, A5 26.1 % (RSRP/RSRQ roughly equal),
  // P 4.4 %.  A5-RSRP's dominant (-44, -114) pairing is the "no serving
  // requirement" policy behind the weaker-after-handoff finding (Fig 6).
  p.decisive = {
      a3_policy(0.674,
                D{{3, 0.78}, {2, 0.06}, {1, 0.04}, {0, 0.04}, {4, 0.04}, {5, 0.04}},
                D{{1, 0.5}, {1.5, 0.2}, {2, 0.2}, {2.5, 0.1}}),
      a5_policy(0.13, SignalMetric::kRsrp, D{{-44, 0.75}, {-118, 0.25}},
                D::fixed(-114), D{{1, 0.7}, {2, 0.3}}),
      a5_policy(0.131, SignalMetric::kRsrq,
                D{{-11.5, 0.35}, {-14, 0.25}, {-16, 0.2}, {-18, 0.2}},
                D{{-14, 0.4}, {-15, 0.25}, {-16.5, 0.2}, {-18.5, 0.15}},
                D{{0.5, 0.6}, {1, 0.4}}),
      periodic_policy(0.065, DM{{1024, 0.5}, {2048, 0.3}, {5120, 0.2}}),
  };
  p.extra_periodic_prob = 0.25;
  // TreportTrigger: broad [40, 1280] spread (Fig 14 rightmost, D = 0.78).
  p.ttt = DM{{40, 0.08},  {64, 0.06},  {80, 0.10},  {128, 0.12}, {256, 0.14},
             {320, 0.16}, {480, 0.12}, {640, 0.12}, {1024, 0.05}, {1280, 0.05}};

  p.legacy = {
      {spectrum::Rat::kUmts, 0.18, 0.55, 6},
      {spectrum::Rat::kGsm, 0.07, 0.95, 2},
  };
  return p;
}

CarrierProfile tmobile_profile() {
  CarrierProfile p = base_profile();
  p.name = "T-Mobile";
  p.acronym = "T";
  p.country = "US";
  p.cell_count = 5200;
  p.tract_m = 8000.0;  // uniform within a market area: Fig 21 ζ ≈ 0
  p.seed_salt = 0x7E0;
  // One flat priority across all channels: Fig 21 reports T-Mobile's spatial
  // configuration diversity as essentially zero, which requires that nearby
  // cells on different channels still agree.
  p.lte_freqs = {
      freq(675, 0.10, prio({{4, 1}})),  freq(800, 0.10, prio({{4, 1}})),
      freq(1975, 0.25, prio({{4, 1}})), freq(2000, 0.20, prio({{4, 1}})),
      freq(2175, 0.10, prio({{4, 1}})),
      freq(5110, 0.25, prio({{4, 1}})),
  };
  // Fig 5b: ∆A3 in [-1, 15], dominant {3,4,5}; HA3 in [0,5], dominant 1.
  p.decisive = {
      a3_policy(0.68,
                D{{3, 0.28}, {4, 0.24}, {5, 0.22}, {-1, 0.04}, {0, 0.02},
                  {1, 0.03}, {2, 0.05}, {8, 0.04}, {10, 0.04}, {12, 0.02},
                  {15, 0.02}},
                D{{1, 0.72}, {0, 0.08}, {2, 0.08}, {3, 0.05}, {4, 0.04},
                  {5, 0.03}}),
      a5_policy(0.10, SignalMetric::kRsrp,
                D{{-87, 0.3}, {-95, 0.2}, {-105, 0.2}, {-112, 0.15}, {-121, 0.15}},
                D{{-101, 0.3}, {-108, 0.3}, {-112, 0.25}, {-118, 0.15}},
                D{{1, 0.7}, {2, 0.3}}),
      periodic_policy(0.22, DM{{1024, 0.6}, {2048, 0.4}}),
  };
  p.extra_periodic_prob = 0.15;
  p.legacy = {
      {spectrum::Rat::kUmts, 0.17, 0.6, 5},
      {spectrum::Rat::kGsm, 0.08, 0.95, 2},
  };
  return p;
}

CarrierProfile verizon_profile() {
  CarrierProfile p = base_profile();
  p.name = "Verizon";
  p.acronym = "V";
  p.country = "US";
  p.cell_count = 4200;
  p.tract_m = 300.0;  // visible micro-diversity at 0.5 km (Fig 21)
  p.seed_salt = 0x0E5;
  p.lte_freqs = {
      freq(5230, 0.45, prio({{6, 0.9}, {5, 0.1}})),  // band 13 (700 c), core
      freq(2050, 0.20, prio({{4, 1}})),
      freq(2175, 0.15, prio({{4, 0.8}, {5, 0.2}})),
      freq(750, 0.10, prio({{3, 1}})),
      freq(66486, 0.10, prio({{5, 1}})),  // AWS-3
  };
  p.thresh_serving_low =
      D{{6, 0.5}, {4, 0.15}, {8, 0.12}, {10, 0.08}, {2, 0.05}, {12, 0.04},
        {14, 0.03}, {16, 0.03}};
  p.decisive = {
      a3_policy(0.62, D{{2, 0.35}, {3, 0.35}, {4, 0.2}, {1, 0.05}, {5, 0.05}},
                D{{1, 0.6}, {2, 0.4}}),
      a5_policy(0.23, SignalMetric::kRsrp,
                D{{-110, 0.4}, {-116, 0.35}, {-120, 0.25}},
                D{{-106, 0.5}, {-112, 0.5}}, D{{1, 0.7}, {2, 0.3}}),
      periodic_policy(0.15, DM{{1024, 0.5}, {2048, 0.5}}),
  };
  p.legacy = {
      {spectrum::Rat::kEvdo, 0.18, 0.9, 3},
      {spectrum::Rat::kCdma1x, 0.12, 0.95, 2},
  };
  return p;
}

CarrierProfile sprint_profile() {
  CarrierProfile p = base_profile();
  p.name = "Sprint";
  p.acronym = "S";
  p.country = "US";
  p.cell_count = 2600;
  p.tract_m = 300.0;
  p.seed_salt = 0x59A;
  p.lte_freqs = {
      freq(8365, 0.40, prio({{4, 1}})),                 // band 25
      freq(40162, 0.25, prio({{5, 0.8}, {6, 0.2}})),    // band 41
      freq(39874, 0.20, prio({{5, 1}})),                // band 41
      freq(8763, 0.15, prio({{3, 1}})),                 // band 26
  };
  p.decisive = {
      a3_policy(0.55, D{{2, 0.4}, {3, 0.3}, {4, 0.2}, {6, 0.1}},
                D{{1, 0.5}, {2, 0.5}}),
      a5_policy(0.30, SignalMetric::kRsrp,
                D{{-108, 0.4}, {-114, 0.35}, {-119, 0.25}},
                D{{-104, 0.5}, {-110, 0.5}}, D::fixed(1)),
      periodic_policy(0.15, DM{{2048, 0.6}, {5120, 0.4}}),
  };
  p.legacy = {
      {spectrum::Rat::kEvdo, 0.18, 0.88, 3},
      {spectrum::Rat::kCdma1x, 0.12, 0.95, 2},
  };
  return p;
}

CarrierProfile china_mobile_profile() {
  CarrierProfile p = base_profile();
  p.name = "China Mobile";
  p.acronym = "CM";
  p.country = "CN";
  p.cell_count = 4000;
  p.tract_m = 0.0;
  p.seed_salt = 0xC40;
  p.lte_freqs = {
      freq(37900, 0.30, prio({{5, 0.6}, {6, 0.4}})),  // band 38
      freq(38400, 0.25, prio({{5, 1}})),              // band 39
      freq(38950, 0.20, prio({{4, 0.7}, {5, 0.3}})),  // band 40
      freq(40340, 0.25, prio({{6, 0.8}, {7, 0.2}})),  // band 41
  };
  p.thresh_serving_low =
      D{{6, 0.45}, {8, 0.15}, {4, 0.12}, {10, 0.1}, {2, 0.08}, {12, 0.05},
        {16, 0.05}};
  p.decisive = {
      a3_policy(0.6, D{{2, 0.3}, {3, 0.3}, {4, 0.2}, {5, 0.1}, {6, 0.1}},
                D{{1, 0.5}, {2, 0.3}, {1.5, 0.2}}),
      a5_policy(0.25, SignalMetric::kRsrp,
                D{{-109, 0.35}, {-115, 0.35}, {-119, 0.3}},
                D{{-105, 0.5}, {-111, 0.5}}, D{{1, 0.6}, {2, 0.4}}),
      periodic_policy(0.15, DM{{1024, 0.6}, {2048, 0.4}}),
  };
  p.legacy = {
      {spectrum::Rat::kUmts, 0.10, 0.6, 5},
      {spectrum::Rat::kGsm, 0.18, 0.95, 2},
  };
  return p;
}

CarrierProfile sk_telecom_profile() {
  // Fig 17: SK Telecom shows the lowest diversity — effectively single
  // values for every parameter.
  CarrierProfile p = base_profile();
  p.name = "SK Telecom";
  p.acronym = "SK";
  p.country = "KR";
  p.cell_count = 900;
  p.tract_m = 0.0;
  p.seed_salt = 0x5CE;
  p.lte_freqs = {
      freq(1275, 0.6, prio({{6, 1}})),  // band 3
      freq(2500, 0.4, prio({{6, 1}})),  // band 5: same single value — Fig 17
  };
  p.dmin = D::fixed(-122);
  p.s_intra = D::fixed(62);
  p.s_nonintra = D::fixed(8);
  p.thresh_serving_low = D::fixed(6);
  p.q_offset_equal = D::fixed(4);
  p.t_resel = DM::fixed(1000);
  p.thresh_high = D::fixed(10);
  p.thresh_low = D::fixed(4);
  p.q_offset_freq = D::fixed(0);
  p.meas_bandwidth = D::fixed(10);
  p.a2_threshold = D::fixed(-110);
  p.a2_hysteresis = D::fixed(1);
  p.decisive = {a3_policy(1.0, D::fixed(3), D::fixed(2))};
  p.extra_periodic_prob = 0.0;
  p.ttt = DM::fixed(320);
  p.legacy = {{spectrum::Rat::kUmts, 0.12, 0.95, 2}};
  return p;
}

CarrierProfile mobileone_profile() {
  // MobileOne: low (but not zero) diversity.
  CarrierProfile p = base_profile();
  p.name = "MobileOne";
  p.acronym = "MO";
  p.country = "SG";
  p.cell_count = 420;
  p.tract_m = 0.0;
  p.seed_salt = 0x401;
  p.lte_freqs = {
      freq(1400, 0.55, prio({{5, 1}})),  // band 3
      freq(3675, 0.45, prio({{4, 1}})),  // band 8
  };
  p.dmin = D::fixed(-122);
  p.s_intra = D::fixed(62);
  p.s_nonintra = D{{8, 0.7}, {10, 0.3}};
  p.thresh_serving_low = D::fixed(6);
  p.q_offset_equal = D::fixed(4);
  p.t_resel = DM::fixed(1000);
  p.decisive = {a3_policy(0.9, D{{2, 0.6}, {3, 0.4}}, D::fixed(1)),
                periodic_policy(0.1, DM::fixed(2048))};
  p.extra_periodic_prob = 0.05;
  p.ttt = DM{{320, 0.8}, {480, 0.2}};
  p.legacy = {{spectrum::Rat::kUmts, 0.15, 0.9, 2}};
  return p;
}

/// Mid-size carrier with moderate diversity; `variant` perturbs which values
/// dominate so carriers stay distinguishable (Fig 15: "each parameter
/// configuration is carrier specific").
CarrierProfile regional_profile(std::string name, std::string acronym,
                                std::string country, int cells,
                                std::uint64_t salt, int variant,
                                double umts_share = 0.18,
                                double gsm_share = 0.06) {
  CarrierProfile p = base_profile();
  p.name = std::move(name);
  p.acronym = std::move(acronym);
  p.country = std::move(country);
  p.cell_count = cells;
  p.tract_m = (variant % 3 == 0) ? 500.0 : 0.0;
  p.seed_salt = salt;
  const std::uint32_t chan_a = 1200 + 25 * static_cast<std::uint32_t>(variant % 8);
  const std::uint32_t chan_b = 100 + 50 * static_cast<std::uint32_t>(variant % 6);
  const std::uint32_t chan_c = 2800 + 100 * static_cast<std::uint32_t>(variant % 5);
  const int pa = 4 + variant % 3, pb = 3 + variant % 2;
  p.lte_freqs = {
      freq(chan_a, 0.5, prio({{pa, 0.85}, {pa - 1, 0.15}})),
      freq(chan_b, 0.3, prio({{pb, 1}})),
      freq(chan_c, 0.2, prio({{5, 0.7}, {6, 0.3}})),
  };
  const double off = 2 + variant % 3;
  p.decisive = {
      a3_policy(0.6, D{{off, 0.6}, {off + 1, 0.25}, {off - 1, 0.15}},
                D{{1, 0.7}, {2, 0.3}}),
      a5_policy(0.25, SignalMetric::kRsrp,
                D{{-108 - variant % 6, 0.6}, {-116, 0.4}},
                D{{-106, 0.5}, {-110, 0.5}}, D::fixed(1)),
      periodic_policy(0.15, DM{{1024, 0.5}, {2048, 0.5}}),
  };
  p.legacy = {{spectrum::Rat::kUmts, umts_share, 0.7, 4},
              {spectrum::Rat::kGsm, gsm_share, 0.95, 2}};
  return p;
}

std::vector<CarrierProfile> build_profiles() {
  std::vector<CarrierProfile> out;
  out.push_back(att_profile());
  out.push_back(tmobile_profile());
  out.push_back(verizon_profile());
  out.push_back(sprint_profile());
  out.push_back(china_mobile_profile());

  auto cu = regional_profile("China Unicom", "CU", "CN", 1500, 0xC01, 1);
  cu.swapped_search_prob = 0.004;  // one of §4.2's two counterexample carriers
  out.push_back(std::move(cu));

  auto ct = regional_profile("China Telecom", "CT", "CN", 1300, 0xC7E, 2, 0.0, 0.0);
  ct.legacy = {{spectrum::Rat::kEvdo, 0.18, 0.9, 3},
               {spectrum::Rat::kCdma1x, 0.10, 0.95, 2}};
  out.push_back(std::move(ct));

  out.push_back(regional_profile("Korea Telecom", "KT", "KR", 950, 0x107, 3, 0.15, 0.0));
  out.push_back(sk_telecom_profile());
  out.push_back(mobileone_profile());
  out.push_back(regional_profile("SingTel", "SI", "SG", 380, 0x516, 4));
  out.push_back(regional_profile("Starhub", "ST", "SG", 350, 0x57A, 5));

  auto th = regional_profile("Three", "TH", "HK", 260, 0x733, 6);
  th.swapped_search_prob = 0.003;  // the second counterexample carrier
  out.push_back(std::move(th));

  out.push_back(regional_profile("China Mobile HK", "CH", "HK", 230, 0xC44, 7));
  out.push_back(regional_profile("Chunghwa Telecom", "CW", "TW", 300, 0xC37, 8));
  out.push_back(regional_profile("Taiwan Cellular", "TC", "TW", 270, 0x7C1, 9));
  out.push_back(regional_profile("NetCom", "NC", "NO", 160, 0x4C0, 10));

  // The 13 "others" (Tab 3): small footprints, <100 cells each.
  struct Other {
    const char* name;
    const char* acr;
    const char* country;
    int cells;
  };
  const Other others[] = {
      {"Orange", "OR", "FR", 95},        {"Deutsche Telekom", "DT", "DE", 90},
      {"Vodafone", "VO", "ES", 85},      {"MoviStar", "MS", "MX", 80},
      {"EE", "EE", "GB", 75},            {"Telia", "TE", "SE", 70},
      {"NTT Docomo", "ND", "JP", 90},    {"SoftBank", "SB", "JP", 60},
      {"Airtel", "AI", "IN", 85},        {"Rogers", "RO", "CA", 70},
      {"Telstra", "TS", "AU", 65},       {"TIM", "TI", "IT", 60},
      {"Proximus", "PX", "BE", 55},
  };
  // Other k (k = 0..12) gets variant 11 + k and salt 0x90C + k, one past
  // 0x900 + variant: GCC evaluated the unsequenced `variant++` of the call
  // these worlds were first built from before `0x900 + variant`.  Spelled
  // out, the worlds stay byte-identical on any compiler.
  int k = 0;
  for (const auto& o : others) {
    out.push_back(regional_profile(o.name, o.acr, o.country, o.cells,
                                   0x90C + k, 11 + k));
    ++k;
  }
  return out;
}

}  // namespace

const std::vector<CarrierProfile>& standard_carrier_profiles() {
  static const std::vector<CarrierProfile> kProfiles = build_profiles();
  return kProfiles;
}

std::vector<geo::City> standard_cities() {
  // US cities C1..C5 first (ids 0..4), then one metro per other country.
  // Cities are laid out on a sparse world grid so their areas never overlap.
  std::vector<geo::City> cities;
  auto add = [&](const char* name, const char* code, const char* country,
                 double extent_m) {
    geo::City c;
    c.id = static_cast<geo::CityId>(cities.size());
    c.name = name;
    c.code = code;
    c.country = country;
    const double pitch = 100'000.0;
    c.origin = {static_cast<double>(cities.size() % 6) * pitch,
                static_cast<double>(cities.size() / 6) * pitch};
    c.extent_m = extent_m;
    cities.push_back(std::move(c));
  };
  add("Chicago", "C1", "US", 24'000);
  add("Los Angeles", "C2", "US", 22'000);
  add("Indianapolis", "C3", "US", 16'000);
  add("Columbus", "C4", "US", 13'000);
  add("Lafayette", "C5", "US", 9'000);
  add("Beijing", "B1", "CN", 24'000);
  add("Seoul", "K1", "KR", 18'000);
  add("Singapore", "S1", "SG", 14'000);
  add("Hong Kong", "H1", "HK", 12'000);
  add("Taipei", "W1", "TW", 13'000);
  add("Oslo", "N1", "NO", 10'000);
  add("Paris", "F1", "FR", 10'000);
  add("Berlin", "D1", "DE", 10'000);
  add("Madrid", "E1", "ES", 10'000);
  add("Mexico City", "M1", "MX", 10'000);
  add("London", "G1", "GB", 10'000);
  add("Stockholm", "SE1", "SE", 9'000);
  add("Tokyo", "J1", "JP", 12'000);
  add("Delhi", "I1", "IN", 10'000);
  add("Toronto", "CA1", "CA", 9'000);
  add("Sydney", "AU1", "AU", 9'000);
  add("Rome", "IT1", "IT", 9'000);
  add("Brussels", "BE1", "BE", 8'000);
  return cities;
}

const std::vector<geo::CityId>& us_city_ids() {
  static const std::vector<geo::CityId> kIds = {0, 1, 2, 3, 4};
  return kIds;
}

const std::vector<double>& us_city_weights() {
  // Proportional to Fig 20's per-city cell totals:
  // 4671 : 2982 : 2348 : 1268 : 745.
  static const std::vector<double> kWeights = {0.389, 0.248, 0.195, 0.106,
                                               0.062};
  return kWeights;
}

}  // namespace mmlab::netgen
