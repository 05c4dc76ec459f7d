// Oracle and property tests of the drive engine's radio memos (DESIGN.md
// "Drive-engine radio memos"): the shadowing corner memo against the
// original four-corner evaluation, the per-tick RSRP and co-channel lists of
// ue::RadioMemo against the uncached Deployment calls, and the invalidation
// contract of ue::Ue (nothing measured at one position is reused at the
// next).  Every comparison is on bit patterns.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "mmlab/netgen/generator.hpp"
#include "mmlab/radio/link.hpp"
#include "mmlab/ue/radio_memo.hpp"
#include "mmlab/ue/ue.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::ue {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// --- shadowing corners ------------------------------------------------------

TEST(RadioMemo, LatticeGaussMatchesReference) {
  const radio::ShadowingField field(0x5eedf1e1dULL, 7.0, 50.0);
  Rng rng(17);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t edges[] = {0, 1, -1, 2, -2, kMax, kMin, kMax - 1,
                                kMin + 1, 1LL << 31, -(1LL << 31)};
  for (std::uint32_t cell : {0u, 1u, 7u, 0xfffffffu, 0xffffffffu}) {
    for (std::int64_t ix : edges)
      for (std::int64_t iy : edges)
        ASSERT_TRUE(same_bits(field.lattice_gauss(cell, ix, iy),
                              field.lattice_gauss_reference(cell, ix, iy)))
            << cell << " " << ix << " " << iy;
  }
  for (int i = 0; i < 20'000; ++i) {
    const auto cell = static_cast<std::uint32_t>(rng.next_u64());
    const auto ix = static_cast<std::int64_t>(rng.next_u64());
    const auto iy = rng.between(-100'000, 100'000);
    ASSERT_TRUE(same_bits(field.lattice_gauss(cell, ix, iy),
                          field.lattice_gauss_reference(cell, ix, iy)));
  }
}

/// Random walks mixing every kind of step: sub-metre drive ticks, jumps of
/// one and several lattice cells in either direction, landings exactly on
/// lattice lines, and the doubles either side of them.
std::vector<geo::Point> walk(Rng& rng, geo::Point start, int steps,
                             double pitch) {
  std::vector<geo::Point> out{start};
  geo::Point p = start;
  for (int i = 0; i < steps; ++i) {
    switch (rng.below(6)) {
      case 0:
      case 1:  // a drive tick
        p.x += rng.uniform(-2.0, 2.0);
        p.y += rng.uniform(-2.0, 2.0);
        break;
      case 2:  // into a neighbouring lattice cell, or farther
        p.x += pitch * static_cast<double>(rng.between(-3, 3));
        p.y += pitch * static_cast<double>(rng.between(-1, 1));
        break;
      case 3:  // exactly on a lattice point
        p.x = pitch * std::round(p.x / pitch);
        p.y = pitch * std::round(p.y / pitch);
        break;
      case 4: {  // just below or above a lattice line
        const double lx = pitch * std::round(p.x / pitch);
        p.x = rng.chance(0.5) ? std::nextafter(lx, -1e300)
                              : std::nextafter(lx, 1e300);
        const double ly = pitch * std::round(p.y / pitch);
        p.y = rng.chance(0.5) ? std::nextafter(ly, -1e300) : ly;
        break;
      }
      default:  // anywhere nearby
        p.x += rng.uniform(-500.0, 500.0);
        p.y += rng.uniform(-500.0, 500.0);
        break;
    }
    out.push_back(p);
  }
  return out;
}

TEST(RadioMemo, SampleDbMatchesReferenceOnRandomWalks) {
  Rng rng(5);
  for (double pitch : {50.0, 37.5, 1.0}) {
    const radio::ShadowingField field(rng.next_u64(), 7.0, pitch);
    for (const geo::Point start :
         {geo::Point{0, 0}, geo::Point{-12'345.6, 7'000.25},
          geo::Point{-0.0, -1e-300}, geo::Point{3.0e6, -3.0e6}}) {
      const auto cell = static_cast<std::uint32_t>(rng.below(1u << 28));
      radio::ShadowingField::Corners memo;
      for (const geo::Point p : walk(rng, start, 3'000, pitch)) {
        const double want = field.sample_db_reference(cell, p);
        ASSERT_TRUE(same_bits(field.sample_db(cell, p, memo), want))
            << "pitch " << pitch << " at " << p.x << "," << p.y;
        ASSERT_TRUE(same_bits(field.sample_db(cell, p), want));
        EXPECT_EQ(memo.ix, static_cast<std::int64_t>(std::floor(p.x / pitch)));
        EXPECT_EQ(memo.iy, static_cast<std::int64_t>(std::floor(p.y / pitch)));
      }
    }
  }
}

TEST(RadioMemo, CornerMemoFilledForAnotherCellIsRefilled) {
  const radio::ShadowingField field(3, 7.0, 50.0);
  radio::ShadowingField::Corners memo;
  Rng rng(9);
  for (int i = 0; i < 2'000; ++i) {
    const auto cell = static_cast<std::uint32_t>(rng.below(3));
    const geo::Point p{rng.uniform(-120.0, 120.0), rng.uniform(-120.0, 120.0)};
    ASSERT_TRUE(same_bits(field.sample_db(cell, p, memo),
                          field.sample_db_reference(cell, p)));
    EXPECT_EQ(memo.cell_id, cell);
  }
}

// --- per-tick RSRP and co-channel lists -------------------------------------

const netgen::GeneratedWorld& memo_world() {
  static const auto world = [] {
    netgen::WorldOptions wopts;
    wopts.seed = 13;
    wopts.scale = 0.05;
    return netgen::generate_world(wopts);
  }();
  return world;
}

/// A drive-like walk through one city, with the odd jump.
std::vector<geo::Point> city_walk(std::uint64_t seed, int steps) {
  const auto& city = memo_world().network.cities().front();
  Rng rng(seed);
  geo::Point p{city.origin.x + 0.5 * city.extent_m,
               city.origin.y + 0.5 * city.extent_m};
  std::vector<geo::Point> out;
  for (int i = 0; i < steps; ++i) {
    if (rng.chance(0.05)) {
      p.x += rng.uniform(-400.0, 400.0);
      p.y += rng.uniform(-400.0, 400.0);
    } else {
      p.x += rng.uniform(0.0, 3.0);
      p.y += rng.uniform(-1.0, 1.0);
    }
    out.push_back(p);
  }
  return out;
}

std::vector<std::uint32_t> visit_order(const net::Deployment& net,
                                       geo::Point p, double radius,
                                       net::CarrierId carrier) {
  std::vector<std::uint32_t> out;
  net.for_each_cell_near(p, radius, carrier,
                         [&](std::uint32_t idx) { out.push_back(idx); });
  return out;
}

TEST(RadioMemo, RsrpMatchesDeploymentRsrpAt) {
  const auto& net = memo_world().network;
  const net::CarrierId carrier = net.carriers().front().id;
  RadioMemo memo(net);
  SimTime t{0};
  for (const geo::Point p : city_walk(1, 600)) {
    memo.begin_tick(p, t);
    t += 100;
    for (const auto& nb : memo.nearby(carrier)) {
      const double want = net.rsrp_at(net.cells()[nb.index], p);
      ASSERT_TRUE(same_bits(memo.rsrp(nb.index), want));
      ASSERT_TRUE(same_bits(memo.rsrp(nb.index), want));  // the cached one
    }
  }
}

TEST(RadioMemo, RsrpFollowsSetPathloss) {
  netgen::WorldOptions wopts;
  wopts.seed = 13;
  wopts.scale = 0.02;
  auto world = netgen::generate_world(wopts);
  auto& net = world.network;
  net.set_pathloss({2.9, 250.0});
  const net::CarrierId carrier = net.carriers().front().id;
  RadioMemo memo(net);
  const auto& city = net.cities().front();
  const geo::Point p{city.origin.x + 0.4 * city.extent_m,
                     city.origin.y + 0.6 * city.extent_m};
  memo.begin_tick(p, SimTime{0});
  ASSERT_FALSE(memo.nearby(carrier).empty());
  for (const auto& nb : memo.nearby(carrier))
    ASSERT_TRUE(same_bits(memo.rsrp(nb.index),
                          net.rsrp_at(net.cells()[nb.index], p)));
}

TEST(RadioMemo, NearbyMatchesBothVisitOrders) {
  const auto& net = memo_world().network;
  for (const auto& carrier : net.carriers()) {
    RadioMemo memo(net);
    SimTime t{0};
    for (const geo::Point p : city_walk(carrier.id + 2, 200)) {
      memo.begin_tick(p, t);
      t += 100;
      std::vector<std::uint32_t> all, inner;
      for (const auto& nb : memo.nearby(carrier.id)) {
        all.push_back(nb.index);
        if (nb.interferes) inner.push_back(nb.index);
      }
      ASSERT_EQ(all, visit_order(net, p, net::kAudibleRadiusM, carrier.id));
      ASSERT_EQ(inner,
                visit_order(net, p, net::kInterferenceRadiusM, carrier.id));
    }
  }
}

TEST(RadioMemo, CochannelListIsReferenceInterferenceInOrder) {
  const auto& net = memo_world().network;
  std::size_t compared = 0;
  for (const auto& carrier : net.carriers()) {
    RadioMemo memo(net);
    SimTime t{0};
    for (const geo::Point p : city_walk(carrier.id + 40, 120)) {
      memo.begin_tick(p, t);
      t += 100;
      for (const auto& nb : memo.nearby(carrier.id)) {
        const net::Cell& cell = net.cells()[nb.index];
        const auto want = net.cochannel_interference(cell, p);
        std::vector<double> got;
        for (const auto& i : memo.cochannel(cell.carrier, cell.channel)) {
          ASSERT_TRUE(same_bits(i.mw, radio::dbm_to_mw(i.rsrp_dbm)));
          if (i.id != cell.id) got.push_back(i.rsrp_dbm);
        }
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < want.size(); ++k)
          ASSERT_TRUE(same_bits(got[k], want[k])) << k;
        ASSERT_TRUE(same_bits(memo.noise_interference_mw(cell),
                              radio::noise_plus_interference_mw(want)));
        compared += want.size();
      }
    }
  }
  EXPECT_GT(compared, 1'000u);  // the walks do meet co-channel cells
}

TEST(RadioMemo, EvictionKeepsOnlyRecentlyTouchedCells) {
  const auto& net = memo_world().network;
  const net::CarrierId carrier = net.carriers().front().id;
  RadioMemo memo(net);
  const auto& city = net.cities().front();
  const geo::Point a{city.origin.x + 0.5 * city.extent_m,
                     city.origin.y + 0.5 * city.extent_m};
  memo.begin_tick(a, SimTime{0});
  for (const auto& nb : memo.nearby(carrier)) memo.rsrp(nb.index);
  const std::size_t touched = memo.nearby(carrier).size();
  ASSERT_GT(touched, 0u);
  EXPECT_EQ(memo.cells(), touched);
  EXPECT_LT(memo.cells(), net.cells().size());

  // Far away, later: the old cells age out, the new ones stay.
  const geo::Point b{a.x + 50'000.0, a.y};
  memo.begin_tick(b, SimTime{10'000});
  memo.evict_unseen_before(SimTime{5'000});
  EXPECT_EQ(memo.cells(), 0u);
  memo.begin_tick(a, SimTime{20'000});
  for (const auto& nb : memo.nearby(carrier))
    ASSERT_TRUE(same_bits(memo.rsrp(nb.index),
                          net.rsrp_at(net.cells()[nb.index], a)));
  memo.evict_unseen_before(SimTime{15'000});
  EXPECT_EQ(memo.cells(), touched);
}

// --- the Ue's invalidation contract -----------------------------------------

/// Noise off and L3 filtering off (k = 0 gives a = 1), so every measured
/// value is the raw radio and can be compared with the uncached Deployment.
UeOptions exact_radio_options(net::CarrierId carrier) {
  UeOptions opts;
  opts.seed = 3;
  opts.carrier = carrier;
  opts.active_mode = true;
  opts.measurement_noise_db = 0.0;
  opts.l3_filter_k = 0;
  return opts;
}

/// Steps the device and says whether its link tick can be checked against
/// the serving cell's uncached radio: not when an idle reselection (the
/// serving cell may be legacy) switched cells after the link's RSRP was
/// measured, and not when no cell is serving.
bool step_checkable(Ue& device, geo::Point p, SimTime t) {
  const std::size_t before = device.handoffs().size();
  device.step(p, t);
  if (device.serving_cell() == nullptr) return false;
  return device.handoffs().size() == before ||
         device.handoffs().back().active_state;
}

double reference_sinr(const net::Deployment& net, const net::Cell& serving,
                      geo::Point p) {
  return radio::sinr_db(net.rsrp_at(serving, p),
                        net.cochannel_interference(serving, p));
}

const net::Cell* reference_attach(const net::Deployment& net,
                                  net::CarrierId carrier, geo::Point p) {
  const net::Cell* best = nullptr;
  double best_rsrp = net::kDetectionFloorDbm;
  bool best_is_lte = false;
  net.for_each_cell_near(p, net::kAudibleRadiusM, carrier,
                         [&](std::uint32_t idx) {
                           const net::Cell& c = net.cells()[idx];
                           const double rsrp = net.rsrp_at(c, p);
                           if (rsrp <= net::kDetectionFloorDbm) return;
                           const bool better =
                               (c.is_lte() && !best_is_lte) ||
                               (c.is_lte() == best_is_lte && rsrp > best_rsrp);
                           if (best == nullptr || better) {
                             best = &c;
                             best_rsrp = rsrp;
                             best_is_lte = c.is_lte();
                           }
                         });
  return best;
}

TEST(RadioMemo, AttachThenStepNeverReusesAttachPosition) {
  const auto& net = memo_world().network;
  const net::CarrierId carrier = net.carriers().front().id;
  const auto walk_points = city_walk(77, 400);
  std::size_t checked = 0;
  for (std::size_t i = 0; i + 1 < walk_points.size(); i += 7) {
    const geo::Point p1 = walk_points[i];
    const geo::Point p2{p1.x + 300.0, p1.y - 200.0};
    Ue device(net, exact_radio_options(carrier));
    if (!device.attach(p1, SimTime{1'000})) continue;
    ASSERT_EQ(device.serving_cell(), reference_attach(net, carrier, p1));
    if (!step_checkable(device, p2, SimTime{1'100})) continue;
    ASSERT_TRUE(same_bits(device.link_tick().sinr_db,
                          reference_sinr(net, *device.serving_cell(), p2)));
    ++checked;
  }
  EXPECT_GT(checked, 20u);
}

TEST(RadioMemo, UeLinkMatchesUncachedRadioEveryTick) {
  const auto& net = memo_world().network;
  const net::CarrierId carrier = net.carriers().front().id;
  Ue device(net, exact_radio_options(carrier));
  SimTime t{0};
  std::size_t checked = 0;
  for (const geo::Point p : city_walk(5, 1'500)) {
    const bool checkable = step_checkable(device, p, t);
    t += 100;
    if (!checkable) continue;
    ASSERT_TRUE(same_bits(device.link_tick().sinr_db,
                          reference_sinr(net, *device.serving_cell(), p)))
        << "tick " << t.ms;
    ++checked;
  }
  EXPECT_GT(checked, 1'000u);
  EXPECT_FALSE(device.handoffs().empty());
}

}  // namespace
}  // namespace mmlab::ue
