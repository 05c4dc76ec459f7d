// The MMDS observation decode kernel against its reference parse.
//
// store::decode_observations checks bounds once per observation while
// kMaxWireObservationBytes remain and decodes varints by SWAR;
// decode_observations_reference reads field by field through ByteReader.
// On every input here both must give the same records (bit for bit), the
// same CellScan, the same final reader position and the same error text:
// seeded random encode_cell cells under every selection, a cell cut at
// every byte offset, 9- and 10-byte time deltas and contexts (including
// deltas that wrap past INT64_MAX), over-long and padded varints, and a bad
// param index or non-finite value placed inside the kernel's window and in
// the reference tail.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmlab/core/database.hpp"
#include "mmlab/store/cell_codec.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::store {
namespace {

using core::Observation;

/// What one decode pass left behind.
struct Outcome {
  core::CellRecord records;  ///< what the pass appended
  CellScan scan;
  std::size_t position = 0;
  std::string error;
};

Outcome decode(bool kernel, const std::uint8_t* data, std::size_t size,
               std::size_t start, std::uint64_t n_obs,
               const std::vector<config::ParamKey>& params,
               ObservationSelection select) {
  Outcome o;
  ByteReader r(data, size);
  r.skip(start);
  try {
    if (kernel)
      decode_observations(r, n_obs, params, select, o.records, o.scan);
    else
      decode_observations_reference(r, n_obs, params, select, o.records,
                                    o.scan);
  } catch (const std::exception& e) {
    o.error = e.what();
    if (o.error.empty()) o.error = "(empty what())";
  }
  o.position = r.position();
  return o;
}

/// Kernel and reference on the same bytes; returns the reference's outcome.
Outcome expect_same(const std::vector<std::uint8_t>& bytes, std::size_t size,
                    std::size_t start, std::uint64_t n_obs,
                    const std::vector<config::ParamKey>& params,
                    ObservationSelection select, const std::string& tag) {
  const Outcome k = decode(true, bytes.data(), size, start, n_obs, params,
                           select);
  const Outcome ref = decode(false, bytes.data(), size, start, n_obs, params,
                             select);
  EXPECT_EQ(k.error, ref.error) << tag;
  EXPECT_EQ(k.position, ref.position) << tag;
  EXPECT_EQ(k.scan.values_skipped, ref.scan.values_skipped) << tag;
  EXPECT_EQ(k.scan.front_t_ms, ref.scan.front_t_ms) << tag;
  EXPECT_EQ(k.records.repeats, ref.records.repeats) << tag;
  const auto& ko = k.records.observations;
  const auto& ro = ref.records.observations;
  EXPECT_EQ(ko.size(), ro.size()) << tag;
  for (std::size_t i = 0; i < std::min(ko.size(), ro.size()); ++i) {
    const Observation& a = ko[i];
    const Observation& b = ro[i];
    EXPECT_EQ(a.key, b.key) << tag << " record " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
              std::bit_cast<std::uint64_t>(b.value))
        << tag << " record " << i;
    EXPECT_EQ(a.t.ms, b.t.ms) << tag << " record " << i;
    EXPECT_EQ(a.context, b.context) << tag << " record " << i;
  }
  return ref;
}

/// Position just past a cell header (the part decode_observations skips),
/// and its observation count.
std::size_t skip_header(const std::vector<std::uint8_t>& bytes,
                        std::uint64_t& n_obs) {
  ByteReader r(bytes);
  (void)r.varint();  // id
  (void)r.u8();      // rat
  (void)r.varint();  // channel
  (void)r.f64le();
  (void)r.f64le();
  n_obs = r.varint();
  return r.position();
}

double random_value(Rng& rng) {
  switch (rng.below(6)) {
    case 0: return rng.chance(0.5) ? -0.0 : 0.0;
    case 1: return std::numeric_limits<double>::max();
    case 2: return std::numeric_limits<double>::denorm_min();
    case 3: return rng.uniform(-1e9, 1e9);
    default: return static_cast<double>(rng.below(16)) - 8.0;
  }
}

std::int64_t random_wide(Rng& rng) {
  switch (rng.below(8)) {
    case 0: return std::numeric_limits<std::int64_t>::min();  // 10 bytes
    case 1: return std::numeric_limits<std::int64_t>::max();
    case 2: return std::int64_t{1} << 56;  // 9 bytes zigzagged
    case 3: return -(std::int64_t{1} << 60);
    default: return rng.between(-1000, 100000);
  }
}

core::CellRecord random_cell(Rng& rng, std::size_t n_keys, std::size_t n_obs,
                             bool wide) {
  core::CellRecord rec;
  rec.rat = spectrum::Rat::kLte;
  rec.channel = static_cast<std::uint32_t>(rng.below(70000));
  rec.position = {rng.uniform(-1e5, 1e5), rng.uniform(-1e5, 1e5)};
  std::int64_t t = rng.between(-5, 5);
  for (std::size_t i = 0; i < n_obs; ++i) {
    Observation obs;
    obs.key = {spectrum::kAllRats[rng.below(spectrum::kAllRats.size())],
               static_cast<std::uint16_t>(rng.below(n_keys))};
    obs.value = random_value(rng);
    // Wide cells reach 9- and 10-byte time deltas and contexts.
    // (Wrapping add: after a wide t the next step may pass INT64_MAX.)
    t = wide && rng.chance(0.3)
            ? random_wide(rng)
            : static_cast<std::int64_t>(
                  static_cast<std::uint64_t>(t) +
                  static_cast<std::uint64_t>(rng.between(-1000, 86'400'000)));
    obs.t = SimTime{t};
    obs.context = wide && rng.chance(0.3) ? random_wide(rng)
                                          : rng.between(-1, 70000);
    rec.observations.push_back(obs);
  }
  return rec;
}

std::vector<char> random_mask(Rng& rng, std::size_t n) {
  std::vector<char> mask(n);
  for (auto& m : mask) m = rng.chance(0.5) ? 1 : 0;
  return mask;
}

TEST(CellCodecKernel, RandomCellsMatchTheReference) {
  Rng rng(20261018);
  for (int round = 0; round < 400; ++round) {
    const bool wide = round % 3 == 0;
    const auto rec =
        random_cell(rng, 1 + rng.below(300), rng.below(120), wide);
    ParamIndexMap map;
    ByteWriter w;
    RepeatCount repeats;
    ASSERT_TRUE(
        encode_cell(w, static_cast<std::uint32_t>(round), rec, map, repeats));
    ASSERT_EQ(repeats.snapshots, 0u) << "round " << round;  // plain cells
    const auto& bytes = w.buffer();
    std::uint64_t n_obs = 0;
    const std::size_t start = skip_header(bytes, n_obs);
    const auto& params = map.keys();
    const auto mask = random_mask(rng, params.size());
    const std::string tag = "round " + std::to_string(round);
    const Outcome all =
        expect_same(bytes, bytes.size(), start, n_obs, params, {}, tag);
    EXPECT_TRUE(all.error.empty()) << tag << ": " << all.error;
    EXPECT_EQ(all.position, bytes.size()) << tag;
    const auto& got = all.records.observations;
    ASSERT_EQ(got.size(), rec.observations.size()) << tag;
    for (std::size_t i = 0; i < rec.observations.size(); ++i) {
      // Wide time deltas wrap on both sides of the wire and round-trip.
      EXPECT_EQ(got[i].t.ms, rec.observations[i].t.ms) << tag;
      EXPECT_EQ(got[i].context, rec.observations[i].context) << tag;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
                std::bit_cast<std::uint64_t>(rec.observations[i].value))
          << tag;
    }
    expect_same(bytes, bytes.size(), start, n_obs, params,
                {mask.data(), false}, tag + " masked");
    expect_same(bytes, bytes.size(), start, n_obs, params, {nullptr, true},
                tag + " none");
  }
}

TEST(CellCodecKernel, CellCutAtEveryByteOffset) {
  Rng rng(77);
  for (const bool wide : {false, true}) {
    const auto rec = random_cell(rng, 40, 24, wide);
    ParamIndexMap map;
    ByteWriter w;
    RepeatCount repeats;
    ASSERT_TRUE(encode_cell(w, 5, rec, map, repeats));
    ASSERT_EQ(repeats.snapshots, 0u);  // a plain cell
    const auto& bytes = w.buffer();
    std::uint64_t n_obs = 0;
    const std::size_t start = skip_header(bytes, n_obs);
    const auto mask = random_mask(rng, map.keys().size());
    for (std::size_t size = start; size <= bytes.size(); ++size) {
      const std::string tag = std::string(wide ? "wide" : "narrow") +
                              " cut at " + std::to_string(size);
      const Outcome o =
          expect_same(bytes, size, start, n_obs, map.keys(), {}, tag);
      EXPECT_EQ(o.error.empty(), size == bytes.size()) << tag;
      expect_same(bytes, size, start, n_obs, map.keys(), {mask.data(), false},
                  tag + " masked");
    }
  }
}

/// Hand-built observation bytes, so damage can be placed anywhere.
struct WireObs {
  std::int64_t dt = 1;
  std::uint64_t param = 0;
  double value = 1.0;
  std::int64_t context = -1;
  unsigned param_pad = 0;  ///< redundant continuation bytes on the index
};

std::vector<std::uint8_t> wire(const std::vector<WireObs>& obs) {
  ByteWriter w;
  for (const WireObs& o : obs) {
    w.svarint(o.dt);
    if (o.param_pad == 0) {
      w.varint(o.param);
    } else {  // the same value, padded with 0x80 groups: still legal LEB128
      std::uint64_t v = o.param;
      for (unsigned i = 0; i < o.param_pad; ++i) {
        w.u8(static_cast<std::uint8_t>(v & 0x7F) | 0x80);
        v >>= 7;
      }
      w.varint(v);
    }
    w.f64le(o.value);
    w.svarint(o.context);
  }
  return std::move(w).take();
}

std::vector<config::ParamKey> three_params() {
  return {{spectrum::Rat::kLte, 0}, {spectrum::Rat::kLte, 9},
          {spectrum::Rat::kUmts, 2}};
}

TEST(CellCodecKernel, WideAndPaddedVarintsTakeTheReferenceAndAgree) {
  std::vector<WireObs> obs;
  for (int i = 0; i < 12; ++i) {
    WireObs o;
    o.param = static_cast<std::uint64_t>(i % 3);
    o.value = i * 0.5;
    if (i % 4 == 1) o.dt = std::numeric_limits<std::int64_t>::min();
    if (i % 4 == 2) o.context = std::int64_t{1} << 57;
    if (i % 5 == 3) o.param_pad = 9;  // a 10-byte param index
    if (i % 5 == 4) o.param_pad = 4;
    obs.push_back(o);
  }
  const auto bytes = wire(obs);
  const auto params = three_params();
  const std::vector<char> mask = {1, 0, 1};
  for (const ObservationSelection select :
       {ObservationSelection{}, ObservationSelection{mask.data(), false},
        ObservationSelection{nullptr, true}}) {
    const Outcome o = expect_same(bytes, bytes.size(), 0, obs.size(), params,
                                  select, "wide");
    EXPECT_TRUE(o.error.empty()) << o.error;
    EXPECT_EQ(o.position, bytes.size());
  }
}

TEST(CellCodecKernel, DamageInTheWindowAndInTheTailGivesTheSameError) {
  const auto params = three_params();
  const std::size_t n = 10;
  // Each kind of damage at the first observation (deep inside the kernel's
  // window), in the middle, and at the last (in the reference tail).
  for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
    for (int kind = 0; kind < 5; ++kind) {
      std::vector<WireObs> obs(n);
      for (std::size_t i = 0; i < n; ++i)
        obs[i].param = static_cast<std::uint64_t>(i % 3);
      std::vector<std::uint8_t> bytes;
      switch (kind) {
        case 0: obs[at].param = params.size(); break;
        case 1: obs[at].param = std::uint64_t{1} << 40; break;
        case 2:
          obs[at].value = std::numeric_limits<double>::quiet_NaN();
          break;
        case 3:
          obs[at].value = -std::numeric_limits<double>::infinity();
          break;
        default: break;
      }
      bytes = wire(obs);
      if (kind == 4) {
        // An over-long (11-byte) time delta at observation `at`.
        const std::vector<std::uint8_t> before = wire(
            std::vector<WireObs>(obs.begin(), obs.begin() +
                                                  static_cast<long>(at)));
        std::vector<std::uint8_t> overlong(10, 0xFF);
        overlong.push_back(0x01);
        bytes.insert(bytes.begin() + static_cast<long>(before.size()),
                     overlong.begin(), overlong.end());
      }
      const std::string tag =
          "kind " + std::to_string(kind) + " at " + std::to_string(at);
      for (const ObservationSelection select :
           {ObservationSelection{}, ObservationSelection{nullptr, true}}) {
        const Outcome o =
            expect_same(bytes, bytes.size(), 0, n, params, select, tag);
        EXPECT_FALSE(o.error.empty()) << tag;
      }
    }
  }
}

TEST(CellCodecKernel, EmptyAndZeroObservationInputs) {
  const auto params = three_params();
  const std::vector<std::uint8_t> none;
  const Outcome zero = expect_same(none, 0, 0, 0, params, {}, "zero obs");
  EXPECT_TRUE(zero.error.empty());
  const Outcome missing = expect_same(none, 0, 0, 1, params, {}, "missing");
  EXPECT_FALSE(missing.error.empty());
}

}  // namespace
}  // namespace mmlab::store
