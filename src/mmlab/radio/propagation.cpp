#include "mmlab/radio/propagation.hpp"

#include <algorithm>
#include <cmath>

#include "mmlab/util/rng.hpp"

namespace mmlab::radio {

double fspl_db(double freq_mhz, double distance_m) {
  const double d_km = std::max(distance_m, 1.0) / 1000.0;
  return 32.45 + 20.0 * std::log10(freq_mhz) + 20.0 * std::log10(d_km);
}

double PathLossModel::loss_db(double freq_mhz, double distance_m) const {
  return loss_db_from_ref(fspl_db(freq_mhz, ref_distance_m), distance_m);
}

double PathLossModel::loss_db_from_ref(double ref_loss_db,
                                       double distance_m) const {
  const double d = std::max(distance_m, 1.0);
  return ref_loss_db +
         10.0 * exponent * std::log10(std::max(d / ref_distance_m, 1.0));
}

ShadowingField::ShadowingField(std::uint64_t seed, double sigma_db,
                               double corr_distance_m)
    : seed_(seed), sigma_db_(sigma_db), pitch_m_(corr_distance_m) {}

std::uint64_t ShadowingField::cell_key(std::uint32_t cell_id) const {
  std::uint64_t h = seed_;
  h ^= (static_cast<std::uint64_t>(cell_id) + 0x9e3779b97f4a7c15ULL) +
       (h << 6) + (h >> 2);
  return h;
}

double ShadowingField::lattice_gauss_keyed(std::uint64_t key, std::int64_t ix,
                                           std::int64_t iy) const {
  // Hash (cell key, lattice point) into two uniforms -> Box-Muller.
  std::uint64_t s = key;
  s ^= static_cast<std::uint64_t>(ix) * 0xff51afd7ed558ccdULL;
  s ^= static_cast<std::uint64_t>(iy) * 0xc4ceb9fe1a85ec53ULL;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  const double u1 =
      (static_cast<double>(a >> 11) + 0.5) * 0x1.0p-53;  // (0,1)
  const double u2 = static_cast<double>(b >> 11) * 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double ShadowingField::lattice_gauss_reference(std::uint32_t cell_id,
                                               std::int64_t ix,
                                               std::int64_t iy) const {
  // Hash (seed, cell, lattice point) into two uniforms -> Box-Muller.
  std::uint64_t h = seed_;
  h ^= (static_cast<std::uint64_t>(cell_id) + 0x9e3779b97f4a7c15ULL) +
       (h << 6) + (h >> 2);
  std::uint64_t s = h;
  s ^= static_cast<std::uint64_t>(ix) * 0xff51afd7ed558ccdULL;
  s ^= static_cast<std::uint64_t>(iy) * 0xc4ceb9fe1a85ec53ULL;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  const double u1 =
      (static_cast<double>(a >> 11) + 0.5) * 0x1.0p-53;  // (0,1)
  const double u2 = static_cast<double>(b >> 11) * 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double ShadowingField::interpolate(const double (&v)[2][2], double tx,
                                   double ty) const {
  const double v0 = v[0][0] * (1.0 - tx) + v[1][0] * tx;
  const double v1 = v[0][1] * (1.0 - tx) + v[1][1] * tx;
  // Bilinear interpolation shrinks the variance between lattice points;
  // renormalizing by the interpolation-weight norm keeps sigma constant.
  const double w00 = (1.0 - tx) * (1.0 - ty), w10 = tx * (1.0 - ty);
  const double w01 = (1.0 - tx) * ty, w11 = tx * ty;
  const double norm =
      std::sqrt(w00 * w00 + w10 * w10 + w01 * w01 + w11 * w11);
  const double val = v0 * (1.0 - ty) + v1 * ty;
  return sigma_db_ * val / std::max(norm, 1e-9);
}

double ShadowingField::sample_db(std::uint32_t cell_id, geo::Point p) const {
  Corners memo;
  return sample_db(cell_id, p, memo);
}

double ShadowingField::sample_db(std::uint32_t cell_id, geo::Point p,
                                 Corners& memo) const {
  const double fx = p.x / pitch_m_;
  const double fy = p.y / pitch_m_;
  const auto ix = static_cast<std::int64_t>(std::floor(fx));
  const auto iy = static_cast<std::int64_t>(std::floor(fy));
  if (!memo.valid || memo.cell_id != cell_id || memo.ix != ix ||
      memo.iy != iy) {
    // Corner (ix+dx, iy+dy) is old corner (ox, oy) when both offsets are 0
    // or 1; the rest are hashed.
    const bool reuse = memo.valid && memo.cell_id == cell_id;
    const std::uint64_t key = cell_key(cell_id);
    double v[2][2];
    for (int dx = 0; dx < 2; ++dx) {
      for (int dy = 0; dy < 2; ++dy) {
        const std::int64_t cx = ix + dx, cy = iy + dy;
        const bool shared = reuse && (cx == memo.ix || cx == memo.ix + 1) &&
                            (cy == memo.iy || cy == memo.iy + 1);
        v[dx][dy] = shared ? memo.v[cx - memo.ix][cy - memo.iy]
                           : lattice_gauss_keyed(key, cx, cy);
      }
    }
    memo.valid = true;
    memo.cell_id = cell_id;
    memo.ix = ix;
    memo.iy = iy;
    for (int dx = 0; dx < 2; ++dx)
      for (int dy = 0; dy < 2; ++dy) memo.v[dx][dy] = v[dx][dy];
  }
  return interpolate(memo.v, fx - static_cast<double>(ix),
                     fy - static_cast<double>(iy));
}

double ShadowingField::sample_db_reference(std::uint32_t cell_id,
                                           geo::Point p) const {
  const double fx = p.x / pitch_m_;
  const double fy = p.y / pitch_m_;
  const auto ix = static_cast<std::int64_t>(std::floor(fx));
  const auto iy = static_cast<std::int64_t>(std::floor(fy));
  const double tx = fx - static_cast<double>(ix);
  const double ty = fy - static_cast<double>(iy);
  const double v00 = lattice_gauss_reference(cell_id, ix, iy);
  const double v10 = lattice_gauss_reference(cell_id, ix + 1, iy);
  const double v01 = lattice_gauss_reference(cell_id, ix, iy + 1);
  const double v11 = lattice_gauss_reference(cell_id, ix + 1, iy + 1);
  const double v0 = v00 * (1.0 - tx) + v10 * tx;
  const double v1 = v01 * (1.0 - tx) + v11 * tx;
  // Bilinear interpolation shrinks the variance between lattice points;
  // renormalizing by the interpolation-weight norm keeps sigma constant.
  const double w00 = (1.0 - tx) * (1.0 - ty), w10 = tx * (1.0 - ty);
  const double w01 = (1.0 - tx) * ty, w11 = tx * ty;
  const double norm =
      std::sqrt(w00 * w00 + w10 * w10 + w01 * w01 + w11 * w11);
  const double v = v0 * (1.0 - ty) + v1 * ty;
  return sigma_db_ * v / std::max(norm, 1e-9);
}

}  // namespace mmlab::radio
