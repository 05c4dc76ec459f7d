// Radio propagation: log-distance path loss plus a deterministic spatially
// correlated shadowing field.
//
// The study's performance findings hinge on *when* along a drive the serving
// signal decays past configured thresholds, so the channel model needs (a) a
// distance law with a frequency-dependent intercept (low bands carry
// farther — relevant to the band-priority analyses) and (b) shadowing that
// is correlated over ~50 m (Gudmundson) so event entry conditions persist
// long enough to beat time-to-trigger, as they do in reality.
//
// The shadowing field is a function of position, not of visit order: lattice
// Gaussian noise hashed from (seed, cell, lattice point), bilinearly
// interpolated.  Deterministic in space means a drive can be re-simulated or
// two UEs can pass the same spot and see consistent radio.
#pragma once

#include <cstdint>

#include "mmlab/geo/geometry.hpp"
#include "mmlab/util/units.hpp"

namespace mmlab::radio {

/// Log-distance path loss parameters.
struct PathLossModel {
  double exponent = 3.5;        ///< n (urban macro ~3.5, highway ~2.9)
  double ref_distance_m = 100;  ///< d0

  /// PL(d) = FSPL(d0, f) + 10 n log10(d/d0), d clamped to >= 1 m.
  double loss_db(double freq_mhz, double distance_m) const;

  /// loss_db with the intercept FSPL(d0, f) already in hand (a per-cell
  /// constant); bit-equal to loss_db(f, d) when `ref_loss_db` is
  /// fspl_db(f, ref_distance_m).
  double loss_db_from_ref(double ref_loss_db, double distance_m) const;
};

/// Free-space path loss at distance d0 (meters), frequency f (MHz).
double fspl_db(double freq_mhz, double distance_m);

/// Deterministic correlated lognormal shadowing field.
class ShadowingField {
 public:
  ShadowingField(std::uint64_t seed, double sigma_db, double corr_distance_m);

  /// The four lattice values around the last position sampled for one cell.
  /// Owned by the caller (one per cell it keeps sampling); the field itself
  /// stays pure.  A mobile moving ~1 m per sample stays dozens of samples in
  /// one lattice cell, and a step into a neighbouring lattice cell keeps the
  /// corners the two cells share, so most samples hash no corner at all.
  struct Corners {
    bool valid = false;
    std::uint32_t cell_id = 0;
    std::int64_t ix = 0, iy = 0;
    double v[2][2] = {};  ///< v[dx][dy] = lattice value at (ix+dx, iy+dy)
  };

  /// Shadowing (dB, zero mean) seen from cell `cell_id` at position `p`.
  double sample_db(std::uint32_t cell_id, geo::Point p) const;

  /// Same value, bit for bit, reusing the corners in `memo` where they
  /// match and leaving the corners of `p` in it.  A memo filled for another
  /// cell id is refilled; one memo must not be shared between fields.
  double sample_db(std::uint32_t cell_id, geo::Point p, Corners& memo) const;

  /// The textbook evaluation: hash all four corners on every call.  The
  /// test oracle for both sample_db overloads.
  double sample_db_reference(std::uint32_t cell_id, geo::Point p) const;

  /// Unit-variance Gaussian at lattice point (ix, iy) of cell `cell_id`.
  double lattice_gauss(std::uint32_t cell_id, std::int64_t ix,
                       std::int64_t iy) const {
    return lattice_gauss_keyed(cell_key(cell_id), ix, iy);
  }
  /// The original one-piece hash; the oracle for lattice_gauss.
  double lattice_gauss_reference(std::uint32_t cell_id, std::int64_t ix,
                                 std::int64_t iy) const;

  double sigma_db() const { return sigma_db_; }

 private:
  /// The (seed, cell) half of the corner hash.
  std::uint64_t cell_key(std::uint32_t cell_id) const;
  double lattice_gauss_keyed(std::uint64_t key, std::int64_t ix,
                             std::int64_t iy) const;
  /// Bilinear interpolation of the corners at fractional offsets (tx, ty),
  /// renormalized to sigma.
  double interpolate(const double (&v)[2][2], double tx, double ty) const;

  std::uint64_t seed_;
  double sigma_db_;
  double pitch_m_;
};

/// Thermal noise per LTE resource element (15 kHz) incl. 7 dB UE noise
/// figure: -174 dBm/Hz + 10 log10(15000) + 7 = -125.24 dBm.
constexpr double kNoisePerReDbm = -125.24;

}  // namespace mmlab::radio
