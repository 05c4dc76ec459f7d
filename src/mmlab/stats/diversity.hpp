// The paper's configuration-diversity toolkit (§5.2, Eq. 4 and Eq. 5).
//
// Three measures characterize how diverse a parameter's values are across
// cells:
//   * richness            — number of unique values observed,
//   * Simpson index D     — 1 - sum(n_i^2)/N^2, diversity of the distribution,
//   * coefficient of var. — sqrt(Var[X]) / |E[X]|, dispersion over the range,
// plus the dependence measure zeta (Eq. 5) that quantifies how much a factor
// (frequency, city, neighborhood) explains a parameter's diversity:
//   zeta_{M,theta|F} = E[ |M(theta | F = F_j) - M(theta)| ].
#pragma once

#include <cstddef>
#include <map>
#include <vector>

namespace mmlab::stats {

/// Multiset of observed values for one parameter. Values are exact doubles;
/// configuration parameters are drawn from discrete standardized sets, so no
/// tolerance bucketing is needed.
class ValueCounts {
 public:
  /// `value` must not be NaN: the ordered map cannot place it (a NaN
  /// compares equivalent to every key, so it would be counted under
  /// whichever key the lookup meets).  The CSV loader and the MMDS v2
  /// readers reject non-finite values, so no loaded dataset carries one.
  void add(double value, std::size_t count = 1);

  /// Absorb another multiset (parallel scan partials merging in partition
  /// order). Equivalent to add()-ing every (value, count) of `other`.
  void merge(const ValueCounts& other);

  bool operator==(const ValueCounts&) const = default;

  std::size_t total() const { return total_; }
  std::size_t richness() const { return counts_.size(); }
  bool empty() const { return total_ == 0; }

  /// Simpson index of diversity, Eq. 4 left. 0 = single value, ->1 = even
  /// spread over many values. Empty input returns 0.
  double simpson_index() const;

  /// Coefficient of variation, Eq. 4 right.  A single repeated value (zero
  /// variance) returns 0 even when that value is 0; dispersed data with an
  /// exactly-zero mean (e.g. signed offsets straddling 0) is *undefined* and
  /// returns quiet NaN — callers must skip or propagate it, never read it as
  /// "perfectly uniform".  Empty input returns 0.
  double coefficient_of_variation() const;

  /// (value, count) pairs in increasing value order.
  const std::map<double, std::size_t>& counts() const { return counts_; }

  /// Fraction of observations equal to `value`.
  double fraction(double value) const;

  /// The value with the highest count. Requires non-empty.
  double mode() const;

  /// Expand back to a flat sample vector (for CDFs / boxplots).
  std::vector<double> samples() const;

 private:
  std::map<double, std::size_t> counts_;
  std::size_t total_ = 0;
};

/// The triple reported per parameter in Fig 16.
struct DiversityMeasures {
  double simpson = 0.0;
  double cv = 0.0;
  std::size_t richness = 0;

  bool operator==(const DiversityMeasures&) const = default;
};

DiversityMeasures measure_diversity(const ValueCounts& vc);

/// Which diversity measure zeta conditions on.
enum class DiversityMetric { kSimpson, kCv };

/// Eq. 5: mean absolute deviation of the per-group measure from the pooled
/// measure, weighted by group size (expectation over observations).
/// `groups` maps factor value -> observations of the parameter within that
/// factor level. Returns 0 for empty input.  Under kCv, groups whose Cv is
/// undefined (NaN) are skipped; an undefined pooled Cv makes the whole
/// measure NaN.
double dependence_measure(const std::map<long, ValueCounts>& groups,
                          DiversityMetric metric);

}  // namespace mmlab::stats
