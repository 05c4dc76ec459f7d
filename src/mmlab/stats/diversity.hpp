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

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace mmlab::stats {

class ValueTally;

/// Multiset of observed values for one parameter. Values are exact doubles;
/// configuration parameters are drawn from discrete standardized sets, so no
/// tolerance bucketing is needed.
class ValueCounts {
 public:
  /// `value` must not be NaN: the ordered map cannot place it (a NaN
  /// compares equivalent to every key, so it would be counted under
  /// whichever key the lookup meets).  The CSV loader and the MMDS v2
  /// readers reject non-finite values, so no loaded dataset carries one.
  /// A zero count is a no-op: no value enters the multiset unobserved.
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
  friend class ValueTally;  // builds counts_ in ascending order

  std::map<double, std::size_t> counts_;
  std::size_t total_ = 0;
};

/// The O(1) accumulating form of ValueCounts: an open-addressed table on
/// each value's canonical bit pattern (+0.0 and -0.0 share one entry, which
/// keeps the representation seen first, as the ordered map does).  add()
/// costs O(1) at any cardinality; the ascending ValueCounts is built once,
/// by counts().  Linear probing, 8 entries at the first add, doubled before
/// the table passes half full; 16 bytes per entry, so a tally holds at most
/// 64 bytes per distinct value.  Same NaN precondition as ValueCounts::add.
class ValueTally {
 public:
  void add(double value, std::size_t count = 1) {
    if (count == 0) return;
    std::uint64_t bits = value == 0.0 ? 0 : std::bit_cast<std::uint64_t>(value);
    total_ += count;
    const std::size_t mask = table_.size() - 1;
    if (!table_.empty()) {
      for (std::size_t s = hash(bits); table_[s].count != 0; s = (s + 1) & mask)
        if (table_[s].bits == bits) {
          table_[s].count += count;
          return;
        }
    }
    insert(bits, count, value);
  }

  std::size_t total() const { return total_; }
  std::size_t richness() const { return size_; }
  bool empty() const { return total_ == 0; }
  /// Forget every value, keeping the table's capacity.
  void clear();

  /// ValueCounts::simpson_index, computed from the integer counts.  That is
  /// bit-identical to the ordered sum while every count is at most 2^26 and
  /// the sum of squared counts stays below 2^53 (every partial sum is then
  /// an exact integer in double, in any order); past that it builds
  /// counts() and asks it.
  double simpson_index() const;

  /// The multiset in ValueCounts' ascending form.
  ValueCounts counts() const;

 private:
  struct Entry {
    std::uint64_t bits;   ///< canonical: every zero is +0.0's pattern
    std::uint64_t count;  ///< 0 = empty slot
  };
  std::size_t hash(std::uint64_t bits) const {
    return ((bits ^ (bits >> 32)) * 0x9E3779B97F4A7C15ull) >> shift_;
  }
  void insert(std::uint64_t bits, std::size_t count, double value);

  std::vector<Entry> table_;
  unsigned shift_ = 64;  ///< 64 - log2(table_.size())
  std::size_t size_ = 0;
  std::size_t total_ = 0;
  bool negative_zero_ = false;  ///< the first zero added was -0.0
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
