#include "mmlab/stats/diversity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace mmlab::stats {

void ValueCounts::add(double value, std::size_t count) {
  if (count == 0) return;
  counts_[value] += count;
  total_ += count;
}

void ValueCounts::merge(const ValueCounts& other) {
  for (const auto& [value, count] : other.counts_) add(value, count);
}

double ValueCounts::simpson_index() const {
  if (total_ == 0) return 0.0;
  double sum_sq = 0.0;
  const auto n = static_cast<double>(total_);
  for (const auto& [value, count] : counts_) {
    const auto c = static_cast<double>(count);
    sum_sq += c * c;
  }
  return 1.0 - sum_sq / (n * n);
}

double ValueCounts::coefficient_of_variation() const {
  if (total_ == 0) return 0.0;
  double sum = 0.0;
  for (const auto& [value, count] : counts_)
    sum += value * static_cast<double>(count);
  const double m = sum / static_cast<double>(total_);
  double var = 0.0;
  for (const auto& [value, count] : counts_)
    var += (value - m) * (value - m) * static_cast<double>(count);
  var /= static_cast<double>(total_);
  if (var == 0.0) return 0.0;  // single value — no dispersion, mean-zero or not
  if (m == 0.0) return std::numeric_limits<double>::quiet_NaN();
  return std::sqrt(var) / std::abs(m);
}

double ValueCounts::fraction(double value) const {
  if (total_ == 0) return 0.0;
  const auto it = counts_.find(value);
  if (it == counts_.end()) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(total_);
}

double ValueCounts::mode() const {
  if (empty()) throw std::logic_error("ValueCounts::mode: empty");
  double best_value = 0.0;
  std::size_t best_count = 0;
  for (const auto& [value, count] : counts_) {
    if (count > best_count) {
      best_count = count;
      best_value = value;
    }
  }
  return best_value;
}

std::vector<double> ValueCounts::samples() const {
  std::vector<double> out;
  out.reserve(total_);
  for (const auto& [value, count] : counts_)
    out.insert(out.end(), count, value);
  return out;
}

void ValueTally::insert(std::uint64_t bits, std::size_t count, double value) {
  if (2 * (size_ + 1) > table_.size()) {
    std::vector<Entry> old(table_.empty() ? 8 : 2 * table_.size(), {0, 0});
    old.swap(table_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(table_.size()));
    const std::size_t mask = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.count == 0) continue;
      std::size_t s = hash(e.bits);
      while (table_[s].count != 0) s = (s + 1) & mask;
      table_[s] = e;
    }
  }
  const std::size_t mask = table_.size() - 1;
  std::size_t s = hash(bits);
  while (table_[s].count != 0) s = (s + 1) & mask;
  table_[s] = {bits, count};
  if (bits == 0) negative_zero_ = std::signbit(value);
  ++size_;
}

void ValueTally::clear() {
  if (size_ != 0) std::fill(table_.begin(), table_.end(), Entry{0, 0});
  size_ = 0;
  total_ = 0;
  negative_zero_ = false;
}

double ValueTally::simpson_index() const {
  if (total_ == 0) return 0.0;
  constexpr std::uint64_t kExactCount = std::uint64_t{1} << 26;
  constexpr std::uint64_t kExactSum = std::uint64_t{1} << 53;
  std::uint64_t sum_sq = 0;
  for (const Entry& e : table_) {
    if (e.count == 0) continue;
    if (e.count > kExactCount) return counts().simpson_index();
    sum_sq += e.count * e.count;
    if (sum_sq >= kExactSum) return counts().simpson_index();
  }
  const auto n = static_cast<double>(total_);
  return 1.0 - static_cast<double>(sum_sq) / (n * n);
}

ValueCounts ValueTally::counts() const {
  std::vector<std::pair<double, std::size_t>> entries;
  entries.reserve(size_);
  for (const Entry& e : table_) {
    if (e.count == 0) continue;
    double value = std::bit_cast<double>(e.bits);
    if (e.bits == 0 && negative_zero_) value = -0.0;
    entries.emplace_back(value, static_cast<std::size_t>(e.count));
  }
  std::sort(entries.begin(), entries.end());
  ValueCounts out;
  for (const auto& [value, count] : entries)
    out.counts_.emplace_hint(out.counts_.end(), value, count);
  out.total_ = total_;
  return out;
}

DiversityMeasures measure_diversity(const ValueCounts& vc) {
  return DiversityMeasures{vc.simpson_index(), vc.coefficient_of_variation(),
                           vc.richness()};
}

double dependence_measure(const std::map<long, ValueCounts>& groups,
                          DiversityMetric metric) {
  ValueCounts pooled;
  std::size_t total = 0;
  for (const auto& [factor, vc] : groups) {
    for (const auto& [value, count] : vc.counts()) pooled.add(value, count);
    total += vc.total();
  }
  if (total == 0) return 0.0;
  const double pooled_measure = metric == DiversityMetric::kSimpson
                                    ? pooled.simpson_index()
                                    : pooled.coefficient_of_variation();
  if (!std::isfinite(pooled_measure))
    return std::numeric_limits<double>::quiet_NaN();
  double acc = 0.0;
  for (const auto& [factor, vc] : groups) {
    if (vc.empty()) continue;
    const double group_measure = metric == DiversityMetric::kSimpson
                                     ? vc.simpson_index()
                                     : vc.coefficient_of_variation();
    // Groups where the measure is undefined (zero-mean Cv) carry no signal
    // about the factor; skip them rather than poisoning the expectation.
    if (!std::isfinite(group_measure)) continue;
    const double weight =
        static_cast<double>(vc.total()) / static_cast<double>(total);
    acc += weight * std::abs(group_measure - pooled_measure);
  }
  return acc;
}

}  // namespace mmlab::stats
