// Shared plumbing of the three workloads: options, timing, sample
// statistics, output checks and the result record main() prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace mmbench {

/// Every workload drives the libraries with this many threads.
inline constexpr unsigned kThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch space for stores, inside the checkout
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Time one call, in seconds.
template <typename Fn>
double time_call(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// A bag of measurements.  Quantiles interpolate linearly between order
/// statistics (numpy's default); an empty bag reads 0.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  /// The first `n` samples (all of them when there are fewer).
  Samples prefix(std::size_t n) const {
    Samples s;
    s.values_.assign(values_.begin(),
                     values_.begin() + static_cast<long>(
                                           std::min(n, values_.size())));
    return s;
  }
  void merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double max() const;
  double sum() const;

 private:
  std::vector<double> values_;
};

/// Flush dirty pages (untimed), so store files written by one operation are
/// not written back to disk during the next one's timing.
void flush_writes();

/// Process peak resident set size so far, in MB.
double peak_rss_mb();

/// What one workload run produced.  `attempted`/`failed` count operations
/// (a build, a query, a campaign); an operation fails when any of its
/// output checks fails.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics under the names BENCHMARK.json declares.
  std::map<std::string, double> e2e;
  /// Per-layer metrics (traced run only); names the workload does not
  /// exercise are reported as 0 by main().
  std::map<std::string, double> layer;
  /// The workload's own end-to-end figures, printed for people: name ->
  /// (value, unit).
  std::vector<std::pair<std::string, std::pair<double, std::string>>> named;

  /// Count one operation; it fails unless every check passed.
  void operation(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void name(const std::string& n, double value, const std::string& unit) {
    named.push_back({n, {value, unit}});
  }
};

/// Log a failed output check to stderr and return `ok`.
bool check(bool ok, const std::string& what);

/// FNV-1a digest builder for answer-identity checks across repetitions.
class Digest {
 public:
  void bytes(const void* p, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

Report run_crawl_build(const Args& args, Tracer& tracer);
Report run_store_query(const Args& args, Tracer& tracer);
Report run_drive_campaign(const Args& args, Tracer& tracer);

}  // namespace mmbench
