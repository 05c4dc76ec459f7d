// In-memory span recorder for the traced benchmark run.
//
// Every span wraps one call from the benchmark into a layer's public API.
// A span records its name ("<layer>.<call>"), start and end (seconds since
// the tracer was created), its parent span and the run it belongs to.
// Spans stay in memory until write_json() dumps them at exit.  A disabled
// tracer records nothing, so untraced passes pay one branch per call.
//
// The benchmark drives every layer from one thread, so spans nest strictly
// and need no locking.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mmbench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index into Tracer::spans(); -1 for a root span
  int run = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Pause or resume recording (the untraced pass of a traced run).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Spans opened from now on carry this run id.
  void set_run(int run) { run_ = run; }

  /// Open a span under the innermost open span; -1 when disabled.
  int begin(std::string name);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// A span's duration minus the part of it covered by its child spans.
  double self_seconds(std::size_t index) const;
  /// Self time summed per layer (the span name up to its first '.'),
  /// over the spans of `run`.
  std::map<std::string, double> layer_self_seconds(int run) const;

  /// Write {"stamp", "runs", "spans"} to `path`; false on I/O failure.
  bool write_json(const std::string& path, const std::string& stamp,
                  const std::map<int, std::string>& run_names) const;

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  bool enabled_;
  int run_ = 0;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens in the constructor, closes in the destructor.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Run `fn` inside a span named `name` and return its result.
template <typename Fn>
decltype(auto) traced(Tracer& tracer, const char* name, Fn&& fn) {
  ScopedSpan span(tracer, name);
  return fn();
}

}  // namespace mmbench
