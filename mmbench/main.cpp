// mmbench: the end-to-end MMLab benchmark program (see README.md).
//
//   mmbench --workload crawl_build|store_query|drive_campaign --seed N
//           --seconds S --trace 0|1 --work-dir DIR
//
// Prints a stamp line, the workload's own figures, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones, and the spans are written to DIR/spans-<workload>-<seed>.json.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>

#include "bench.hpp"

namespace mmbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Samples::max() const {
  double m = 0.0;
  for (const double v : values_) m = std::max(m, v);
  return m;
}

double Samples::sum() const {
  double s = 0.0;
  for (const double v : values_) s += v;
  return s;
}

void flush_writes() { ::sync(); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool check(bool ok, const std::string& what) {
  if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  return ok;
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ULL;
  }
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"wall_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.crawl_s", "s"},
    {"sim.camps", "count"},
    {"diag.parse_s", "s"},
    {"diag.frames", "count"},
    {"rrc.decode_s", "s"},
    {"rrc.messages", "count"},
    {"core.extract_s", "s"},
    {"core.merge_s", "s"},
    {"core.extract_self_s", "s"},
    {"store.write_s", "s"},
    {"store.blocks", "count"},
    {"store.open_s", "s"},
    {"store.plan_s", "s"},
    {"store.plan.skip_ratio", "ratio"},
    {"store.fold_s", "s"},
    {"store.fold.read_ratio", "ratio"},
    {"store.fold.crc_s", "s"},
    {"store.fold.peak_resident_blocks", "count"},
    {"store.fold.straggler_ratio", "ratio"},
    {"store.analytics_self_s", "s"},
    {"store.query.mix_all_p50_ms", "ms"},
    {"store.query.carrier_mix_p50_ms", "ms"},
    {"store.query.carrier_mix_p95_ms", "ms"},
    {"store.query.param_values_p50_ms", "ms"},
    {"store.query.param_values_p95_ms", "ms"},
    {"sim.drive_p50_s", "s"},
    {"sim.drive_max_s", "s"},
    {"sim.handoffs", "count"},
    {"sim.crawl.speedup_4v1", "ratio"},
    {"core.extract.speedup_4v1", "ratio"},
    {"store.fold.speedup_4v1", "ratio"},
    {"sim.campaign.speedup_4v1", "ratio"},
    {"netgen.self_s", "s"},
    {"sim.self_s", "s"},
    {"diag.self_s", "s"},
    {"rrc.self_s", "s"},
    {"core.self_s", "s"},
    {"store.self_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--work-dir") {
      args.work_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
         !args.work_dir.empty();
}

}  // namespace
}  // namespace mmbench

int main(int argc, char** argv) {
  using namespace mmbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: mmbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  // Numbers from unoptimized builds are not comparable; refuse them, as
  // scripts/run_perf.sh refuses to record them.
  const std::string build_type = MMBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "error: mmbench needs a Release build (got '%s')\n",
                 build_type.c_str());
    return 1;
  }
  std::printf("mmbench: workload=%s seed=%llu seconds=%.0f trace=%d nproc=%u "
              "build=%s compiler=\"%s\" threads=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), build_type.c_str(),
              MMBENCH_COMPILER, kThreads);

  Tracer tracer(args.trace);
  Report report;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "crawl_build") {
      report = run_crawl_build(args, tracer);
    } else if (args.workload == "store_query") {
      report = run_store_query(args, tracer);
    } else if (args.workload == "drive_campaign") {
      report = run_drive_campaign(args, tracer);
    } else {
      std::fprintf(stderr, "error: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "error: no operation ran\n");
    return 1;
  }

  for (const auto& [name, vu] : report.named)
    std::printf("  %-34s %14.4f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  for (const auto& def : kPerLayer) {
    const auto it = report.layer.find(def.name);
    if (it != report.layer.end())
      std::printf("  %-34s %14.6g %s\n", def.name, it->second, def.unit);
  }

  if (args.trace) {
    const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    const std::string stamp =
        "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
        " build=" + build_type + " compiler=" + MMBENCH_COMPILER;
    if (!tracer.write_json(path, stamp,
                           {{0, "setup"},
                            {1, "untraced"},
                            {2, "traced"},
                            {3, "decomposition"},
                            {4, "threads=1"}})) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                path.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  const char* sep = "";
  auto emit = [&](const MetricDef& def, double value) {
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g",
                  std::numeric_limits<double>::max_digits10, value);
    json += sep;
    json += "\"" + std::string(def.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + def.unit + "\"}";
    sep = ", ";
  };
  if (args.trace) {
    for (const auto& def : kPerLayer) {
      const auto it = report.layer.find(def.name);
      emit(def, it == report.layer.end() ? 0.0 : it->second);
    }
  } else {
    for (const auto& def : kEndToEnd) {
      const auto it = report.e2e.find(def.name);
      if (it == report.e2e.end()) {
        std::fprintf(stderr, "error: workload did not report %s\n", def.name);
        return 1;
      }
      emit(def, it->second);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
