// netgen::stream_world against references that do not share its loop: a
// replay of every visit from generate_world plus apply_config_update, a
// digest of the MMDS v2 bytes a chunked StreamingDatasetSink writes from
// it, and the sink contract (one thread, the caller's; a throwing sink
// ends the stream cleanly).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mmlab/netgen/generator.hpp"
#include "mmlab/netgen/streamgen.hpp"
#include "mmlab/store/shard_writer.hpp"
#include "mmlab/util/rng.hpp"

namespace mmlab::netgen {
namespace {

namespace fs = std::filesystem;

struct Snap {
  std::string carrier;
  net::CellId id = 0;
  spectrum::Rat rat = spectrum::Rat::kLte;
  std::uint32_t channel = 0;
  geo::Point position;
  SimTime t;
  std::vector<config::ParamObservation> params;
};

class Recorder final : public SnapshotSink {
 public:
  std::vector<Snap> snaps;
  void snapshot(const std::string& carrier, net::CellId cell_id,
                spectrum::Rat rat, std::uint32_t channel, geo::Point position,
                SimTime t,
                const std::vector<config::ParamObservation>& params) override {
    snaps.push_back({carrier, cell_id, rat, channel, position, t, params});
  }
};

/// The generator's per-cell visit stream (streamgen.hpp: visit times draw
/// from a stream keyed by seed and cell id alone), rebuilt here so the
/// replay does not take its days from the code under test.
std::vector<double> visit_days(const StreamWorldOptions& options,
                               net::CellId id) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t k : {options.seed, std::uint64_t{0x51c17},
                                std::uint64_t{id}}) {
    state ^= k + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2);
    state = splitmix64(state);
  }
  Rng rng(state);
  std::vector<double> days;
  for (int v = 0; v < std::max(1, options.visits_per_cell); ++v)
    days.push_back(rng.uniform(0.0, options.window_days));
  std::sort(days.begin(), days.end());
  return days;
}

struct Replay {
  std::vector<Snap> snaps;
  /// Per snapshot: whether it needs a fresh extraction.
  std::vector<bool> fresh;
  std::uint64_t updates_applied = 0;
  /// Visits that need a fresh extraction: a cell's first visit and every
  /// visit that follows at least one applied update.
  std::uint64_t extractions = 0;
};

/// Every visit rebuilt from generate_world: apply the cell's scheduled
/// updates up to each visit day, then extract the parameters afresh.
Replay replay(const StreamWorldOptions& options) {
  WorldOptions wopts;
  wopts.seed = options.seed;
  wopts.scale = options.scale;
  wopts.window_days = options.window_days;
  auto world = generate_world(wopts);

  Replay out;
  for (std::size_t i = 0; i < world.network.cells().size(); ++i) {
    const net::Cell& cell = world.network.cells()[i];
    const auto& carriers = world.network.carriers();
    const std::string& carrier =
        carriers[world.network.carrier_position(cell.carrier)].name;
    const auto& schedule = world.update_schedule[i];
    std::size_t next = 0;
    bool fresh = true;
    for (const double day : visit_days(options, cell.id)) {
      for (; next < schedule.size() && schedule[next].day <= day; ++next) {
        if (!cell.is_lte()) continue;
        apply_config_update(world, i, schedule[next]);
        ++out.updates_applied;
        fresh = true;
      }
      out.extractions += fresh ? 1 : 0;
      out.fresh.push_back(fresh);
      fresh = false;
      out.snaps.push_back(
          {carrier, cell.id, cell.channel.rat, cell.channel.number,
           cell.position, SimTime::from_days(day),
           cell.is_lte() ? config::extract_parameters(cell.lte_config)
                         : config::extract_parameters(cell.legacy_config)});
    }
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(StreamGen, EveryVisitMatchesReplay) {
  for (const int visits : {1, 8}) {
    SCOPED_TRACE("visits " + std::to_string(visits));
    StreamWorldOptions gopts;
    gopts.seed = 23;
    gopts.scale = 0.02;
    gopts.visits_per_cell = visits;
    Recorder rec;
    const auto stats = stream_world(gopts, rec);
    const auto ref = replay(gopts);

    ASSERT_EQ(rec.snaps.size(), ref.snaps.size());
    EXPECT_EQ(stats.snapshots, ref.snaps.size());
    EXPECT_EQ(stats.updates_applied, ref.updates_applied);
    EXPECT_EQ(stats.reused_visits, stats.snapshots - ref.extractions);
    if (visits > 1) {
      EXPECT_GT(ref.updates_applied, 0u);
      EXPECT_GT(stats.reused_visits, stats.snapshots / 2);
    }
    std::uint64_t rows = 0;
    for (std::size_t s = 0; s < ref.snaps.size(); ++s) {
      const Snap& got = rec.snaps[s];
      const Snap& want = ref.snaps[s];
      ASSERT_EQ(got.carrier, want.carrier) << "snapshot " << s;
      ASSERT_EQ(got.id, want.id) << "snapshot " << s;
      ASSERT_EQ(got.rat, want.rat) << "snapshot " << s;
      ASSERT_EQ(got.channel, want.channel) << "snapshot " << s;
      ASSERT_TRUE(same_bits(got.position.x, want.position.x)) << s;
      ASSERT_TRUE(same_bits(got.position.y, want.position.y)) << s;
      ASSERT_EQ(got.t, want.t) << "snapshot " << s;
      ASSERT_EQ(got.params.size(), want.params.size()) << "snapshot " << s;
      for (std::size_t p = 0; p < want.params.size(); ++p) {
        ASSERT_EQ(got.params[p].key, want.params[p].key) << s << "/" << p;
        ASSERT_TRUE(same_bits(got.params[p].value, want.params[p].value))
            << s << "/" << p;
        ASSERT_EQ(got.params[p].context, want.params[p].context)
            << s << "/" << p;
      }
      rows += want.params.size();
    }
    EXPECT_EQ(stats.rows, rows);
  }
}

/// FNV-1a over every file of a store directory, in name order.
std::uint64_t digest_dir(const std::string& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir))
    files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  for (const auto& path : files) {
    for (const char c : path.filename().string())
      mix(static_cast<unsigned char>(c));
    std::ifstream in(path, std::ios::binary);
    for (auto it = std::istreambuf_iterator<char>(in);
         it != std::istreambuf_iterator<char>(); ++it)
      mix(static_cast<unsigned char>(*it));
  }
  return h;
}

TEST(StreamGen, StoreBytesArePinned) {
  // stream_world -> StreamingDatasetSink with a small chunk, so the store
  // is many spills; its bytes are fixed, whatever the generator's inner
  // schedule.
  const std::string dir =
      (fs::path(::testing::TempDir()) / "mmlab_streamgen_pinned").string();
  fs::remove_all(dir);
  store::WriteStats wstats;
  StreamStats gstats;
  {
    store::WriterOptions wopts;
    wopts.threads = 2;
    wopts.target_block_bytes = 64u << 10;
    wopts.target_shard_bytes = 1u << 20;
    store::ShardWriter writer(dir, wopts);
    store::StreamingDatasetSink sink(writer, 50'000);
    class Forward final : public SnapshotSink {
     public:
      explicit Forward(store::StreamingDatasetSink& s) : s_(s) {}
      void snapshot(const std::string& carrier, net::CellId cell_id,
                    spectrum::Rat rat, std::uint32_t channel,
                    geo::Point position, SimTime t,
                    const std::vector<config::ParamObservation>& params)
          override {
        s_.snapshot(carrier, cell_id, rat, channel, position, t, params);
      }

     private:
      store::StreamingDatasetSink& s_;
    } forward(sink);
    StreamWorldOptions gopts;
    gopts.seed = 42;
    gopts.scale = 0.05;
    gopts.visits_per_cell = 8;
    gstats = stream_world(gopts, forward);
    wstats = sink.finish();
  }
  EXPECT_EQ(wstats.rows, gstats.rows);
  EXPECT_GT(gstats.rows, 8u * 50'000);  // several spills
  EXPECT_EQ(digest_dir(dir), 0xe6bdb4675372f897ULL);
  fs::remove_all(dir);
}

/// Ends the process if the guarded scope outlives `limit`: a stream_world
/// that hangs on a failing sink would otherwise hang the whole test run.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock lock(mutex_);
          if (!done_cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fputs("stream_world hung\n", stderr);
            std::_Exit(1);
          }
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    done_cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Throws at its k-th call (1-based) and records every call's thread.
class FailingSink final : public SnapshotSink {
 public:
  explicit FailingSink(std::uint64_t fail_at) : fail_at_(fail_at) {}
  std::uint64_t calls = 0;
  std::vector<std::thread::id> threads;
  void snapshot(const std::string&, net::CellId, spectrum::Rat, std::uint32_t,
                geo::Point, SimTime,
                const std::vector<config::ParamObservation>&) override {
    threads.push_back(std::this_thread::get_id());
    if (++calls == fail_at_) throw std::runtime_error("sink full");
  }

 private:
  std::uint64_t fail_at_;
};

TEST(StreamGen, SinkRunsOnTheCallingThread) {
  StreamWorldOptions gopts;
  gopts.seed = 3;
  gopts.scale = 0.02;
  gopts.visits_per_cell = 4;
  FailingSink sink(0);
  const auto stats = stream_world(gopts, sink);
  ASSERT_EQ(sink.calls, stats.snapshots);
  const auto self = std::this_thread::get_id();
  EXPECT_TRUE(std::all_of(sink.threads.begin(), sink.threads.end(),
                          [&](std::thread::id id) { return id == self; }));
}

TEST(StreamGen, ThrowingSinkEndsTheStream) {
  StreamWorldOptions gopts;
  gopts.seed = 3;
  gopts.scale = 0.05;
  gopts.visits_per_cell = 8;

  // Snapshot counts at which the hand-off fills: the generator closes a
  // batch after the cell that brings it to kStreamBatchRows held entries
  // (extracted rows plus visits).
  const auto ref = replay(gopts);
  const std::uint64_t total = ref.snaps.size();
  std::vector<std::uint64_t> batch_ends;
  std::size_t held = 0;
  for (std::size_t s = 0; s < ref.snaps.size(); ++s) {
    held += 1 + (ref.fresh[s] ? ref.snaps[s].params.size() : 0);
    const bool cell_end = s + 1 == ref.snaps.size() ||
                          ref.snaps[s + 1].id != ref.snaps[s].id;
    if (cell_end && held >= kStreamBatchRows) {
      batch_ends.push_back(s + 1);
      held = 0;
    }
  }
  ASSERT_GT(batch_ends.size(), kStreamRingBatches) << "world too small";
  const std::uint64_t first_batch = batch_ends.front();
  const std::uint64_t ring_full = batch_ends[kStreamRingBatches - 1];

  for (const std::uint64_t k :
       {std::uint64_t{1}, first_batch / 2, first_batch, first_batch + 1,
        ring_full - 1, ring_full, ring_full + 1, total - 1, total}) {
    SCOPED_TRACE("throw at snapshot " + std::to_string(k));
    FailingSink sink(k);
    Watchdog watchdog(std::chrono::seconds(120));
    EXPECT_THROW(stream_world(gopts, sink), std::runtime_error);
    EXPECT_EQ(sink.calls, k);
    const auto self = std::this_thread::get_id();
    EXPECT_TRUE(std::all_of(sink.threads.begin(), sink.threads.end(),
                            [&](std::thread::id id) { return id == self; }));
  }
}

}  // namespace
}  // namespace mmlab::netgen
