#include "mmlab/ingest/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mmlab/core/extractor.hpp"
#include "mmlab/diag/log.hpp"
#include "mmlab/ingest/bounded_queue.hpp"
#include "mmlab/ingest/replay.hpp"
#include "mmlab/netgen/generator.hpp"
#include "mmlab/rrc/codec.hpp"
#include "mmlab/sim/crawl.hpp"
#include "mmlab/sim/fleet.hpp"

namespace mmlab::ingest {
namespace {

// --- BoundedQueue ------------------------------------------------------------

TEST(BoundedQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>(0), std::invalid_argument);
}

TEST(BoundedQueue, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.high_water(), 3u);
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 3);
  EXPECT_EQ(q.producer_stall_seconds(), 0.0);  // never blocked
}

TEST(BoundedQueue, PushBlocksWhenFullAndRecordsStall) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  EXPECT_EQ(q.high_water(), q.capacity());

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(3));  // full: must block until a pop frees a slot
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());  // still blocked — backpressure works

  int v = 0;
  EXPECT_TRUE(q.pop(v));
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_GT(q.producer_stall_seconds(), 0.0);
  EXPECT_EQ(q.high_water(), q.capacity());  // bounded: never beyond capacity
}

TEST(BoundedQueue, CloseDrainsThenStops) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // closed intake
  int v = 0;
  EXPECT_TRUE(q.pop(v));  // queued items still drain
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.pop(v));  // closed + empty
}

TEST(BoundedQueue, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.push(2));  // blocked-then-closed: rejected, not stuck
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  EXPECT_TRUE(returned.load());
}

TEST(BoundedQueue, PushRacingCloseNeverLosesAdmittedItems) {
  // N producers hammer push() while close() lands mid-race: every push that
  // returned true must come out of the drain, every false one must not, and
  // the total must add up — no item admitted-then-lost or rejected-then-seen.
  BoundedQueue<int> q(8);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::atomic<int> admitted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  std::atomic<int> drained{0};
  std::thread consumer([&] {
    int v = 0;
    while (q.pop(v)) drained.fetch_add(1);
  });
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (q.push(p * kPerProducer + i))
          admitted.fetch_add(1);
        else
          rejected.fetch_add(1);
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.close();
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(admitted.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_EQ(drained.load(), admitted.load());
  EXPECT_LE(q.high_water(), q.capacity());
}

TEST(BoundedQueue, HighWaterAndStallAccountingUnderContention) {
  // Two producers against one slow consumer on a tiny queue: the high-water
  // mark must saturate at capacity (never beyond), and the cumulative stall
  // clock must tick — both gauges are read concurrently while the race runs
  // (the TSan job checks the locking of the gauges themselves).
  BoundedQueue<int> q(2);
  std::atomic<bool> done{false};
  std::thread gauge_reader([&] {
    while (!done.load()) {
      EXPECT_LE(q.high_water(), q.capacity());
      EXPECT_GE(q.producer_stall_seconds(), 0.0);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p)
    producers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) ASSERT_TRUE(q.push(i));
    });
  int v = 0;
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    ASSERT_TRUE(q.pop(v));
  }
  for (auto& t : producers) t.join();
  done.store(true);
  gauge_reader.join();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.high_water(), q.capacity());
  EXPECT_GT(q.producer_stall_seconds(), 0.0);  // someone measurably blocked
}

TEST(BoundedQueue, PopAfterCloseDrainsInFifoOrder) {
  // close() must not disturb the queue discipline: whatever was admitted
  // before the close comes out in exactly the order it went in.
  BoundedQueue<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(i));
  q.close();
  EXPECT_FALSE(q.push(99));
  int v = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.pop(v));  // drained: closed + empty stays terminal
  EXPECT_FALSE(q.pop(v));
}

// --- fleet split -------------------------------------------------------------

const std::vector<sim::CarrierLog>& crawl_logs() {
  static const auto logs = [] {
    auto world = netgen::generate_world({.seed = 1, .scale = 0.01});
    sim::CrawlOptions copts;
    return sim::run_crawl(world, copts).logs;
  }();
  return logs;
}

core::ConfigDatabase serial_reference() {
  core::ConfigDatabase db;
  for (const auto& log : crawl_logs())
    core::extract_configs(log.acronym, log.diag_log, db);
  return db;
}

TEST(Fleet, SingleDeviceUploadIsByteIdentical) {
  // Writer framing is canonical, so re-cutting a log onto one device must
  // reproduce the original bytes exactly.
  const auto uploads = sim::split_crawl_uploads(crawl_logs(), 1);
  ASSERT_EQ(uploads.size(), crawl_logs().size());
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    EXPECT_EQ(uploads[i].carrier, crawl_logs()[i].acronym);
    EXPECT_EQ(uploads[i].diag_log, crawl_logs()[i].diag_log);
  }
}

TEST(Fleet, SplitPreservesEveryRecord) {
  std::size_t batch_records = 0;
  for (const auto& log : crawl_logs()) {
    diag::Parser parser(log.diag_log);
    batch_records += parser.all().size();
  }
  const auto uploads = sim::split_crawl_uploads(crawl_logs(), 7);
  EXPECT_GT(uploads.size(), crawl_logs().size());
  std::size_t split_records = 0;
  for (const auto& upload : uploads) {
    diag::Parser parser(upload.diag_log);
    split_records += parser.all().size();
    EXPECT_EQ(parser.stats().crc_failures, 0u);
    EXPECT_EQ(parser.stats().malformed, 0u);
  }
  EXPECT_EQ(split_records, batch_records);
}

// --- Service: determinism ----------------------------------------------------

core::ConfigDatabase ingest_crawl(unsigned devices, std::size_t chunk_bytes,
                                  unsigned workers, Metrics* metrics = nullptr,
                                  std::size_t queue_capacity = 256) {
  const auto uploads = sim::split_crawl_uploads(crawl_logs(), devices);
  Service::Options opts;
  opts.workers = workers;
  opts.queue_capacity = queue_capacity;
  Service service(opts);
  ReplayOptions ropts;
  ropts.chunk_bytes = chunk_bytes;
  replay_uploads(service, uploads, ropts);
  core::ConfigDatabase db = service.drain();
  if (metrics) *metrics = service.metrics();
  return db;
}

TEST(Ingest, MatchesSerialExtractionAcrossConfigurations) {
  // The acceptance-criteria invariant: the drained database is identical to
  // serial extraction for ANY device count, chunk size, and worker count.
  const core::ConfigDatabase reference = serial_reference();
  ASSERT_GT(reference.total_samples(), 0u);
  struct Case {
    unsigned devices;
    std::size_t chunk_bytes;
    unsigned workers;
  };
  const Case cases[] = {
      {1, 4096, 1}, {4, 997, 2}, {8, 64, 4}, {3, 1 << 20, 8}, {16, 333, 3}};
  for (const auto& c : cases) {
    const auto db = ingest_crawl(c.devices, c.chunk_bytes, c.workers);
    EXPECT_EQ(db, reference) << "devices=" << c.devices
                             << " chunk=" << c.chunk_bytes
                             << " workers=" << c.workers;
  }
}

TEST(Ingest, TinyQueueStaysBoundedAndCorrect) {
  const core::ConfigDatabase reference = serial_reference();
  Metrics metrics;
  const auto db = ingest_crawl(8, 512, 4, &metrics, /*queue_capacity=*/2);
  EXPECT_EQ(db, reference);
  EXPECT_EQ(metrics.queue_capacity, 2u);
  EXPECT_LE(metrics.queue_high_water, 2u);  // memory stayed bounded
}

TEST(Ingest, MetricsMatchSerialTotals) {
  core::ExtractStats serial;
  core::ConfigDatabase scratch;
  for (const auto& log : crawl_logs())
    serial += core::extract_configs(log.acronym, log.diag_log, scratch);

  Metrics metrics;
  ingest_crawl(6, 2048, 4, &metrics);
  EXPECT_EQ(metrics.bytes, serial.bytes);
  EXPECT_EQ(metrics.records, serial.records);
  EXPECT_EQ(metrics.snapshots, serial.snapshots);
  EXPECT_EQ(metrics.crc_failures, serial.crc_failures);
  EXPECT_EQ(metrics.malformed, serial.malformed);
  EXPECT_EQ(metrics.sessions_opened, metrics.sessions_closed);
  EXPECT_EQ(metrics.sessions_opened, metrics.sessions_sealed);
  EXPECT_EQ(metrics.sessions_aborted, 0u);
  EXPECT_EQ(metrics.sessions_live, 0u);  // all sealed sessions evicted
  EXPECT_EQ(metrics.workers, 4u);
}

TEST(Ingest, ClosedAndSealedAreDistinctCounters) {
  // The metrics-mislabel regression: `sessions_closed` used to be populated
  // from the sealed counter, making closed-but-not-yet-decoded sessions
  // invisible.  With autostart=false nothing decodes, so the gap is
  // observable: closed ticks at accept time, sealed only once the end
  // marker is actually decoded.
  Service::Options opts;
  opts.workers = 1;
  opts.autostart = false;
  Service service(opts);
  const SessionId id = service.open_session("A");
  service.offer(id, {0x01, 0x02});
  service.close_session(id);
  Metrics before = service.metrics();
  EXPECT_EQ(before.sessions_closed, 1u);
  EXPECT_EQ(before.sessions_sealed, 0u);  // end marker still queued
  EXPECT_EQ(before.sessions_live, 1u);

  service.start();
  service.wait_quiescent();
  Metrics after = service.metrics();
  EXPECT_EQ(after.sessions_closed, 1u);
  EXPECT_EQ(after.sessions_sealed, 1u);
  EXPECT_EQ(after.sessions_live, 0u);
}

TEST(Ingest, SessionStatsMatchBatchExtractor) {
  // devices=1: each session is exactly one carrier log, so its stats must
  // equal what extract_configs reports for that log.
  const auto uploads = sim::split_crawl_uploads(crawl_logs(), 1);
  Service::Options opts;
  opts.workers = 2;
  Service service(opts);
  ReplayOptions ropts;
  ropts.chunk_bytes = 777;
  const auto replay = replay_uploads(service, uploads, ropts);
  service.wait_quiescent();
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    core::ConfigDatabase scratch;
    const auto expected = core::extract_configs(
        uploads[i].carrier, uploads[i].diag_log, scratch);
    const IngestStats stats = service.session_stats(replay.sessions[i]);
    EXPECT_EQ(stats.carrier, uploads[i].carrier);
    EXPECT_TRUE(stats.closed);
    EXPECT_TRUE(stats.sealed);
    EXPECT_EQ(stats.bytes, uploads[i].diag_log.size());
    EXPECT_EQ(stats.extract, expected) << "session " << i;
  }
  const auto all = service.all_session_stats();
  ASSERT_EQ(all.size(), uploads.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i].id, replay.sessions[i]);
}

TEST(Ingest, DrainResetsForTheNextBatch) {
  const core::ConfigDatabase reference = serial_reference();
  const auto uploads = sim::split_crawl_uploads(crawl_logs(), 4);
  Service service;
  ReplayOptions ropts;
  ropts.chunk_bytes = 4096;
  replay_uploads(service, uploads, ropts);
  EXPECT_EQ(service.drain(), reference);
  // The store is now empty; a second round accumulates afresh.
  EXPECT_EQ(service.snapshot().total_samples(), 0u);
  replay_uploads(service, uploads, ropts);
  EXPECT_EQ(service.drain(), reference);
}

// --- Service: backpressure + lifecycle --------------------------------------

TEST(Ingest, ProducerBlocksUntilWorkersStart) {
  // autostart=false keeps the queue un-drained, so the producer observably
  // blocks on a full queue — deterministic proof of offer() backpressure.
  Service::Options opts;
  opts.workers = 2;
  opts.queue_capacity = 4;
  opts.autostart = false;
  Service service(opts);
  const SessionId id = service.open_session("A");
  const std::vector<std::uint8_t> chunk(64, 0x00);
  for (int i = 0; i < 4; ++i) service.offer(id, chunk);  // fills the queue

  std::atomic<bool> fifth_offered{false};
  std::thread producer([&] {
    service.offer(id, chunk);  // must block: nothing is draining
    fifth_offered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fifth_offered.load());
  EXPECT_EQ(service.metrics().queue_high_water, 4u);

  service.start();  // workers drain; the blocked producer completes
  producer.join();
  EXPECT_TRUE(fifth_offered.load());
  service.close_session(id);
  service.wait_quiescent();
  const Metrics metrics = service.metrics();
  EXPECT_GT(metrics.producer_stall_seconds, 0.0);
  EXPECT_EQ(metrics.queue_high_water, 4u);
  EXPECT_EQ(metrics.chunks, 5u);
}

TEST(Ingest, RejectsBadSessionUsage) {
  Service::Options opts;
  opts.workers = 1;
  Service service(opts);
  EXPECT_THROW(service.offer(99, {0x01}), std::logic_error);
  EXPECT_THROW(service.session_stats(99), std::logic_error);
  const SessionId id = service.open_session("A");
  EXPECT_THROW(service.wait_quiescent(), std::logic_error);  // still open
  service.close_session(id);
  EXPECT_THROW(service.offer(id, {0x01}), std::logic_error);  // closed
  EXPECT_THROW(service.close_session(id), std::logic_error);  // closed twice
  service.wait_quiescent();
}

TEST(Ingest, OfferAfterStopThrows) {
  Service::Options opts;
  opts.workers = 1;
  Service service(opts);
  const SessionId id = service.open_session("A");
  service.stop();
  EXPECT_THROW(service.offer(id, {0x01}), std::runtime_error);
}

TEST(Ingest, RejectedOfferRollsEverySideEffectBack) {
  // The strand-wedge regression: a failed queue push used to leave the
  // session's next_offer_seq incremented, permanently skipping a sequence
  // number — every later chunk would park forever in the pending map and
  // wait_quiescent() would hang.  The fix assigns the seq only when the
  // push succeeds, and rolls back everything else (closed flag, open-session
  // count, admission counters) too.
  Service::Options opts;
  opts.workers = 1;
  Service service(opts);
  const SessionId id = service.open_session("A");
  service.offer(id, {0x01, 0x02, 0x03});
  service.stop();

  const Metrics before = service.metrics();
  EXPECT_THROW(service.offer(id, {0x04}), std::runtime_error);
  EXPECT_THROW(service.offer(id, {0x05}), std::runtime_error);
  // Admission metrics must not count refused chunks.
  const Metrics after_offers = service.metrics();
  EXPECT_EQ(after_offers.chunks, before.chunks);
  EXPECT_EQ(after_offers.bytes, before.bytes);

  // A refused close/abort leaves the session observably OPEN — not a
  // half-closed zombie that wait_quiescent() would wait on forever.
  EXPECT_THROW(service.close_session(id), std::runtime_error);
  EXPECT_FALSE(service.session_stats(id).closed);
  EXPECT_THROW(service.abort_session(id), std::runtime_error);
  EXPECT_FALSE(service.session_stats(id).aborted);
  EXPECT_EQ(service.metrics().sessions_closed, 0u);
  // ...and the "still open" state is reported consistently: quiescence is a
  // contract violation (open session), not a hang on a skipped seq.
  EXPECT_THROW(service.wait_quiescent(), std::logic_error);
  // Everything admitted before the stop still drained exactly once.
  EXPECT_EQ(after_offers.chunks, 1u);
  EXPECT_EQ(service.session_stats(id).chunks, 1u);
}

TEST(Ingest, SealedSessionsAreEvictedButStayQueryable) {
  // The session-leak regression: sessions_ entries used to live forever.
  // After a full replay every Session must be evicted (live == 0) while
  // session_stats()/all_session_stats() still answer from the compact
  // finished-stats ledger, and re-using the id is rejected as "finished".
  const auto uploads = sim::split_crawl_uploads(crawl_logs(), 3);
  Service::Options opts;
  opts.workers = 2;
  Service service(opts);
  ReplayOptions ropts;
  ropts.chunk_bytes = 2048;
  const auto replay = replay_uploads(service, uploads, ropts);
  service.wait_quiescent();

  EXPECT_EQ(service.live_sessions(), 0u);
  EXPECT_EQ(service.metrics().sessions_live, 0u);
  const auto all = service.all_session_stats();
  ASSERT_EQ(all.size(), uploads.size());
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    EXPECT_EQ(all[i].id, replay.sessions[i]);
    EXPECT_TRUE(all[i].sealed);
    const IngestStats stats = service.session_stats(replay.sessions[i]);
    EXPECT_EQ(stats.bytes, uploads[i].diag_log.size());
  }
  // Offers/closes on a finished session fail loudly, not as "unknown".
  EXPECT_THROW(service.offer(replay.sessions[0], {0x01}), std::logic_error);
  EXPECT_THROW(service.close_session(replay.sessions[0]), std::logic_error);
}

TEST(Ingest, SnapshotExcludesOpenSessions) {
  const auto uploads = sim::split_crawl_uploads(crawl_logs(), 1);
  ASSERT_GE(uploads.size(), 2u);
  Service::Options opts;
  opts.workers = 2;
  Service service(opts);
  // Seal only the first upload; leave a second session open mid-stream.
  const SessionId sealed = service.open_session(uploads[0].carrier);
  service.offer(sealed, uploads[0].diag_log);
  service.close_session(sealed);
  const SessionId open = service.open_session(uploads[1].carrier);
  service.offer(open, uploads[1].diag_log);
  while (!service.session_stats(sealed).sealed)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  core::ConfigDatabase expected;
  core::extract_configs(uploads[0].carrier, uploads[0].diag_log, expected);
  EXPECT_EQ(service.snapshot(), expected);  // open session's shard excluded
  service.close_session(open);
}

/// One camp on cell 42 at t = 0 whose channel and SIB5 neighbor priority
/// depend on `variant`: every such log observes the same cell at the same
/// timestamps with different values.
std::vector<std::uint8_t> same_cell_log(std::uint32_t variant) {
  diag::Writer w;
  diag::CampEvent ev;
  ev.cell_identity = 42;
  ev.rat = static_cast<std::uint8_t>(spectrum::Rat::kLte);
  ev.channel = 850 + variant;
  w.append({diag::LogCode::kServingCellInfo, SimTime{0},
            diag::encode_camp_event(ev)});
  w.append({diag::LogCode::kLteRrcOta, SimTime{1},
            rrc::encode(rrc::Message{rrc::Sib3{}})});
  rrc::Sib5 sib5;
  sib5.target_rat = spectrum::Rat::kLte;
  config::NeighborFreqConfig nf;
  nf.channel = {spectrum::Rat::kLte, 1975};
  nf.priority = static_cast<int>(variant);
  sib5.freqs = {nf};
  w.append({diag::LogCode::kLteRrcOta, SimTime{2},
            rrc::encode(rrc::Message{sib5})});
  return w.bytes();
}

TEST(Ingest, SealOrderNeverChangesTheMerge) {
  // Sessions seal in the reverse of their id order, across both workers.
  // Merging equal timestamps keeps the earlier shard's observations first
  // and the earlier-seen cell's channel, so a seal-order merge would differ
  // from the session-id-order merge that drain() and snapshot() promise.
  constexpr std::uint32_t kSessions = 4;
  Service::Options opts;
  opts.workers = 2;
  Service service(opts);
  std::vector<SessionId> ids;
  for (std::uint32_t i = 0; i < kSessions; ++i) {
    ids.push_back(service.open_session("X"));
    service.offer(ids.back(), same_cell_log(i + 1));
  }
  for (std::uint32_t i = kSessions; i-- > 0;) {
    service.close_session(ids[i]);
    while (!service.session_stats(ids[i]).sealed)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto merge_in = [](std::initializer_list<std::uint32_t> variants) {
    core::ConfigDatabase db;
    for (const std::uint32_t v : variants) {
      core::ConfigDatabase shard;
      core::extract_configs("X", same_cell_log(v), shard);
      db.merge(std::move(shard));
    }
    return db;
  };
  const core::ConfigDatabase by_id = merge_in({1, 2, 3, 4});
  const core::ConfigDatabase by_seal = merge_in({4, 3, 2, 1});
  ASSERT_NE(by_id, by_seal);  // the test can tell the two orders apart

  EXPECT_EQ(service.snapshot(), by_id);
  EXPECT_EQ(service.drain(), by_id);
}

}  // namespace
}  // namespace mmlab::ingest
