// Streaming multi-device ingestion service — the crowdsourcing front end
// the paper's D2 dataset implies: thousands of volunteer phones continuously
// uploading diag bytes, folded into one live ConfigDatabase.
//
// Shape of the pipeline:
//
//   producers (device uploads)       decode workers             snapshot/drain
//   offer(session, chunk) ──► queues_[session % W] ──► worker W ──► sealed
//        blocks when the       (one FIFO BoundedQueue   StreamParser +  shards
//        shard queue is full    per worker, popped by   StreamExtractor (one map,
//        (backpressure)         that worker alone)      -> private shard id order)
//
// Concurrency model: the unit of parallelism is the *session*, and each
// session has exactly one decoder.  A session's chunks always land on the
// FIFO queue `session % workers`, which only worker `session % workers`
// pops.  So decode order is admission order, and the session's decode state
// (a diag::StreamParser cursor, a core::StreamExtractor and a private
// ConfigDatabase shard) is owned by that one worker and needs no lock.
// Producers of one session serialize on its `admit` mutex across the
// closed-check and the push, so admission order is call order even if two
// threads offer to one session; workers never take that mutex, so a push
// blocked on backpressure cannot stall decoding.
//
// Session lifecycle (each transition is a queued marker, so it serializes
// after every previously offered chunk of that session):
//
//   open ──offer*──► close_session ──► [end decoded] ──► SEALED: shard into
//     │                                                  the sealed map,
//     │                                                  Session evicted,
//     │                                                  final stats kept
//     └──offer*──► abort_session ────► [abort decoded] ─► ABORTED: shard
//                  (device vanished)                      discarded, parser
//                                                         reset, Session
//                                                         evicted likewise
//
// Sealed/aborted sessions are *erased* from the live map — a long-running
// service holds Session state only for currently open uploads, plus one
// compact IngestStats per finished session so session_stats() still answers.
//
// Exception safety: a refused push (service stopped) rolls back every side
// effect of offer()/close_session()/abort_session() — the closed/aborted
// flags, the open-session and undecoded counts — so the session stays open
// and wait_quiescent() reports it instead of hanging.
//
// Determinism: session ids are handed out in open order, every session is
// decoded strictly in chunk order, and snapshot()/drain() merge the sealed
// per-session shards in session-id order.  The result is therefore a pure
// function of (session contents, open order) — chunk sizes, worker count,
// queue capacity, and scheduling cannot change a single byte of it.  Aborted
// sessions contribute nothing.  When the sessions partition a crawl's
// carrier logs at camp boundaries (see sim::split_crawl_uploads), that
// function equals serial extract_configs() over the original logs, because
// ConfigDatabase::merge re-orders each cell's observations by their
// (monotone) camp timestamps.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mmlab/core/extractor.hpp"
#include "mmlab/diag/stream_parser.hpp"
#include "mmlab/ingest/bounded_queue.hpp"
#include "mmlab/ingest/metrics.hpp"

namespace mmlab::ingest {

using SessionId = std::uint64_t;

/// Per-session accounting, readable at any time via session_stats() — also
/// after the session finishes and its decode state is evicted.
struct IngestStats {
  SessionId id = 0;
  std::string carrier;
  std::size_t chunks = 0;  ///< data chunks decoded (end marker excluded)
  std::size_t bytes = 0;   ///< diag bytes decoded
  bool closed = false;     ///< close_session()/abort_session() accepted
  bool sealed = false;     ///< end-of-stream decoded; shard in the store
  bool aborted = false;    ///< abort decoded; shard discarded, nothing sealed
  /// Combined parser + extractor counters, aggregated exactly like
  /// extract_configs() aggregates them for a whole log.
  core::ExtractStats extract;
};

class Service {
 public:
  struct Options {
    unsigned workers = 0;  ///< decode threads; 0 = hardware concurrency
    /// Chunks admitted per worker shard before a producer blocks.  Total
    /// queued chunks are bounded by workers * queue_capacity.
    std::size_t queue_capacity = 256;
    /// Tests set this false to control exactly when decoding begins (e.g.
    /// to fill the queue and observe producer backpressure first).
    bool autostart = true;
  };

  Service();
  explicit Service(const Options& opts);
  /// Stops accepting work, drains nothing further, joins the workers.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Launch the decode workers. Idempotent; a no-op after the first call.
  void start();

  /// Register a device upload session for `carrier`. Ids are dense and
  /// handed out in call order — they define the deterministic merge order.
  SessionId open_session(std::string carrier);

  /// Append one chunk of diag bytes to a session's stream.  Blocks while
  /// the session's shard queue is full (backpressure).  One producer thread
  /// per session: chunk order is the stream order.  Throws std::logic_error
  /// on an unknown/closed/finished session, std::runtime_error after stop()
  /// — in which case no session state changed (the chunk is simply refused).
  void offer(SessionId id, std::vector<std::uint8_t> chunk);

  /// End a session's stream. The trailing partial frame (if any) is
  /// accounted per the diag truncation contract, the in-progress cell is
  /// flushed, and the session's shard moves into the sealed store.
  void close_session(SessionId id);

  /// The device vanished mid-upload (network drop, battery, crash): discard
  /// the session.  Serializes after everything already offered; the decoded
  /// prefix is thrown away with the shard — an aborted session contributes
  /// zero bytes to drain()/snapshot() — and the parser is reset per the
  /// diag::StreamParser reset-on-abort contract.  Final stats (aborted=true)
  /// stay queryable.  Same exception contract as close_session().
  void abort_session(SessionId id);

  /// Block until every offered chunk is decoded and every closed session is
  /// sealed. Throws std::logic_error if a session is still open — a live
  /// stream has no deterministic cut point.
  void wait_quiescent();

  /// wait_quiescent(), then move the sealed shards out, merged in
  /// session-id order. The service keeps running; later sessions start a
  /// fresh accumulation.
  core::ConfigDatabase drain();

  /// Deterministic merged copy of the *sealed* shards only (open sessions'
  /// partial shards are excluded). Does not disturb the store.
  core::ConfigDatabase snapshot() const;

  Metrics metrics() const;
  IngestStats session_stats(SessionId id) const;
  /// Stats of every session ever opened, in session-id order.
  std::vector<IngestStats> all_session_stats() const;

  /// Live Session objects currently held (open or decoding) — the quantity
  /// the lifecycle bounds: finished sessions are evicted, so this tracks
  /// open uploads, not service age.
  std::size_t live_sessions() const;

  /// Close the intake and join the workers. offer() fails afterwards.
  void stop();

  unsigned worker_count() const { return workers_configured_; }

 private:
  struct Session;

  struct Chunk {
    std::shared_ptr<Session> session;
    std::vector<std::uint8_t> bytes;
    bool end = false;    ///< close_session marker
    bool abort = false;  ///< abort_session marker
  };

  /// The body of close_session() (abort = false) and abort_session().
  void end_session(SessionId id, bool abort);
  void worker_loop(unsigned shard);
  void decode_chunk(Chunk chunk);
  std::shared_ptr<Session> find_session(SessionId id) const;
  BoundedQueue<Chunk>& queue_for(SessionId id) {
    return *queues_[id % queues_.size()];
  }
  void note_done_one();
  void evict_session(Session& s);

  Options opts_;
  unsigned workers_configured_ = 0;

  /// One FIFO admission queue per decode worker, popped by that worker
  /// alone.  A session maps to shard `id % workers`, so its chunks decode in
  /// admission order on one thread, and producers of different shards never
  /// share a mutex.
  std::vector<std::unique_ptr<BoundedQueue<Chunk>>> queues_;

  mutable std::mutex sessions_mu_;
  std::map<SessionId, std::shared_ptr<Session>> sessions_;  ///< live only
  /// Final stats of sealed/aborted sessions (their Session state is gone).
  std::map<SessionId, IngestStats> finished_stats_;
  SessionId next_id_ = 0;

  /// Sealed shards by session id.  A session seals once, and the map's id
  /// order is the merge order of snapshot()/drain().
  mutable std::mutex sealed_mu_;
  std::map<SessionId, core::ConfigDatabase> sealed_;

  // Quiescence accounting.
  mutable std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::size_t undecoded_ = 0;     ///< chunks offered (incl. lifecycle
                                  ///< markers) not yet decoded
  std::size_t open_sessions_ = 0;

  // Global counters (see Metrics).
  std::atomic<std::size_t> chunks_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::size_t> records_{0};
  std::atomic<std::size_t> snapshots_{0};
  std::atomic<std::size_t> crc_failures_{0};
  std::atomic<std::size_t> malformed_{0};
  std::atomic<std::size_t> sessions_opened_{0};
  std::atomic<std::size_t> sessions_closed_{0};
  std::atomic<std::size_t> sessions_sealed_{0};
  std::atomic<std::size_t> sessions_aborted_{0};

  std::mutex lifecycle_mu_;  ///< guards start()/stop() transitions
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace mmlab::ingest
