#include "mmlab/ingest/service.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmlab::ingest {

/// One device upload in flight.  The decode members (parser, extractor,
/// shard, stats deltas) are touched only by worker `id % workers`, the one
/// thread that pops this session's queue, so they need no lock of their own.
/// `admit` serializes this session's producers; `mu` guards the stats copy
/// that readers take.
struct Service::Session {
  SessionId id = 0;
  std::string carrier;

  std::mutex admit;  ///< held across the closed-check and the queue push
  std::mutex mu;
  IngestStats stats;  ///< read via session_stats() under mu

  // Decode state, owned by the session's worker.
  diag::StreamParser parser;
  core::ConfigDatabase shard;
  std::unique_ptr<core::StreamExtractor> extractor;
  core::ExtractStats last_reported;  ///< for global-counter deltas
};

Service::Service() : Service(Options()) {}

Service::Service(const Options& opts)
    : opts_(opts),
      workers_configured_(opts.workers == 0
                              ? std::max(1u, std::thread::hardware_concurrency())
                              : opts.workers) {
  queues_.reserve(workers_configured_);
  for (unsigned i = 0; i < workers_configured_; ++i)
    queues_.push_back(std::make_unique<BoundedQueue<Chunk>>(opts.queue_capacity));
  if (opts_.autostart) start();
}

Service::~Service() { stop(); }

void Service::start() {
  std::lock_guard lock(lifecycle_mu_);
  if (started_ || stopped_) return;
  started_ = true;
  workers_.reserve(workers_configured_);
  for (unsigned i = 0; i < workers_configured_; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

void Service::stop() {
  std::lock_guard lock(lifecycle_mu_);
  if (stopped_) return;
  stopped_ = true;
  for (auto& q : queues_) q->close();
  for (auto& t : workers_) t.join();
  workers_.clear();
}

SessionId Service::open_session(std::string carrier) {
  auto session = std::make_shared<Session>();
  session->carrier = std::move(carrier);
  session->extractor = std::make_unique<core::StreamExtractor>(
      session->carrier, session->shard);
  SessionId id;
  {
    std::lock_guard lock(sessions_mu_);
    id = next_id_++;
    session->id = id;
    session->stats.id = id;
    session->stats.carrier = session->carrier;
    sessions_.emplace(id, std::move(session));
  }
  {
    std::lock_guard lock(idle_mu_);
    ++open_sessions_;
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::shared_ptr<Service::Session> Service::find_session(SessionId id) const {
  std::lock_guard lock(sessions_mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    if (finished_stats_.count(id))
      throw std::logic_error("ingest: session " + std::to_string(id) +
                             " already finished");
    throw std::logic_error("ingest: unknown session id " + std::to_string(id));
  }
  return it->second;
}

void Service::offer(SessionId id, std::vector<std::uint8_t> chunk) {
  const auto session = find_session(id);
  const std::size_t chunk_bytes = chunk.size();
  std::lock_guard admit(session->admit);
  {
    std::lock_guard lock(session->mu);
    if (session->stats.closed)
      throw std::logic_error("ingest: offer on closed session " +
                             std::to_string(id));
  }
  {
    std::lock_guard lock(idle_mu_);
    ++undecoded_;
  }
  if (!queue_for(id).push(Chunk{session, std::move(chunk)})) {
    // Rejected (service stopped): the chunk was never admitted.
    note_done_one();
    throw std::runtime_error("ingest: service stopped");
  }
  chunks_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(chunk_bytes, std::memory_order_relaxed);
}

void Service::close_session(SessionId id) { end_session(id, /*abort=*/false); }

void Service::abort_session(SessionId id) { end_session(id, /*abort=*/true); }

void Service::end_session(SessionId id, bool abort) {
  const auto session = find_session(id);
  std::lock_guard admit(session->admit);
  {
    std::lock_guard lock(session->mu);
    if (session->stats.closed)
      throw std::logic_error(
          (abort ? "ingest: abort on closed session "
                 : "ingest: close_session twice on ") +
          std::to_string(id));
    session->stats.closed = true;
    session->stats.aborted = abort;
  }
  {
    std::lock_guard lock(idle_mu_);
    ++undecoded_;
    --open_sessions_;
  }
  if (!queue_for(id).push(Chunk{session, {}, /*end=*/!abort, abort})) {
    note_done_one();
    {
      std::lock_guard lock(idle_mu_);
      ++open_sessions_;
    }
    {
      std::lock_guard lock(session->mu);
      session->stats.closed = false;
      session->stats.aborted = false;
    }
    throw std::runtime_error("ingest: service stopped");
  }
  if (!abort) sessions_closed_.fetch_add(1, std::memory_order_relaxed);
}

void Service::note_done_one() {
  std::lock_guard lock(idle_mu_);
  --undecoded_;
  if (undecoded_ == 0) idle_cv_.notify_all();
}

void Service::worker_loop(unsigned shard) {
  BoundedQueue<Chunk>& queue = *queues_[shard];
  Chunk chunk;
  while (queue.pop(chunk)) {
    // decode_chunk takes the chunk by value, so a finished session's last
    // reference is dropped before quiescence is signalled.
    decode_chunk(std::move(chunk));
    note_done_one();
  }
}

void Service::decode_chunk(Chunk chunk) {
  // Only this session's worker runs this, in admission order.
  Session& s = *chunk.session;
  if (chunk.abort) {
    // The upload died rather than ended: reset the parser mid-frame (the
    // diag reset-on-abort contract — no finish(), no trailing-malformed
    // count) and let the decoded prefix die with the shard.  Nothing is
    // sealed; drain()/snapshot() never see this session.
    s.parser.reset();
    sessions_aborted_.fetch_add(1, std::memory_order_relaxed);
    evict_session(s);
    return;
  }

  if (chunk.end) {
    s.parser.finish();
  } else {
    s.parser.feed(chunk.bytes);
  }
  diag::Record rec;
  while (s.parser.next(rec)) s.extractor->on_record(rec);
  if (chunk.end) s.extractor->finish();

  // Aggregate exactly like extract_configs(): extractor counters, plus the
  // parser's framing-level CRC/malformed, plus raw bytes.
  core::ExtractStats now = s.extractor->stats();
  now.bytes = s.parser.bytes_fed();
  now.crc_failures = s.parser.stats().crc_failures;
  now.malformed += s.parser.stats().malformed;

  records_.fetch_add(now.records - s.last_reported.records,
                     std::memory_order_relaxed);
  snapshots_.fetch_add(now.snapshots - s.last_reported.snapshots,
                       std::memory_order_relaxed);
  crc_failures_.fetch_add(now.crc_failures - s.last_reported.crc_failures,
                          std::memory_order_relaxed);
  malformed_.fetch_add(now.malformed - s.last_reported.malformed,
                       std::memory_order_relaxed);
  s.last_reported = now;

  {
    std::lock_guard lock(s.mu);
    s.stats.extract = now;
    if (chunk.end) {
      s.stats.sealed = true;
    } else {
      ++s.stats.chunks;
      s.stats.bytes += chunk.bytes.size();
    }
  }

  if (chunk.end) {
    {
      std::lock_guard lock(sealed_mu_);
      sealed_.emplace(s.id, std::move(s.shard));
    }
    sessions_sealed_.fetch_add(1, std::memory_order_relaxed);
    evict_session(s);
  }
}

void Service::evict_session(Session& s) {
  // Session lifecycle contract: a finished (sealed or aborted) session's
  // decode state is dropped immediately; only its compact final stats stay,
  // so the live map is bounded by the number of open uploads no matter how
  // long the service runs.  The Session object itself stays alive until its
  // last chunk is destroyed (each Chunk holds a shared_ptr).
  IngestStats final_stats;
  {
    std::lock_guard lock(s.mu);
    final_stats = s.stats;
  }
  std::lock_guard lock(sessions_mu_);
  finished_stats_.emplace(s.id, std::move(final_stats));
  sessions_.erase(s.id);
}

void Service::wait_quiescent() {
  std::unique_lock lock(idle_mu_);
  if (open_sessions_ != 0)
    throw std::logic_error(
        "ingest: wait_quiescent with open sessions (close them first)");
  idle_cv_.wait(lock, [this] { return undecoded_ == 0; });
}

core::ConfigDatabase Service::drain() {
  wait_quiescent();
  std::map<SessionId, core::ConfigDatabase> sealed;
  {
    std::lock_guard lock(sealed_mu_);
    sealed.swap(sealed_);
  }
  core::ConfigDatabase db;
  for (auto& [id, shard] : sealed) db.merge(std::move(shard));
  return db;
}

core::ConfigDatabase Service::snapshot() const {
  std::map<SessionId, core::ConfigDatabase> sealed;
  {
    std::lock_guard lock(sealed_mu_);
    sealed = sealed_;  // copy; the store is undisturbed
  }
  core::ConfigDatabase db;
  for (auto& [id, shard] : sealed) db.merge(std::move(shard));
  return db;
}

std::size_t Service::live_sessions() const {
  std::lock_guard lock(sessions_mu_);
  return sessions_.size();
}

Metrics Service::metrics() const {
  Metrics m;
  m.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  m.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  m.sessions_sealed = sessions_sealed_.load(std::memory_order_relaxed);
  m.sessions_aborted = sessions_aborted_.load(std::memory_order_relaxed);
  m.sessions_live = live_sessions();
  m.chunks = chunks_.load(std::memory_order_relaxed);
  m.bytes = bytes_.load(std::memory_order_relaxed);
  m.records = records_.load(std::memory_order_relaxed);
  m.snapshots = snapshots_.load(std::memory_order_relaxed);
  m.crc_failures = crc_failures_.load(std::memory_order_relaxed);
  m.malformed = malformed_.load(std::memory_order_relaxed);
  m.queue_capacity = opts_.queue_capacity;
  for (const auto& q : queues_) {
    m.queue_high_water = std::max(m.queue_high_water, q->high_water());
    m.producer_stall_seconds += q->producer_stall_seconds();
  }
  m.workers = workers_configured_;
  return m;
}

IngestStats Service::session_stats(SessionId id) const {
  std::shared_ptr<Session> session;
  {
    std::lock_guard lock(sessions_mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      const auto fit = finished_stats_.find(id);
      if (fit != finished_stats_.end()) return fit->second;
      throw std::logic_error("ingest: unknown session id " +
                             std::to_string(id));
    }
    session = it->second;
  }
  std::lock_guard lock(session->mu);
  return session->stats;
}

std::vector<IngestStats> Service::all_session_stats() const {
  std::vector<std::shared_ptr<Session>> live;
  std::vector<IngestStats> out;
  {
    std::lock_guard lock(sessions_mu_);
    live.reserve(sessions_.size());
    for (const auto& [id, s] : sessions_) live.push_back(s);
    out.reserve(sessions_.size() + finished_stats_.size());
    for (const auto& [id, stats] : finished_stats_) out.push_back(stats);
  }
  for (const auto& s : live) {
    std::lock_guard lock(s->mu);
    out.push_back(s->stats);
  }
  std::sort(out.begin(), out.end(),
            [](const IngestStats& a, const IngestStats& b) {
              return a.id < b.id;
            });
  return out;
}

}  // namespace mmlab::ingest
