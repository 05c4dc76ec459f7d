#include "mmlab/ingest/replay.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>

#include "mmlab/util/rng.hpp"

namespace mmlab::ingest {

namespace {

/// Stream one producer's share of the uploads: round-robin one chunk per
/// session per pass, so chunks from different sessions interleave on the
/// queue the way independent phones would.
void produce(Service& service, const std::vector<sim::DeviceUpload>& uploads,
             const std::vector<SessionId>& sessions, std::size_t first,
             std::size_t stride, std::size_t chunk_bytes) {
  struct Cursor {
    std::size_t upload;
    std::size_t offset = 0;
    bool closed = false;
  };
  std::vector<Cursor> cursors;
  for (std::size_t i = first; i < uploads.size(); i += stride)
    cursors.push_back(Cursor{i});

  bool live = true;
  while (live) {
    live = false;
    for (auto& cur : cursors) {
      if (cur.closed) continue;
      const auto& data = uploads[cur.upload].diag_log;
      if (cur.offset < data.size()) {
        const std::size_t n = std::min(chunk_bytes, data.size() - cur.offset);
        service.offer(sessions[cur.upload],
                      std::vector<std::uint8_t>(
                          data.begin() + static_cast<std::ptrdiff_t>(cur.offset),
                          data.begin() +
                              static_cast<std::ptrdiff_t>(cur.offset + n)));
        cur.offset += n;
      }
      if (cur.offset >= data.size()) {
        service.close_session(sessions[cur.upload]);
        cur.closed = true;
      } else {
        live = true;
      }
    }
  }
}

/// Per-device adversarial state.  All randomness comes from the device's
/// own forked rng, and all mutation lands in the device's own DeliveredUpload
/// slot, so the schedule is independent of producer threading.
struct Device {
  std::size_t upload = 0;
  std::size_t offset = 0;
  bool done = false;
  Rng rng{0};
  /// Send buffer: chunks waiting to be released (possibly out of order).
  std::deque<std::vector<std::uint8_t>> window;
};

/// Admit one chunk: record it as delivered, then offer it.
void deliver(Service& service, DeliveredUpload& out,
             std::vector<std::uint8_t> chunk) {
  out.bytes.insert(out.bytes.end(), chunk.begin(), chunk.end());
  service.offer(out.session, std::move(chunk));
}

/// Release one chunk from the send window at a random position — the
/// reorder fault: delivery order is what the stream now *is*.
void release_one(Service& service, Device& dev, DeliveredUpload& out) {
  const std::size_t pick = dev.rng.below(dev.window.size());
  if (pick != 0) ++out.faults.reorders;
  auto it = dev.window.begin() + static_cast<std::ptrdiff_t>(pick);
  std::vector<std::uint8_t> chunk = std::move(*it);
  dev.window.erase(it);
  deliver(service, out, std::move(chunk));
}

/// Advance one device by one chunk.  Returns false once the session has
/// ended (closed or aborted).
bool step_device(Service& service, const std::vector<sim::DeviceUpload>& uploads,
                 Device& dev, DeliveredUpload& out, const AdversarialOptions& opts) {
  if (dev.done) return false;
  const auto& data = uploads[dev.upload].diag_log;
  const FaultProfile& f = opts.faults;

  if (dev.offset < data.size()) {
    const std::size_t base = std::max<std::size_t>(opts.chunk_bytes, 1);
    std::size_t n = 1 + static_cast<std::size_t>(dev.rng.below(2 * base));
    n = std::min(n, data.size() - dev.offset);
    std::vector<std::uint8_t> chunk(
        data.begin() + static_cast<std::ptrdiff_t>(dev.offset),
        data.begin() + static_cast<std::ptrdiff_t>(dev.offset + n));
    dev.offset += n;

    if (f.corrupt_prob > 0 && dev.rng.chance(f.corrupt_prob)) {
      // One flipped byte in flight: lands on payload, CRC, escape, or
      // terminator bytes alike — whatever framing damage falls out is the
      // parser's problem, and the delivered bytes carry the damage too.
      chunk[dev.rng.below(chunk.size())] ^=
          static_cast<std::uint8_t>(1 + dev.rng.below(255));
      ++out.faults.corruptions;
    }

    if (f.disconnect_prob > 0 && dev.rng.chance(f.disconnect_prob)) {
      // The device dies mid-send: drain the send buffer (those chunks made
      // it out), deliver a truncation of the current chunk — cutting at an
      // arbitrary byte means mid-frame, mid-escape, mid-varint — then drop.
      while (!dev.window.empty()) release_one(service, dev, out);
      chunk.resize(dev.rng.below(chunk.size() + 1));
      if (!chunk.empty()) deliver(service, out, std::move(chunk));
      service.abort_session(out.session);
      out.aborted = true;
      ++out.faults.disconnects;
      dev.done = true;
      return false;
    }

    if (f.stall_prob > 0 && dev.rng.chance(f.stall_prob)) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          dev.rng.below(std::max(1u, f.stall_max_micros) + 1)));
      ++out.faults.stalls;
    }

    dev.window.push_back(chunk);
    if (f.duplicate_prob > 0 && dev.rng.chance(f.duplicate_prob)) {
      // Resend: the transport delivered the chunk twice and both copies are
      // part of the stream the server must now make sense of.
      dev.window.push_back(std::move(chunk));
      ++out.faults.duplicates;
    }
    const std::size_t depth = std::max<std::size_t>(f.reorder_window, 1);
    while (dev.window.size() >= depth && !dev.window.empty())
      release_one(service, dev, out);
    return true;
  }

  while (!dev.window.empty()) release_one(service, dev, out);
  service.close_session(out.session);
  dev.done = true;
  return false;
}

void produce_adversarial(Service& service,
                         const std::vector<sim::DeviceUpload>& uploads,
                         const std::vector<SessionId>& sessions,
                         std::vector<DeliveredUpload>& out, std::size_t first,
                         std::size_t stride, const AdversarialOptions& opts,
                         const Rng& fleet_rng) {
  std::vector<Device> devices;
  for (std::size_t i = first; i < uploads.size(); i += stride) {
    out[i].session = sessions[i];
    out[i].carrier = uploads[i].carrier;
    Device dev;
    dev.upload = i;
    dev.rng = fleet_rng.fork(static_cast<std::uint64_t>(i));
    devices.push_back(std::move(dev));
  }
  bool live = true;
  while (live) {
    live = false;
    for (auto& dev : devices)
      if (step_device(service, uploads, dev, out[dev.upload], opts))
        live = true;
  }
}

/// The shape both drivers share: open one session per upload, in upload
/// order (the merge order), then stream the uploads on `producer_threads`
/// threads, clamped to [1, uploads] and run inline when one.  Producer p
/// calls `produce(p, producers)` and owns uploads p, p + producers, ...
/// Returns the wall time of the streaming.
template <typename Produce>
double open_and_stream(Service& service,
                       const std::vector<sim::DeviceUpload>& uploads,
                       unsigned producer_threads,
                       std::vector<SessionId>& sessions,
                       const Produce& produce) {
  sessions.reserve(uploads.size());
  for (const auto& upload : uploads)
    sessions.push_back(service.open_session(upload.carrier));

  const std::size_t producers =
      std::min<std::size_t>(std::max(producer_threads, 1u),
                            std::max<std::size_t>(uploads.size(), 1));

  const auto t0 = std::chrono::steady_clock::now();
  if (producers == 1) {
    produce(std::size_t{0}, std::size_t{1});
  } else {
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p)
      threads.emplace_back([&, p] { produce(p, producers); });
    for (auto& t : threads) t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

ReplayResult replay_uploads(Service& service,
                            const std::vector<sim::DeviceUpload>& uploads,
                            const ReplayOptions& opts) {
  ReplayResult result;
  const std::size_t chunk_bytes = std::max<std::size_t>(opts.chunk_bytes, 1);
  result.seconds = open_and_stream(
      service, uploads, opts.producer_threads, result.sessions,
      [&](std::size_t first, std::size_t stride) {
        produce(service, uploads, result.sessions, first, stride, chunk_bytes);
      });
  return result;
}

AdversarialReplayResult replay_uploads_adversarial(
    Service& service, const std::vector<sim::DeviceUpload>& uploads,
    const AdversarialOptions& opts) {
  AdversarialReplayResult result;
  result.uploads.resize(uploads.size());
  const Rng fleet_rng(opts.seed);
  std::vector<SessionId> sessions;
  result.seconds = open_and_stream(
      service, uploads, opts.producer_threads, sessions,
      [&](std::size_t first, std::size_t stride) {
        produce_adversarial(service, uploads, sessions, result.uploads, first,
                            stride, opts, fleet_rng);
      });
  for (const auto& upload : result.uploads) result.faults += upload.faults;
  return result;
}

core::ConfigDatabase delivered_reference(
    const AdversarialReplayResult& result) {
  // Mirror drain() exactly: each sealed session's delivered bytes extracted
  // serially into a private shard, shards merged in session-id order (which
  // is upload order, since sessions are opened in upload order).  A flat
  // concatenated extraction would NOT be equivalent here: fault-injected
  // streams have non-monotone camp timestamps, and merge re-sorts each
  // cell's observations by time where sequential appending would not.
  core::ConfigDatabase db;
  for (const auto& upload : result.uploads) {
    if (upload.aborted) continue;  // discarded: contributes nothing
    core::ConfigDatabase shard;
    core::extract_configs(upload.carrier, upload.bytes, shard);
    db.merge(std::move(shard));
  }
  return db;
}

}  // namespace mmlab::ingest
