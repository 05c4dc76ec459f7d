// Fixed-size worker pool: N threads draining one FIFO work queue.
//
// Every parallel stage in the repo is embarrassingly parallel across
// independent shards — diag logs for the extraction pipeline
// (MobileInsight's offline replayer has the same shape), carriers for the
// crawl engine and the figure walk, drives for the D1 campaigns — so all we
// need is the smallest possible pool:
// submit() enqueues a job, wait_idle() blocks until the queue is drained
// and every worker is resting.  No futures, no work stealing, no external
// dependencies — determinism comes from the callers writing into
// pre-allocated per-job slots, never from scheduling.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mmlab {

class WorkerPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (itself clamped to at least 1).
  explicit WorkerPool(unsigned threads = 0);
  /// Drains the queue, then joins all workers.  If a job failed and
  /// wait_idle() was never called afterwards, the stored exception is
  /// logged to stderr (a destructor cannot rethrow it) so failures never
  /// vanish silently.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueue one job. Thread-safe; may be called from jobs themselves.
  /// Throws std::runtime_error once shutdown has begun (see shutdown()):
  /// a job accepted then would never run, so the pool refuses it loudly
  /// instead of dropping it on the floor.
  void submit(std::function<void()> job);

  /// Drain the queue, join every worker, and permanently stop the pool.
  /// Idempotent, and what the destructor runs first.  Jobs submitting
  /// further jobs *during* the drain are safe — shutdown only flips to
  /// rejecting once the queue is empty and no job is in flight; after that
  /// point submit() throws.  wait_idle() remains callable (and trivially
  /// returns) after shutdown.
  void shutdown();

  /// Block until the queue is empty and no job is running.  If any job threw,
  /// rethrows the first captured exception (remaining jobs still ran).
  void wait_idle();

  unsigned thread_count() const { return static_cast<unsigned>(threads_.size()); }

  /// The pool size `threads == 0` resolves to on this machine.
  static unsigned default_thread_count();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> threads_;
};

/// Run fn(0..n-1) across a temporary pool of `threads` workers and wait.
/// `fn` must be safe to call concurrently for distinct indices.  With one
/// thread or one index it runs inline, with no pool.  The pool is built and
/// joined per call: every caller (crawl, campaign, analyze_database,
/// store::load_database) calls it once per operation, not per batch, so
/// thread start-up stays out of any inner loop.
void parallel_for_index(unsigned threads, std::size_t n,
                        const std::function<void(std::size_t)>& fn);

}  // namespace mmlab
