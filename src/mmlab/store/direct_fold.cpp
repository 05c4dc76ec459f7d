#include "mmlab/store/direct_fold.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "mmlab/core/cell_fold.hpp"
#include "mmlab/store/cell_codec.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/crc.hpp"
#include "mmlab/util/worker_pool.hpp"

namespace mmlab::store {

namespace {

/// One open block: a reader over its mapped body and the block's current
/// in-range cell run, the only parsed run it holds.  `rec` is refilled for
/// every run of the block and swapped with the fold's merge buffer, so its
/// observations keep their capacity.  It holds the run's distinct
/// snapshots; the run's repeat markers stay in `scan` until the merge
/// decides whether to expand them.  The raw counts validate the body
/// against the manifest once the reader reaches its end.
struct BlockCursor {
  std::size_t pos = 0;      ///< index into the carrier plan's blocks
  std::size_t global = 0;   ///< index into ShardSet::blocks()
  ByteReader r{nullptr, 0};
  core::CellRecord rec;     ///< the current run (unless done)
  CellScan scan;            ///< its unfiltered wire facts and markers
  std::uint32_t id = 0;     ///< last raw id parsed: the current run's id
  std::uint32_t first = 0;  ///< first raw id parsed
  std::uint64_t cells = 0;  ///< raw cells parsed
  std::uint64_t rows = 0;   ///< raw rows parsed, repeats expanded
  bool done = false;        ///< body read to its end and validated
};

/// May a cell whose only run this is skip the run's repeats?  Only when
/// they cannot change an answer: with times never decreasing and none
/// below CellRecord::latest's -1 sentinel, a repeat adds no first-seen
/// value or context pair and never decides a key's latest value (the
/// snapshot it repeats is the last one holding its keys up to it, with
/// the same values in the same order).
bool skips_repeats(const CellScan& scan) {
  return scan.sorted && scan.front_t_ms >= -1;
}

}  // namespace

DirectFold::DirectFold(const ShardSet& set, FoldOptions options)
    : set_(&set), options_(options), names_(set.manifest().carriers) {
  // Sorted carrier order, same as ConfigDatabase::carriers().
  std::sort(names_.begin(), names_.end());
  stats_.crc_checked = options_.check_block_crc;
}

unsigned DirectFold::thread_count() const {
  const unsigned threads = options_.threads == 0
                               ? WorkerPool::default_thread_count()
                               : options_.threads;
  return std::max(threads, 1u);
}

std::size_t DirectFold::window_budget() const {
  if (options_.window_blocks != 0) return options_.window_blocks;
  return std::max<std::size_t>(2, std::size_t{2} * thread_count());
}

Result<FoldStats> DirectFold::run_fold(const FoldJob& job,
                                       const CellConsumer& consumer) const {
  using R = Result<FoldStats>;
  const auto start = std::chrono::steady_clock::now();
  const CarrierQueryPlan& cp = *job.carrier;
  const std::vector<std::size_t>& blocks = cp.blocks;
  const std::vector<char>& keep = job.plan->param_mask();
  const std::uint32_t min_cell = job.plan->query().min_cell;
  const std::uint32_t max_cell = job.plan->query().max_cell;
  const bool filtered = job.plan->filtered();
  const bool repeats = set_->manifest().repeats;
  const auto info_of = [&](const BlockCursor& c) -> const BlockInfo& {
    return *set_->blocks()[c.global].info;
  };

  FoldStats fs;
  fs.crc_checked = options_.check_block_crc;
  std::deque<BlockCursor> live;
  std::size_t resident = 0;  // open blocks not yet read to their end
  std::size_t next_block = 0;

  // Parse the cursor's next in-range run, skipping cells outside the
  // query's id range.  At the end of the body, check the raw cell ids and
  // counts against the manifest instead, and mark the cursor done.
  const auto advance = [&](BlockCursor& c) {
    while (c.r.remaining() > 0) {
      const std::uint32_t id = parse_cell_filtered(
          c.r, set_->params(), repeats, keep, min_cell, max_cell, c.rec,
          c.scan);
      if (c.cells > 0 && id <= c.id)
        throw std::runtime_error("cell ids not ascending within a block");
      if (c.cells == 0) c.first = id;
      c.id = id;
      ++c.cells;
      // Before any repeat can be expanded: never more rows than declared.
      if (c.scan.rows > info_of(c).row_count - c.rows)
        throw std::runtime_error("block row count disagrees with manifest");
      c.rows += c.scan.rows;
      fs.values_skipped += c.scan.values_skipped;
      if (id >= min_cell && id <= max_cell) return;
    }
    const BlockInfo& info = info_of(c);
    if (c.cells != info.cell_count)
      throw std::runtime_error("block cell count disagrees with manifest");
    if (c.rows != info.row_count)
      throw std::runtime_error("block row count disagrees with manifest");
    if (c.cells > 0 && (c.first != info.first_cell || c.id != info.last_cell))
      throw std::runtime_error("block cell-id range disagrees with manifest");
    c.done = true;
  };

  // Map the block's body and check it against its manifest CRC, then
  // parse its first in-range run.
  const auto open = [&](BlockCursor& c) {
    const BlockInfo& info = info_of(c);
    const auto body = set_->block_body(c.global);
    if (options_.check_block_crc &&
        crc16_ccitt(body.data(), body.size()) != info.crc16)
      throw std::runtime_error("block CRC mismatch at shard offset " +
                               std::to_string(info.offset));
    c.r = ByteReader(body.data(), body.size());
    advance(c);
  };

  // Run one cursor step.  A block read to its end is closed: its mapping
  // released and its run buffer freed (the husk is popped off the deque
  // front later, never while iterating it).  The first error names its
  // block and stops the fold.
  std::string error;
  const auto step = [&](BlockCursor& c, const auto& f) {
    try {
      f(c);
    } catch (const std::exception& e) {
      error = "fold: block " + std::to_string(c.pos) + " of carrier " +
              cp.name + " (offset " +
              std::to_string(set_->blocks()[c.global].info->offset) +
              "): " + e.what();
      return false;
    }
    if (c.done) {
      if (options_.release_mapped) set_->release_block(c.global);
      c.rec = {};  // free, not just clear
      --resident;
      if (job.gauge) job.gauge->sub(1);
    }
    return true;
  };

  // Open the next `window` blocks, one at a time in manifest order.  Each
  // counts as resident from its open.
  const auto open_batch = [&] {
    const std::size_t n = std::min(job.window, blocks.size() - next_block);
    for (std::size_t k = 0; k < n; ++k, ++next_block) {
      const BlockInfo& info = *set_->blocks()[blocks[next_block]].info;
      BlockCursor& c = live.emplace_back();
      c.pos = next_block;
      c.global = blocks[next_block];
      ++fs.blocks;
      fs.rows += info.row_count;
      fs.bytes += info.length;
      ++resident;
      if (job.gauge) job.gauge->add(1);
      fs.peak_resident_blocks =
          std::max<std::uint64_t>(fs.peak_resident_blocks, resident);
      if (!step(c, open)) return false;
    }
    return true;
  };
  // A failed step leaves its block (and any others still open) counted:
  // drain them from the shared gauge before reporting.
  const auto fail = [&] {
    if (job.gauge) job.gauge->sub(resident);
    return R::error(error);
  };

  core::CellRecord merged;
  while (true) {
    // Minimum current run id over the open blocks.
    std::int64_t min_id = -1;
    bool found = false;
    for (const BlockCursor& c : live) {
      if (c.done) continue;
      if (!found || c.id < min_id) {
        min_id = c.id;
        found = true;
      }
    }
    // Emission frontier: every id at or below it has all its runs parsed.
    std::int64_t safe = std::numeric_limits<std::int64_t>::max();
    if (next_block < blocks.size())
      safe = static_cast<std::int64_t>(cp.safe_floor[next_block]) - 1;
    if (!found || min_id > safe) {
      if (next_block >= blocks.size()) break;  // fully drained
      if (!open_batch()) return fail();
      continue;
    }
    // Merge every current run of min_id, in window (= manifest) order — the
    // pairwise ConfigDatabase::merge the loader performs.  The first run is
    // swapped in and the rest merged, so every buffer keeps its capacity.
    // A lone run keeps only its distinct snapshots when skips_repeats
    // allows; every other run is expanded first, as load_database expands
    // it, since a merge interleaves runs by time.
    // Under wire filtering, merge_from's metadata tie-break would see
    // *filtered* front timestamps, so the winner (minimal unfiltered front
    // t over non-empty runs, earliest run on ties, first run when all runs
    // are empty — exactly merge_from's pairwise outcome on unfiltered
    // runs) is recomputed from the wire facts and reapplied after the
    // merge; the observation merge itself commutes with filtering (stable
    // sort by t of a filtered concatenation = filter of the stable sort).
    std::size_t runs = 0;
    for (const BlockCursor& c : live)
      if (!c.done && c.id == min_id) ++runs;
    bool first = true;
    spectrum::Rat m_rat{};
    std::uint32_t m_channel = 0;
    geo::Point m_position{};
    std::int64_t best_front = 0;
    bool have_front = false;
    for (BlockCursor& c : live) {
      if (c.done || c.id != min_id) continue;
      if (filtered) {
        const bool wins = c.scan.has_front &&
                          (!have_front || c.scan.front_t_ms < best_front);
        if (first || wins) {
          m_rat = c.rec.rat;
          m_channel = c.rec.channel;
          m_position = c.rec.position;
        }
        if (wins) {
          have_front = true;
          best_front = c.scan.front_t_ms;
        }
      }
      if (runs > 1 || !skips_repeats(c.scan)) {
        core::expand_repeats(c.rec.observations, c.scan.repeats);
      } else {
        for (const core::Repeat& m : c.scan.repeats)
          fs.repeat_rows_skipped += m.end - m.begin;
      }
      if (first) {
        std::swap(merged, c.rec);
        first = false;
      } else {
        merged.merge_from(std::move(c.rec));
      }
      if (!step(c, advance)) return fail();
    }
    if (filtered) {
      merged.rat = m_rat;
      merged.channel = m_channel;
      merged.position = m_position;
    }
    consumer(static_cast<std::uint32_t>(min_id), merged);
    ++fs.cells;
    while (!live.empty() && live.front().done) live.pop_front();
  }

  fs.fold_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  accumulate(fs);
  return fs;
}

void DirectFold::accumulate(const FoldStats& fs) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.rows += fs.rows;
  stats_.cells += fs.cells;
  stats_.blocks += fs.blocks;
  stats_.bytes += fs.bytes;
  stats_.values_skipped += fs.values_skipped;
  stats_.repeat_rows_skipped += fs.repeat_rows_skipped;
  stats_.peak_resident_blocks =
      std::max(stats_.peak_resident_blocks, fs.peak_resident_blocks);
  stats_.crc_checked = stats_.crc_checked && fs.crc_checked;
  stats_.fold_seconds += fs.fold_seconds;
}

FoldStats DirectFold::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

Result<FoldStats> DirectFold::fold_planned(const QueryPlan& plan,
                                           std::string_view carrier,
                                           const CellConsumer& consumer) const {
  using R = Result<FoldStats>;
  if (&plan.shards() != set_)
    return R::error("fold_planned: plan is bound to a different shard set");
  const CarrierQueryPlan* cp = plan.find_carrier(carrier);
  if (!cp) return FoldStats{};
  auto r = run_fold({cp, &plan, window_budget(), options_.gauge}, consumer);
  if (!r) return r;
  FoldStats fs = r.value();
  fs.blocks_skipped = plan.blocks_skipped();
  fs.bytes_skipped = plan.bytes_skipped();
  return fs;
}

Result<FoldStats> DirectFold::fold_query(
    const QueryPlan& plan,
    const std::function<CellConsumer(std::size_t, const CarrierQueryPlan&)>&
        make_consumer,
    std::vector<FoldStats>* per_carrier) const {
  using R = Result<FoldStats>;
  if (&plan.shards() != set_)
    return R::error("fold_query: plan is bound to a different shard set");
  const auto start = std::chrono::steady_clock::now();
  const std::vector<CarrierQueryPlan>& cps = plan.carriers();

  // Consumers are created serially, in sorted carrier order, before any
  // fold starts — accumulator setup never races.
  std::vector<CellConsumer> consumers;
  consumers.reserve(cps.size());
  for (std::size_t i = 0; i < cps.size(); ++i)
    consumers.push_back(make_consumer(i, cps[i]));

  std::size_t nonempty = 0;
  for (const CarrierQueryPlan& cp : cps)
    if (!cp.blocks.empty()) ++nonempty;
  const std::size_t jobs = std::min<std::size_t>(
      thread_count(), std::max<std::size_t>(nonempty, 1));
  // Each job gets a 1/jobs slice of the one global window budget, so total
  // residency honors the same bound whatever the job count.
  const std::size_t window = std::max<std::size_t>(1, window_budget() / jobs);
  ResidencyGauge local_gauge;
  ResidencyGauge* gauge = options_.gauge ? options_.gauge : &local_gauge;

  std::vector<std::string> errors(cps.size());
  std::vector<FoldStats> per(cps.size());
  const auto run_job = [&](std::size_t i) {
    const auto r = run_fold({&cps[i], &plan, window, gauge}, consumers[i]);
    if (!r) {
      errors[i] = r.error_message();
    } else {
      per[i] = r.value();
    }
  };

  if (jobs == 1) {
    // The sequential per-carrier loop, inline: no pool thread.
    for (std::size_t i = 0; i < cps.size(); ++i) {
      run_job(i);
      if (!errors[i].empty()) break;
    }
  } else {
    // Submission is largest-carrier-first (FIFO pool start order): the
    // longest fold starts immediately instead of becoming the tail.
    std::vector<std::size_t> order(cps.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (cps[a].rows != cps[b].rows) return cps[a].rows > cps[b].rows;
      return a < b;
    });
    WorkerPool pool(static_cast<unsigned>(jobs));
    for (const std::size_t i : order) pool.submit([&run_job, i] { run_job(i); });
    pool.wait_idle();
  }
  // First failing carrier in sorted order wins, deterministically.
  for (std::size_t i = 0; i < cps.size(); ++i)
    if (!errors[i].empty()) return R::error(errors[i]);

  FoldStats agg;
  agg.crc_checked = options_.check_block_crc;
  agg.blocks_skipped = plan.blocks_skipped();
  agg.bytes_skipped = plan.bytes_skipped();
  agg.peak_resident_blocks = gauge->peak.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < cps.size(); ++i) {
    agg.rows += per[i].rows;
    agg.cells += per[i].cells;
    agg.blocks += per[i].blocks;
    agg.bytes += per[i].bytes;
    agg.values_skipped += per[i].values_skipped;
    agg.repeat_rows_skipped += per[i].repeat_rows_skipped;
  }
  agg.fold_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (per_carrier) *per_carrier = std::move(per);
  return agg;
}

Result<stats::ValueCounts> DirectFold::values(const std::string& carrier,
                                              config::ParamKey key,
                                              const Query& query) const {
  Query q = query;
  q.carriers = {carrier};
  if (q.params.empty()) q.params = {key};
  const QueryPlan plan(*set_, std::move(q));
  stats::ValueTally tally;
  core::CellFolder folder;
  const auto r = fold_planned(plan, carrier, [&](std::uint32_t,
                                                 const core::CellRecord& rec) {
    folder.fold(rec);
    for (const double v : folder.unique_values(key)) tally.add(v);
  });
  if (!r) return Result<stats::ValueCounts>::error(r.error_message());
  return tally.counts();
}

}  // namespace mmlab::store
