// Shard-direct query folds: answer analysis queries straight off the mapped
// MMDS v2 blocks, with no database (or any other whole-store structure)
// materialized in between.
//
// DirectFold streams each carrier's blocks through a bounded window of open
// blocks and hands every *fully merged* cell record to a consumer exactly
// once, in globally ascending cell-id order.  values() and the analysis
// mix (store/analytics.hpp) are folds over that stream.
//
// Memory model: an open block is a cursor over its mapped body that holds
// one parsed cell run at a time (one CellRecord, reused for every run of
// the block); runs are parsed on demand as the merge consumes them.  So
// resident memory is O(open blocks × (mapped body + one cell run)) plus
// the answer — never the store.
//
// Merge contract (DESIGN.md §12): a cell's runs merge via
// CellRecord::merge_from in global (shard, block) manifest order — exactly
// what load_database does — so every downstream product is bit-identical to
// the in-memory path for any thread count and window size.  Blocks open
// serially, in manifest order.  The windowing invariant that makes
// streaming safe: with the manifest's per-block cell-id ranges, a merged
// cell may be emitted once its id is below every unopened block's
// first_cell — ids within a block lie inside [first_cell, last_cell], so no
// later block can contribute another run of it.
//
// Repeats (DESIGN.md §12): a cell run's repeat markers (mmds2.hpp) are
// kept beside its record, not expanded into it.  A cell with exactly one
// run whose times never decrease and start at or above CellRecord::latest's
// -1 sentinel reaches the consumer with its distinct snapshots only: there
// a repeat cannot change a first-seen unique value, a (context, value)
// pair or a latest value, which is all the fig11-22 products read.  Every
// other cell (several runs, times out of order, times below -1) is
// expanded first by core::expand_repeats, and merges exactly as loaded.
// So a consumer that counts rows must take them from the manifest
// (FoldStats::rows), not from the records; FoldStats::repeat_rows_skipped
// counts what the lone runs left out.
//
// Planned folds (DESIGN.md §13): every fold is planned.  A store::QueryPlan
// narrows a fold to the blocks that can contribute to a query — other
// carriers' blocks and blocks whose cell-id range misses the query are
// never mapped, checksummed, or parsed; FoldStats counts what the planner
// skipped (a plan of Query{} selects everything: the unfiltered fold).  A
// ParamKey predicate additionally pushes down to the wire: filtered
// observations are never materialized (their values are only checked
// finite).  Filtered
// folds preserve the merge contract exactly — the metadata tie-break
// (which run's rat/channel/position wins) is computed over each run's
// *unfiltered* front observation, so a planned answer is bit-identical to
// filtering the corresponding full-fold answer.  fold_query schedules the
// selected carriers as concurrent pool jobs (largest first) under one
// shared window budget.
//
// Integrity: each block body is checksummed against its manifest CRC when
// the block is opened (FoldOptions::check_block_crc), before any of its
// cells is parsed.  The cell-id order, cell count, row count and
// first/last ids are checked against the manifest when the cursor reaches
// the end of the body.  A mismatch — or any structural damage the parser
// trips on — fails the whole fold; a query never returns a partial answer
// built from a corrupt prefix.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "mmlab/core/database.hpp"
#include "mmlab/stats/diversity.hpp"
#include "mmlab/store/query_plan.hpp"
#include "mmlab/store/shard_set.hpp"
#include "mmlab/util/result.hpp"

namespace mmlab::store {

/// Shared residency accounting for folds that run concurrently (the
/// cross-carrier scheduler): every participating fold adds its open block
/// count here (a block counts from its open until its body has been read
/// to the end), so `peak` is the high-water mark of the *total* window
/// across jobs — the number the shared budget bounds.  Every fold drains
/// what it added, on success and on error alike.
struct ResidencyGauge {
  std::atomic<std::uint64_t> resident{0};
  std::atomic<std::uint64_t> peak{0};

  void add(std::uint64_t n) {
    const std::uint64_t now =
        resident.fetch_add(n, std::memory_order_relaxed) + n;
    std::uint64_t p = peak.load(std::memory_order_relaxed);
    while (p < now &&
           !peak.compare_exchange_weak(p, now, std::memory_order_relaxed)) {
    }
  }
  void sub(std::uint64_t n) {
    resident.fetch_sub(n, std::memory_order_relaxed);
  }
};

struct FoldOptions {
  /// The cross-carrier job count of fold_query (0 = all cores): at most
  /// this many selected carriers fold concurrently, one pool job each.
  /// Each carrier's blocks always parse serially in manifest order, so
  /// results are identical for every value.  fold_planned folds one
  /// carrier inline; there `threads` only sizes the default window.
  unsigned threads = 1;
  /// madvise(MADV_DONTNEED) each block's mapped bytes once its last cell
  /// has been merged out.  Disable to keep the page cache warm when the
  /// same store will be re-read immediately (equality passes).
  bool release_mapped = true;
  /// Window in open blocks (0 = auto: max(2, 2 * threads)): when the
  /// emission frontier needs more runs, this many blocks are opened at
  /// once.  Each open block costs its mapped body plus one parsed cell
  /// run, so the window bounds residency; it buys no parse parallelism
  /// (a fold parses one run at a time).  It is a floor on batching, not a
  /// ceiling on residency: a block stays open until its last cell is
  /// merged out, so a layout with interleaved cell-id ranges can hold more
  /// than `window_blocks` blocks open (correctness never depends on the
  /// window).  fold_query treats this as the GLOBAL budget and gives each
  /// of its concurrent carrier jobs max(1, budget / jobs).
  std::size_t window_blocks = 0;
  /// Checksum each block body against the manifest's per-block CRC when
  /// the block is opened (FoldStats::crc_checked reports this flag).
  bool check_block_crc = true;
  /// Optional shared residency gauge; every fold run through this engine
  /// reports its resident-block count there (fold_query supplies its own
  /// when the caller doesn't).  Must outlive the folds.
  ResidencyGauge* gauge = nullptr;
};

struct FoldStats {
  std::uint64_t rows = 0;    ///< rows scanned, repeats expanded
  std::uint64_t cells = 0;   ///< merged cells emitted (distinct ids)
  std::uint64_t blocks = 0;  ///< blocks opened (and parsed to the end)
  std::uint64_t bytes = 0;   ///< block body bytes parsed
  /// Blocks / bytes the query planner pruned — never mapped or parsed.
  /// Zero for plain (unplanned) folds; for planned folds this is the
  /// store-wide count relative to the bound QueryPlan (other carriers'
  /// blocks count as skipped — exactly what the plan saved over a full
  /// fold of the store).
  std::uint64_t blocks_skipped = 0;
  std::uint64_t bytes_skipped = 0;
  /// Observations the ParamKey push-down dropped instead of materializing
  /// (they still count in `rows`; their values are only checked finite).
  std::uint64_t values_skipped = 0;
  /// Rows of the repeat snapshots lone runs were delivered without (see
  /// "Repeats" above), counted over the rows the push-down keeps.  With no
  /// param or cell-range predicate, the rows delivered plus these equal
  /// `rows`.
  std::uint64_t repeat_rows_skipped = 0;
  /// Largest number of concurrently open blocks — the realized window,
  /// i.e. what bounds transient memory (each open block is its mapped body
  /// plus one parsed cell run).  For fold_query this is the gauge peak:
  /// the total across concurrent carrier jobs.
  std::uint64_t peak_resident_blocks = 0;
  bool crc_checked = false;  ///< per-block CRCs were verified mid-fold
  double fold_seconds = 0.0;

  /// Body bytes materialized: parsed bytes minus the value payloads of
  /// dropped observations.  Strictly less than `bytes` whenever the param
  /// push-down filtered anything.
  std::uint64_t bytes_read() const { return bytes - 8 * values_skipped; }
};

/// Streaming fold engine over an opened ShardSet.  The set must outlive the
/// engine and stay open across every fold.  Folds are const; cumulative
/// stats() accumulation is mutex-guarded, so independent folds (e.g. the
/// cross-carrier scheduler's jobs) may run concurrently on one engine.
class DirectFold {
 public:
  explicit DirectFold(const ShardSet& set, FoldOptions options = {});

  const ShardSet& shards() const { return *set_; }
  const FoldOptions& options() const { return options_; }
  /// Carrier names in sorted order (the ConfigDatabase carrier order).
  const std::vector<std::string>& carriers() const { return names_; }

  /// Receives each of the carrier's cells exactly once, fully merged across
  /// all its runs, in ascending id order; a lone sorted run may arrive
  /// without its repeat snapshots (see "Repeats" above).  The record is
  /// only valid for the duration of the call.  Under a ParamKey predicate a cell whose
  /// observations were all filtered out is still delivered (with empty
  /// observations): per-cell census products — e.g. the LTE cell count
  /// under multi_priority_cell_fraction — must not shift when values are
  /// filtered.  Only cells outside the query's id range are dropped.
  using CellConsumer =
      std::function<void(std::uint32_t id, const core::CellRecord& rec)>;

  /// Stream one planned carrier: only the plan's selected blocks open,
  /// and the plan's wire predicates (cell range, param mask) apply; a plan
  /// of Query{} streams the whole carrier unfiltered.  The plan must be
  /// bound to this engine's ShardSet.  A carrier the plan did not select
  /// (an unknown one included) is an empty success, matching the
  /// ConfigDatabase queries' empty-result convention.  Block CRC mismatches
  /// and structural damage fail the fold; the consumer may have seen a
  /// prefix of the cells, so callers discard partial accumulation on error
  /// (every query in this module does).  Returned skip counts are the
  /// plan's store-wide numbers (see FoldStats).
  Result<FoldStats> fold_planned(const QueryPlan& plan,
                                 std::string_view carrier,
                                 const CellConsumer& consumer) const;

  /// Cross-carrier scheduler: fold every carrier the plan selected, as
  /// concurrent pool jobs when options().threads > 1 (largest carrier
  /// first, so stragglers start early), under ONE shared window budget
  /// (options().window_blocks, split across jobs).  With one job
  /// this is the sequential per-carrier loop, run inline.
  ///
  /// `make_consumer(slot, cp)` is called serially, in sorted carrier order,
  /// once per selected carrier before any fold starts; each returned
  /// consumer is driven by exactly one job (consumers never share state
  /// unless the caller makes them).  Errors: the first failing carrier in
  /// sorted order wins, deterministically.  The returned stats aggregate
  /// all jobs; peak_resident_blocks is the concurrent total.  On success,
  /// `per_carrier` (when given) receives each slot's own fold stats —
  /// rows/cells/blocks/bytes of that carrier alone, no plan-wide skip
  /// counts — parallel to plan.carriers().
  Result<FoldStats> fold_query(
      const QueryPlan& plan,
      const std::function<CellConsumer(std::size_t slot,
                                       const CarrierQueryPlan& cp)>&
          make_consumer,
      std::vector<FoldStats>* per_carrier = nullptr) const;

  /// The carrier's distinct values of `key` per cell, summed over cells:
  /// ConfigDatabase::values over load_database(store) restricted to the
  /// query's selection.  One planned fold over `carrier` (the explicit
  /// carrier wins over query.carriers); an empty query.params is narrowed
  /// to {key}, so the fold skips every other parameter's value bytes.
  Result<stats::ValueCounts> values(const std::string& carrier,
                                    config::ParamKey key,
                                    const Query& query = {}) const;

  /// Cumulative stats over every fold this engine has run (crc_checked and
  /// peak_resident_blocks reflect the whole history: AND and max; planner
  /// skip counts are NOT accumulated here — they belong to a plan, not the
  /// engine).  Mutex-guarded; safe to read between folds.
  FoldStats stats() const;

 private:
  /// One windowed streaming fold of one planned carrier: the shared engine
  /// under fold_planned and fold_query's jobs.
  struct FoldJob {
    const CarrierQueryPlan* carrier = nullptr;  ///< blocks + frontier
    const QueryPlan* plan = nullptr;            ///< wire predicates
    std::size_t window = 0;  ///< blocks opened per batch, >= 1
    ResidencyGauge* gauge = nullptr;
  };

  /// options().threads with 0 resolved to the machine's core count.
  unsigned thread_count() const;
  /// options().window_blocks with 0 resolved to max(2, 2 * threads).
  std::size_t window_budget() const;
  Result<FoldStats> run_fold(const FoldJob& job,
                             const CellConsumer& consumer) const;
  void accumulate(const FoldStats& fs) const;

  const ShardSet* set_;
  FoldOptions options_;
  std::vector<std::string> names_;   ///< sorted
  mutable std::mutex stats_mutex_;
  mutable FoldStats stats_;
};

}  // namespace mmlab::store
