// Bounded-memory MMDS v2 writers.
//
// ShardWriter is the low-level single-pass appender: feed it cells (already
// grouped by carrier, ascending cell id within a run) and it streams block
// bodies into shard files, rotating blocks and shards at the configured
// byte targets and accumulating the manifest as it goes.  add_cell is the
// serial path, and holds at most one block's encoded bytes (~target_block_
// bytes plus the last cell's overshoot) regardless of dataset size.
// add_database encodes a whole database on a worker pool and writes the same
// bytes; its encoded bytes in flight stay within the same bound (or one
// cell, when a single cell is larger).
//
// StreamingDatasetSink sits on top for producers that emit *snapshots* in
// arbitrary carrier order (the netgen streaming generator, a live ingest
// pipeline): it files snapshots into an in-memory ConfigDatabase chunk
// (add_snapshot: each repeat held once, counted in expanded rows) and
// spills the chunk — carriers in name order, cells ascending — as one run
// per carrier.  The spill contract: loading the finished store yields
// exactly the fold-merge of the chunk databases in spill order
// (ConfigDatabase::merge semantics).  When every cell's snapshots arrive in
// nondecreasing time order — true of the generator and of any replayed
// crawl — that equals add_snapshot-ing everything into one big database,
// so chunk size never changes results.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mmlab/core/database.hpp"
#include "mmlab/store/cell_codec.hpp"
#include "mmlab/store/mmds2.hpp"
#include "mmlab/util/byteio.hpp"

namespace mmlab::store {

struct WriterOptions {
  /// Block rotation threshold: a block closes once its body reaches this
  /// (the final cell may overshoot).  Blocks are the mmap read granule and
  /// the out-of-core build's merge unit.
  std::size_t target_block_bytes = 8u << 20;
  /// Shard rotation threshold: a shard closes once it holds this many bytes
  /// (checked at block boundaries; blocks never span shards).
  std::size_t target_shard_bytes = 64u << 20;
  /// Encode threads of add_database (and so of save_database and
  /// StreamingDatasetSink): 0 = one per hardware thread, 1 = the serial
  /// add_cell loop.  The bytes written never depend on it.
  unsigned threads = 0;
};

struct WriteStats {
  std::uint64_t rows = 0;  ///< observations, repeats expanded
  /// Snapshots written as repeat markers, and the rows they stand for
  /// (counted in `rows` too).
  RepeatCount repeats;
  std::uint64_t cells = 0;  ///< cell *runs* written (a cell may span runs)
  std::uint64_t blocks = 0;
  std::uint64_t shards = 0;
  std::uint64_t bytes = 0;  ///< shard payload bytes, magics included
};

class ShardWriter {
 public:
  /// The directory must already exist (or be creatable); it is created if
  /// missing.  Throws std::runtime_error on I/O failure.
  explicit ShardWriter(std::string dir, WriterOptions options = {});

  /// Append one cell run entry.  Consecutive calls with the same carrier
  /// and ascending ids extend the current run; a carrier switch or a
  /// non-ascending id starts a new block (a new run of that cell).
  /// Carrier and parameter table indices are assigned on first sight.
  /// A snapshot that repeats the previous one of the record, held as a
  /// repeat or not, is written as a repeat marker (encode_cell).
  /// Throws std::invalid_argument when an observation value is NaN or
  /// infinite (readers reject such a store).  The refused cell adds no
  /// bytes, carrier or parameter to the store; it may end the current
  /// block early.
  void add_cell(const std::string& carrier, std::uint32_t id,
                const core::CellRecord& rec);

  /// Append every cell of `db` (carriers in name order, cells ascending),
  /// writing exactly the bytes the add_cell loop over it would write, at
  /// every WriterOptions::threads.  With more than one thread the cells are
  /// cut into cell-aligned chunks; pool jobs scan every chunk's keys, the
  /// calling thread merges them into the param table in chunk order (the
  /// loop's first-sight order), then pool jobs encode the chunks against
  /// the fixed table while the calling thread lays them out in order under
  /// add_cell's block and shard rules.  A non-finite value throws
  /// add_cell's error for the first such cell in order and leaves the
  /// writer as that loop would: earlier cells added, nothing of the refused
  /// cell or after it.
  void add_database(const core::ConfigDatabase& db);

  /// Flush everything and write the manifest.  The writer is spent
  /// afterwards; add_cell must not be called again.
  WriteStats finish();

 private:
  /// The layout rule, in one place: may a cell (carrier index, id) extend
  /// the open block?  A carrier switch or a non-ascending id starts a new
  /// run (readers rely on ids ascending *within* a block to drive the k-way
  /// cell merge), and a block closes once it reaches the target.
  bool extends_block(std::uint32_t carrier_index, std::uint32_t id) const;
  /// The carrier's table index, or the one it gets on first sight.
  std::uint32_t index_of(const std::string& carrier) const;
  /// Account an accepted cell of `bytes` encoded bytes, registering its
  /// carrier and opening a block (and a shard) when none is open.
  void place_cell(const std::string& carrier, std::uint32_t carrier_index,
                  std::uint32_t id, std::uint64_t rows, std::size_t bytes,
                  RepeatCount repeats);
  void open_block(std::uint32_t carrier_index, std::uint32_t id);
  /// Write bytes of the open block, folding them into its CRC.
  void write_block_bytes(const std::uint8_t* data, std::size_t size);
  /// Write add_cell's buffered bytes of the open block.
  void drain();
  void close_block();
  void close_shard();
  void add_database_parallel(const core::ConfigDatabase& db, unsigned threads);

  std::string dir_;
  WriterOptions options_;
  Manifest manifest_;
  std::map<std::string, std::uint32_t> carrier_index_;
  /// Assigned in first-sight order; finish() copies its keys() into
  /// manifest_.params as registry names.
  ParamIndexMap param_index_;

  // Block bytes go straight to the file: each block is CRC'd once as it is
  // written, and the shard's whole-file CRC is folded from the block CRCs
  // (crc16_ccitt_combine), starting from the magic's.
  std::unique_ptr<FileWriter> shard_;
  std::uint16_t shard_crc_ = 0;
  /// add_cell's encoded bytes of the open block, not yet written.
  ByteWriter pending_;
  /// The open block: its manifest entry so far (crc16 is set on close)
  /// and the running CRC state of its bytes written so far.
  bool in_block_ = false;
  BlockInfo block_;
  std::uint16_t block_crc_ = 0;
  WriteStats stats_;
  bool finished_ = false;
};

class StreamingDatasetSink {
 public:
  /// Spills to `writer` every `chunk_rows` buffered (expanded) rows.  The
  /// writer must outlive the sink; call finish() (not the writer's) when
  /// done so the tail chunk spills first.
  explicit StreamingDatasetSink(ShardWriter& writer,
                                std::size_t chunk_rows = 4'000'000);

  /// ConfigDatabase::add_snapshot into the chunk.
  void snapshot(const std::string& carrier, std::uint32_t cell_id,
                spectrum::Rat rat, std::uint32_t channel, geo::Point position,
                SimTime t, const std::vector<config::ParamObservation>& params);

  /// Spill the buffered chunk now (exposed for tests; finish() calls it).
  void flush();

  /// Spill the tail and finish the writer.
  WriteStats finish();

 private:
  ShardWriter& writer_;
  std::size_t chunk_rows_;
  core::ConfigDatabase chunk_;
  std::size_t buffered_rows_ = 0;
};

/// One-shot: write an in-memory database as an MMDS v2 store (carriers in
/// name order, each as one run — the canonical single-chunk layout).
WriteStats save_database(const core::ConfigDatabase& db,
                         const std::string& dir, WriterOptions options = {});

}  // namespace mmlab::store
