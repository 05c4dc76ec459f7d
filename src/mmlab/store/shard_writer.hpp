// Bounded-memory MMDS v2 writers.
//
// ShardWriter is the low-level single-pass appender: feed it cells (already
// grouped by carrier, ascending cell id within a run) and it streams block
// bodies into shard files, rotating blocks and shards at the configured
// byte targets and accumulating the manifest as it goes.  Peak memory is
// one block buffer (~target_block_bytes) regardless of dataset size.
//
// StreamingDatasetSink sits on top for producers that emit *snapshots* in
// arbitrary carrier order (the netgen streaming generator, a live ingest
// pipeline): it batches snapshots into an in-memory ConfigDatabase chunk
// and spills the chunk — carriers in name order, cells ascending — as one
// run per carrier.  The spill contract: loading the finished store yields
// exactly the fold-merge of the chunk databases in spill order
// (ConfigDatabase::merge semantics).  When every cell's snapshots arrive in
// nondecreasing time order — true of the generator and of any replayed
// crawl — that is bit-identical to add_snapshot-ing everything into one big
// database, so chunk size never changes results.
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
};

struct WriteStats {
  std::uint64_t rows = 0;
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
  /// Throws std::invalid_argument when an observation value is NaN or
  /// infinite (readers reject such a store).  The refused cell adds no
  /// bytes, carrier or parameter to the store; it may end the current
  /// block early.
  void add_cell(const std::string& carrier, std::uint32_t id,
                const core::CellRecord& rec);

  /// Flush everything and write the manifest.  The writer is spent
  /// afterwards; add_cell must not be called again.
  WriteStats finish();

 private:
  void flush_block();
  void close_shard();

  std::string dir_;
  WriterOptions options_;
  Manifest manifest_;
  std::map<std::string, std::uint32_t> carrier_index_;
  /// Assigned on first sight by the encode pass; manifest_.params mirrors
  /// its keys() as registry names.
  ParamIndexMap param_index_;

  // Blocks go straight from block_ to the file: each block is CRC'd once,
  // and the shard's whole-file CRC is folded from the block CRCs
  // (crc16_ccitt_combine), starting from the magic's.
  std::unique_ptr<FileWriter> shard_;
  std::uint16_t shard_crc_ = 0;
  ByteWriter block_;
  // Current-block state; carrier index is valid only while in_block_.
  bool in_block_ = false;
  std::uint32_t block_carrier_ = 0;
  std::uint32_t block_first_id_ = 0;
  std::uint32_t last_id_ = 0;
  std::uint64_t block_cells_ = 0;
  std::uint64_t block_rows_ = 0;
  WriteStats stats_;
  bool finished_ = false;
};

class StreamingDatasetSink {
 public:
  /// Spills to `writer` every `chunk_rows` buffered observations.  The
  /// writer must outlive the sink; call finish() (not the writer's) when
  /// done so the tail chunk spills first.
  explicit StreamingDatasetSink(ShardWriter& writer,
                                std::size_t chunk_rows = 4'000'000);

  /// Mirror of ConfigDatabase::add_snapshot.
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
