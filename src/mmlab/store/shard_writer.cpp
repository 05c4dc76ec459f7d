#include "mmlab/store/shard_writer.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <stdexcept>

#include "mmlab/util/crc.hpp"
#include "mmlab/util/worker_pool.hpp"

namespace mmlab::store {

namespace {

std::string shard_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu.mmds2", index);
  return buf;
}

}  // namespace

// --- ShardWriter -------------------------------------------------------------

ShardWriter::ShardWriter(std::string dir, WriterOptions options)
    : dir_(std::move(dir)), options_(options) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw std::runtime_error("ShardWriter: cannot create " + dir_ + ": " +
                             ec.message());
}

bool ShardWriter::extends_block(std::uint32_t carrier_index,
                                std::uint32_t id) const {
  return block_.carrier_index == carrier_index && id > block_.last_cell &&
         block_.length < options_.target_block_bytes;
}

std::uint32_t ShardWriter::index_of(const std::string& carrier) const {
  const auto it = carrier_index_.find(carrier);
  return it != carrier_index_.end()
             ? it->second
             : static_cast<std::uint32_t>(manifest_.carriers.size());
}

void ShardWriter::add_cell(const std::string& carrier, std::uint32_t id,
                           const core::CellRecord& rec) {
  if (finished_) throw std::logic_error("ShardWriter: add_cell after finish");
  const std::uint32_t index = index_of(carrier);
  if (in_block_ && !extends_block(index, id)) close_block();
  // The kernel reports a non-finite value as it encodes; a refused cell
  // leaves no bytes, parameter, carrier or open block behind.
  const std::size_t start = pending_.size();
  const std::size_t params_before = param_index_.keys().size();
  RepeatCount repeats;
  if (!encode_cell(pending_, id, rec, param_index_, &repeats)) {
    pending_.truncate(start);
    param_index_.truncate(params_before);
    throw std::invalid_argument("ShardWriter: non-finite observation value "
                                "in cell " + std::to_string(id));
  }
  place_cell(carrier, index, id, rec.row_count(),
             pending_.size() - start, repeats);
}

void ShardWriter::place_cell(const std::string& carrier,
                             std::uint32_t carrier_index, std::uint32_t id,
                             std::uint64_t rows, std::size_t bytes,
                             RepeatCount repeats) {
  stats_.repeats.snapshots += repeats.snapshots;
  stats_.repeats.rows += repeats.rows;
  if (carrier_index == manifest_.carriers.size()) {
    carrier_index_.emplace(carrier, carrier_index);
    manifest_.carriers.push_back(carrier);
  }
  if (!in_block_) open_block(carrier_index, id);
  block_.length += bytes;
  block_.last_cell = id;
  ++block_.cell_count;
  block_.row_count += rows;
}

void ShardWriter::open_block(std::uint32_t carrier_index, std::uint32_t id) {
  if (shard_ && shard_->bytes_written() >= options_.target_shard_bytes)
    close_shard();
  if (!shard_) {
    const std::string name = shard_name(manifest_.shards.size());
    shard_ = std::make_unique<FileWriter>(
        (std::filesystem::path(dir_) / name).string());
    shard_->write(kShardMagic, sizeof(kShardMagic));
    shard_crc_ = crc16_ccitt(kShardMagic, sizeof(kShardMagic));
    manifest_.shards.push_back({name, 0, 0, {}});
  }
  block_ = BlockInfo{};
  block_.carrier_index = carrier_index;
  block_.offset = shard_->bytes_written();
  block_.first_cell = id;
  block_crc_ = kCrc16CcittInit;
  in_block_ = true;
}

void ShardWriter::write_block_bytes(const std::uint8_t* data,
                                    std::size_t size) {
  block_crc_ = crc16_ccitt_update(block_crc_, data, size);
  shard_->write(data, size);
}

void ShardWriter::drain() {
  if (pending_.size() == 0) return;
  write_block_bytes(pending_.buffer().data(), pending_.size());
  pending_.clear();
}

void ShardWriter::close_block() {
  if (!in_block_) return;
  drain();
  block_.crc16 = crc16_ccitt_finalize(block_crc_);
  shard_crc_ = crc16_ccitt_combine(shard_crc_, block_.crc16, block_.length);
  manifest_.shards.back().blocks.push_back(block_);
  stats_.rows += block_.row_count;
  stats_.cells += block_.cell_count;
  ++stats_.blocks;
  in_block_ = false;
}

void ShardWriter::close_shard() {
  if (!shard_) return;
  ShardInfo& info = manifest_.shards.back();
  info.file_size = shard_->bytes_written();
  info.crc16 = shard_crc_;
  stats_.bytes += info.file_size;
  shard_->close();
  shard_.reset();
}

WriteStats ShardWriter::finish() {
  if (finished_) return stats_;
  close_block();
  close_shard();
  stats_.shards = manifest_.shards.size();
  manifest_.repeats = stats_.repeats.snapshots > 0;
  manifest_.params.clear();
  for (const config::ParamKey key : param_index_.keys())
    manifest_.params.push_back(config::param_name(key));
  write_manifest(dir_, manifest_);
  finished_ = true;
  return stats_;
}

// --- ShardWriter::add_database -----------------------------------------------

void ShardWriter::add_database(const core::ConfigDatabase& db) {
  if (finished_)
    throw std::logic_error("ShardWriter: add_database after finish");
  const unsigned threads = options_.threads == 0
                               ? WorkerPool::default_thread_count()
                               : options_.threads;
  if (threads > 1) {
    add_database_parallel(db, threads);
    return;
  }
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells) add_cell(carrier, id, rec);
}

namespace {

/// One cell of add_database's input, in write order.
struct CellRef {
  const std::string* carrier;
  std::uint32_t id;
  const core::CellRecord* rec;
};

/// The keys of cells [first, last) in first-sight order.
std::vector<config::ParamKey> first_sight_keys(const std::vector<CellRef>& cells,
                                               std::size_t first,
                                               std::size_t last) {
  std::vector<std::uint64_t> seen(ParamIndexMap::kSlots / 64);
  std::vector<config::ParamKey> keys;
  for (std::size_t i = first; i < last; ++i)
    for (const auto& obs : cells[i].rec->observations) {
      const std::size_t slot = ParamIndexMap::slot(obs.key);
      const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
      if (seen[slot / 64] & bit) continue;
      seen[slot / 64] |= bit;
      keys.push_back(obs.key);
    }
  return keys;
}

/// An encode buffer, reused by chunk after chunk.  ends[k] is the end
/// offset of the chunk's k-th encoded cell, repeats[k] its repeats.
struct EncodeSlot {
  ByteWriter bytes;
  std::vector<std::size_t> ends;
  std::vector<RepeatCount> repeats;
};

/// Cells [first, last) of the input.  A pool job encodes them into `slot`
/// (reserving the worst case, `reserve`), stopping at the first cell with
/// a non-finite value, so fewer than last - first ends mark that cell.
struct Chunk {
  std::size_t first = 0;
  std::size_t last = 0;
  std::size_t reserve = 0;
  std::vector<config::ParamKey> keys;
  EncodeSlot* slot = nullptr;
  std::exception_ptr error;
  bool encoded = false;
};

}  // namespace

void ShardWriter::add_database_parallel(const core::ConfigDatabase& db,
                                        unsigned threads) {
  std::vector<CellRef> cells;
  for (const auto& [carrier, map] : db.carriers())
    for (const auto& [id, rec] : map) cells.push_back({&carrier, id, &rec});
  if (cells.empty()) return;
  drain();

  // Cell-aligned chunks of at most `budget` worst-case encoded bytes, so a
  // full window holds 2 * threads of them.  A chunk reserves its worst case
  // before encoding, and the reservations of the chunks in flight stay
  // within `window` (or are one chunk, when a single one is larger).
  const std::size_t window = options_.target_block_bytes;
  const std::size_t budget = std::max<std::size_t>(window / (2 * threads), 1);
  std::vector<Chunk> chunks;
  for (std::size_t i = 0; i < cells.size();) {
    Chunk& chunk = chunks.emplace_back();
    chunk.first = i;
    do {
      chunk.reserve += max_encoded_cell_size(encoded_entries(*cells[i].rec));
      ++i;
    } while (i < cells.size() &&
             chunk.reserve +
                     max_encoded_cell_size(encoded_entries(*cells[i].rec)) <=
                 budget);
    chunk.last = i;
  }

  std::mutex mutex;
  std::condition_variable ready;
  std::atomic<bool> abort{false};
  std::vector<std::unique_ptr<EncodeSlot>> slots;
  std::vector<EncodeSlot*> free_slots;
  const ParamIndexMap& table = param_index_;
  const auto encode = [&](Chunk& chunk) {
    EncodeSlot& slot = *chunk.slot;
    try {
      slot.bytes.clear();
      slot.ends.clear();
      slot.repeats.clear();
      if (!abort) {
        slot.bytes.reserve(chunk.reserve);
        slot.ends.reserve(chunk.last - chunk.first);
        slot.repeats.reserve(chunk.last - chunk.first);
        for (std::size_t i = chunk.first; i < chunk.last; ++i) {
          RepeatCount repeats;
          if (!encode_cell(slot.bytes, cells[i].id, *cells[i].rec, table,
                           &repeats))
            break;
          slot.ends.push_back(slot.bytes.size());
          slot.repeats.push_back(repeats);
        }
      }
    } catch (...) {
      chunk.error = std::current_exception();
    }
    std::lock_guard lock(mutex);
    chunk.encoded = true;
    ready.notify_one();
  };
  // The calling thread writes, so it takes one of the threads; no more
  // workers than chunks.  Declared after everything its jobs touch, so it
  // is joined first.
  WorkerPool pool(static_cast<unsigned>(
      std::min<std::size_t>(threads - 1, chunks.size())));

  // Every chunk's first-sight keys, merged in chunk order: the add_cell
  // loop's first-sight order.  The table is read-only from here on.
  for (Chunk& chunk : chunks)
    pool.submit([&cells, &chunk] {
      chunk.keys = first_sight_keys(cells, chunk.first, chunk.last);
    });
  pool.wait_idle();
  const std::size_t params_before = param_index_.keys().size();
  for (Chunk& chunk : chunks) {
    for (const config::ParamKey key : chunk.keys) param_index_.assign(key);
    chunk.keys = {};
  }

  // Encode chunks ahead of this thread, which lays them out in order.
  std::size_t encoding = 0, in_flight = 0;
  try {
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      for (; encoding < chunks.size() &&
             (encoding == c || in_flight + chunks[encoding].reserve <= window);
           ++encoding) {
        if (free_slots.empty()) {
          slots.push_back(std::make_unique<EncodeSlot>());
          free_slots.push_back(slots.back().get());
        }
        chunks[encoding].slot = free_slots.back();
        free_slots.pop_back();
        in_flight += chunks[encoding].reserve;
        pool.submit([&encode, &next = chunks[encoding]] { encode(next); });
      }
      Chunk& chunk = chunks[c];
      {
        std::unique_lock lock(mutex);
        ready.wait(lock, [&] { return chunk.encoded; });
      }
      if (chunk.error) std::rethrow_exception(chunk.error);

      // Lay the chunk out under add_cell's rules, cell by cell, writing
      // each run of cells that falls in one block as one piece.
      const EncodeSlot& slot = *chunk.slot;
      const std::uint8_t* bytes = slot.bytes.buffer().data();
      std::size_t piece = 0, pos = 0;
      const auto write_piece = [&] {
        if (pos > piece) write_block_bytes(bytes + piece, pos - piece);
        piece = pos;
      };
      const std::string* carrier = nullptr;
      std::uint32_t index = 0;
      for (std::size_t k = 0; k < chunk.last - chunk.first; ++k) {
        const CellRef& cell = cells[chunk.first + k];
        if (cell.carrier != carrier) {
          carrier = cell.carrier;
          index = index_of(*carrier);
        }
        if (in_block_ && !extends_block(index, cell.id)) {
          write_piece();
          close_block();
        }
        if (k == slot.ends.size()) {
          write_piece();
          // Keys first seen before the refused cell are a prefix of the
          // first-sight table; keep exactly those.
          abort = true;
          pool.wait_idle();
          std::size_t keep = params_before;
          for (std::size_t i = 0; i < chunk.first + k; ++i)
            for (const auto& obs : cells[i].rec->observations)
              keep = std::max<std::size_t>(keep, table.get(obs.key) + 1);
          param_index_.truncate(keep);
          throw std::invalid_argument(
              "ShardWriter: non-finite observation value in cell " +
              std::to_string(cell.id));
        }
        place_cell(*carrier, index, cell.id, cell.rec->row_count(),
                   slot.ends[k] - pos, slot.repeats[k]);
        pos = slot.ends[k];
      }
      write_piece();
      free_slots.push_back(chunk.slot);
      in_flight -= chunk.reserve;
    }
  } catch (...) {
    abort = true;
    throw;
  }
}

// --- StreamingDatasetSink ----------------------------------------------------

StreamingDatasetSink::StreamingDatasetSink(ShardWriter& writer,
                                           std::size_t chunk_rows)
    : writer_(writer), chunk_rows_(chunk_rows == 0 ? 1 : chunk_rows) {}

void StreamingDatasetSink::snapshot(
    const std::string& carrier, std::uint32_t cell_id, spectrum::Rat rat,
    std::uint32_t channel, geo::Point position, SimTime t,
    const std::vector<config::ParamObservation>& params) {
  chunk_.add_snapshot(carrier, cell_id, rat, channel, position, t, params);
  buffered_rows_ += params.size();
  if (buffered_rows_ >= chunk_rows_) flush();
}

void StreamingDatasetSink::flush() {
  writer_.add_database(chunk_);
  chunk_ = core::ConfigDatabase{};
  buffered_rows_ = 0;
}

WriteStats StreamingDatasetSink::finish() {
  flush();
  return writer_.finish();
}

// --- save_database -----------------------------------------------------------

WriteStats save_database(const core::ConfigDatabase& db,
                         const std::string& dir, WriterOptions options) {
  ShardWriter writer(dir, options);
  writer.add_database(db);
  return writer.finish();
}

}  // namespace mmlab::store
