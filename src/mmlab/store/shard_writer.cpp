#include "mmlab/store/shard_writer.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "mmlab/util/crc.hpp"

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

void ShardWriter::add_cell(const std::string& carrier, std::uint32_t id,
                           const core::CellRecord& rec) {
  if (finished_) throw std::logic_error("ShardWriter: add_cell after finish");
  const auto cit = carrier_index_.find(carrier);
  const std::uint32_t carrier_index =
      cit != carrier_index_.end()
          ? cit->second
          : static_cast<std::uint32_t>(manifest_.carriers.size());

  // A carrier switch or a non-ascending id means a new run; readers rely on
  // ids ascending *within* a block to drive the k-way cell merge.
  if (in_block_ &&
      (block_carrier_ != carrier_index || id <= last_id_ ||
       block_.size() >= options_.target_block_bytes))
    flush_block();
  // The kernel reports a non-finite value as it encodes; a refused cell
  // leaves no bytes, parameter, carrier or open block behind.
  const std::size_t block_bytes = block_.size();
  const std::size_t params_before = param_index_.keys().size();
  if (!encode_cell(block_, id, rec, param_index_)) {
    block_.truncate(block_bytes);
    param_index_.truncate(params_before);
    throw std::invalid_argument("ShardWriter: non-finite observation value "
                                "in cell " + std::to_string(id));
  }
  if (cit == carrier_index_.end()) {
    carrier_index_.emplace(carrier, carrier_index);
    manifest_.carriers.push_back(carrier);
  }
  if (!in_block_) {
    in_block_ = true;
    block_carrier_ = carrier_index;
    block_first_id_ = id;
    block_cells_ = 0;
    block_rows_ = 0;
  }
  const auto& keys = param_index_.keys();
  for (std::size_t i = manifest_.params.size(); i < keys.size(); ++i)
    manifest_.params.push_back(config::param_name(keys[i]));
  last_id_ = id;
  ++block_cells_;
  block_rows_ += rec.observations.size();
}

void ShardWriter::flush_block() {
  if (!in_block_) return;
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
  BlockInfo info;
  info.carrier_index = block_carrier_;
  info.offset = shard_->bytes_written();
  info.length = block_.size();
  info.cell_count = block_cells_;
  info.row_count = block_rows_;
  info.crc16 = crc16_ccitt(block_.buffer().data(), block_.size());
  info.first_cell = block_first_id_;
  info.last_cell = last_id_;
  shard_->write(block_.buffer().data(), block_.size());
  shard_crc_ = crc16_ccitt_combine(shard_crc_, info.crc16, info.length);
  manifest_.shards.back().blocks.push_back(info);
  stats_.rows += block_rows_;
  stats_.cells += block_cells_;
  ++stats_.blocks;
  block_.clear();
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
  flush_block();
  close_shard();
  stats_.shards = manifest_.shards.size();
  write_manifest(dir_, manifest_);
  finished_ = true;
  return stats_;
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
  for (const auto& [carrier, cells] : chunk_.carriers())
    for (const auto& [id, rec] : cells) writer_.add_cell(carrier, id, rec);
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
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells) writer.add_cell(carrier, id, rec);
  return writer.finish();
}

}  // namespace mmlab::store
