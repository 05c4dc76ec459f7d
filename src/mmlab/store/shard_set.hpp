// Mapped MMDS v2 read path.
//
// ShardSet::open parses only the manifest, resolves the parameter table
// against the registry, and mmaps every shard (read-only, MAP_PRIVATE) —
// no shard byte is touched until a block is actually read, so opening a
// multi-GB store is O(manifest).  Mapping lifetime rule: block spans
// (block_body) alias the mappings and die with the ShardSet; a direct fold
// copies everything it keeps out of a parsed block, which is what lets it
// madvise consumed regions away mid-fold.
//
// Integrity is two-layered: the manifest carries its own CRC trailer
// (checked at open) plus a per-shard whole-file CRC, checked by verify()
// with a streaming reader — never via the mapping, so a verify pass does
// not fault the whole store into RSS.
//
// Concurrency: an opened ShardSet is immutable — every accessor below is a
// const read over state fixed at open(), and block_body/release_block touch
// only the read-only mappings (release is a stateless madvise; concurrent
// calls for any mix of blocks are safe).  The cross-carrier fold scheduler
// (store::DirectFold::fold_query) relies on exactly this: many carrier
// folds share one ShardSet, each parsing and releasing disjoint block sets
// from pool threads with no locking here.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mmlab/core/database.hpp"
#include "mmlab/core/dataset_io.hpp"
#include "mmlab/store/mmds2.hpp"
#include "mmlab/util/result.hpp"

namespace mmlab::store {

/// Read-only private file mapping (move-only; unmapped on destruction).
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  static Result<MappedFile> open(const std::string& path);

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

  /// Tell the kernel the byte range is done with (rounded inward to whole
  /// pages; advisory — a later read simply refaults from the file).
  void release(std::size_t offset, std::size_t length) const;

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// An opened store: parsed manifest + resolved param keys + one mapping per
/// shard, in manifest order.  Blocks are addressed by flat index in global
/// (shard, block) order — the canonical merge order every reader uses.
class ShardSet {
 public:
  /// Parse the manifest, resolve parameters, map shards, and cross-check
  /// mapped sizes against the manifest.  Does NOT checksum shard payloads
  /// (see verify()).
  static Result<ShardSet> open(std::string dir);

  const std::string& dir() const { return dir_; }
  const Manifest& manifest() const { return manifest_; }
  const std::vector<config::ParamKey>& params() const { return params_; }

  /// Global block table, flattened in (shard, block) order.
  struct BlockRef {
    std::uint32_t shard = 0;
    const BlockInfo* info = nullptr;
  };
  const std::vector<BlockRef>& blocks() const { return blocks_; }

  /// The mapped body bytes of global block `index`.
  std::span<const std::uint8_t> block_body(std::size_t index) const;
  /// Advise the kernel the block's bytes are consumed.
  void release_block(std::size_t index) const;

  /// Stream every shard file through the CRC, comparing against the
  /// manifest.  Returns total payload bytes checked, or the first mismatch.
  Result<std::uint64_t> verify() const;

  std::uint64_t total_rows() const { return manifest_.total_rows(); }

 private:
  std::string dir_;
  Manifest manifest_;
  std::vector<config::ParamKey> params_;
  std::vector<MappedFile> maps_;  ///< parallel to manifest_.shards
  std::vector<BlockRef> blocks_;
};

/// Materialize the whole store as an in-memory ConfigDatabase: every block
/// parses into a private database (concurrently for threads != 1; 0 = all
/// cores), then the per-block databases merge in global block order — so
/// the result is identical for every thread count, and identical to the
/// chunk-merge contract the streaming writer documents.  Every block body
/// is checked against its manifest CRC before it is parsed, as the direct
/// fold checks it.  A cell stored as one run whose repeat markers meet
/// CellRecord's invariant keeps them as its repeats, unexpanded; every
/// other cell is expanded.
Result<core::LoadStats> load_database(const ShardSet& set,
                                      core::ConfigDatabase& db,
                                      unsigned threads = 1);

}  // namespace mmlab::store
