#include "mmlab/store/shard_set.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "mmlab/store/cell_codec.hpp"
#include "mmlab/util/byteio.hpp"
#include "mmlab/util/crc.hpp"
#include "mmlab/util/worker_pool.hpp"

namespace mmlab::store {

// --- MappedFile --------------------------------------------------------------

MappedFile::~MappedFile() {
  if (data_) ::munmap(data_, size_);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_) ::munmap(data_, size_);
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Result<MappedFile> MappedFile::open(const std::string& path) {
  using R = Result<MappedFile>;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return R::error("MappedFile: cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return R::error("MappedFile: cannot stat " + path);
  }
  MappedFile f;
  f.size_ = static_cast<std::size_t>(st.st_size);
  if (f.size_ > 0) {
    void* p = ::mmap(nullptr, f.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      return R::error("MappedFile: mmap failed for " + path);
    }
    f.data_ = static_cast<std::uint8_t*>(p);
  }
  ::close(fd);  // the mapping keeps the file referenced
  return f;
}

void MappedFile::release(std::size_t offset, std::size_t length) const {
  if (!data_) return;
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  // Round inward: partial edge pages may still back a neighbouring block.
  const std::size_t begin = (offset + page - 1) & ~(page - 1);
  const std::size_t end = (offset + length) & ~(page - 1);
  if (end > begin) ::madvise(data_ + begin, end - begin, MADV_DONTNEED);
}

// --- ShardSet ----------------------------------------------------------------

Result<ShardSet> ShardSet::open(std::string dir) {
  using R = Result<ShardSet>;
  auto manifest = read_manifest(dir);
  if (!manifest) return R::error(manifest.error_message());

  ShardSet set;
  set.dir_ = std::move(dir);
  set.manifest_ = std::move(manifest).take();

  set.params_.reserve(set.manifest_.params.size());
  for (const auto& name : set.manifest_.params) {
    const auto key = config::parse_param_name(name);
    if (!key)
      return R::error("ShardSet: unknown parameter in manifest: " + name);
    set.params_.push_back(*key);
  }

  set.maps_.reserve(set.manifest_.shards.size());
  for (const auto& shard : set.manifest_.shards) {
    const std::string path =
        (std::filesystem::path(set.dir_) / shard.filename).string();
    auto mapped = MappedFile::open(path);
    if (!mapped) return R::error(mapped.error_message());
    MappedFile f = std::move(mapped).take();
    if (f.size() != shard.file_size)
      return R::error("ShardSet: " + shard.filename + " is " +
                      std::to_string(f.size()) + " bytes, manifest says " +
                      std::to_string(shard.file_size));
    if (f.size() < sizeof(kShardMagic) ||
        std::memcmp(f.data(), kShardMagic, sizeof(kShardMagic)) != 0)
      return R::error("ShardSet: bad shard magic in " + shard.filename);
    set.maps_.push_back(std::move(f));
  }

  for (std::uint32_t s = 0; s < set.manifest_.shards.size(); ++s)
    for (const auto& b : set.manifest_.shards[s].blocks)
      set.blocks_.push_back({s, &b});
  return set;
}

std::span<const std::uint8_t> ShardSet::block_body(std::size_t index) const {
  const BlockRef& ref = blocks_[index];
  return {maps_[ref.shard].data() + ref.info->offset,
          static_cast<std::size_t>(ref.info->length)};
}

void ShardSet::release_block(std::size_t index) const {
  const BlockRef& ref = blocks_[index];
  maps_[ref.shard].release(static_cast<std::size_t>(ref.info->offset),
                           static_cast<std::size_t>(ref.info->length));
}

Result<std::uint64_t> ShardSet::verify() const {
  using R = Result<std::uint64_t>;
  std::uint64_t total = 0;
  for (const auto& shard : manifest_.shards) {
    const std::string path =
        (std::filesystem::path(dir_) / shard.filename).string();
    try {
      BufferedFileReader in(path);
      std::uint16_t state = kCrc16CcittInit;
      std::uint64_t bytes = 0;
      std::vector<std::uint8_t> buf(1u << 20);
      std::size_t n;
      while ((n = in.read(buf.data(), buf.size())) > 0) {
        state = crc16_ccitt_update(state, buf.data(), n);
        bytes += n;
      }
      if (bytes != shard.file_size)
        return R::error("verify: " + shard.filename + " is " +
                        std::to_string(bytes) + " bytes, manifest says " +
                        std::to_string(shard.file_size));
      if (crc16_ccitt_finalize(state) != shard.crc16)
        return R::error("verify: CRC mismatch in " + shard.filename);
      total += bytes;
    } catch (const std::exception& e) {
      return R::error("verify: " + std::string(e.what()));
    }
  }
  return total;
}

// --- load_database -----------------------------------------------------------

namespace {

/// Parse one block body into `out`, and check it against the manifest as
/// the direct fold does: the block CRC first, then ascending cell ids
/// inside [first_cell, last_cell], the cell count, and the expanded row
/// count, which is checked before any marker's rows are allocated.  Each run keeps or expands its markers
/// (CellRecord::keep_or_expand, the fold's rule too) and is copied out of
/// one reused record, so a loaded record's rows take exactly their size.
/// A cell with runs in several blocks is expanded when load_database
/// merges them (CellRecord::merge_from).
std::size_t parse_block_body(const ShardSet& set, std::size_t index,
                             core::ConfigDatabase& out) {
  const BlockInfo& info = *set.blocks()[index].info;
  const std::span<const std::uint8_t> body = set.block_body(index);
  const std::string& carrier =
      set.manifest().carriers[info.carrier_index];
  const auto fail = [index](const char* what) {
    return std::runtime_error("block " + std::to_string(index) + " " + what);
  };
  if (crc16_ccitt(body.data(), body.size()) != info.crc16)
    throw fail("CRC mismatch");
  ByteReader r(body.data(), body.size());
  std::uint64_t rows = 0, cells = 0;
  std::uint32_t first = 0, last = 0;
  core::CellRecord rec;
  CellScan scan;
  while (r.remaining() > 0) {
    const std::uint32_t id =
        parse_cell_filtered(r, set.params(), set.manifest().repeats, {}, 0,
                            0xFFFFFFFFu, rec, scan);
    if (cells > 0 && id <= last) throw fail("cell ids not ascending");
    if (cells == 0) first = id;
    last = id;
    ++cells;
    if (scan.rows > info.row_count - rows)
      throw fail("cell/row counts disagree with manifest");
    rows += scan.rows;
    rec.keep_or_expand();
    out.upsert_cell(carrier, id) = rec;
  }
  if (cells != info.cell_count || rows != info.row_count)
    throw fail("cell/row counts disagree with manifest");
  if (cells > 0 && (first != info.first_cell || last != info.last_cell))
    throw fail("cell-id range disagrees with manifest");
  return static_cast<std::size_t>(rows);
}

}  // namespace

Result<core::LoadStats> load_database(const ShardSet& set,
                                      core::ConfigDatabase& db,
                                      unsigned threads) {
  using R = Result<core::LoadStats>;
  const std::size_t n = set.blocks().size();
  core::LoadStats stats;
  try {
    // Always block-private databases merged in manifest order — never a
    // direct parse into `db` — so the result is the documented chunk-merge
    // for every thread count, including 1.
    std::vector<core::ConfigDatabase> parts(n);
    std::vector<std::string> errors(n);
    parallel_for_index(threads, n, [&](std::size_t i) {
      try {
        parse_block_body(set, i, parts[i]);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
    for (const auto& err : errors)
      if (!err.empty()) return R::error("load_database: " + err);
    for (std::size_t i = 0; i < n; ++i) {
      db.merge(std::move(parts[i]));
      stats.rows += static_cast<std::size_t>(set.blocks()[i].info->row_count);
    }
    return stats;
  } catch (const std::exception& e) {
    return R::error("load_database: " + std::string(e.what()));
  }
}

}  // namespace mmlab::store
