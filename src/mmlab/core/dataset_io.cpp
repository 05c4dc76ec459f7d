#include "mmlab/core/dataset_io.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

#include "mmlab/util/crc.hpp"
#include "mmlab/util/worker_pool.hpp"

namespace mmlab::core {

namespace {

constexpr char kHeader[] =
    "carrier,cell_id,rat,channel,x_m,y_m,t_ms,param,value,context";
constexpr std::uint8_t kMaxRat = mmds::kMaxRat;

// --- CSV write ---------------------------------------------------------------

// std::to_chars emits the shortest string that parses back to the same
// double, so the CSV is lossless and save -> load -> save is byte-stable.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

// --- CSV read ----------------------------------------------------------------

template <typename T>
bool parse_num(std::string_view s, T& out) {
  const char* end = s.data() + s.size();
  std::from_chars_result res{};
  if constexpr (std::is_floating_point_v<T>)
    res = std::from_chars(s.data(), end, out, std::chars_format::general);
  else
    res = std::from_chars(s.data(), end, out);
  return res.ec == std::errc() && res.ptr == end;
}

/// Per-load CSV row parser: splits fields as string_views (no stream, no
/// per-field strings) and memoizes parameter-name lookups so the registry's
/// linear-scan parse_param_name runs once per distinct name, not per row.
class CsvRowParser {
 public:
  /// Returns false for a malformed row (caller counts it as bad).
  bool parse(std::string_view line, ConfigDatabase& db) {
    std::string_view fields[10];
    std::size_t nfields = 0;
    while (true) {
      const std::size_t comma = line.find(',');
      if (nfields == 10) return false;  // too many fields
      if (comma == std::string_view::npos) {
        fields[nfields++] = line;
        break;
      }
      fields[nfields++] = line.substr(0, comma);
      line.remove_prefix(comma + 1);
    }
    if (nfields != 10) return false;

    const config::ParamKey* key = param(fields[7]);
    if (!key) return false;

    std::uint32_t cell_id, channel;
    std::uint8_t rat_raw;
    double x, y;
    std::int64_t t_ms;
    config::ParamObservation& obs = obs_buf_[0];
    // from_chars on unsigned types rejects a leading '-', so a negative
    // cell_id/channel is a bad row instead of wrapping into a huge id.
    if (!parse_num(fields[1], cell_id) || !parse_num(fields[2], rat_raw) ||
        rat_raw > kMaxRat || !parse_num(fields[3], channel) ||
        !parse_num(fields[4], x) || !parse_num(fields[5], y) ||
        !std::isfinite(x) || !std::isfinite(y) ||
        !parse_num(fields[6], t_ms) || !parse_num(fields[8], obs.value) ||
        !std::isfinite(obs.value) || !parse_num(fields[9], obs.context))
      return false;

    obs.key = *key;
    carrier_buf_.assign(fields[0]);
    db.add_snapshot(carrier_buf_, cell_id, static_cast<spectrum::Rat>(rat_raw),
                    channel, {x, y}, SimTime{t_ms}, obs_buf_);
    return true;
  }

 private:
  const config::ParamKey* param(std::string_view name) {
    const auto it = params_.find(name);
    if (it != params_.end())
      return it->second ? &*it->second : nullptr;
    const auto parsed = config::parse_param_name(std::string(name));
    const auto ins = params_.emplace(name, parsed).first;
    return ins->second ? &*ins->second : nullptr;
  }

  std::map<std::string, std::optional<config::ParamKey>, std::less<>> params_;
  std::string carrier_buf_;
  std::vector<config::ParamObservation> obs_buf_{1};
};

Result<LoadStats> load_csv_lines(std::string_view text, ConfigDatabase& db) {
  std::size_t eol = text.find('\n');
  std::string_view header =
      eol == std::string_view::npos ? text : text.substr(0, eol);
  if (header.empty() && eol == std::string_view::npos)
    return Result<LoadStats>::error("load_dataset: empty input");
  if (header != kHeader)
    return Result<LoadStats>::error("load_dataset: unexpected header: " +
                                    std::string(header));
  text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);

  LoadStats stats;
  CsvRowParser parser;
  while (!text.empty()) {
    eol = text.find('\n');
    const std::string_view line =
        eol == std::string_view::npos ? text : text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    if (line.empty()) continue;
    ++stats.rows;
    if (!parser.parse(line, db)) ++stats.bad_rows;
  }
  return stats;
}

// --- MMDS v1 write -----------------------------------------------------------

/// Serialize everything except the CRC trailer through `emit(ptr, size)`.
template <typename Emit>
void serialize_mmds(const ConfigDatabase& db, Emit&& emit) {
  const auto emit_writer = [&emit](const ByteWriter& w) {
    emit(w.buffer().data(), w.buffer().size());
  };

  // Param table: every distinct key, in ParamKey order — deterministic, so
  // re-saving a loaded dataset reproduces the file byte for byte.  The
  // dense table collects the distinct keys; ParamKey's (rat, id) order is
  // its slot order, so sorting them and assigning in that order gives every
  // key its sorted index.
  mmds::ParamIndexMap seen;
  for (const auto& [carrier, cells] : db.carriers())
    for (const auto& [id, rec] : cells)
      for (const auto& obs : rec.observations) seen.assign(obs.key);
  std::vector<config::ParamKey> keys = seen.keys();
  std::sort(keys.begin(), keys.end());
  mmds::ParamIndexMap key_index;
  for (const auto& key : keys) key_index.assign(key);

  ByteWriter header;
  header.raw(kMmdsMagic, sizeof(kMmdsMagic));
  header.u8(kMmdsVersion);
  header.u8(0);  // flags, reserved
  header.varint(db.carriers().size());
  for (const auto& [carrier, cells] : db.carriers()) header.str(carrier);
  header.varint(keys.size());
  for (const auto& key : keys) header.str(config::param_name(key));
  emit_writer(header);

  // Per-carrier block: a measuring pass sums the exact body length for the
  // block_length prefix, then cells stream out one at a time — writer-side
  // memory is bounded by the largest single cell, not the largest carrier
  // block, and the emitted bytes are identical to the old
  // assemble-whole-block path.
  ByteWriter cell;
  std::uint64_t carrier_index = 0;
  for (const auto& [carrier, cells] : db.carriers()) {
    std::uint64_t body_len = varint_size(cells.size());
    for (const auto& [id, rec] : cells)
      body_len += mmds::encoded_cell_size(id, rec, key_index);
    cell.clear();
    cell.varint(carrier_index++);
    cell.varint(body_len);
    cell.varint(cells.size());
    emit_writer(cell);
    for (const auto& [id, rec] : cells) {
      cell.clear();
      mmds::encode_cell(cell, id, rec, key_index);
      emit_writer(cell);
    }
  }
}

// --- MMDS v1 read ------------------------------------------------------------

struct BlockSpan {
  std::size_t carrier_index;
  const std::uint8_t* data;
  std::size_t size;
};

class MmdsError : public std::runtime_error {
 public:
  explicit MmdsError(const std::string& what) : std::runtime_error(what) {}
};

std::uint32_t checked_u32(std::uint64_t v, const char* what) {
  if (v > 0xFFFFFFFFull)
    throw MmdsError(std::string(what) + " out of 32-bit range");
  return static_cast<std::uint32_t>(v);
}

/// The fixed per-cell prefix shared by both parse_cell overloads.
struct CellHeader {
  std::uint32_t id;
  std::uint8_t rat_raw;
  std::uint32_t channel;
  double x, y;
  std::uint64_t n_obs;
};

CellHeader parse_cell_header(ByteReader& r) {
  CellHeader h;
  h.id = checked_u32(r.varint(), "cell_id");
  h.rat_raw = r.u8();
  if (h.rat_raw > kMaxRat) throw MmdsError("rat out of range");
  h.channel = checked_u32(r.varint(), "channel");
  h.x = r.f64le();
  h.y = r.f64le();
  h.n_obs = r.varint();
  // Each observation is at least 11 bytes; a count beyond that is
  // corruption — catch it before reserve() tries to allocate it.
  if (h.n_obs > r.remaining() / 11 + 1)
    throw MmdsError("observation count exceeds block size");
  return h;
}

void parse_observations(ByteReader& r, std::uint64_t n_obs,
                        const std::vector<config::ParamKey>& params,
                        std::vector<Observation>& out) {
  out.reserve(out.size() + static_cast<std::size_t>(n_obs));
  std::int64_t t_ms = 0;
  for (std::uint64_t i = 0; i < n_obs; ++i) {
    t_ms += r.svarint();
    const std::uint64_t param_index = r.varint();
    if (param_index >= params.size())
      throw MmdsError("param index out of range");
    const double value = r.f64le();
    const std::int64_t context = r.svarint();
    out.push_back({params[param_index], value, SimTime{t_ms}, context});
  }
}

/// Parse one carrier block into `out`; returns the observation count.
std::size_t parse_block(const BlockSpan& span,
                        const std::vector<std::string>& carriers,
                        const std::vector<config::ParamKey>& params,
                        ConfigDatabase& out) {
  ByteReader r(span.data, span.size);
  const std::string& carrier = carriers[span.carrier_index];
  const std::uint64_t cell_count = r.varint();
  std::size_t rows = 0;
  for (std::uint64_t c = 0; c < cell_count; ++c)
    rows += mmds::parse_cell(r, carrier, params, out);
  if (r.remaining() != 0) throw MmdsError("trailing bytes in carrier block");
  return rows;
}

}  // namespace

// --- shared MMDS cell codec --------------------------------------------------

namespace mmds {

namespace {

inline std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

inline std::uint8_t* put_f64(std::uint8_t* p, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &bits, sizeof(bits));
  } else {
    for (int i = 0; i < 8; ++i)
      p[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  return p + 8;
}

}  // namespace

void encode_cell(ByteWriter& out, std::uint32_t id, const CellRecord& rec,
                 ParamIndexMap& params) {
  const std::size_t start = out.size();
  std::uint8_t* const begin =
      out.extend(max_encoded_cell_size(rec.observations.size()));
  std::uint8_t* p = begin;
  p = put_varint(p, id);
  *p++ = static_cast<std::uint8_t>(rec.rat);
  p = put_varint(p, rec.channel);
  p = put_f64(p, rec.position.x);
  p = put_f64(p, rec.position.y);
  p = put_varint(p, rec.observations.size());
  std::int64_t prev_t = 0;
  for (const auto& obs : rec.observations) {
    p = put_varint(p, zigzag_encode(obs.t.ms - prev_t));
    prev_t = obs.t.ms;
    p = put_varint(p, params.assign(obs.key));
    p = put_f64(p, obs.value);
    p = put_varint(p, zigzag_encode(obs.context));
  }
  out.truncate(start + static_cast<std::size_t>(p - begin));
}

void encode_cell_reference(ByteWriter& out, std::uint32_t id,
                           const CellRecord& rec, const ParamIndexMap& params) {
  out.varint(id);
  out.u8(static_cast<std::uint8_t>(rec.rat));
  out.varint(rec.channel);
  out.f64le(rec.position.x);
  out.f64le(rec.position.y);
  out.varint(rec.observations.size());
  std::int64_t prev_t = 0;
  for (const auto& obs : rec.observations) {
    out.svarint(obs.t.ms - prev_t);
    prev_t = obs.t.ms;
    out.varint(params.get(obs.key));
    out.f64le(obs.value);
    out.svarint(obs.context);
  }
}

std::size_t encoded_cell_size(std::uint32_t id, const CellRecord& rec,
                              const ParamIndexMap& params) {
  std::size_t n = varint_size(id) + 1 + varint_size(rec.channel) + 16 +
                  varint_size(rec.observations.size());
  std::int64_t prev_t = 0;
  for (const auto& obs : rec.observations) {
    n += varint_size(zigzag_encode(obs.t.ms - prev_t));
    prev_t = obs.t.ms;
    n += varint_size(params.get(obs.key)) + 8 +
         varint_size(zigzag_encode(obs.context));
  }
  return n;
}

std::size_t parse_cell(ByteReader& r, const std::string& carrier,
                       const std::vector<config::ParamKey>& params,
                       ConfigDatabase& out) {
  const CellHeader h = parse_cell_header(r);
  CellRecord& rec = out.upsert_cell(carrier, h.id);
  if (rec.observations.empty()) {
    rec.cell_id = h.id;
    rec.rat = static_cast<spectrum::Rat>(h.rat_raw);
    rec.channel = h.channel;
    rec.position = {h.x, h.y};
  }
  parse_observations(r, h.n_obs, params, rec.observations);
  return static_cast<std::size_t>(h.n_obs);
}

std::uint32_t parse_cell(ByteReader& r,
                         const std::vector<config::ParamKey>& params,
                         CellRecord& rec) {
  const CellHeader h = parse_cell_header(r);
  rec.observations.clear();  // keep capacity — this path runs per row chunk
  rec.cell_id = h.id;
  rec.rat = static_cast<spectrum::Rat>(h.rat_raw);
  rec.channel = h.channel;
  rec.position = {h.x, h.y};
  parse_observations(r, h.n_obs, params, rec.observations);
  return h.id;
}

std::uint32_t parse_cell_filtered(ByteReader& r,
                                  const std::vector<config::ParamKey>& params,
                                  const std::vector<char>& keep,
                                  std::uint32_t min_cell,
                                  std::uint32_t max_cell, CellRecord& rec,
                                  CellScan& scan) {
  const CellHeader h = parse_cell_header(r);
  rec.observations.clear();  // keep capacity, as in the unfiltered overload
  rec.cell_id = h.id;
  rec.rat = static_cast<spectrum::Rat>(h.rat_raw);
  rec.channel = h.channel;
  rec.position = {h.x, h.y};
  scan.rows = h.n_obs;
  scan.values_skipped = 0;
  scan.front_t_ms = 0;
  scan.has_front = h.n_obs > 0;
  const bool in_range = h.id >= min_cell && h.id <= max_cell;
  if (in_range && keep.empty()) {
    parse_observations(r, h.n_obs, params, rec.observations);
    if (!rec.observations.empty()) scan.front_t_ms = rec.observations.front().t.ms;
    return h.id;
  }
  std::int64_t t_ms = 0;
  for (std::uint64_t i = 0; i < h.n_obs; ++i) {
    t_ms += r.svarint();
    if (i == 0) scan.front_t_ms = t_ms;
    const std::uint64_t param_index = r.varint();
    if (param_index >= params.size())
      throw MmdsError("param index out of range");
    if (in_range && (keep.empty() || keep[param_index])) {
      const double value = r.f64le();
      rec.observations.push_back(
          {params[param_index], value, SimTime{t_ms}, r.svarint()});
    } else {
      r.skip(8);
      ++scan.values_skipped;
      (void)r.svarint();  // context: varint-decoded only to advance
    }
  }
  return h.id;
}

}  // namespace mmds

// --- CSV ---------------------------------------------------------------------

void save_dataset(const ConfigDatabase& db, std::ostream& out) {
  std::string chunk;
  chunk.reserve(1 << 16);
  chunk.append(kHeader);
  chunk.push_back('\n');
  for (const auto& [carrier, cells] : db.carriers()) {
    for (const auto& [id, rec] : cells) {
      for (const auto& obs : rec.observations) {
        chunk.append(carrier);
        chunk.push_back(',');
        append_int(chunk, rec.cell_id);
        chunk.push_back(',');
        append_int(chunk, static_cast<int>(rec.rat));
        chunk.push_back(',');
        append_int(chunk, rec.channel);
        chunk.push_back(',');
        append_double(chunk, rec.position.x);
        chunk.push_back(',');
        append_double(chunk, rec.position.y);
        chunk.push_back(',');
        append_int(chunk, obs.t.ms);
        chunk.push_back(',');
        chunk.append(config::param_name(obs.key));
        chunk.push_back(',');
        append_double(chunk, obs.value);
        chunk.push_back(',');
        append_int(chunk, obs.context);
        chunk.push_back('\n');
        if (chunk.size() > (1 << 16) - 256) {
          out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
          chunk.clear();
        }
      }
    }
  }
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
}

void save_dataset(const ConfigDatabase& db, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_dataset: cannot open " + path);
  save_dataset(db, out);
  if (!out) throw std::runtime_error("save_dataset: write failed: " + path);
}

Result<LoadStats> load_dataset(std::istream& in, ConfigDatabase& db) {
  std::string line;
  if (!std::getline(in, line))
    return Result<LoadStats>::error("load_dataset: empty input");
  if (line != kHeader)
    return Result<LoadStats>::error("load_dataset: unexpected header: " + line);

  LoadStats stats;
  CsvRowParser parser;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++stats.rows;
    if (!parser.parse(line, db)) ++stats.bad_rows;
  }
  return stats;
}

Result<LoadStats> load_dataset(const std::string& path, ConfigDatabase& db) {
  // Slurp + in-memory line splitting: measurably faster than istream
  // getline for D2-scale files, identical semantics.
  std::string text;
  if (!read_file_text(path, text))
    return Result<LoadStats>::error("load_dataset: cannot open " + path);
  return load_csv_lines(text, db);
}

// --- MMDS v1 binary ----------------------------------------------------------

void save_dataset_binary(const ConfigDatabase& db,
                         std::vector<std::uint8_t>& out) {
  out.clear();
  serialize_mmds(db, [&out](const std::uint8_t* data, std::size_t size) {
    out.insert(out.end(), data, data + size);
  });
  const std::uint16_t crc = crc16_ccitt(out.data(), out.size());
  out.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  out.push_back(static_cast<std::uint8_t>(crc >> 8));
}

void save_dataset_binary(const ConfigDatabase& db, const std::string& path) {
  BufferedFileWriter out(path);
  serialize_mmds(db, [&out](const std::uint8_t* data, std::size_t size) {
    out.write(data, size);
  });
  const std::uint16_t crc = out.crc16();
  const std::uint8_t trailer[2] = {static_cast<std::uint8_t>(crc & 0xFF),
                                   static_cast<std::uint8_t>(crc >> 8)};
  out.write(trailer, sizeof(trailer));
  out.close();
}

Result<LoadStats> load_dataset_binary(const std::uint8_t* data,
                                      std::size_t size, ConfigDatabase& db,
                                      unsigned threads) {
  using R = Result<LoadStats>;
  if (size < sizeof(kMmdsMagic) + 2 + 2)
    return R::error("load_dataset_binary: file too small for an MMDS header");
  if (std::memcmp(data, kMmdsMagic, sizeof(kMmdsMagic)) != 0)
    return R::error("load_dataset_binary: bad magic (not an MMDS file)");
  if (data[4] != kMmdsVersion)
    return R::error("load_dataset_binary: unsupported version " +
                    std::to_string(data[4]) + " (expected " +
                    std::to_string(kMmdsVersion) + ")");
  const std::uint16_t stored_crc = static_cast<std::uint16_t>(
      data[size - 2] | (static_cast<std::uint16_t>(data[size - 1]) << 8));
  if (crc16_ccitt(data, size - 2) != stored_crc)
    return R::error(
        "load_dataset_binary: CRC mismatch (file truncated or corrupted)");

  try {
    ByteReader r(data, size - 2);  // CRC trailer already consumed
    r.skip(sizeof(kMmdsMagic) + 2);

    std::vector<std::string> carriers(r.count("carrier table"));
    for (auto& carrier : carriers) carrier = std::string(r.str());
    std::vector<config::ParamKey> params(r.count("param table"));
    for (auto& key : params) {
      const std::string name(r.str());
      const auto parsed = config::parse_param_name(name);
      if (!parsed)
        return R::error("load_dataset_binary: unknown parameter in table: " +
                        name);
      key = *parsed;
    }

    std::vector<BlockSpan> blocks;
    blocks.reserve(carriers.size());
    while (r.remaining() > 0) {
      const std::uint64_t index = r.varint();
      if (index >= carriers.size())
        return R::error("load_dataset_binary: carrier index out of range");
      const std::uint64_t length = r.varint();
      if (length > r.remaining())
        return R::error("load_dataset_binary: carrier block truncated");
      blocks.push_back({static_cast<std::size_t>(index),
                        r.raw(static_cast<std::size_t>(length)),
                        static_cast<std::size_t>(length)});
    }

    LoadStats stats;
    if (threads == 1 || blocks.size() <= 1) {
      for (const auto& span : blocks)
        stats.rows += parse_block(span, carriers, params, db);
    } else {
      // Shard per carrier block: each worker parses into a private database,
      // then the shards merge in block order — deterministic and identical
      // to the serial load.
      std::vector<ConfigDatabase> shards(blocks.size());
      std::vector<std::size_t> rows(blocks.size(), 0);
      std::vector<std::string> errors(blocks.size());
      parallel_for_index(threads, blocks.size(), [&](std::size_t i) {
        try {
          rows[i] = parse_block(blocks[i], carriers, params, shards[i]);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
      for (const auto& err : errors)
        if (!err.empty())
          return R::error("load_dataset_binary: " + err);
      for (std::size_t i = 0; i < shards.size(); ++i) {
        db.merge(std::move(shards[i]));
        stats.rows += rows[i];
      }
    }
    return stats;
  } catch (const std::exception& e) {
    return R::error("load_dataset_binary: " + std::string(e.what()));
  }
}

Result<LoadStats> load_dataset_binary(const std::string& path,
                                      ConfigDatabase& db, unsigned threads) {
  std::vector<std::uint8_t> bytes;
  if (!read_file_bytes(path, bytes))
    return Result<LoadStats>::error("load_dataset_binary: cannot open " +
                                    path);
  return load_dataset_binary(bytes.data(), bytes.size(), db, threads);
}

// --- format dispatch ---------------------------------------------------------

DatasetFormat detect_dataset_format(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    // A v2 store is a directory; only the manifest marks it as one (any
    // other directory falls through to the CSV loader's open failure).
    if (std::filesystem::exists(
            std::filesystem::path(path) / kMmds2ManifestName, ec))
      return DatasetFormat::kMmds2;
    return DatasetFormat::kCsv;
  }
  std::ifstream in(path, std::ios::binary);
  char head[sizeof(kMmdsMagic) + 1] = {};
  in.read(head, sizeof(head));
  if (in.gcount() >= static_cast<std::streamsize>(sizeof(kMmdsMagic)) &&
      std::memcmp(head, kMmdsMagic, sizeof(kMmdsMagic)) == 0) {
    // A bare v2 manifest file shares the magic; the version byte decides.
    if (in.gcount() == sizeof(head) &&
        static_cast<std::uint8_t>(head[4]) == kMmds2Version)
      return DatasetFormat::kMmds2;
    return DatasetFormat::kBinary;
  }
  return DatasetFormat::kCsv;
}

void save_dataset(const ConfigDatabase& db, const std::string& path,
                  DatasetFormat format) {
  if (format == DatasetFormat::kMmds2)
    throw std::runtime_error(
        "save_dataset: MMDS v2 is written by mmlab::store::save_database");
  if (format == DatasetFormat::kBinary)
    save_dataset_binary(db, path);
  else
    save_dataset(db, path);
}

Result<LoadStats> load_dataset_any(const std::string& path, ConfigDatabase& db,
                                   unsigned threads) {
  switch (detect_dataset_format(path)) {
    case DatasetFormat::kMmds2:
      return Result<LoadStats>::error(
          "load_dataset_any: " + path +
          " is an MMDS v2 store; load it via mmlab::store::load_database");
    case DatasetFormat::kBinary:
      return load_dataset_binary(path, db, threads);
    case DatasetFormat::kCsv:
      break;
  }
  return load_dataset(path, db);
}

}  // namespace mmlab::core
