#include "mmlab/core/dataset_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "mmlab/util/byteio.hpp"

namespace mmlab::core {

namespace {

constexpr char kHeader[] =
    "carrier,cell_id,rat,channel,x_m,y_m,t_ms,param,value,context";
constexpr std::uint8_t kMaxRat =
    static_cast<std::uint8_t>(spectrum::Rat::kCdma1x);

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
/// Each run of consecutive rows that share carrier, cell, identity and time
/// is filed as one snapshot, so the database holds repeats as a crawl's
/// does; expanded, that is the rows filed one at a time.
class CsvRowParser {
 public:
  /// Returns false for a malformed row (caller counts it as bad).  A good
  /// row that does not continue the open snapshot files it first.
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

    Head h;
    config::ParamObservation obs;
    // from_chars on unsigned types rejects a leading '-', so a negative
    // cell_id/channel is a bad row instead of wrapping into a huge id.
    if (!parse_num(fields[1], h.cell_id) || !parse_num(fields[2], h.rat) ||
        h.rat > kMaxRat || !parse_num(fields[3], h.channel) ||
        !parse_num(fields[4], h.x) || !parse_num(fields[5], h.y) ||
        !std::isfinite(h.x) || !std::isfinite(h.y) ||
        !parse_num(fields[6], h.t_ms) || !parse_num(fields[8], obs.value) ||
        !std::isfinite(obs.value) || !parse_num(fields[9], obs.context))
      return false;

    obs.key = *key;
    if (params_.empty() || !(h == open_) || fields[0] != carrier_buf_) {
      flush(db);
      open_ = h;
      carrier_buf_.assign(fields[0]);
    }
    params_.push_back(obs);
    return true;
  }

  /// File the open snapshot, if any.
  void flush(ConfigDatabase& db) {
    if (params_.empty()) return;
    db.add_snapshot(carrier_buf_, open_.cell_id,
                    static_cast<spectrum::Rat>(open_.rat), open_.channel,
                    {open_.x, open_.y}, SimTime{open_.t_ms}, params_);
    params_.clear();
  }

 private:
  /// A row's cell, identity and time.
  struct Head {
    std::uint32_t cell_id = 0, channel = 0;
    std::uint8_t rat = 0;
    double x = 0.0, y = 0.0;
    std::int64_t t_ms = 0;
    bool operator==(const Head&) const = default;
  };

  const config::ParamKey* param(std::string_view name) {
    const auto it = names_.find(name);
    if (it != names_.end())
      return it->second ? &*it->second : nullptr;
    const auto parsed = config::parse_param_name(std::string(name));
    const auto ins = names_.emplace(name, parsed).first;
    return ins->second ? &*ins->second : nullptr;
  }

  std::map<std::string, std::optional<config::ParamKey>, std::less<>> names_;
  Head open_;                ///< the open snapshot's
  std::string carrier_buf_;  ///< the open snapshot's carrier
  std::vector<config::ParamObservation> params_;  ///< the open snapshot's
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
  parser.flush(db);
  return stats;
}

}  // namespace

void save_dataset(const ConfigDatabase& db, std::ostream& out) {
  std::string chunk;
  chunk.reserve(1 << 16);
  chunk.append(kHeader);
  chunk.push_back('\n');
  for (const auto& [carrier, cells] : db.carriers()) {
    for (const auto& [id, rec] : cells) {
      rec.for_each_row([&](const Observation& obs) {
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
      });
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

// Both loaders slurp their input and split lines in memory (load_csv_lines):
// measurably faster than istream getline for D2-scale files.
Result<LoadStats> load_dataset(std::istream& in, ConfigDatabase& db) {
  std::ostringstream text;
  text << in.rdbuf();
  return load_csv_lines(text.view(), db);
}

Result<LoadStats> load_dataset(const std::string& path, ConfigDatabase& db) {
  std::string text;
  if (!read_file_text(path, text))
    return Result<LoadStats>::error("load_dataset: cannot open " + path);
  return load_csv_lines(text, db);
}

}  // namespace mmlab::core
