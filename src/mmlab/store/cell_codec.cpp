#include "mmlab/store/cell_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace mmlab::store {

using core::CellRecord;
using core::Observation;
using core::Repeat;

namespace {

class MmdsError : public std::runtime_error {
 public:
  explicit MmdsError(const std::string& what) : std::runtime_error(what) {}
};

std::uint32_t checked_u32(std::uint64_t v, const char* what) {
  if (v > 0xFFFFFFFFull)
    throw MmdsError(std::string(what) + " out of 32-bit range");
  return static_cast<std::uint32_t>(v);
}

/// The fixed per-cell prefix shared by every parse_cell variant.
struct CellHeader {
  std::uint32_t id;
  std::uint8_t rat_raw;
  std::uint32_t channel;
  double x, y;
  std::uint64_t n_obs;
};

/// The shortest marker on the wire: a one-byte time delta and the index.
constexpr std::size_t kMinMarkerBytes = 1 + varint_size(kRepeatMarker);

CellHeader parse_cell_header(ByteReader& r, bool repeats) {
  CellHeader h;
  h.id = checked_u32(r.varint(), "cell_id");
  h.rat_raw = r.u8();
  if (h.rat_raw > kMaxRat) throw MmdsError("rat out of range");
  h.channel = checked_u32(r.varint(), "channel");
  h.x = r.f64le();
  h.y = r.f64le();
  h.n_obs = r.varint();
  // Each observation is at least 11 bytes and each marker at least
  // kMinMarkerBytes; a count beyond that is corruption — catch it before
  // reserve() tries to allocate it.
  if (h.n_obs > r.remaining() / (repeats ? kMinMarkerBytes : 11) + 1)
    throw MmdsError("observation count exceeds block size");
  return h;
}

/// One observation value.  NaN and +-inf are damage: the writer never
/// emits them, and stats::ValueCounts cannot order a NaN.
double finite_value(ByteReader& r) {
  const double value = r.f64le();
  if (!std::isfinite(value)) throw MmdsError("non-finite observation value");
  return value;
}

/// Time deltas wrap modulo 2^64 on both sides of the wire, so no record
/// and no hostile delta is signed overflow, and every t round-trips.
std::int64_t add_delta(std::int64_t t, std::uint64_t zigzag) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(t) +
                                   static_cast<std::uint64_t>(
                                       zigzag_decode(zigzag)));
}
std::int64_t delta(std::int64_t t, std::int64_t prev) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(t) -
                                   static_cast<std::uint64_t>(prev));
}

/// The kernel's varint: one-byte varints (most param indices, contexts
/// and in-visit time deltas) skip the word scan.  Same contract as
/// varint8_swar.
inline unsigned kernel_varint(const std::uint8_t* p, std::uint64_t& v) {
  if (p[0] < 0x80) {
    v = p[0];
    return 1;
  }
  return varint8_swar(p, v);
}

/// a + b, or the largest count when that wraps: no hostile body may wrap
/// the row count the manifest is checked against.
std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return b > ~a ? ~std::uint64_t{0} : a + b;
}

/// Snapshot bookkeeping both decoders share, so a marker means the same
/// rows to each: where the current run of equal-t observations began, and
/// which rows a marker repeats.
class SnapshotTracker {
 public:
  /// Before a full observation at entry `i`, time `t`, decoded row `row`.
  void observation(std::uint64_t i, std::int64_t t, std::size_t row,
                   CellScan& scan) {
    if (i == 0) scan.front_t_ms = t;
    if (!in_full_ || t != t_) {  // a new snapshot starts here
      first_ = i;
      begin_ = row;
      in_full_ = true;
    }
    t_ = t;
  }
  /// A marker at entry `i`, time `t`, before decoded row `row`: the
  /// previous snapshot again (the full one just closed, or what the
  /// previous marker repeated), appended to `out`.
  void marker(std::uint64_t i, std::int64_t t, std::size_t row,
              std::vector<Repeat>& out, CellScan& scan) {
    if (i == 0) throw MmdsError("repeat marker before any snapshot");
    if (in_full_) {
      repeat_ = {t, row, begin_, row};
      repeat_rows_ = i - first_;
      in_full_ = false;
    }
    repeat_.t_ms = t;
    repeat_.at = row;
    out.push_back(repeat_);
    ++markers_;
    scan.rows = saturating_add(scan.rows, repeat_rows_);
    t_ = t;
  }
  /// Fill the scan's row count once `n` entries are decoded.
  void finish(std::uint64_t n, CellScan& scan) const {
    scan.rows = saturating_add(scan.rows, n - markers_);
  }

 private:
  std::int64_t t_ = 0;        ///< the previous entry's time
  std::uint64_t first_ = 0;   ///< entry index of the open snapshot
  std::size_t begin_ = 0;     ///< its first decoded row
  bool in_full_ = false;      ///< the previous entry was an observation
  Repeat repeat_;             ///< what the next marker repeats
  std::uint64_t repeat_rows_ = 0;  ///< its unfiltered row count
  std::uint64_t markers_ = 0;      ///< markers decoded
};

void start_scan(CellScan& scan) {
  scan.rows = 0;
  scan.values_skipped = 0;
  scan.front_t_ms = 0;
}

/// One entry by the reference field-by-field parse.
void decode_one_reference(ByteReader& r, std::uint64_t i,
                          const std::vector<config::ParamKey>& params,
                          ObservationSelection select, bool repeats,
                          std::int64_t& t_ms, SnapshotTracker& snapshots,
                          CellRecord& out, CellScan& scan) {
  t_ms = add_delta(t_ms, r.varint());
  const std::uint64_t param_index = r.varint();
  if (repeats && param_index == kRepeatMarker) {
    snapshots.marker(i, t_ms, out.observations.size(), out.repeats, scan);
    return;
  }
  if (param_index >= params.size())
    throw MmdsError("param index out of range");
  // A skipped value is still checked, so a query plan never changes
  // whether a store is accepted.
  const double value = finite_value(r);
  const std::int64_t context = r.svarint();
  snapshots.observation(i, t_ms, out.observations.size(), scan);
  if (select.keeps(param_index))
    out.observations.push_back(
        {params[param_index], value, SimTime{t_ms}, context});
  else
    ++scan.values_skipped;
}

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

/// The encode kernel; `index_of` maps a key to its table index.
template <typename IndexOf>
bool encode_cell_kernel(ByteWriter& out, std::uint32_t id,
                        const CellRecord& rec, IndexOf index_of,
                        RepeatCount& repeats) {
  const Observation* const obs = rec.observations.data();
  const std::size_t n = rec.observations.size();
  const std::vector<Repeat>& held = rec.repeats;
  const std::size_t most = encoded_entries(rec);
  const std::size_t start = out.size();
  std::uint8_t* const begin = out.extend(max_encoded_cell_size(most));
  std::uint8_t* p = begin;
  p = put_varint(p, id);
  *p++ = static_cast<std::uint8_t>(rec.rat);
  p = put_varint(p, rec.channel);
  p = put_f64(p, rec.position.x);
  p = put_f64(p, rec.position.y);
  // The entry count goes in once it is known: room for the most entries
  // the cell can take, closed up below when markers made the count shorter.
  std::uint8_t* const count_at = p;
  const std::size_t count_room = varint_size(most);
  p += count_room;
  std::int64_t prev_t = 0;
  bool finite = true;
  std::size_t entries = 0;
  // One snapshot's rows [s, s + len), at time t, in full.
  const auto put_rows = [&](const Observation* s, std::size_t len,
                            std::int64_t t) {
    for (std::size_t k = 0; k < len; ++k) {
      p = put_varint(p, zigzag_encode(k == 0 ? delta(t, prev_t) : 0));
      p = put_varint(p, index_of(s[k].key));
      p = put_f64(p, s[k].value);
      finite &= std::isfinite(s[k].value);
      p = put_varint(p, zigzag_encode(s[k].context));
    }
    entries += len;
    prev_t = t;
  };
  const auto put_marker = [&](std::int64_t t, std::size_t len) {
    p = put_varint(p, zigzag_encode(delta(t, prev_t)));
    p = put_varint(p, kRepeatMarker);
    prev_t = t;
    ++entries;
    ++repeats.snapshots;
    repeats.rows += len;
  };
  const Observation* prev = nullptr;  // the previous snapshot
  std::size_t prev_n = 0;
  std::size_t next = 0;  // the next held repeat
  for (std::size_t s = 0; s < n || next < held.size();) {
    if (next < held.size() && held[next].at == s) {
      // A held repeat: its snapshot again, by construction.
      const Repeat& m = held[next++];
      prev = obs + m.begin;
      prev_n = m.end - m.begin;
      put_marker(m.t_ms, prev_n);
      continue;
    }
    const std::int64_t t = obs[s].t.ms;
    const std::size_t stop = next < held.size() ? held[next].at : n;
    std::size_t e = s + 1;
    while (e < stop && obs[e].t.ms == t) ++e;
    const std::size_t len = e - s;
    if (len == prev_n && core::same_snapshot(prev, obs + s, len))
      put_marker(t, len);
    else
      put_rows(obs + s, len, t);
    prev = obs + s;
    prev_n = len;
    s = e;
  }
  const std::size_t count_len = varint_size(entries);
  if (count_len < count_room) {
    std::memmove(count_at + count_len, count_at + count_room,
                 static_cast<std::size_t>(p - (count_at + count_room)));
    p -= count_room - count_len;
  }
  put_varint(count_at, entries);
  out.truncate(start + static_cast<std::size_t>(p - begin));
  return finite;
}

}  // namespace

bool encode_cell(ByteWriter& out, std::uint32_t id, const CellRecord& rec,
                 ParamIndexMap& params, RepeatCount& repeats) {
  return encode_cell_kernel(
      out, id, rec,
      [&params](config::ParamKey key) { return params.assign(key); },
      repeats);
}

bool encode_cell(ByteWriter& out, std::uint32_t id, const CellRecord& rec,
                 const ParamIndexMap& params, RepeatCount& repeats) {
  return encode_cell_kernel(
      out, id, rec,
      [&params](config::ParamKey key) { return params.get(key); }, repeats);
}

void encode_cell_reference(ByteWriter& out, std::uint32_t id,
                           const CellRecord& rec, const ParamIndexMap& params) {
  const std::vector<Observation> rows = rec.expanded();
  ByteWriter body;
  std::uint64_t entries = 0;
  std::int64_t prev_t = 0;
  std::size_t prev = 0, prev_n = 0;  // the previous snapshot
  for (std::size_t s = 0; s < rows.size();) {
    std::size_t e = s + 1;
    while (e < rows.size() && rows[e].t == rows[s].t) ++e;
    const std::int64_t dt = delta(rows[s].t.ms, prev_t);
    if (e - s == prev_n &&
        core::same_snapshot(rows.data() + prev, rows.data() + s, prev_n)) {
      body.svarint(dt);
      body.varint(kRepeatMarker);
      ++entries;
    } else {
      for (std::size_t k = s; k < e; ++k) {
        body.svarint(k == s ? dt : 0);
        body.varint(params.get(rows[k].key));
        body.f64le(rows[k].value);
        body.svarint(rows[k].context);
      }
      entries += e - s;
    }
    prev_t = rows[s].t.ms;
    prev = s;
    prev_n = e - s;
    s = e;
  }
  out.varint(id);
  out.u8(static_cast<std::uint8_t>(rec.rat));
  out.varint(rec.channel);
  out.f64le(rec.position.x);
  out.f64le(rec.position.y);
  out.varint(entries);
  out.raw(body.buffer().data(), body.size());
}

std::uint32_t parse_cell_filtered(ByteReader& r,
                                  const std::vector<config::ParamKey>& params,
                                  bool repeats, const std::vector<char>& keep,
                                  std::uint32_t min_cell,
                                  std::uint32_t max_cell, CellRecord& rec,
                                  CellScan& scan) {
  const CellHeader h = parse_cell_header(r, repeats);
  rec.observations.clear();  // keep capacity: the fold reuses one record
  rec.repeats.clear();
  rec.cell_id = h.id;
  rec.rat = static_cast<spectrum::Rat>(h.rat_raw);
  rec.channel = h.channel;
  rec.position = {h.x, h.y};
  scan.has_front = h.n_obs > 0;
  ObservationSelection select;
  select.mask = keep.empty() ? nullptr : keep.data();
  select.none = h.id < min_cell || h.id > max_cell;
  decode_observations(r, h.n_obs, params, select, rec, scan, repeats);
  return h.id;
}

void decode_observations_reference(ByteReader& r, std::uint64_t n_obs,
                                   const std::vector<config::ParamKey>& params,
                                   ObservationSelection select,
                                   CellRecord& out, CellScan& scan,
                                   bool repeats) {
  start_scan(scan);
  SnapshotTracker snapshots;
  std::int64_t t_ms = 0;
  for (std::uint64_t i = 0; i < n_obs; ++i)
    decode_one_reference(r, i, params, select, repeats, t_ms, snapshots, out,
                         scan);
  snapshots.finish(n_obs, scan);
}

void decode_observations(ByteReader& r, std::uint64_t n_obs,
                         const std::vector<config::ParamKey>& params,
                         ObservationSelection select, CellRecord& out,
                         CellScan& scan, bool repeats) {
  // Every observation takes at least 11 bytes, so the bytes left bound how
  // many rows the entries can decode into, whatever n_obs claims.
  std::vector<Observation>& rows = out.observations;
  if (!select.none)
    rows.reserve(rows.size() + static_cast<std::size_t>(std::min<std::uint64_t>(
                                   n_obs, r.remaining() / 11 + 1)));
  start_scan(scan);
  SnapshotTracker snapshots;
  std::int64_t t_ms = 0;
  std::uint64_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    // p runs ahead of the reader; `synced` is where the reader stands.
    const std::uint8_t* synced = r.raw(0);
    const std::uint8_t* const end = synced + r.remaining();
    const std::uint8_t* p = synced;
    const std::uint64_t n_params = params.size();
    for (; i < n_obs && static_cast<std::size_t>(end - p) >=
                            kMaxWireObservationBytes;
         ++i) {
      // Every field is decoded into locals first; an observation the kernel
      // does not take (a 9- or 10-byte varint, or damage) is re-read by the
      // reference, which owns every error.
      const std::uint8_t* q = p;
      std::uint64_t delta, param_index, context;
      unsigned len = kernel_varint(q, delta);
      if (len != 0) {
        q += len;
        len = kernel_varint(q, param_index);
      }
      if (len != 0 && param_index == kRepeatMarker && repeats && i != 0) {
        p = q + len;
        t_ms = add_delta(t_ms, delta);
        snapshots.marker(i, t_ms, rows.size(), out.repeats, scan);
        continue;
      }
      std::uint64_t bits = 0;
      if (len != 0) {
        q += len;
        std::memcpy(&bits, q, 8);
        q += 8;
        len = kernel_varint(q, context);
      }
      constexpr std::uint64_t kExponent = 0x7FF0000000000000ull;
      if (len == 0 || param_index >= n_params ||
          (bits & kExponent) == kExponent) [[unlikely]] {
        r.skip(static_cast<std::size_t>(p - synced));
        decode_one_reference(r, i, params, select, repeats, t_ms, snapshots,
                             out, scan);
        p = synced = r.raw(0);
        continue;
      }
      p = q + len;
      t_ms = add_delta(t_ms, delta);
      snapshots.observation(i, t_ms, rows.size(), scan);
      if (select.keeps(param_index))
        rows.push_back({params[param_index], std::bit_cast<double>(bits),
                        SimTime{t_ms}, zigzag_decode(context)});
      else
        ++scan.values_skipped;
    }
    r.skip(static_cast<std::size_t>(p - synced));
  }
  for (; i < n_obs; ++i)
    decode_one_reference(r, i, params, select, repeats, t_ms, snapshots, out,
                         scan);
  snapshots.finish(n_obs, scan);
}

}  // namespace mmlab::store
