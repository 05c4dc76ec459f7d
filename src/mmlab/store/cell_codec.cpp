#include "mmlab/store/cell_codec.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace mmlab::store {

using core::CellRecord;
using core::ConfigDatabase;
using core::Observation;

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

/// One observation by the reference field-by-field parse.
void decode_one_reference(ByteReader& r, std::uint64_t i,
                          const std::vector<config::ParamKey>& params,
                          ObservationSelection select, std::int64_t& t_ms,
                          std::vector<Observation>& out, CellScan& scan) {
  t_ms = add_delta(t_ms, r.varint());
  if (i == 0) scan.front_t_ms = t_ms;
  const std::uint64_t param_index = r.varint();
  if (param_index >= params.size())
    throw MmdsError("param index out of range");
  // A skipped value is still checked, so a query plan never changes
  // whether a store is accepted.
  const double value = finite_value(r);
  const std::int64_t context = r.svarint();
  if (select.keeps(param_index))
    out.push_back({params[param_index], value, SimTime{t_ms}, context});
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
                        const CellRecord& rec, IndexOf index_of) {
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
  bool finite = true;
  for (const auto& obs : rec.observations) {
    p = put_varint(p, zigzag_encode(delta(obs.t.ms, prev_t)));
    prev_t = obs.t.ms;
    p = put_varint(p, index_of(obs.key));
    p = put_f64(p, obs.value);
    finite &= std::isfinite(obs.value);
    p = put_varint(p, zigzag_encode(obs.context));
  }
  out.truncate(start + static_cast<std::size_t>(p - begin));
  return finite;
}

}  // namespace

bool encode_cell(ByteWriter& out, std::uint32_t id, const CellRecord& rec,
                 ParamIndexMap& params) {
  return encode_cell_kernel(out, id, rec, [&params](config::ParamKey key) {
    return params.assign(key);
  });
}

bool encode_cell(ByteWriter& out, std::uint32_t id, const CellRecord& rec,
                 const ParamIndexMap& params) {
  return encode_cell_kernel(out, id, rec, [&params](config::ParamKey key) {
    return params.get(key);
  });
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
    out.svarint(delta(obs.t.ms, prev_t));
    prev_t = obs.t.ms;
    out.varint(params.get(obs.key));
    out.f64le(obs.value);
    out.svarint(obs.context);
  }
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
  CellScan scan;
  decode_observations(r, h.n_obs, params, {}, rec.observations, scan);
  return static_cast<std::size_t>(h.n_obs);
}

std::uint32_t parse_cell_filtered(ByteReader& r,
                                  const std::vector<config::ParamKey>& params,
                                  const std::vector<char>& keep,
                                  std::uint32_t min_cell,
                                  std::uint32_t max_cell, CellRecord& rec,
                                  CellScan& scan) {
  const CellHeader h = parse_cell_header(r);
  rec.observations.clear();  // keep capacity: the fold reuses one record
  rec.cell_id = h.id;
  rec.rat = static_cast<spectrum::Rat>(h.rat_raw);
  rec.channel = h.channel;
  rec.position = {h.x, h.y};
  scan.rows = h.n_obs;
  scan.has_front = h.n_obs > 0;
  ObservationSelection select;
  select.mask = keep.empty() ? nullptr : keep.data();
  select.none = h.id < min_cell || h.id > max_cell;
  decode_observations(r, h.n_obs, params, select, rec.observations, scan);
  return h.id;
}

void decode_observations_reference(ByteReader& r, std::uint64_t n_obs,
                                   const std::vector<config::ParamKey>& params,
                                   ObservationSelection select,
                                   std::vector<Observation>& out,
                                   CellScan& scan) {
  scan.values_skipped = 0;
  scan.front_t_ms = 0;
  std::int64_t t_ms = 0;
  for (std::uint64_t i = 0; i < n_obs; ++i)
    decode_one_reference(r, i, params, select, t_ms, out, scan);
}

void decode_observations(ByteReader& r, std::uint64_t n_obs,
                         const std::vector<config::ParamKey>& params,
                         ObservationSelection select,
                         std::vector<Observation>& out, CellScan& scan) {
  if (!select.none) out.reserve(out.size() + static_cast<std::size_t>(n_obs));
  scan.values_skipped = 0;
  scan.front_t_ms = 0;
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
        decode_one_reference(r, i, params, select, t_ms, out, scan);
        p = synced = r.raw(0);
        continue;
      }
      p = q + len;
      t_ms = add_delta(t_ms, delta);
      if (i == 0) scan.front_t_ms = t_ms;
      if (select.keeps(param_index))
        out.push_back({params[param_index], std::bit_cast<double>(bits),
                       SimTime{t_ms}, zigzag_decode(context)});
      else
        ++scan.values_skipped;
    }
    r.skip(static_cast<std::size_t>(p - synced));
  }
  for (; i < n_obs; ++i)
    decode_one_reference(r, i, params, select, t_ms, out, scan);
}

}  // namespace mmlab::store
