#include "mmlab/diag/log.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "mmlab/util/crc.hpp"

namespace mmlab::diag {

namespace {

using detail::kEscape;
using detail::kEscEscape;
using detail::kEscTerminator;
using detail::kTerminator;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(u & 0xFF));
    u >>= 8;
  }
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::int64_t get_i64(const std::uint8_t* p) {
  std::uint64_t u = 0;
  for (int i = 7; i >= 0; --i) u = (u << 8) | p[i];
  return static_cast<std::int64_t>(u);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le(std::uint8_t* out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Escapes `size` bytes into `out`, which has room for 2 * size; returns the
/// end of what was written.
std::uint8_t* escape_into(std::uint8_t* out, const std::uint8_t* data,
                          std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint8_t b = data[i];
    if (b == kTerminator || b == kEscape) {
      *out++ = kEscape;
      *out++ = static_cast<std::uint8_t>(b ^ 0x20);  // 0x5E / 0x5D
    } else {
      *out++ = b;
    }
  }
  return out;
}

}  // namespace

void Writer::append(const Record& record) {
  append(record.code, record.timestamp, record.payload.data(),
         record.payload.size());
}

void Writer::append(LogCode code, SimTime timestamp, const std::uint8_t* data,
                    std::size_t size) {
  if (size > 0xFFFF) throw std::invalid_argument("diag: payload too large");
  std::uint8_t header[12];
  store_le(header, static_cast<std::uint16_t>(code), 2);
  store_le(header + 2, static_cast<std::uint64_t>(timestamp.ms), 8);
  store_le(header + 10, size, 2);
  std::uint16_t state =
      crc16_ccitt_update(kCrc16CcittInit, header, sizeof header);
  state = crc16_ccitt_update(state, data, size);
  const std::uint16_t crc = crc16_ccitt_finalize(state);
  const std::uint8_t trailer[2] = {static_cast<std::uint8_t>(crc & 0xFF),
                                   static_cast<std::uint8_t>(crc >> 8)};

  // Worst case every byte needs escaping, plus the terminator.  resize()
  // grows the capacity geometrically, so appends stay amortized O(1); the
  // unused tail is cut off below.
  const std::size_t start = buffer_.size();
  buffer_.resize(start + 2 * (sizeof header + size + sizeof trailer) + 1);
  std::uint8_t* out = buffer_.data() + start;
  out = escape_into(out, header, sizeof header);
  out = escape_into(out, data, size);
  out = escape_into(out, trailer, sizeof trailer);
  *out++ = kTerminator;
  buffer_.resize(static_cast<std::size_t>(out - buffer_.data()));
  ++count_;
}

void Writer::append_reference(const Record& record) {
  if (record.payload.size() > 0xFFFF)
    throw std::invalid_argument("diag: payload too large");
  std::vector<std::uint8_t> body;
  body.reserve(14 + record.payload.size());  // header + payload + CRC
  put_u16(body, static_cast<std::uint16_t>(record.code));
  put_i64(body, record.timestamp.ms);
  put_u16(body, static_cast<std::uint16_t>(record.payload.size()));
  body.insert(body.end(), record.payload.begin(), record.payload.end());
  const std::uint16_t crc = crc16_ccitt(body.data(), body.size());
  put_u16(body, crc);
  // Worst case every body byte needs escaping, plus the terminator: one
  // up-front reservation instead of O(frame) push_back growth.  Grow by at
  // least 2x so repeated appends keep amortized O(1) (a bare reserve(need)
  // would reallocate on every append).
  const std::size_t need = buffer_.size() + 2 * body.size() + 1;
  if (need > buffer_.capacity())
    buffer_.reserve(std::max(need, buffer_.capacity() * 2));
  for (std::uint8_t b : body) {
    if (b == kTerminator) {
      buffer_.push_back(kEscape);
      buffer_.push_back(kEscTerminator);
    } else if (b == kEscape) {
      buffer_.push_back(kEscape);
      buffer_.push_back(kEscEscape);
    } else {
      buffer_.push_back(b);
    }
  }
  buffer_.push_back(kTerminator);
  ++count_;
}

bool Parser::next(Record& out) {
  while (pos_ < size_) {
    // Fast path: locate the frame terminator with memchr; when the segment
    // holds no escape byte (the overwhelmingly common case — only 2 of 256
    // byte values need escaping) validate it in place, copy-free.
    const std::uint8_t* base = data_ + pos_;
    const auto* term = static_cast<const std::uint8_t*>(
        std::memchr(base, kTerminator, size_ - pos_));
    if (!term) {
      // Truncated trailing frame (log cut mid-write): the tail is non-empty
      // (loop guard) and unterminated, which always counts one malformed.
      pos_ = size_;
      ++stats_.malformed;
      return false;
    }
    const std::size_t seg = static_cast<std::size_t>(term - base);
    if (std::memchr(base, kEscape, seg) == nullptr) {
      pos_ += seg + 1;  // past the terminator
      if (seg == 0) continue;  // stray terminator between frames
      if (detail::finalize_frame(base, seg, out, stats_)) return true;
      continue;
    }

    // Escaped segment: collect and unescape bytes up to the next terminator.
    // (Not bounded by `term`: a 0x7D directly before it consumes the
    // terminator as its escape code and resyncs at the following one.)
    std::vector<std::uint8_t> body;
    bool saw_terminator = false;
    bool bad_escape = false;
    while (pos_ < size_) {
      const std::uint8_t b = data_[pos_++];
      if (b == kTerminator) {
        saw_terminator = true;
        break;
      }
      if (b == kEscape) {
        if (pos_ >= size_) {
          bad_escape = true;
          break;
        }
        const std::uint8_t e = data_[pos_++];
        if (e == kEscTerminator)
          body.push_back(kTerminator);
        else if (e == kEscEscape)
          body.push_back(kEscape);
        else {
          bad_escape = true;
          // Skip ahead to the terminator to resync.
          while (pos_ < size_ && data_[pos_] != kTerminator) ++pos_;
          if (pos_ < size_) {
            ++pos_;
            saw_terminator = true;
          }
          break;
        }
      } else {
        body.push_back(b);
      }
    }
    if (!saw_terminator) {
      // Truncated trailing frame (log cut mid-write): count iff non-empty.
      if (!body.empty() || bad_escape) ++stats_.malformed;
      return false;
    }
    if (bad_escape) {
      ++stats_.malformed;
      continue;
    }
    if (body.empty()) continue;  // stray terminator between frames
    if (detail::finalize_frame(body.data(), body.size(), out, stats_))
      return true;
  }
  return false;
}

bool detail::finalize_frame(const std::uint8_t* body, std::size_t size,
                            Record& out, ParseStats& stats) {
  if (size < 14) {  // 12-byte header + 2-byte CRC
    ++stats.malformed;
    return false;
  }
  const std::size_t crc_pos = size - 2;
  const std::uint16_t want = get_u16(body + crc_pos);
  const std::uint16_t got = crc16_ccitt(body, crc_pos);
  if (want != got) {
    ++stats.crc_failures;
    return false;
  }
  const std::uint16_t len = get_u16(body + 10);
  if (static_cast<std::size_t>(len) + 14 != size) {
    ++stats.malformed;
    return false;
  }
  out.code = static_cast<LogCode>(get_u16(body));
  out.timestamp = SimTime{get_i64(body + 2)};
  out.payload.assign(body + 12, body + 12 + len);
  ++stats.records;
  return true;
}

std::vector<Record> Parser::all() {
  std::vector<Record> out;
  Record rec;
  while (next(rec)) out.push_back(rec);
  return out;
}

CampEventBytes encode_camp_event_bytes(const CampEvent& ev) {
  CampEventBytes out;
  store_le(out.data(), ev.cell_identity, 4);
  store_le(out.data() + 4, ev.pci, 2);
  out[6] = ev.rat;
  store_le(out.data() + 7, ev.channel, 4);
  out[11] = ev.cause;
  store_le(out.data() + 12, static_cast<std::uint32_t>(ev.x_dm), 4);
  store_le(out.data() + 16, static_cast<std::uint32_t>(ev.y_dm), 4);
  return out;
}

std::vector<std::uint8_t> encode_camp_event(const CampEvent& ev) {
  const CampEventBytes bytes = encode_camp_event_bytes(ev);
  return {bytes.begin(), bytes.end()};
}

bool decode_camp_event(const std::vector<std::uint8_t>& payload,
                       CampEvent& out) {
  if (payload.size() != 20) return false;
  out.cell_identity = get_u32(payload.data());
  out.pci = get_u16(payload.data() + 4);
  out.rat = payload[6];
  out.channel = get_u32(payload.data() + 7);
  out.cause = payload[11];
  out.x_dm = static_cast<std::int32_t>(get_u32(payload.data() + 12));
  out.y_dm = static_cast<std::int32_t>(get_u32(payload.data() + 16));
  return true;
}

std::vector<std::uint8_t> encode_radio_snapshot(const RadioSnapshot& snap) {
  std::vector<std::uint8_t> out;
  out.reserve(6);
  put_u16(out, static_cast<std::uint16_t>(snap.rsrp_cdbm));
  put_u16(out, static_cast<std::uint16_t>(snap.rsrq_cdb));
  put_u16(out, static_cast<std::uint16_t>(snap.sinr_cdb));
  return out;
}

bool decode_radio_snapshot(const std::vector<std::uint8_t>& payload,
                           RadioSnapshot& out) {
  if (payload.size() != 6) return false;
  out.rsrp_cdbm = static_cast<std::int16_t>(get_u16(payload.data()));
  out.rsrq_cdb = static_cast<std::int16_t>(get_u16(payload.data() + 2));
  out.sinr_cdb = static_cast<std::int16_t>(get_u16(payload.data() + 4));
  return true;
}

}  // namespace mmlab::diag
