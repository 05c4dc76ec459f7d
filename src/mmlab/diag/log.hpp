// Device diagnostic log — the stand-in for the Qualcomm diag interface that
// MobileInsight (and our MMLab) reads on real phones.
//
// A diag stream is a sequence of framed records.  Record body layout
// (little-endian):
//     u16 log_code | i64 timestamp_ms | u16 payload_len | payload bytes
// Framing (HDLC-like, as the real diag protocol):
//     escaped(body || crc16_ccitt(body)) || 0x7E
// with 0x7E escaped as 0x7D 0x5E and 0x7D as 0x7D 0x5D inside the frame.
//
// The parser must survive what real diag streams contain: truncated final
// frames, corrupted bytes, and unknown log codes.  It resynchronizes at the
// next 0x7E terminator and counts (rather than throws on) bad frames.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mmlab/util/clock.hpp"

namespace mmlab::diag {

/// Log codes. Values mirror the spirit of real Qualcomm codes
/// (e.g. 0xB0C0 = LTE RRC OTA packet).
enum class LogCode : std::uint16_t {
  kLteRrcOta = 0xB0C0,       ///< payload: rrc::encode() bytes
  kServingCellInfo = 0xB0C1, ///< payload: CampEvent (camping / cell change)
  kRadioMeasurement = 0xB180,///< payload: RadioSnapshot (periodic)
  kLegacyRrcOta = 0x412F,    ///< payload: rrc::encode() of LegacySystemInfo
};

struct Record {
  LogCode code = LogCode::kLteRrcOta;
  SimTime timestamp;
  std::vector<std::uint8_t> payload;

  bool operator==(const Record&) const = default;
};

/// Serializes records into a framed byte stream.
class Writer {
 public:
  void append(const Record& record);
  /// Frames one record from a borrowed payload, allocation-free apart from
  /// the log buffer's own geometric growth: the 12-byte header lives on the
  /// stack, the CRC chains over header then payload, and the escaped frame
  /// is written after one resize.  Same bytes as append(const Record&).
  void append(LogCode code, SimTime timestamp, const std::uint8_t* data,
              std::size_t size);
  /// The original frame-at-a-time loop (heap body, byte-wise escaping into
  /// push_back), kept as the oracle append() is property-checked against.
  void append_reference(const Record& record);
  const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  std::vector<std::uint8_t> take() && { return std::move(buffer_); }
  std::size_t record_count() const { return count_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t count_ = 0;
};

/// Parse statistics; bad frames are skipped, not fatal.
struct ParseStats {
  std::size_t records = 0;
  std::size_t crc_failures = 0;
  std::size_t malformed = 0;  ///< too short / length mismatch
};

/// Parses a framed byte stream back into records.
///
/// Trailing-truncation contract (streaming consumers rely on this): a log
/// cut mid-frame — any unterminated non-empty tail, including one ending in
/// a dangling escape byte — counts as **exactly one** `malformed` frame, at
/// the moment the end of the buffer is first reached.  A tail of zero bytes
/// (the stream ends exactly on a frame boundary) counts nothing.  Once
/// exhausted, further next() calls return false without recounting, so the
/// tail can never loop or double-count.  This is the distinction
/// StreamParser uses to tell "incomplete, wait for more bytes" (no
/// terminator *yet*) from "corrupt" (no terminator *ever*, i.e. at
/// end-of-stream).
class Parser {
 public:
  Parser(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Parser(const std::vector<std::uint8_t>& buf)
      : Parser(buf.data(), buf.size()) {}

  /// Next record, or false at end of stream. Corrupt frames are skipped and
  /// counted in stats().
  bool next(Record& out);

  /// Convenience: parse everything.
  std::vector<Record> all();

  const ParseStats& stats() const { return stats_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  ParseStats stats_;
};

// Fixed payloads ------------------------------------------------------------

/// Emitted whenever the UE camps on / is served by a new cell; lets the
/// analyzer segment the log per cell and detect idle-state reselections.
struct CampEvent {
  std::uint32_t cell_identity = 0;
  std::uint16_t pci = 0;
  std::uint8_t rat = 0;       ///< spectrum::Rat
  std::uint32_t channel = 0;  ///< EARFCN / UARFCN / ARFCN
  std::uint8_t cause = 0;     ///< CampCause
  /// Device GPS fix at camp time (decimeters in the world plane); the
  /// location analyses (Figs 20-21) join on this, as the real MMLab app
  /// joins on the phone's GPS.
  std::int32_t x_dm = 0;
  std::int32_t y_dm = 0;

  bool operator==(const CampEvent&) const = default;
};

enum class CampCause : std::uint8_t {
  kInitial = 0,        ///< power-on / first camp
  kIdleReselection = 1,
  kActiveHandoff = 2,
  kForcedSwitch = 3,   ///< MMLab Type-I proactive cell switching
};

/// Periodic (100 ms) radio snapshot of the serving cell, fixed point:
/// RSRP/RSRQ/SINR in centi-dB(m).
struct RadioSnapshot {
  std::int16_t rsrp_cdbm = -14000;
  std::int16_t rsrq_cdb = -1950;
  std::int16_t sinr_cdb = 0;

  bool operator==(const RadioSnapshot&) const = default;
};

/// A CampEvent's fixed-size payload.
using CampEventBytes = std::array<std::uint8_t, 20>;
/// The payload without a heap allocation (the per-camp path).
CampEventBytes encode_camp_event_bytes(const CampEvent& ev);
/// The same bytes as a vector, for building a Record.
std::vector<std::uint8_t> encode_camp_event(const CampEvent& ev);
bool decode_camp_event(const std::vector<std::uint8_t>& payload, CampEvent& out);

std::vector<std::uint8_t> encode_radio_snapshot(const RadioSnapshot& snap);
bool decode_radio_snapshot(const std::vector<std::uint8_t>& payload,
                           RadioSnapshot& out);

// Framing internals shared by Parser and StreamParser -----------------------

namespace detail {

inline constexpr std::uint8_t kTerminator = 0x7E;
inline constexpr std::uint8_t kEscape = 0x7D;
inline constexpr std::uint8_t kEscTerminator = 0x5E;  // 0x7E ^ 0x20
inline constexpr std::uint8_t kEscEscape = 0x5D;      // 0x7D ^ 0x20

/// Validate one complete unescaped frame body (header + payload + CRC) and
/// either fill `out` (and bump `stats.records`) or bump the matching error
/// counter.  Returns true iff `out` now holds a record.  Both parsers funnel
/// every terminated frame through here so their accounting cannot diverge.
bool finalize_frame(const std::uint8_t* body, std::size_t size, Record& out,
                    ParseStats& stats);

}  // namespace detail

}  // namespace mmlab::diag
