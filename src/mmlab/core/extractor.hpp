// The decode pipeline: diag bytes -> RRC messages -> ConfigDatabase.
//
// This is MMLab's "crawler" half: it replays a device diag log, reassembles
// each camped cell's configuration from the SIBs (and measConfig) captured
// while camped there, flattens it through the parameter registry, and files
// the observations.  It is deliberately the *only* way data enters the
// database — the analyses never see simulator ground truth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mmlab/core/database.hpp"
#include "mmlab/diag/log.hpp"

namespace mmlab::core {

/// Counters of one extraction.  A camp whose RRC payloads repeat the
/// cell's previous camp is not decoded again (StreamExtractor's memo), but
/// counts as if it were: its messages in rrc_messages and rrc_errors, its
/// snapshot in snapshots.  So every field is what decoding every camp
/// would give.
struct ExtractStats {
  std::size_t bytes = 0;          ///< raw diag bytes consumed
  std::size_t records = 0;        ///< diag records parsed
  std::size_t camps = 0;          ///< camping events seen
  std::size_t snapshots = 0;      ///< configuration snapshots filed
  std::size_t rrc_messages = 0;   ///< RRC messages decoded (memo hits too)
  std::size_t rrc_errors = 0;     ///< undecodable RRC payloads (skipped)
  std::size_t crc_failures = 0;   ///< diag frames dropped by CRC
  std::size_t malformed = 0;      ///< diag frames dropped by framing

  bool operator==(const ExtractStats&) const = default;
  ExtractStats& operator+=(const ExtractStats& o);
};

/// Record-at-a-time configuration extraction — the incremental core of
/// extract_configs(), exposed for the streaming ingestion service, which
/// decodes a device's diag records as its upload chunks arrive instead of
/// replaying a complete in-memory log.
///
/// Feed every parsed record in stream order via on_record(), then call
/// finish() exactly once at end-of-stream to flush the in-progress cell
/// (mirroring extract_configs()'s final flush).  The sequence
///     for each record: on_record(rec);  finish();
/// files byte-identical snapshots into `db` as extract_configs() over the
/// same log — extract_configs() is itself implemented on this class.
///
/// stats() covers the record-level counters only (records, camps,
/// snapshots, rrc_messages, rrc_errors, and payload-decode malformed);
/// `bytes` and the framing-level crc_failures/malformed belong to whichever
/// parser produced the records and are the caller's to add.  A camp's RRC
/// messages are decoded, and counted, when the camp is flushed: at the
/// next camp or at finish().
///
/// Decode once per configuration.  A camp's snapshot is a function of its
/// RRC payloads alone (log code and bytes, in order), and a cell mostly
/// broadcasts the same ones camp after camp.  So the extractor keeps each
/// cell's last camp payload sequence (a few hundred bytes per cell, freed
/// at finish()), with its decode counts and the size of the snapshot it
/// filed.  A camp whose payloads equal it is not decoded or flattened: it
/// files the cell's last snapshot again (ConfigDatabase::refile_snapshot),
/// which the database mostly holds as a repeat.  Every other camp is
/// decoded and filed through ConfigDatabase::add_snapshot, so the database
/// is add_snapshot's filing of every decoded camp; finish() trims its
/// repeat lists (ConfigDatabase::trim_repeats).
///
/// Not thread-safe; `db` must outlive the extractor, and nothing else may
/// change the cells it files into while it runs (the memo's refilings
/// read their last filing back from the record).
class StreamExtractor {
 public:
  StreamExtractor(std::string carrier, ConfigDatabase& db);
  ~StreamExtractor();

  StreamExtractor(const StreamExtractor&) = delete;
  StreamExtractor& operator=(const StreamExtractor&) = delete;

  void on_record(const diag::Record& rec);
  /// Flush the in-progress cell. Idempotent; on_record() afterwards throws.
  void finish();
  bool finished() const;

  const ExtractStats& stats() const { return stats_; }

 private:
  struct Pending;  // the currently-camped cell and its payloads

  /// What a cell's last camp held and filed.
  struct CampMemo {
    std::vector<std::uint8_t> payloads;  ///< its RRC payload sequence
    std::size_t messages = 0;            ///< payloads that decoded
    std::size_t errors = 0;              ///< payloads that did not
    bool filed = false;                  ///< it filed a snapshot ...
    std::size_t rows = 0;                ///< ... of this many params
  };

  /// File the pending camp: from the memo when its payloads repeat the
  /// cell's last camp, else decoded.
  void flush();

  std::string carrier_;
  ConfigDatabase& db_;
  ExtractStats stats_;
  std::unique_ptr<Pending> pending_;
  std::unordered_map<std::uint32_t, CampMemo> memo_;  ///< by cell identity
  bool finished_ = false;
};

/// Replay one diag log recorded on a device subscribed to `carrier`.
ExtractStats extract_configs(const std::string& carrier,
                             const std::uint8_t* data, std::size_t size,
                             ConfigDatabase& db);

inline ExtractStats extract_configs(const std::string& carrier,
                                    const std::vector<std::uint8_t>& log,
                                    ConfigDatabase& db) {
  return extract_configs(carrier, log.data(), log.size(), db);
}

}  // namespace mmlab::core
