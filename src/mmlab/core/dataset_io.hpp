// Dataset persistence: save a crawled ConfigDatabase and load it back — the
// release artifact of the paper's appendix ("our codes and datasets will be
// released").  The release format is CSV, one row per observation:
//   carrier,cell_id,rat,channel,x_m,y_m,t_ms,param,value,context
// `param` is the registry name (config::param_name); loading resolves names
// back to keys, so the file is stable across enum reordering.  Doubles are
// written in shortest round-trip form (std::to_chars), so save -> load ->
// save is byte-identical and every value/position survives exactly.
//
// The binary dataset format is the sharded MMDS v2 store; mmlab::store owns
// every byte of it (store/mmds2.hpp), so this module is the CSV codec only.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "mmlab/core/database.hpp"
#include "mmlab/util/result.hpp"

namespace mmlab::core {

struct LoadStats {
  std::size_t rows = 0;      ///< observations parsed (including rejected)
  std::size_t bad_rows = 0;  ///< CSV only: skipped rows (wrong arity,
                             ///< unknown parameter, out-of-range numerics,
                             ///< non-finite values)
};

void save_dataset(const ConfigDatabase& db, std::ostream& out);
/// Convenience: write to a file path. Throws std::runtime_error on I/O error.
void save_dataset(const ConfigDatabase& db, const std::string& path);

Result<LoadStats> load_dataset(std::istream& in, ConfigDatabase& db);
Result<LoadStats> load_dataset(const std::string& path, ConfigDatabase& db);

}  // namespace mmlab::core
