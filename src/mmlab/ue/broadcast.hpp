// Cell-side system-information generation: what a serving cell transmits.
//
// Maps a net::Cell's configuration onto the RRC message family exactly the
// way the standard distributes parameters across SIBs (Tab 2's "Message"
// column): SIB3 carries serving reselection parameters, SIB5/6/7/8 carry
// per-RAT neighbour frequency lists, measConfig carries reporting events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mmlab/diag/log.hpp"
#include "mmlab/net/deployment.hpp"
#include "mmlab/rrc/messages.hpp"

namespace mmlab::ue {

/// All system information an LTE cell broadcasts (SIB1, SIB3, SIB4 when a
/// forbidden list exists, and SIB5/6/7/8 for each neighbour RAT present).
/// For a legacy cell, a single LegacySystemInfo message.
std::vector<rrc::Message> broadcast_system_information(const net::Cell& cell);

/// The measConfig an LTE cell signals on connection setup / after handoff.
rrc::RrcConnectionReconfiguration make_measurement_config(const net::Cell& cell);

/// The RRC frames a UE logs when it camps on a cell, encoded once: the
/// payloads of broadcast_system_information(cell) in order, then, for an
/// LTE cell, that of make_measurement_config(cell).  A cell's frames change
/// only when its configuration does, so a caller that camps on the same
/// cell again may reuse them until it reconfigures that cell.
struct CampFrames {
  struct Frame {
    diag::LogCode code = diag::LogCode::kLteRrcOta;
    std::uint32_t offset = 0;  ///< into bytes
    std::uint32_t size = 0;
  };
  std::vector<std::uint8_t> bytes;  ///< every payload, back to back
  std::vector<Frame> frames;
  std::size_t broadcast = 0;  ///< frames[0, broadcast) are the broadcast
};

CampFrames encode_camp_frames(const net::Cell& cell);

}  // namespace mmlab::ue
