// Ingress: the client-facing front of every family with a central queue —
// shinjuku's networker, offload's ARM networker, the NIC scheduler's ASIC.
//
// It parses one client frame, turns a ToR kCancel frame into a lazy cancel
// mark (DESIGN §16), and runs informed admission (DESIGN §11) against the
// family's CentralQueue. A refused request is answered with a reject frame
// straight from the ingress port, with no dispatcher work spent on it. The
// ingress spans (client wire, NIC RX) close here, and an admitted request
// leaves in `dispatch_queue`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/central_queue.h"
#include "net/nic.h"
#include "net/packet.h"
#include "proto/messages.h"
#include "sim/simulator.h"

namespace nicsched::core {

class Ingress {
 public:
  /// Applies a cancel mark for `request_id` to the queue(s) it may sit in.
  using CancelFn = std::function<void(std::uint64_t request_id)>;

  /// `component` names the trace lines; `lane` is the span lane.
  Ingress(sim::Simulator& sim, net::NicInterface& port,
          std::uint16_t udp_port, std::string component, std::uint32_t lane,
          CentralQueue& queue, CancelFn cancel);

  /// Handles one client frame. Returns the admitted request's descriptor;
  /// a malformed frame, a cancel, or a refused request returns nothing.
  /// `backlog` counts requests accepted but not yet in the queue.
  std::optional<proto::RequestDescriptor> accept(const net::Packet& packet,
                                                 std::size_t backlog);

  std::uint64_t requests_received() const { return requests_received_; }
  std::uint64_t malformed() const { return malformed_; }

 private:
  sim::Simulator& sim_;
  net::NicInterface& port_;
  std::uint16_t udp_port_;
  std::string component_;
  std::uint32_t lane_;
  CentralQueue& queue_;
  CancelFn cancel_;
  std::uint64_t requests_received_ = 0;
  std::uint64_t malformed_ = 0;
};

}  // namespace nicsched::core
