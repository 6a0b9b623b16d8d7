// A MAC-learning-free (statically configured) Ethernet switch. Used both for
// the external ToR connecting clients to the server, and as the Stingray's
// internal fabric joining the physical port, the ARM SoC interface, and the
// host's SR-IOV virtual functions (§3.3: "when a packet arrives, it is
// steered to the proper CPU based on the MAC address in the Ethernet
// header").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/wire.h"

namespace nicsched::net {

class EthernetSwitch : public PacketSink {
 public:
  struct Stats {
    std::uint64_t forwarded = 0;
    std::uint64_t flooded = 0;
    std::uint64_t dropped_unknown = 0;
    std::uint64_t uplinked = 0;  // unknown-unicast frames sent out the uplink
  };

  /// `forward_latency` models the switching decision; per-port wires add
  /// serialization and propagation on top.
  EthernetSwitch(sim::Simulator& sim, sim::Duration forward_latency)
      : sim_(sim), forward_latency_(forward_latency) {}

  /// Attaches a device reachable at `mac`. Frames destined to `mac` egress
  /// on a dedicated wire with the given propagation latency and line rate.
  /// The device transmits *into* the switch via `ingress()`.
  void attach(MacAddress mac, PacketSink& device_rx, sim::Duration latency,
              double gbps);

  /// The sink devices transmit into.
  PacketSink& ingress() { return *this; }

  /// PacketSink: a frame arriving at the switch.
  void deliver(Packet packet) override;

  /// Installs a default route: unicast frames whose destination MAC is not
  /// attached locally egress on an uplink wire toward `sink` instead of
  /// being dropped. This is how a host-local fabric inside a rack forwards
  /// server→client traffic up to the ToR layer (DESIGN §12); broadcast
  /// frames still flood local ports only. At most one uplink.
  void set_uplink(PacketSink& sink, sim::Duration latency, double gbps);
  bool has_uplink() const { return uplink_ != nullptr; }

  /// The uplink wire, for link-partition faults. Null when no uplink is
  /// installed.
  Wire* uplink_wire() { return uplink_.get(); }

  /// Fault injection on one egress port (frames *toward* `mac`); see
  /// Wire::set_loss. Throws if `mac` is not attached.
  void set_port_loss(MacAddress mac, double probability, std::uint64_t seed);

  /// Fault injection: slow one egress port's serialization by `factor`; see
  /// Wire::set_degrade. Throws if `mac` is not attached.
  void set_port_degrade(MacAddress mac, double factor);

  /// Egress-wire stats for one attached MAC (lost counts live here).
  const Wire::Stats& port_stats(MacAddress mac) const;

  const Stats& stats() const { return stats_; }

 private:
  void forward(Packet packet);

  sim::Simulator& sim_;
  sim::Duration forward_latency_;
  std::unordered_map<MacAddress, std::unique_ptr<Wire>> ports_;
  std::unique_ptr<Wire> uplink_;
  Stats stats_;
};

}  // namespace nicsched::net
