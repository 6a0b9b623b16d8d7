// Point-to-point transmission: the `PacketSink` interface every receiving
// element implements, and the `Wire`, a unidirectional path with propagation
// latency and store-and-forward serialization at a fixed line rate.
//
// Delivery is batched per wire: frames park in a FIFO of (arrival, packet)
// and one small re-armed event walks it, so a burst holds one live event in
// the queue instead of one 72-byte closure per in-flight frame.
// Serialization makes arrival times on one wire strictly increasing, so the
// FIFO order is the delivery order. Each frame reserves its event-queue
// sequence number at transmit time and the re-armed event is scheduled with
// it, so same-instant tie-breaks against other events are bit-identical to
// the per-frame scheduling this replaces; the determinism goldens pin it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace nicsched::net {

/// Anything that can accept a packet at the current simulated instant.
class PacketSink {
 public:
  virtual ~PacketSink() = default;

  /// Called by the delivering element at the packet's arrival time.
  virtual void deliver(Packet packet) = 0;
};

/// A unidirectional wire. Packets serialize onto the wire in FIFO order at
/// `gbps`, then propagate for `latency`. Two wires back-to-back model a
/// full-duplex link.
class Wire {
 public:
  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t lost = 0;
  };

  Wire(sim::Simulator& sim, PacketSink& destination, sim::Duration latency,
       double gbps)
      : sim_(sim), destination_(destination), latency_(latency), gbps_(gbps) {}

  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  /// Queues `packet` for transmission. The packet is delivered to the
  /// destination at serialization-end + latency.
  void transmit(Packet packet);

  /// Fault injection: drop each frame independently with `probability`
  /// (CRC corruption / congestion loss on the path). Dropped frames still
  /// occupy the transmitter's serialization slot. Deterministic in `seed`.
  /// A probability <= 0 clears loss entirely (no RNG draw per frame), so
  /// closing a fault window restores the wire's exact no-loss behaviour.
  void set_loss(double probability, std::uint64_t seed) {
    if (probability <= 0.0) {
      loss_probability_ = 0.0;
      loss_rng_.reset();
      return;
    }
    loss_probability_ = probability;
    loss_rng_.emplace(seed);
  }

  /// Fault injection: multiply serialization time by `factor` >= 1 (link
  /// negotiated down / flapping). A factor <= 1 restores full rate.
  void set_degrade(double factor) {
    degrade_factor_ = factor > 1.0 ? factor : 1.0;
  }

  const Stats& stats() const { return stats_; }
  sim::Duration latency() const { return latency_; }

  /// Frames parked awaiting delivery (burst-batching FIFO). For tests.
  std::size_t pending_deliveries() const {
    return pending_.size() - pending_head_;
  }

  /// Serialization time for `bytes` on this wire.
  sim::Duration serialization_delay(std::size_t bytes) const {
    // bits / (gbps * 1e9 bits/s) seconds = bits / gbps nanoseconds.
    return sim::Duration::nanos(static_cast<double>(bytes) * 8.0 / gbps_ *
                                degrade_factor_);
  }

 private:
  struct Pending {
    sim::TimePoint arrival;
    std::uint64_t seq;  // reserved at transmit; the frame's tie-break rank
    Packet packet;
  };

  void arm_delivery(sim::TimePoint arrival, std::uint64_t seq);
  void deliver_front();

  sim::Simulator& sim_;
  PacketSink& destination_;
  sim::Duration latency_;
  double gbps_;
  sim::TimePoint port_free_;  // when the transmitter finishes its last frame
  Stats stats_;
  double loss_probability_ = 0.0;
  std::optional<sim::Rng> loss_rng_;
  double degrade_factor_ = 1.0;

  // Burst-batching FIFO: a head index over a grow-only vector, so steady
  // state recycles capacity instead of churning deque blocks.
  std::vector<Pending> pending_;
  std::size_t pending_head_ = 0;
  sim::EventHandle delivery_;
};

}  // namespace nicsched::net
