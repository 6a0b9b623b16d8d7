#include "net/wire.h"

#include <memory>
#include <utility>

namespace nicsched::net {

void Wire::transmit(Packet packet) {
  const sim::TimePoint start =
      port_free_ > sim_.now() ? port_free_ : sim_.now();
  const sim::TimePoint tx_done = start + serialization_delay(packet.wire_size());
  port_free_ = tx_done;

  stats_.packets += 1;
  stats_.bytes += packet.size();

  if (loss_rng_ && loss_rng_->bernoulli(loss_probability_)) {
    ++stats_.lost;
    return;  // the serialization slot above is still consumed
  }

  const sim::TimePoint arrival = tx_done + latency_;
  const std::uint64_t seq = sim_.queue().reserve_seq();
  pending_.push_back(Pending{arrival, seq, std::move(packet)});
  // Serialization keeps arrivals on one wire strictly increasing, so a
  // pending delivery event always precedes this frame; only an idle wire
  // needs arming.
  if (!delivery_.pending()) arm_delivery(arrival, seq);
}

void Wire::arm_delivery(sim::TimePoint arrival, std::uint64_t seq) {
  delivery_ = sim_.queue().schedule_reserved(arrival, seq,
                                             [this]() { deliver_front(); });
}

void Wire::deliver_front() {
  Pending front = std::move(pending_[pending_head_]);
  ++pending_head_;
  if (pending_head_ == pending_.size()) {
    pending_.clear();  // keeps capacity for the next burst
    pending_head_ = 0;
  } else {
    // Re-arm before delivering: the sink may transmit on this wire again.
    const Pending& next = pending_[pending_head_];
    arm_delivery(next.arrival, next.seq);
  }
  destination_.deliver(std::move(front.packet));
}

}  // namespace nicsched::net
