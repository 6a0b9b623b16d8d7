#include "core/ingress.h"

#include <utility>

#include "obs/span.h"

namespace nicsched::core {

Ingress::Ingress(sim::Simulator& sim, net::NicInterface& port,
                 std::uint16_t udp_port, std::string component,
                 std::uint32_t lane, CentralQueue& queue, CancelFn cancel)
    : sim_(sim),
      port_(port),
      udp_port_(udp_port),
      component_(std::move(component)),
      lane_(lane),
      queue_(queue),
      cancel_(std::move(cancel)) {}

std::optional<proto::RequestDescriptor> Ingress::accept(
    const net::Packet& packet, std::size_t backlog) {
  const auto datagram = net::parse_udp_datagram(packet);
  if (!datagram || datagram->udp.dst_port != udp_port_) {
    ++malformed_;
    return std::nullopt;
  }
  if (proto::peek_type(datagram->payload) == proto::MessageType::kCancel) {
    if (const auto cancel = proto::CancelMessage::parse(datagram->payload)) {
      // The losing leg of a ToR-hedged pair: mark the id for a lazy drop at
      // dispatch. A mark whose request was already dispatched (or never
      // arrived here) is harmless — ids are unique per run.
      cancel_(cancel->request_id);
    } else {
      ++malformed_;
    }
    return std::nullopt;
  }
  const auto request = proto::RequestMessage::parse(datagram->payload);
  if (!request) {
    ++malformed_;
    return std::nullopt;
  }
  ++requests_received_;
  sim_.trace(sim::TraceCategory::kClient, [&] {
    return std::pair{component_, "request " +
                                     std::to_string(request->request_id) +
                                     " received"};
  });
  // With tenants on (DESIGN §13) the request is judged by its own tenant's
  // gate and backlog, so a saturating neighbour cannot close the door.
  const CentralQueue::Verdict verdict = queue_.admit(request->tenant, backlog);
  if (sim_.span_enabled()) {
    // The NIC stamped the frame's arrival; attribute wire vs RX/parse.
    const sim::TimePoint rx = packet.rx_at();
    obs::end_span_at(sim_, rx, request->request_id,
                     obs::SpanKind::kClientWire, lane_);
    obs::begin_span_at(sim_, rx, request->request_id, obs::SpanKind::kNicRx,
                       lane_);
    obs::end_span(sim_, request->request_id, obs::SpanKind::kNicRx, lane_);
    obs::begin_span(sim_, request->request_id,
                    verdict.admitted ? obs::SpanKind::kDispatchQueue
                                     : obs::SpanKind::kResponse,
                    lane_);
  }
  if (verdict.admitted) return make_descriptor(*request, *datagram);

  sim_.trace(sim::TraceCategory::kClient, [&] {
    return std::pair{component_, "reject " +
                                     std::to_string(request->request_id) +
                                     " depth " + std::to_string(verdict.depth)};
  });
  net::DatagramAddress reply;
  reply.src_mac = port_.mac();
  reply.dst_mac = datagram->eth.src;
  reply.src_ip = port_.ip();
  reply.dst_ip = datagram->ip.src;
  reply.src_port = udp_port_;
  reply.dst_port = datagram->udp.src_port;
  auto& scratch = proto::serialization_scratch();
  make_reject(*request, static_cast<std::uint32_t>(verdict.depth))
      .serialize_into(scratch);
  port_.transmit(net::make_udp_datagram(reply, scratch));
  return std::nullopt;
}

}  // namespace nicsched::core
