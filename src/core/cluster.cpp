#include "core/cluster.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/distributed_server.h"
#include "core/server_factory.h"
#include "rack/probe_responder.h"

namespace nicsched::core {

namespace {
// Seeds for the partition wires' loss RNGs. A severed link drops at
// probability 1.0, so the draws can't change which frames die — the seed
// only has to be a fixed constant so restores reset the stream identically
// on every replay.
constexpr std::uint64_t kUplinkLossSeed = 0x5EED'0B5C'0000'0001ULL;
constexpr std::uint64_t kDownlinkLossSeed = 0x5EED'0B5C'0000'0002ULL;
}  // namespace

HostSpec HostSpec::from_config(const ExperimentConfig& config) {
  HostSpec spec;
  spec.system = config.system;
  spec.worker_count = config.worker_count;
  spec.dispatcher_count = config.dispatcher_count;
  spec.outstanding_per_worker = config.outstanding_per_worker;
  spec.preemption_enabled = config.preemption_enabled;
  spec.time_slice = config.time_slice;
  spec.timer_costs = config.timer_costs;
  spec.queue_policy = config.queue_policy;
  spec.sender_cores = config.sender_cores;
  spec.tx_batch_frames = config.tx_batch_frames;
  spec.tx_batch_timeout = config.tx_batch_timeout;
  spec.placement = config.placement;
  spec.reliability.enabled = config.reliable_dispatch.value_or(false);
  // Overload knobs: run_experiment resolves config-vs-environment before
  // mapping; direct callers that left the field unset get everything off.
  spec.overload = config.overload.value_or(overload::OverloadParams{});
  // Tenant mix: run_experiment resolves config-vs-NICSCHED_TENANTS before
  // mapping, so direct callers with an empty spec list keep the layer off.
  spec.tenant = config.tenant_params();
  if (config.rack && config.rack->hosts > 1) {
    spec.load_feedback = config.rack->load_feedback;
  }
  // Feedback staleness: run_experiment resolves config-vs-environment before
  // mapping; direct callers that left the field unset get the synchronous
  // fold.
  spec.feedback_staleness =
      config.feedback_staleness.value_or(sim::Duration::zero());
  spec.params = config.params;
  return spec;
}

net::MacAddress Cluster::service_mac() const {
  return tor_ ? tor_->vip_mac() : hosts_.at(0).server->ingress_mac();
}

net::Ipv4Address Cluster::service_ip() const {
  return tor_ ? tor_->vip_ip() : hosts_.at(0).server->ingress_ip();
}

std::uint16_t Cluster::service_port() const {
  return hosts_.at(0).server->port();
}

std::uint16_t Cluster::partition_count() const {
  if (auto* distributed =
          dynamic_cast<const DistributedServer*>(hosts_.at(0).server.get())) {
    return distributed->partition_count();
  }
  return 0;
}

ServerStats Cluster::stats(sim::Duration elapsed) const {
  ServerStats total = hosts_.at(0).server->stats(elapsed);
  for (std::size_t i = 1; i < hosts_.size(); ++i) {
    const ServerStats s = hosts_[i].server->stats(elapsed);
    total.requests_received += s.requests_received;
    total.responses_sent += s.responses_sent;
    total.preemptions += s.preemptions;
    total.spurious_interrupts += s.spurious_interrupts;
    total.steals += s.steals;
    total.drops += s.drops;
    total.cancelled += s.cancelled;
    total.queue_max_depth = std::max(total.queue_max_depth, s.queue_max_depth);
    total.worker_utilization.insert(total.worker_utilization.end(),
                                    s.worker_utilization.begin(),
                                    s.worker_utilization.end());
    total.ddio.l1_touches += s.ddio.l1_touches;
    total.ddio.llc_touches += s.ddio.llc_touches;
    total.ddio.dram_touches += s.ddio.dram_touches;
    total.reliability.retransmits += s.reliability.retransmits;
    total.reliability.note_retransmits += s.reliability.note_retransmits;
    total.reliability.timeouts += s.reliability.timeouts;
    total.reliability.redispatched += s.reliability.redispatched;
    total.reliability.abandoned += s.reliability.abandoned;
    total.reliability.duplicates += s.reliability.duplicates;
    total.reliability.worker_deaths += s.reliability.worker_deaths;
    total.reliability.revivals += s.reliability.revivals;
    total.reliability.loss_injections_ignored +=
        s.reliability.loss_injections_ignored;
    total.overload.admitted += s.overload.admitted;
    total.overload.rejected += s.overload.rejected;
    total.overload.shed_expired += s.overload.shed_expired;
    total.overload.k_shrinks += s.overload.k_shrinks;
    total.overload.k_restores += s.overload.k_restores;
    tenant::accumulate(total.tenants, s.tenants);
  }
  return total;
}

fault::FaultSurface& Cluster::host_surface(std::uint32_t host) {
  fault::FaultSurface* surface = hosts_.at(host).server->fault_surface();
  if (surface == nullptr) {
    throw std::logic_error("Cluster: host exposes no fault surface");
  }
  return *surface;
}

void Cluster::inject_host_freeze(std::uint32_t host) {
  // The crash half of the frozen-incarnation model: every worker core stops
  // mid-instruction. The probe responder lives on the host *switch* (NIC
  // management path), so reachability is severed separately via the link
  // partitions — a frozen-but-connected host still acks probes, exactly the
  // "slow vs dead" ambiguity the ToR's two detectors disambiguate.
  fault::FaultSurface& surface = host_surface(host);
  const std::uint32_t workers = surface.fault_worker_count();
  for (std::uint32_t w = 0; w < workers; ++w) surface.inject_worker_crash(w);
}

void Cluster::inject_host_thaw(std::uint32_t host) {
  fault::FaultSurface& surface = host_surface(host);
  const std::uint32_t workers = surface.fault_worker_count();
  for (std::uint32_t w = 0; w < workers; ++w) surface.inject_worker_resume(w);
}

void Cluster::inject_uplink_partition(std::uint32_t host, bool on) {
  // Total loss at transmit time on the host→ToR wire: feedback, responses,
  // and probe acks all go dark, so the ToR's probe timeout fires. The
  // single-host topology has no uplink — nothing to sever.
  if (net::EthernetSwitch* network = hosts_.at(host).network.get()) {
    if (net::Wire* uplink = network->uplink_wire()) {
      uplink->set_loss(on ? 1.0 : 0.0, kUplinkLossSeed ^ host);
    }
  }
}

void Cluster::inject_downlink_partition(std::uint32_t host, bool on) {
  if (tor_ != nullptr) {
    tor_->downlink_wire(host).set_loss(on ? 1.0 : 0.0,
                                       kDownlinkLossSeed ^ host);
  }
}

Cluster ClusterBuilder::build() {
  if (specs_.empty()) {
    throw std::invalid_argument("ClusterBuilder: need >= 1 host");
  }
  if (specs_.size() > 1 && !rack_params_) {
    throw std::invalid_argument(
        "ClusterBuilder: multi-host topologies need with_rack()");
  }

  Cluster cluster;
  cluster.client_network_ =
      std::make_unique<net::EthernetSwitch>(sim_, switch_latency_);

  if (specs_.size() == 1) {
    // The trivial topology: the host fabric *is* the client network, in the
    // exact construction order of the pre-rack testbed (switch, then
    // server) — this path must stay bit-identical with it.
    Cluster::Host host;
    host.spec = std::move(specs_.front());
    host.server =
        make_host_server(host.spec, sim_, *cluster.client_network_);
    cluster.hosts_.push_back(std::move(host));
    return cluster;
  }

  const rack::TorParams& tor_params = *rack_params_;
  cluster.tor_ = std::make_unique<rack::TorScheduler>(sim_, tor_params);
  std::vector<Server*> servers;
  servers.reserve(specs_.size());
  for (auto& spec : specs_) {
    Cluster::Host host;
    host.spec = std::move(spec);
    host.network =
        std::make_unique<net::EthernetSwitch>(sim_, switch_latency_);
    host.server = make_host_server(host.spec, sim_, *host.network);
    const std::size_t index = cluster.tor_->add_host(
        host.server->ingress_mac(), host.server->ingress_ip(),
        host.network->ingress());
    // Server→client frames have no local port on the host fabric; the
    // default route carries them up through the ToR's snoop path.
    host.network->set_uplink(cluster.tor_->host_uplink(index),
                             tor_params.host_link_latency,
                             tor_params.host_link_gbps);
    if (tor_params.failover) {
      // NIC-management-path probe reflector: parked at the reserved probe
      // MAC on the host fabric, answering from "firmware" — its replies
      // default-route up the uplink like any server response. Attached only
      // when failover is on, so disabled topologies build the exact same
      // switch tables frame for frame.
      auto responder =
          std::make_unique<rack::ProbeResponder>(host.network->ingress());
      host.network->attach(rack::TorScheduler::probe_mac(), *responder,
                           sim::Duration::zero(), tor_params.host_link_gbps);
      host.probe_responder = std::move(responder);
    }
    servers.push_back(host.server.get());
    cluster.hosts_.push_back(std::move(host));
  }
  // The VIP rides the client switch directly: steering happens inside the
  // switch pipeline, so the only charge here is the modelled decision
  // latency (TorParams) — not another wire hop.
  cluster.tor_->attach(*cluster.client_network_, sim::Duration::zero(),
                       tor_params.host_link_gbps);
  // Centralized-ideal oracle: true instantaneous backlog from server
  // telemetry — queued plus in-flight — with zero staleness. Only the
  // kJsqIdeal policy reads it.
  cluster.tor_->set_oracle([servers](std::size_t host) {
    const ServerTelemetry t = servers[host]->telemetry();
    return static_cast<double>(t.queue_depth) +
           static_cast<double>(t.outstanding);
  });
  return cluster;
}

}  // namespace nicsched::core
