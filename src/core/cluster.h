// Cluster topology construction (DESIGN §12).
//
// Before this layer, the testbed hard-wired exactly one topology: one
// Ethernet switch joining client machines to one server instance. A rack is
// the same pieces one level up — N server hosts, each with its own local
// fabric, behind a ToR switch that steers requests — so topology becomes an
// explicit, composable object:
//
//   ClusterBuilder builder(sim);
//   builder.switch_latency(params.switch_forward_latency);
//   builder.with_rack(rack::TorParams::from_env());
//   for (int i = 0; i < 4; ++i) builder.add_host(HostSpec::offload());
//   Cluster cluster = builder.build();
//   // clients attach to cluster.client_network(), address
//   // cluster.service_mac()/service_ip()/service_port()
//
// Without `with_rack`, a one-host build produces *exactly* the pre-rack
// testbed wiring — same switch, same construction order, same frames — so
// every existing single-server experiment is the trivial instance of the
// same API and stays bit-identical.
//
// With a rack, each host gets its own local switch (server families
// hard-code their MAC plan, so two hosts cannot share a fabric), the ToR
// owns a virtual service endpoint on the client-side switch, and each host
// fabric default-routes unknown unicast (server→client responses) up
// through the ToR, which snoops load feedback on the way past.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/server.h"
#include "core/task_queue.h"
#include "core/testbed.h"
#include "fault/fault_surface.h"
#include "hw/apic_timer.h"
#include "net/ethernet_switch.h"
#include "overload/overload.h"
#include "rack/tor_scheduler.h"
#include "sim/simulator.h"
#include "tenant/tenant.h"

namespace nicsched::core {

/// Everything needed to build one server host: the system kind plus every
/// per-family knob, with reliability and overload control promoted into the
/// same struct instead of being threaded through separate parameters.
/// `ExperimentConfig` maps onto this via `HostSpec::from_config`; direct
/// ClusterBuilder users (tests, heterogeneous racks) fill it by hand.
struct HostSpec {
  SystemKind system = SystemKind::kShinjukuOffload;
  std::size_t worker_count = 4;
  /// Shinjuku only: networker+dispatcher pairs.
  std::size_t dispatcher_count = 1;
  /// Queuing-optimization K (offload and ideal-NIC systems).
  std::uint32_t outstanding_per_worker = 4;
  bool preemption_enabled = true;
  sim::Duration time_slice = sim::Duration::micros(10);
  hw::TimerCosts timer_costs = hw::TimerCosts::dune();
  QueuePolicy queue_policy = QueuePolicy::kFcfs;
  /// Offload only: D2 sender cores and TX batching.
  std::size_t sender_cores = 1;
  std::size_t tx_batch_frames = 0;
  sim::Duration tx_batch_timeout = sim::Duration::micros(8);
  /// Payload cache placement; unset = the system's own default.
  std::optional<hw::PlacementPolicy> placement;
  /// Reliable dispatcher↔worker protocol (DESIGN §9).
  ReliabilityParams reliability;
  /// Overload control (DESIGN §11).
  overload::OverloadParams overload;
  /// Rack-level load feedback (DESIGN §12): echo queue-sojourn samples on
  /// client-bound responses as version-2 frames for ToR snooping.
  bool load_feedback = false;
  /// Multi-tenant dispatch/admission (DESIGN §13); disabled by default so
  /// the host keeps its classic single-queue path bit for bit.
  tenant::TenantParams tenant;
  /// Extra delay before worker sojourn samples reach the adaptive-K
  /// governor (DESIGN §15; offload and rain families). Zero = synchronous
  /// fold, bit for bit.
  sim::Duration feedback_staleness = sim::Duration::zero();
  ModelParams params = ModelParams::defaults();

  /// The shared knob mapping the testbed and every bench use: lifts an
  /// ExperimentConfig's host-side fields (including the resolved overload
  /// and reliability settings) into a HostSpec.
  static HostSpec from_config(const ExperimentConfig& config);

  /// Environment resolution in one place: applies the NICSCHED_OVERLOAD_*
  /// contract to `base.overload`. (Fault schedules stay at the experiment
  /// layer — they target a built cluster, not a spec.)
  static HostSpec from_env(HostSpec base) {
    base.overload = overload::OverloadParams::from_env(base.overload);
    return base;
  }

  // ---- fluent shorthands --------------------------------------------------
  static HostSpec of(SystemKind kind) {
    HostSpec spec;
    spec.system = kind;
    return spec;
  }
  static HostSpec offload() { return of(SystemKind::kShinjukuOffload); }
  static HostSpec shinjuku() { return of(SystemKind::kShinjuku); }
  static HostSpec ideal_nic() { return of(SystemKind::kIdealNic); }
  static HostSpec rss() { return of(SystemKind::kRss); }
  static HostSpec rain() { return of(SystemKind::kRain); }
  HostSpec& workers(std::size_t count) {
    worker_count = count;
    return *this;
  }
  HostSpec& outstanding(std::uint32_t k) {
    outstanding_per_worker = k;
    return *this;
  }
  HostSpec& with_feedback(bool on = true) {
    load_feedback = on;
    return *this;
  }
  HostSpec& with_overload(overload::OverloadParams knobs) {
    overload = knobs;
    return *this;
  }
};

/// A built topology: the client-side network, one or more server hosts, and
/// (for multi-host builds) the ToR scheduler joining them. Move-only; owns
/// every switch, server, and the ToR.
///
/// The cluster is also the rack's fault surface (DESIGN §16): host-scoped
/// faults resolve through it onto the components the builder wired — a host
/// "crash" freezes every worker core of that host's server (the frozen-
/// incarnation model; the NIC-path probe responder keeps answering, the
/// cores just stop), and link partitions become total loss on the host's
/// uplink / the ToR's downlink wire.
class Cluster : public fault::ClusterFaultSurface {
 public:
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;

  /// The switch client machines attach to (the pre-rack `network`).
  net::EthernetSwitch& client_network() { return *client_network_; }

  std::size_t host_count() const { return hosts_.size(); }
  Server& server(std::size_t host = 0) { return *hosts_.at(host).server; }
  const Server& server(std::size_t host = 0) const {
    return *hosts_.at(host).server;
  }
  const HostSpec& spec(std::size_t host = 0) const {
    return hosts_.at(host).spec;
  }
  /// The host's local fabric (== client_network() when there is no rack).
  net::EthernetSwitch& host_network(std::size_t host = 0) {
    return *hosts_.at(host).network;
  }

  /// Non-null for multi-host builds.
  rack::TorScheduler* tor() { return tor_.get(); }
  const rack::TorScheduler* tor() const { return tor_.get(); }

  /// What clients address: the ToR's virtual service endpoint when a rack
  /// exists, host 0's ingress otherwise.
  net::MacAddress service_mac() const;
  net::Ipv4Address service_ip() const;
  std::uint16_t service_port() const;

  /// FlowDirector partition count of host 0 (0 for other systems); every
  /// host of a homogeneous rack exposes the same partition plan and the ToR
  /// preserves destination ports, so one value serves all hosts.
  std::uint16_t partition_count() const;

  /// Sum of per-host stats (max for queue depth, concatenated worker
  /// utilization); equals host 0's stats for single-host builds.
  ServerStats stats(sim::Duration elapsed) const;

  // ---- fault::ClusterFaultSurface -----------------------------------------
  std::uint32_t fault_host_count() const override {
    return static_cast<std::uint32_t>(hosts_.size());
  }
  fault::FaultSurface& host_surface(std::uint32_t host) override;
  void inject_host_freeze(std::uint32_t host) override;
  void inject_host_thaw(std::uint32_t host) override;
  void inject_uplink_partition(std::uint32_t host, bool on) override;
  void inject_downlink_partition(std::uint32_t host, bool on) override;

 private:
  friend class ClusterBuilder;
  struct Host {
    std::unique_ptr<net::EthernetSwitch> network;  // null when no rack
    std::unique_ptr<Server> server;
    HostSpec spec;
    /// Health-probe reflector parked on the host fabric (failover only).
    std::unique_ptr<net::PacketSink> probe_responder;
  };
  Cluster() = default;

  std::unique_ptr<net::EthernetSwitch> client_network_;
  std::unique_ptr<rack::TorScheduler> tor_;
  std::vector<Host> hosts_;
};

/// Fluent topology builder. Add one host for the classic single-server
/// testbed; call `with_rack` before `build` to put N hosts behind a ToR.
class ClusterBuilder {
 public:
  explicit ClusterBuilder(sim::Simulator& sim) : sim_(sim) {}

  /// Switching-decision latency for every switch in the topology (client
  /// side and per-host fabrics).
  ClusterBuilder& switch_latency(sim::Duration latency) {
    switch_latency_ = latency;
    return *this;
  }

  /// Enables the ToR layer. Required for multi-host builds; ignored for
  /// single-host builds (the trivial rack *is* the plain testbed, which
  /// keeps one-host experiments bit-identical with or without the call).
  ClusterBuilder& with_rack(rack::TorParams params) {
    rack_params_ = params;
    return *this;
  }

  /// Registers a host; returns its index.
  std::size_t add_host(HostSpec spec) {
    specs_.push_back(std::move(spec));
    return specs_.size() - 1;
  }

  /// Builds the topology. Single host without with_rack: one switch, one
  /// server, pre-rack construction order. Multi host: client switch + ToR +
  /// per-host fabrics, with the kJsqIdeal oracle wired to true server
  /// telemetry. Throws std::invalid_argument for 0 hosts or for multiple
  /// hosts without with_rack.
  Cluster build();

 private:
  sim::Simulator& sim_;
  sim::Duration switch_latency_ = ModelParams::defaults().switch_forward_latency;
  std::optional<rack::TorParams> rack_params_;
  std::vector<HostSpec> specs_;
};

}  // namespace nicsched::core
