// FaultSurface: what a FaultInjector reaches in a server, without knowing
// the server's topology.
//
// Every host family exposes the same four things: the switch its ingress
// port hangs off, that port's MAC, its worker cores in fault-index order,
// and — only where dispatch crosses a lossy fabric — a dispatch-loss hook.
// "Ingress loss" and "ingress degrade" land on the switch port carrying
// client requests; the worker hooks land on hw::CpuCore's stall machinery.
// Injection is always expressed against the server's own components, so
// the conservation accounting (DESIGN §9) sees every injected drop in a
// counter it already reads.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "hw/cpu_core.h"
#include "net/ethernet_switch.h"
#include "net/mac_address.h"
#include "sim/time.h"

namespace nicsched::fault {

class FaultSurface {
 public:
  /// Frame loss on the dispatcher↔worker path (both directions);
  /// probability <= 0 clears.
  using DispatchLossHook =
      std::function<void(double probability, std::uint64_t seed)>;

  /// Without `dispatch_loss`, dispatch-loss injections are no-ops.
  FaultSurface(net::EthernetSwitch& network, net::MacAddress ingress,
               std::vector<hw::CpuCore*> workers,
               DispatchLossHook dispatch_loss = nullptr)
      : network_(network),
        ingress_(ingress),
        workers_(std::move(workers)),
        dispatch_loss_(std::move(dispatch_loss)) {}
  // Injector events hold the surface's address.
  FaultSurface(const FaultSurface&) = delete;
  FaultSurface& operator=(const FaultSurface&) = delete;

  /// Number of worker cores addressable by the worker hooks; worker indices
  /// in a FaultSchedule are taken modulo this.
  std::uint32_t fault_worker_count() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

  /// Frame loss on the client→server ingress path. probability <= 0 clears.
  void inject_ingress_loss(double probability, std::uint64_t seed) {
    network_.set_port_loss(ingress_, probability, seed);
  }

  void inject_dispatch_loss(double probability, std::uint64_t seed) {
    if (dispatch_loss_) dispatch_loss_(probability, seed);
  }

  /// Slow the ingress path's serialization by `factor`; <= 1 restores.
  void inject_ingress_degrade(double factor) {
    network_.set_port_degrade(ingress_, factor);
  }

  /// Timed worker stall (auto-resumes after `duration`).
  void inject_worker_stall(std::uint32_t worker, sim::Duration duration) {
    workers_[worker]->stall_for(duration);
  }

  /// Open-ended worker crash; only inject_worker_resume revives the core.
  void inject_worker_crash(std::uint32_t worker) { workers_[worker]->stall(); }

  /// Ends any stall or crash on `worker`.
  void inject_worker_resume(std::uint32_t worker) {
    workers_[worker]->resume();
  }

 private:
  net::EthernetSwitch& network_;
  net::MacAddress ingress_;
  std::vector<hw::CpuCore*> workers_;
  DispatchLossHook dispatch_loss_;
};

/// ClusterFaultSurface: the rack-scale counterpart (DESIGN §16). A cluster
/// exposes one FaultSurface per host plus host-level fault domains: freezing
/// a whole host's cores and partitioning its rack links.
class ClusterFaultSurface {
 public:
  virtual ~ClusterFaultSurface() = default;

  /// Number of hosts addressable by host-scoped faults; host indices in a
  /// FaultSchedule are taken modulo this.
  virtual std::uint32_t fault_host_count() const = 0;

  /// Per-host server surface for the classic loss/worker fault kinds.
  virtual FaultSurface& host_surface(std::uint32_t host) = 0;

  /// Freeze / thaw every worker core on `host` (the crash half of the
  /// frozen-incarnation model; link partitions are injected separately).
  virtual void inject_host_freeze(std::uint32_t host) = 0;
  virtual void inject_host_thaw(std::uint32_t host) = 0;

  /// Sever / restore the host→ToR uplink (loss is decided at transmit
  /// time).
  virtual void inject_uplink_partition(std::uint32_t host, bool on) = 0;

  /// Sever / restore the ToR→host downlink.
  virtual void inject_downlink_partition(std::uint32_t host, bool on) = 0;
};

}  // namespace nicsched::fault
