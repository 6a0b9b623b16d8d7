// FaultSurface: the interface a server exposes so a FaultInjector can reach
// its loss hooks and worker cores without knowing the server's topology.
//
// Each server kind maps the abstract injection points onto its own fabric:
// "ingress loss" is loss on the switch port carrying client requests toward
// the server's receive MAC, "dispatch loss" is loss on the internal
// dispatcher↔worker path (a no-op for servers whose dispatch runs over
// lossless in-memory channels), and the worker hooks land on hw::CpuCore's
// stall machinery. Injection is always expressed against the server's own
// components so that the conservation accounting (DESIGN §9) sees every
// injected drop in a counter it already reads.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace nicsched::fault {

class FaultSurface {
 public:
  virtual ~FaultSurface() = default;

  /// Number of worker cores addressable by the worker hooks; worker indices
  /// in a FaultSchedule are taken modulo this.
  virtual std::uint32_t fault_worker_count() const = 0;

  /// Frame loss on the client→server ingress path. probability <= 0 clears.
  virtual void inject_ingress_loss(double probability, std::uint64_t seed) = 0;

  /// Frame loss on the dispatcher↔worker path (both directions). No-op for
  /// servers whose dispatch does not cross a lossy fabric.
  virtual void inject_dispatch_loss(double probability, std::uint64_t seed) = 0;

  /// Slow the ingress path's serialization by `factor`; <= 1 restores.
  virtual void inject_ingress_degrade(double factor) = 0;

  /// Timed worker stall (auto-resumes after `duration`).
  virtual void inject_worker_stall(std::uint32_t worker,
                                   sim::Duration duration) = 0;

  /// Open-ended worker crash; only inject_worker_resume revives the core.
  virtual void inject_worker_crash(std::uint32_t worker) = 0;

  /// Ends any stall or crash on `worker`.
  virtual void inject_worker_resume(std::uint32_t worker) = 0;
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
