// FaultInjector: turns a FaultSchedule value into simulator events against a
// server's FaultSurface.
//
// Construction schedules everything up front: a loss/degrade window becomes
// two events (apply at `start`, restore at `end`), a worker action becomes
// one. Each loss window derives its own RNG seed from the schedule seed and
// the window's index, so retiming one window never reshuffles another's drop
// pattern. After construction the injector holds no state the events need —
// the closures capture the surface pointer and plain values — but keeping it
// alive alongside the run is the normal pattern.
//
// Both injectors take an optional `horizon` (the planned end of the run):
// actions scheduled at or past it could never fire, so they are dropped with
// a one-line warning instead of riding along silently — the same inert-input
// policy the FaultSchedule builders apply (DESIGN §16). Worker ids at or
// past the surface's worker count still wrap modulo (the documented
// contract) but now warn once per injector.
//
// ClusterFaultInjector is the rack-scale variant: it fans a host-scoped
// schedule out across a ClusterFaultSurface. Overlapping windows are
// refcounted per host and direction so a short partition ending inside a
// longer crash cannot un-silence the crashed host. Unlike FaultInjector, the
// partition refcounts live behind a shared_ptr captured by the events, so
// the injector itself may be destroyed before the run finishes.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "fault/fault_schedule.h"
#include "fault/fault_surface.h"
#include "sim/simulator.h"

namespace nicsched::fault {

class FaultInjector {
 public:
  /// Schedules every action in `schedule` against `surface`. The surface
  /// must outlive the simulation run.
  FaultInjector(sim::Simulator& sim, FaultSurface& surface,
                FaultSchedule schedule,
                std::optional<sim::TimePoint> horizon = std::nullopt);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  FaultSchedule schedule_;
};

class ClusterFaultInjector {
 public:
  /// Schedules every action in `schedule` across `cluster`'s hosts. Host
  /// indices wrap modulo fault_host_count(). The cluster must outlive the
  /// simulation run.
  ClusterFaultInjector(sim::Simulator& sim, ClusterFaultSurface& cluster,
                       FaultSchedule schedule,
                       std::optional<sim::TimePoint> horizon = std::nullopt);

  ClusterFaultInjector(const ClusterFaultInjector&) = delete;
  ClusterFaultInjector& operator=(const ClusterFaultInjector&) = delete;

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  /// Per-host nesting depths, one vector per fault domain.
  struct State {
    std::vector<int> freeze_depth;
    std::vector<int> uplink_depth;
    std::vector<int> downlink_depth;
  };

  FaultSchedule schedule_;
  std::shared_ptr<State> state_;
};

}  // namespace nicsched::fault
