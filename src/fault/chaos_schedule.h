// ChaosSchedule: seed-derived composed fault storms for the chaos tier.
//
// `make_chaos_schedule` expands a (seed, topology shape) pair into a
// FaultSchedule that sprays host crashes, link partitions, worker
// stalls/crashes, and ingress-loss windows across a rack — the substrate the
// chaos ctest tier (DESIGN §16) runs against every server family. Two
// properties are load-bearing:
//
//   * Determinism: the schedule is a pure function of ChaosOptions. Same
//     options ⇒ same windows down to the nanosecond, which is what makes
//     per-seed bit-identical replay assertable at all.
//   * Quiescence: every fault recovers strictly before `end` — crashes get
//     recover actions, partitions close, stalls are timed — so a chaos run
//     always drains and the conservation identity can be checked at the end.
#pragma once

#include <cstdint>

#include "fault/fault_schedule.h"
#include "sim/time.h"

namespace nicsched::fault {

struct ChaosOptions {
  std::uint64_t seed = 1;
  /// Rack shape: faults address hosts [0, host_count) and workers
  /// [0, worker_count) per host.
  std::uint32_t host_count = 1;
  std::uint32_t worker_count = 4;
  /// Fault activity is confined to [start, end); recovery of every injected
  /// fault lands strictly before `end`.
  sim::TimePoint start;
  sim::TimePoint end;
  /// Per-category toggles (all on by default) let a test isolate one fault
  /// class while keeping the same seed-derived timing for the others.
  bool host_faults = true;
  bool link_faults = true;
  bool worker_faults = true;
  bool loss = true;
};

FaultSchedule make_chaos_schedule(const ChaosOptions& options);

}  // namespace nicsched::fault
