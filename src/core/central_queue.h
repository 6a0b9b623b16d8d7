// The centralized dispatch queue every informed scheduler pops from
// (shinjuku's dispatcher groups, the offload D1 core, the NIC ASIC).
//
// It owns the one choice every family used to hand-copy: a TaskQueue under
// the configured policy, or per-tenant lanes (strict SLO priority + DRR,
// DESIGN §13) when the tenant layer is on. Around that choice sit the
// queue's overload controls (DESIGN §11) — deadline shedding at pop time
// and ingress admission, global or per tenant, fed by the queueing delay
// each pop measures — and the lazy cancel marks hedged racks send (DESIGN
// §16). Pops always measure: shedding is only enabled under overload
// control, so the measured pop is the plain pop whenever it is off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "core/server.h"
#include "core/task_queue.h"
#include "overload/overload.h"
#include "proto/messages.h"
#include "sim/time.h"
#include "tenant/tenant.h"

namespace nicsched::core {

class CentralQueue {
 public:
  CentralQueue(QueuePolicy policy, const overload::OverloadParams& overload,
               const tenant::TenantParams& tenant);

  bool empty() const;
  std::size_t depth() const;

  void push_new(proto::RequestDescriptor descriptor, sim::TimePoint now);
  void push_preempted(proto::RequestDescriptor descriptor, sim::TimePoint now);

  /// Next request under the live policy, shedding expired entries on the way
  /// when shedding is on. Sets `queue_delay` to the popped request's wait and
  /// feeds that sample to the owning admission gate.
  std::optional<proto::RequestDescriptor> pop(sim::TimePoint now,
                                              sim::Duration& queue_delay);

  /// Marks a request for a lazy drop at pop time (a hedged pair's loser).
  void cancel(std::uint64_t request_id);

  /// Informed ingress admission for a request of `tenant`. `backlog` counts
  /// requests already accepted but not yet in the queue (an intake channel).
  /// With tenants on, the request is judged by its own tenant's gate and
  /// lane depth. `depth` is what a reject frame reports.
  struct Verdict {
    bool admitted = true;
    std::size_t depth = 0;
  };
  Verdict admit(std::uint16_t tenant, std::size_t backlog);

  /// Adds the queue's fields to a stats or telemetry snapshot: high-water
  /// depth (max), admission, shed and cancel counters, and the tenant rows
  /// (summed, so per-group queues aggregate into one report).
  void add_to(ServerStats& stats) const;
  void add_to(ServerTelemetry& telemetry) const;

 private:
  bool tenants_on() const { return tenant_queue_ != nullptr; }
  std::uint64_t shed() const;

  overload::OverloadParams overload_;
  tenant::TenantParams tenant_;
  TaskQueue queue_;
  overload::AdmissionController admission_;
  /// Both null unless the tenant layer is on (the admission gates also need
  /// overload control).
  std::unique_ptr<tenant::TenantDispatchQueue> tenant_queue_;
  std::unique_ptr<tenant::TenantAdmission> tenant_admission_;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace nicsched::core
