// The informed NIC scheduler (§5.1): a line-rate scheduling pipeline on the
// NIC itself, dispatching from one central queue to host workers it keeps
// nearly fresh status for. One server models three systems that differ only
// in the NIC↔worker datapath:
//
//   ideal-nic  The paper's proposed SmartNIC. Assignments are written
//              straight into host memory over a CXL-class coherent path,
//              and status flows back the same way.
//   rpcvalet   The same machinery with NI-on-chip latencies (~50 ns), K=1,
//              and no preemption (§2.1); the factory sets those knobs.
//   rain       RAIN-style RDMA dispatch (DESIGN §15), deployable on today's
//              RNICs. Assignments land as one-sided writes in per-worker
//              run-queues, and status returns as polled completion-queue
//              entries.
//
// Either way the pipeline has the same four properties:
//
//   1. Line-rate scheduling — the dispatcher is an ASIC/FPGA pipeline whose
//      per-decision cost is nanoseconds, not the 2 MRPS ARM bottleneck of
//      Shinjuku-Offload.
//   2. Memory-write dispatch — assignments are typed messages on a
//      `hw::MessageChannel`; no UDP construction, checksums, or ring DMA.
//   3. Direct NIC→core interrupts — preemption is informed (only fired when
//      work is waiting) and does not depend on worker-local timers.
//   4. DDIO into high-level caches — §5.2: with at most a couple requests
//      outstanding per core the payload can sit in L1, making the worker's
//      pop nearly free.
//
// The datapath reduces to four numbers (see `Link`). Reliable dispatch
// (DESIGN §9) degrades onto the same memory writes: every assignment
// carries a sequence number, the worker's "started" note is the receipt
// ack, a retransmit re-posts the write (the worker dedupes by seq), and a
// completion watchdog catches workers that die after pickup.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/central_queue.h"
#include "core/dispatch_ledger.h"
#include "core/ingress.h"
#include "core/model_params.h"
#include "core/packet_pump.h"
#include "core/server.h"
#include "core/task_queue.h"
#include "fault/fault_surface.h"
#include "hw/channel.h"
#include "hw/cpu_core.h"
#include "hw/ddio.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "overload/overload.h"
#include "sim/simulator.h"
#include "tenant/tenant.h"

namespace nicsched::core {

class AsicNicServer final : public Server {
 public:
  /// The NIC↔worker datapath: the only per-system input.
  enum class Datapath {
    kCoherent,  // CXL-class coherent memory (ideal-nic, rpcvalet)
    kRdma,      // one-sided RDMA writes + CQ polling (rain)
  };

  struct Config {
    Datapath datapath = Datapath::kCoherent;
    std::size_t worker_count = 4;
    /// Requests outstanding per worker. The fast datapath makes small
    /// values viable (§5.2 "may be able to have fewer outstanding
    /// requests").
    std::uint32_t outstanding_per_worker = 2;
    bool preemption_enabled = true;
    sim::Duration time_slice = sim::Duration::micros(10);
    std::uint16_t udp_port = 8080;
    /// Selection policy for the centralized task queue.
    QueuePolicy queue_policy = QueuePolicy::kFcfs;
    /// §5.2: a NIC whose scheduler bounds per-core outstanding requests can
    /// place payloads straight into L1 "without danger of filling it".
    hw::PlacementPolicy placement = hw::PlacementPolicy::kDdioL1;
    /// Reliable dispatch (DESIGN §9); off by default.
    ReliabilityParams reliability;
    /// Overload control (DESIGN §11): admission and shedding in the ASIC
    /// pipeline, adaptive-K fed by worker sojourn samples on completion
    /// notes. Off by default.
    overload::OverloadParams overload;
    /// Rack-level load feedback (DESIGN §12): responses echo the request's
    /// central-queue sojourn as a version-2 frame for ToR snooping.
    bool load_feedback = false;
    /// Multi-tenant dispatch/admission (DESIGN §13). Off by default.
    tenant::TenantParams tenant;
    /// Extra delay before a sojourn sample folds into the adaptive-K
    /// governor (DESIGN §15). Zero = synchronous fold.
    sim::Duration feedback_staleness = sim::Duration::zero();
  };

  AsicNicServer(sim::Simulator& sim, net::EthernetSwitch& network,
                const ModelParams& params, Config config);
  ~AsicNicServer() override;

  net::MacAddress ingress_mac() const override;
  net::Ipv4Address ingress_ip() const override;
  std::uint16_t port() const override { return config_.udp_port; }
  std::string name() const override;
  ServerStats stats(sim::Duration elapsed) const override;
  ServerTelemetry telemetry() const override;

  const CoreStatusTable& core_status() const { return ledger_.status(); }

  fault::FaultSurface* fault_surface() override { return &*surface_; }

 private:
  class Worker;

  /// The datapath as four costs derived from ModelParams.
  struct Link {
    /// Assignment and status-note visibility latency.
    sim::Duration channel_latency;
    /// NIC→core preemption interrupt delivery.
    sim::Duration interrupt_latency;
    /// NIC-side occupancy of posting one assignment.
    sim::Duration post_cost;
    /// Worker-side occupancy of writing one status note.
    sim::Duration write_cost;

    static Link of(Datapath datapath, const ModelParams& params);
  };

  /// NIC → worker: one sequenced descriptor in the worker's run-queue.
  struct Assignment {
    proto::RequestDescriptor descriptor;
    std::uint64_t seq = 0;  // 0 = unreliable dispatch
  };

  enum class NoteKind { kStarted, kCompleted, kPreempted };

  /// Worker → NIC: a status transition. Preemptions carry the remaining
  /// work in the descriptor; completions may carry a sojourn sample.
  struct StatusNote {
    std::size_t worker = 0;
    NoteKind kind = NoteKind::kCompleted;
    std::uint64_t seq = 0;
    proto::RequestDescriptor descriptor;
    bool has_sojourn = false;
    sim::Duration sojourn;
  };

  /// Scheduler-side view of what a worker is running, for slice tracking.
  struct RunningInfo {
    std::uint64_t request_id = 0;
    bool running = false;
    bool preempt_in_flight = false;
  };

  void scheduler_kick();
  void scheduler_step();
  void handle_note(StatusNote note);
  void schedule_slice_check(std::size_t worker, std::uint64_t request_id);
  void issue_preempt(std::size_t worker);
  /// Counted and warned about once: memory writes into the host have no
  /// loss hook.
  void ignore_dispatch_loss(double probability);

  sim::Simulator& sim_;
  ModelParams params_;
  Config config_;
  Link link_;

  net::Nic nic_;
  net::NicInterface* pf_ = nullptr;
  /// The on-NIC scheduling pipeline, modelled as a very fast core.
  hw::CpuCore asic_;
  std::unique_ptr<PacketPump> ingress_pump_;
  /// Worker→NIC notes; all workers write into it and the ASIC drains it
  /// ahead of new assignments.
  hw::MessageChannel<StatusNote> status_channel_;
  bool pumping_ = false;

  CentralQueue queue_;
  Ingress ingress_;
  DispatchLedger ledger_;
  std::vector<RunningInfo> running_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::optional<fault::FaultSurface> surface_;

  /// One stderr line per run for ignored dispatch-loss injections.
  bool warned_dispatch_loss_ = false;
};

}  // namespace nicsched::core
