// HostWorker: the request cycle every host family's worker runs (DESIGN §3).
//
// The families differ in where the scheduler sits and in how a worker
// learns of work and reports back: cache-line IPC (shinjuku), 2.56 µs
// packets (shinjuku-offload), coherent or RDMA writes (the NIC scheduler
// server), or its own RX ring (run-to-completion). What a worker does with a
// request is the same everywhere, and it lives here:
//
//   start     close the span the request waited in, open `service`, run
//             the remaining work preemptibly;
//   complete  build and send the response (echoing the family's sojourn
//             sample when load feedback is on), then report;
//   preempt   save the context, then report the descriptor with its
//             remaining work.
//
// A family supplies `start_next` (pop the next request, pay its own
// prologue, call start) and `report` (tell the dispatcher, then call
// start_next), plus the write cost its report adds to the completion and
// preemption ops. The worker owns its hw::CpuCore and its counters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/model_params.h"
#include "core/server.h"
#include "hw/cpu_core.h"
#include "hw/ddio.h"
#include "net/nic.h"
#include "obs/span.h"
#include "proto/messages.h"
#include "sim/simulator.h"

namespace nicsched::core {

class HostWorker {
 public:
  struct Config {
    /// Span lane (Chrome-trace thread) of the worker's spans.
    std::uint32_t lane = 0;
    /// Responses leave from this interface and UDP port.
    net::NicInterface* reply_from = nullptr;
    std::uint16_t reply_port = 0;
    /// Echo the family's sojourn sample on responses (DESIGN §12).
    bool load_feedback = false;
    /// The report's write cost, paid in the same op as the response build
    /// (completion) or the context save (preemption).
    sim::Duration completion_write;
    sim::Duration preemption_write;
  };

  /// `name` names the core and the worker's start/complete/preempt trace
  /// lines.
  HostWorker(sim::Simulator& sim, const ModelParams& params, std::string name,
             Config config);
  virtual ~HostWorker() = default;
  HostWorker(const HostWorker&) = delete;
  HostWorker& operator=(const HostWorker&) = delete;

  hw::CpuCore& core() { return core_; }
  const hw::CpuCore& core() const { return core_; }

  /// The running request was interrupted with `remaining` work left.
  void preempt(sim::Duration remaining);

  /// Adds this worker's counters and busy time to a snapshot.
  void add_to(ServerStats& stats, sim::Duration elapsed) const;
  void add_to(ServerTelemetry& telemetry) const;

 protected:
  /// Pops the next request and, after the family's prologue, calls start();
  /// sets `idle_` when there is nothing to pop.
  virtual void start_next() = 0;
  /// Tells the dispatcher the request completed or was preempted, then
  /// calls start_next().
  virtual void report(const proto::RequestDescriptor& descriptor,
                      bool preempted) = 0;
  /// The request finished running, before the completion op.
  virtual void task_finished() {}
  virtual std::uint64_t spurious_interrupts() const { return 0; }

  /// Starts the next request if the worker sat idle.
  void wake() {
    if (idle_) start_next();
  }
  /// Runs `descriptor` preemptibly; `waited_in` is the span it leaves.
  void start(const proto::RequestDescriptor& descriptor,
             obs::SpanKind waited_in);

  std::uint64_t responses_sent() const { return responses_sent_; }

  bool idle_ = true;
  /// The sojourn the response echoes; each family measures its own.
  sim::Duration echo_;
  hw::DdioStats ddio_;

 private:
  void complete();
  void respond(const proto::RequestDescriptor& descriptor);

  sim::Simulator& sim_;
  Config config_;
  const sim::Duration completion_cost_;
  const sim::Duration preemption_cost_;
  hw::CpuCore core_;
  std::optional<proto::RequestDescriptor> current_;
  std::uint64_t preemptions_ = 0;
  std::uint64_t responses_sent_ = 0;
};

}  // namespace nicsched::core
