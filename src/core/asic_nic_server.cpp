#include "core/asic_nic_server.h"

#include <cstdio>
#include <deque>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/host_worker.h"
#include "hw/interrupt.h"
#include "obs/span.h"

namespace nicsched::core {

namespace {

/// Per-system naming: each system keeps its own MAC plan, worker port, and
/// component names, so racks and traces can tell them apart.
struct Identity {
  const char* name;
  std::uint32_t pf_index;
  std::uint16_t worker_port;
  const char* nic;
  const char* asic;
};

const Identity& identity(AsicNicServer::Datapath datapath) {
  static const Identity kCoherent{"ideal-nic", 4000, 8082, "ideal-nic",
                                  "nic-asic"};
  static const Identity kRdma{"rain", 5000, 8083, "rain-nic", "rain-asic"};
  return datapath == AsicNicServer::Datapath::kRdma ? kRdma : kCoherent;
}

net::Nic::Config nic_config(const ModelParams& params, const char* name) {
  net::Nic::Config config;
  config.name = name;
  config.rx_latency = sim::Duration::zero();  // scheduler sees frames on-NIC
  config.tx_latency = params.host_nic_tx;
  config.ring_capacity = params.ring_capacity;
  return config;
}

hw::CpuCore::Config core_config(const ModelParams& params, std::string name) {
  hw::CpuCore::Config config;
  config.name = std::move(name);
  config.frequency = params.host_frequency;
  return config;
}

}  // namespace

AsicNicServer::Link AsicNicServer::Link::of(Datapath datapath,
                                            const ModelParams& params) {
  if (datapath == Datapath::kRdma) {
    // A posted write is visible one traversal plus the poller's batching
    // skew later; either side pays WQE build + doorbell to post one.
    const sim::Duration post =
        params.rdma_wqe_post_cost + params.rdma_doorbell_cost;
    return {params.rdma_write_latency + params.rdma_cq_poll_interval,
            params.rdma_write_latency, post, post};
  }
  // Coherent writes: the NIC's store is part of its decision; a worker's
  // status write is one coherent cache-line write the NIC snoops.
  return {params.cxl_one_way_latency, params.cxl_one_way_latency,
          sim::Duration::zero(), params.cxl_write_cost};
}

// ----------------------------------------------------------------- Worker

/// A host worker polling its run-queue. Every status transition is one
/// note written back to the NIC; preemption is a direct NIC→core interrupt.
class AsicNicServer::Worker final : public HostWorker {
 public:
  Worker(AsicNicServer& server, std::size_t id)
      : HostWorker(server.sim_, server.params_, "worker" + std::to_string(id),
                   {static_cast<std::uint32_t>(100 + id), server.pf_,
                    identity(server.config_.datapath).worker_port,
                    server.config_.load_feedback, server.link_.write_cost,
                    server.link_.write_cost}),
        server_(server),
        id_(id),
        interrupt_line_(server.sim_, core(),
                        hw::InterruptLine::Config{
                            server.link_.interrupt_latency,
                            server.params_.timer_receive_cycles}),
        run_queue_(server.sim_, server.link_.channel_latency) {
    run_queue_.set_on_message([this]() {
      // Stamp the arrival so the pop can measure the local run-queue
      // sojourn — the adaptive-K backlog signal. Pops consume stamps in
      // FIFO order, so dropped duplicates stay aligned.
      if (server_.ledger_.adaptive_k()) arrivals_.push_back(server_.sim_.now());
      wake();
    });
  }

  hw::MessageChannel<Assignment>& run_queue() { return run_queue_; }
  hw::InterruptLine& interrupt_line() { return interrupt_line_; }

  /// Load feedback: one queued sample per assignment sent, in run-queue
  /// order; the worker pops the matching sample at pop time.
  void push_pending_sojourn(sim::Duration sojourn) {
    pending_sojourns_.push_back(sojourn);
  }

 private:
  void start_next() override {
    auto assignment = run_queue_.pop();
    if (!assignment) {
      idle_ = true;
      return;
    }
    idle_ = false;
    sim::Duration local_sojourn = sim::Duration::zero();
    if (!arrivals_.empty()) {
      local_sojourn = server_.sim_.now() - arrivals_.front();
      arrivals_.pop_front();
    }
    if (server_.ledger_.reliable() &&
        !seen_seqs_.insert(assignment->seq).second) {
      // A re-posted assignment already picked up: the retransmit timer fired
      // while this worker was stalled. Suppress the duplicate.
      ++server_.ledger_.reliability_stats().duplicates;
      start_next();
      return;
    }
    // The echo is the request's central-queue delay.
    if (!pending_sojourns_.empty()) {
      echo_ = pending_sojourns_.front();
      pending_sojourns_.pop_front();
    } else {
      echo_ = sim::Duration::zero();
    }
    current_seq_ = assignment->seq;
    current_local_sojourn_ = local_sojourn;
    auto shared = std::make_shared<proto::RequestDescriptor>(
        std::move(assignment->descriptor));
    // Descriptor pop + the payload's first touch (DDIO targeted L1, §5.2,
    // which holds as long as K kept the backlog under the L1 budget) +
    // announcing "started" with one note — the write that plays the
    // dispatch-ack role under reliable dispatch.
    const auto queued_behind = static_cast<std::uint32_t>(run_queue_.depth());
    sim::Duration prologue =
        server_.params_.ddio_pop_cost + server_.link_.write_cost +
        hw::payload_touch_cost(server_.config_.placement,
                               server_.params_.cache_costs, queued_behind,
                               ddio_);
    if (shared->preempt_count > 0) {
      prologue += server_.params_.context_restore_cost;
    }
    core().run(prologue, [this, shared]() {
      post_note(NoteKind::kStarted, *shared);
      start(*shared, obs::SpanKind::kDispatch);
    });
  }

  void report(const proto::RequestDescriptor& descriptor,
              bool preempted) override {
    if (preempted) {
      post_note(NoteKind::kPreempted, descriptor);
    } else {
      post_note(NoteKind::kCompleted, descriptor,
                server_.ledger_.adaptive_k(), current_local_sojourn_);
    }
    start_next();
  }

  std::uint64_t spurious_interrupts() const override {
    return interrupt_line_.spurious_count();
  }

  /// Writes one status note. The worker-side cost was already charged to
  /// this core by the op that calls it.
  void post_note(NoteKind kind, const proto::RequestDescriptor& descriptor,
                 bool has_sojourn = false,
                 sim::Duration sojourn = sim::Duration::zero()) {
    server_.status_channel_.send(StatusNote{id_, kind, current_seq_,
                                            descriptor, has_sojourn, sojourn});
  }

  AsicNicServer& server_;
  std::size_t id_;
  hw::InterruptLine interrupt_line_;
  hw::MessageChannel<Assignment> run_queue_;
  std::uint64_t current_seq_ = 0;
  std::deque<sim::TimePoint> arrivals_;
  std::deque<sim::Duration> pending_sojourns_;
  std::unordered_set<std::uint64_t> seen_seqs_;
  sim::Duration current_local_sojourn_;  // run-queue wait (adaptive-K input)
};

// ------------------------------------------------------------- the server

AsicNicServer::AsicNicServer(sim::Simulator& sim, net::EthernetSwitch& network,
                             const ModelParams& params, Config config)
    : sim_(sim),
      params_(params),
      config_(config),
      link_(Link::of(config.datapath, params)),
      nic_(sim, nic_config(params, identity(config.datapath).nic)),
      pf_(&nic_.add_interface(
          "pf", net::MacAddress::from_index(identity(config.datapath).pf_index),
          net::Ipv4Address::from_index(identity(config.datapath).pf_index))),
      asic_(sim, core_config(params, identity(config.datapath).asic)),
      status_channel_(sim, link_.channel_latency),
      queue_(config.queue_policy, config.overload, config.tenant),
      // Informed admission straight in the ASIC pipeline: the reject frame
      // leaves without involving any host core.
      ingress_(sim, *pf_, config.udp_port, "nic", 0, queue_,
               [this](std::uint64_t request_id) { queue_.cancel(request_id); }),
      ledger_(sim, queue_,
              {config.worker_count, config.outstanding_per_worker,
               config.reliability, config.overload, config.feedback_staleness,
               identity(config.datapath).name},
              [this](std::size_t worker,
                     const proto::RequestDescriptor& descriptor,
                     std::uint64_t seq) {
                workers_[worker]->run_queue().send(
                    Assignment{descriptor, seq});
              },
              [this]() { scheduler_kick(); }),
      running_(config.worker_count) {
  if (config_.worker_count == 0) {
    throw std::invalid_argument("AsicNicServer: need >= 1 worker");
  }
  if (config_.outstanding_per_worker == 0) {
    throw std::invalid_argument("AsicNicServer: K must be >= 1");
  }

  nic_.attach_to_switch(network, params_.stingray_port_latency,
                        params_.line_rate_gbps);

  ingress_pump_ = std::make_unique<PacketPump>(
      asic_, pf_->ring(0), params_.asic_dispatch_cost,
      [this](net::Packet packet) {
        if (auto descriptor = ingress_.accept(packet, 0)) {
          queue_.push_new(std::move(*descriptor), sim_.now());
          scheduler_kick();
        }
      });
  status_channel_.set_on_message([this]() { scheduler_kick(); });

  std::vector<hw::CpuCore*> cores;
  cores.reserve(config_.worker_count);
  for (std::size_t i = 0; i < config_.worker_count; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i));
    cores.push_back(&workers_.back()->core());
  }
  surface_.emplace(network, pf_->mac(), std::move(cores),
                   [this](double probability, std::uint64_t) {
                     ignore_dispatch_loss(probability);
                   });
}

AsicNicServer::~AsicNicServer() = default;

std::string AsicNicServer::name() const {
  return identity(config_.datapath).name;
}

net::MacAddress AsicNicServer::ingress_mac() const { return pf_->mac(); }

net::Ipv4Address AsicNicServer::ingress_ip() const { return pf_->ip(); }

void AsicNicServer::scheduler_kick() {
  if (pumping_) return;
  pumping_ = true;
  scheduler_step();
}

// The ASIC's loop: worker notes first (they free capacity), then one
// assignment per decision.
void AsicNicServer::scheduler_step() {
  if (!status_channel_.empty()) {
    asic_.run(params_.asic_dispatch_cost, [this]() {
      if (auto note = status_channel_.pop()) handle_note(std::move(*note));
      scheduler_step();
    });
    return;
  }
  if (!queue_.empty() && ledger_.status().pick_least_loaded().has_value()) {
    // One decision plus posting the assignment; on the RDMA datapath the
    // ASIC builds the WQE and rings the doorbell itself.
    asic_.run(params_.asic_dispatch_cost + link_.post_cost, [this]() {
      const auto worker = ledger_.status().pick_least_loaded();
      if (worker) {
        sim::Duration queue_delay = sim::Duration::zero();
        auto descriptor = queue_.pop(sim_.now(), queue_delay);
        if (descriptor) {
          descriptor->queue_depth = static_cast<std::uint32_t>(queue_.depth());
          ledger_.status().note_sent(*worker, sim_.now());
          sim_.trace(sim::TraceCategory::kDispatch, [&] {
            return std::pair{name(), "dispatch " +
                                         std::to_string(descriptor->request_id) +
                                         " -> worker" + std::to_string(*worker)};
          });
          if (sim_.span_enabled()) {
            obs::end_span(sim_, descriptor->request_id,
                          descriptor->preempt_count > 0
                              ? obs::SpanKind::kRequeue
                              : obs::SpanKind::kDispatchQueue,
                          1);
            obs::begin_span(sim_, descriptor->request_id,
                            obs::SpanKind::kDispatch, 1);
          }
          if (config_.load_feedback) {
            workers_[*worker]->push_pending_sojourn(queue_delay);
          }
          // Reliable dispatch arms the retransmit timer before the post.
          const std::uint64_t seq = ledger_.track(*descriptor, *worker);
          workers_[*worker]->run_queue().send(
              Assignment{std::move(*descriptor), seq});
        }
      }
      scheduler_step();
    });
    return;
  }
  pumping_ = false;
}

void AsicNicServer::handle_note(StatusNote note) {
  const std::size_t worker = note.worker;
  const std::uint64_t request_id = note.descriptor.request_id;
  ledger_.note_alive(worker);
  RunningInfo& info = running_[worker];
  switch (note.kind) {
    case NoteKind::kStarted:
      info.request_id = request_id;
      info.running = true;
      info.preempt_in_flight = false;
      if (config_.preemption_enabled) {
        schedule_slice_check(worker, request_id);
      }
      ledger_.acked(worker, note.seq);
      break;
    case NoteKind::kCompleted:
      if (!ledger_.retire(worker, request_id, /*completed=*/true)) break;
      ledger_.status().note_retired(worker, sim_.now());
      if (info.request_id == request_id) info.running = false;
      if (note.has_sojourn) ledger_.fold_sojourn(worker, note.sojourn);
      break;
    case NoteKind::kPreempted:
      if (!ledger_.retire(worker, request_id, /*completed=*/false)) break;
      ledger_.status().note_retired(worker, sim_.now());
      if (info.request_id == request_id) info.running = false;
      queue_.push_preempted(std::move(note.descriptor), sim_.now());
      break;
  }
}

void AsicNicServer::schedule_slice_check(std::size_t worker,
                                         std::uint64_t request_id) {
  sim_.after(config_.time_slice, [this, worker, request_id]() {
    RunningInfo& info = running_[worker];
    if (!info.running || info.request_id != request_id ||
        info.preempt_in_flight) {
      return;
    }
    if (queue_.empty()) {
      // Informed: nothing waiting, keep running and re-check later.
      schedule_slice_check(worker, request_id);
      return;
    }
    issue_preempt(worker);
  });
}

void AsicNicServer::issue_preempt(std::size_t worker) {
  running_[worker].preempt_in_flight = true;
  asic_.run(params_.asic_dispatch_cost, [this, worker]() {
    workers_[worker]->interrupt_line().send(
        [this, worker](sim::Duration remaining) {
          workers_[worker]->preempt(remaining);
        });
  });
}

void AsicNicServer::ignore_dispatch_loss(double probability) {
  // Dispatch here is a memory write into the host — coherent or one-sided
  // RDMA — with no loss hook. A schedule asking for dispatch loss asks for a
  // fault this fabric cannot express: count the attempt and warn once, so
  // the injection doesn't silently vanish. Restores (probability <= 0, the
  // close of a loss window) are not attempts and stay silent.
  if (probability <= 0.0) return;
  ++ledger_.reliability_stats().loss_injections_ignored;
  if (!warned_dispatch_loss_) {
    warned_dispatch_loss_ = true;
    std::fprintf(stderr,
                 "nicsched: %s: ignoring dispatch-loss injection "
                 "(memory-write dispatch has no loss hook)\n",
                 name().c_str());
  }
}

ServerStats AsicNicServer::stats(sim::Duration elapsed) const {
  ServerStats stats;
  stats.requests_received = ingress_.requests_received();
  for (const auto& worker : workers_) worker->add_to(stats, elapsed);
  stats.drops = nic_.rx_unknown_mac_drops() + ingress_.malformed() +
                pf_->ring(0).stats().dropped;
  queue_.add_to(stats);
  ledger_.add_to(stats);
  return stats;
}

ServerTelemetry AsicNicServer::telemetry() const {
  ServerTelemetry t;
  t.drops = ingress_.malformed() + pf_->ring(0).stats().dropped;
  queue_.add_to(t);
  ledger_.add_to(t);
  for (const auto& worker : workers_) worker->add_to(t);
  return t;
}

}  // namespace nicsched::core
