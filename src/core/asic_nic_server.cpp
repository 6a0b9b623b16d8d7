#include "core/asic_nic_server.h"

#include <cstdio>
#include <deque>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

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
  const char* worker_prefix;
};

const Identity& identity(AsicNicServer::Datapath datapath) {
  static const Identity kCoherent{"ideal-nic", 4000,        8082,
                                  "ideal-nic", "nic-asic", "ideal-worker"};
  static const Identity kRdma{"rain",     5000,        8083,
                              "rain-nic", "rain-asic", "rain-worker"};
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
class AsicNicServer::Worker {
 public:
  Worker(AsicNicServer& server, std::size_t id)
      : server_(server),
        id_(id),
        core_(server.sim_,
              core_config(server.params_,
                          identity(server.config_.datapath).worker_prefix +
                              std::to_string(id))),
        interrupt_line_(server.sim_, core_,
                        hw::InterruptLine::Config{
                            server.link_.interrupt_latency,
                            server.params_.timer_receive_cycles}),
        run_queue_(server.sim_, server.link_.channel_latency) {
    run_queue_.set_on_message([this]() {
      // Stamp the arrival so the pop can measure the local run-queue
      // sojourn — the adaptive-K backlog signal. Pops consume stamps in
      // FIFO order, so dropped duplicates stay aligned.
      if (server_.ledger_.adaptive_k()) arrivals_.push_back(server_.sim_.now());
      if (idle_) start_next();
    });
  }

  hw::MessageChannel<Assignment>& run_queue() { return run_queue_; }
  hw::InterruptLine& interrupt_line() { return interrupt_line_; }

  /// Load feedback: one queued sample per assignment sent, in run-queue
  /// order; the worker pops the matching sample at pop time.
  void push_pending_sojourn(sim::Duration sojourn) {
    pending_sojourns_.push_back(sojourn);
  }

  const hw::CpuCore& core() const { return core_; }
  hw::CpuCore& mutable_core() { return core_; }
  std::uint64_t preemptions() const { return preemptions_; }
  std::uint64_t responses_sent() const { return responses_sent_; }
  std::uint64_t spurious() const { return interrupt_line_.spurious_count(); }
  const hw::DdioStats& ddio() const { return ddio_; }

  void on_preempted(sim::Duration remaining) {
    ++preemptions_;
    sim::Simulator& sim = server_.sim_;
    if (sim.span_enabled()) {
      const auto lane = static_cast<std::uint32_t>(100 + id_);
      obs::end_span(sim, current_->request_id, obs::SpanKind::kService, lane);
      obs::begin_span(sim, current_->request_id, obs::SpanKind::kRequeue,
                      lane);
    }
    proto::RequestDescriptor descriptor = *current_;
    current_.reset();
    descriptor.remaining_ps =
        static_cast<std::uint64_t>(remaining.to_picos());
    descriptor.preempt_count =
        static_cast<std::uint16_t>(descriptor.preempt_count + 1);

    const sim::Duration cost =
        server_.params_.context_save_cost + server_.link_.write_cost;
    core_.run(cost, [this, descriptor, seq = current_seq_]() {
      post_note(NoteKind::kPreempted, seq, descriptor);
      start_next();
    });
  }

 private:
  void start_next() {
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
    if (!pending_sojourns_.empty()) {
      current_sojourn_ = pending_sojourns_.front();
      pending_sojourns_.pop_front();
    } else {
      current_sojourn_ = sim::Duration::zero();
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
    core_.run(prologue, [this, shared]() {
      current_ = *shared;
      sim::Simulator& sim = server_.sim_;
      sim.trace(sim::TraceCategory::kWorker, [&] {
        return std::pair{"worker" + std::to_string(id_),
                         "start " + std::to_string(shared->request_id)};
      });
      if (sim.span_enabled()) {
        const auto lane = static_cast<std::uint32_t>(100 + id_);
        obs::end_span(sim, shared->request_id, obs::SpanKind::kDispatch, lane);
        obs::begin_span(sim, shared->request_id, obs::SpanKind::kService,
                        lane);
      }
      post_note(NoteKind::kStarted, current_seq_, *shared);
      core_.run_preemptible(
          sim::Duration::picos(static_cast<std::int64_t>(shared->remaining_ps)),
          [this]() { on_complete(); });
    });
  }

  void on_complete() {
    sim::Simulator& sim = server_.sim_;
    sim.trace(sim::TraceCategory::kWorker, [&] {
      return std::pair{"worker" + std::to_string(id_),
                       "complete " + std::to_string(current_->request_id)};
    });
    if (sim.span_enabled()) {
      const auto lane = static_cast<std::uint32_t>(100 + id_);
      obs::end_span(sim, current_->request_id, obs::SpanKind::kService, lane);
      obs::begin_span(sim, current_->request_id, obs::SpanKind::kResponse,
                      lane);
    }
    proto::RequestDescriptor descriptor = *current_;
    current_.reset();
    const sim::Duration cost =
        server_.params_.response_build_cost + server_.link_.write_cost;
    core_.run(cost, [this, descriptor, seq = current_seq_,
                     local_sojourn = current_local_sojourn_]() {
      net::DatagramAddress address;
      address.src_mac = server_.pf_->mac();
      address.dst_mac = descriptor.client_mac;
      address.src_ip = server_.pf_->ip();
      address.dst_ip = descriptor.client_ip;
      address.src_port = identity(server_.config_.datapath).worker_port;
      address.dst_port = descriptor.client_port;
      auto& scratch = proto::serialization_scratch();
      auto response = make_response(descriptor);
      if (server_.config_.load_feedback) {
        response.has_sojourn = true;
        response.sojourn_ps =
            static_cast<std::uint64_t>(current_sojourn_.to_picos());
      }
      response.serialize_into(scratch);
      server_.pf_->transmit(net::make_udp_datagram(address, scratch));
      ++responses_sent_;
      post_note(NoteKind::kCompleted, seq, descriptor,
                server_.ledger_.adaptive_k(), local_sojourn);
      start_next();
    });
  }

  /// Writes one status note. The worker-side cost was already charged to
  /// this core by the caller's `core_.run`.
  void post_note(NoteKind kind, std::uint64_t seq,
                 const proto::RequestDescriptor& descriptor,
                 bool has_sojourn = false,
                 sim::Duration sojourn = sim::Duration::zero()) {
    server_.status_channel_.send(
        StatusNote{id_, kind, seq, descriptor, has_sojourn, sojourn});
  }

  AsicNicServer& server_;
  std::size_t id_;
  hw::CpuCore core_;
  hw::InterruptLine interrupt_line_;
  hw::MessageChannel<Assignment> run_queue_;
  bool idle_ = true;
  std::optional<proto::RequestDescriptor> current_;
  std::uint64_t current_seq_ = 0;
  std::deque<sim::TimePoint> arrivals_;
  std::deque<sim::Duration> pending_sojourns_;
  std::unordered_set<std::uint64_t> seen_seqs_;
  sim::Duration current_sojourn_;        // central-queue delay (ToR echo)
  sim::Duration current_local_sojourn_;  // run-queue wait (adaptive-K input)
  std::uint64_t preemptions_ = 0;
  std::uint64_t responses_sent_ = 0;
  hw::DdioStats ddio_;
};

// ------------------------------------------------------------- the server

AsicNicServer::AsicNicServer(sim::Simulator& sim, net::EthernetSwitch& network,
                             const ModelParams& params, Config config)
    : sim_(sim),
      network_(network),
      params_(params),
      config_(config),
      link_(Link::of(config.datapath, params)),
      nic_(sim, nic_config(params, identity(config.datapath).nic)),
      asic_(sim, core_config(params, identity(config.datapath).asic)),
      status_channel_(sim, link_.channel_latency),
      queue_(config.queue_policy, config.overload, config.tenant),
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

  const std::uint32_t pf_index = identity(config_.datapath).pf_index;
  pf_ = &nic_.add_interface("pf", net::MacAddress::from_index(pf_index),
                            net::Ipv4Address::from_index(pf_index));
  nic_.attach_to_switch(network, params_.stingray_port_latency,
                        params_.line_rate_gbps);

  ingress_pump_ = std::make_unique<PacketPump>(
      asic_, pf_->ring(0), params_.asic_dispatch_cost,
      [this](net::Packet packet) { scheduler_handle(std::move(packet)); });
  status_channel_.set_on_message([this]() { scheduler_kick(); });

  for (std::size_t i = 0; i < config_.worker_count; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i));
  }
}

AsicNicServer::~AsicNicServer() = default;

std::string AsicNicServer::name() const {
  return identity(config_.datapath).name;
}

net::MacAddress AsicNicServer::ingress_mac() const { return pf_->mac(); }

net::Ipv4Address AsicNicServer::ingress_ip() const { return pf_->ip(); }

void AsicNicServer::scheduler_handle(net::Packet packet) {
  const auto datagram = net::parse_udp_datagram(packet);
  if (!datagram || datagram->udp.dst_port != config_.udp_port) {
    ++malformed_;
    return;
  }
  if (proto::peek_type(datagram->payload) == proto::MessageType::kCancel) {
    if (const auto cancel = proto::CancelMessage::parse(datagram->payload)) {
      // The losing leg of a ToR-hedged pair (DESIGN §16): mark the id for a
      // lazy drop at dispatch. A mark whose request was already dispatched
      // (or never arrived here) is consumed-or-harmless — ids are unique
      // per run.
      queue_.cancel(cancel->request_id);
    } else {
      ++malformed_;
    }
    return;
  }
  const auto request = proto::RequestMessage::parse(datagram->payload);
  if (!request) {
    ++malformed_;
    return;
  }
  ++requests_received_;
  sim_.trace(sim::TraceCategory::kClient, [&] {
    return std::pair{std::string("nic"),
                     "request " + std::to_string(request->request_id) +
                         " received"};
  });
  // Informed admission (DESIGN §11) straight in the ASIC pipeline; the
  // reject frame leaves without involving any host core. With tenants on
  // (§13) the request is judged by its own tenant's gate and backlog.
  const CentralQueue::Verdict verdict = queue_.admit(request->tenant, 0);
  if (!verdict.admitted) {
    if (sim_.span_enabled()) {
      const sim::TimePoint rx = packet.rx_at();
      obs::end_span_at(sim_, rx, request->request_id,
                       obs::SpanKind::kClientWire, 0);
      obs::begin_span_at(sim_, rx, request->request_id, obs::SpanKind::kNicRx,
                         0);
      obs::end_span(sim_, request->request_id, obs::SpanKind::kNicRx, 0);
      obs::begin_span(sim_, request->request_id, obs::SpanKind::kResponse, 0);
    }
    net::DatagramAddress reply;
    reply.src_mac = pf_->mac();
    reply.dst_mac = datagram->eth.src;
    reply.src_ip = pf_->ip();
    reply.dst_ip = datagram->ip.src;
    reply.src_port = config_.udp_port;
    reply.dst_port = datagram->udp.src_port;
    auto& scratch = proto::serialization_scratch();
    make_reject(*request, static_cast<std::uint32_t>(verdict.depth))
        .serialize_into(scratch);
    pf_->transmit(net::make_udp_datagram(reply, scratch));
    return;
  }
  if (sim_.span_enabled()) {
    const sim::TimePoint rx = packet.rx_at();
    obs::end_span_at(sim_, rx, request->request_id,
                     obs::SpanKind::kClientWire, 0);
    obs::begin_span_at(sim_, rx, request->request_id, obs::SpanKind::kNicRx,
                       0);
    obs::end_span(sim_, request->request_id, obs::SpanKind::kNicRx, 0);
    obs::begin_span(sim_, request->request_id, obs::SpanKind::kDispatchQueue,
                    0);
  }
  queue_.push_new(make_descriptor(*request, *datagram), sim_.now());
  scheduler_kick();
}

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
          workers_[worker]->on_preempted(remaining);
        });
  });
}

// ----------------------------------------------------- fault::FaultSurface

void AsicNicServer::inject_ingress_loss(double probability,
                                        std::uint64_t seed) {
  network_.set_port_loss(pf_->mac(), probability, seed);
}

void AsicNicServer::inject_dispatch_loss(double probability,
                                         std::uint64_t /*seed*/) {
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

void AsicNicServer::inject_ingress_degrade(double factor) {
  network_.set_port_degrade(pf_->mac(), factor);
}

void AsicNicServer::inject_worker_stall(std::uint32_t worker,
                                        sim::Duration duration) {
  workers_[worker]->mutable_core().stall_for(duration);
}

void AsicNicServer::inject_worker_crash(std::uint32_t worker) {
  workers_[worker]->mutable_core().stall();
}

void AsicNicServer::inject_worker_resume(std::uint32_t worker) {
  workers_[worker]->mutable_core().resume();
}

ServerStats AsicNicServer::stats(sim::Duration elapsed) const {
  ServerStats stats;
  stats.requests_received = requests_received_;
  for (const auto& worker : workers_) {
    stats.responses_sent += worker->responses_sent();
    stats.preemptions += worker->preemptions();
    stats.spurious_interrupts += worker->spurious();
    stats.ddio.l1_touches += worker->ddio().l1_touches;
    stats.ddio.llc_touches += worker->ddio().llc_touches;
    stats.ddio.dram_touches += worker->ddio().dram_touches;
    if (elapsed > sim::Duration::zero()) {
      stats.worker_utilization.push_back(worker->core().stats().busy /
                                         elapsed);
    }
  }
  stats.drops =
      nic_.rx_unknown_mac_drops() + malformed_ + pf_->ring(0).stats().dropped;
  queue_.add_to(stats);
  ledger_.add_to(stats);
  return stats;
}

ServerTelemetry AsicNicServer::telemetry() const {
  ServerTelemetry t;
  t.drops = malformed_ + pf_->ring(0).stats().dropped;
  queue_.add_to(t);
  ledger_.add_to(t);
  for (const auto& worker : workers_) {
    t.preemptions += worker->preemptions();
    t.worker_busy.push_back(worker->core().stats().busy);
  }
  return t;
}

}  // namespace nicsched::core
