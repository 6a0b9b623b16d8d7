#include "core/offload_server.h"

#include <stdexcept>
#include <utility>

#include "core/host_worker.h"
#include "obs/span.h"

namespace nicsched::core {

namespace {

constexpr std::uint32_t kArmNetIndex = 1000;
constexpr std::uint32_t kArmDispIndex = 1001;
constexpr std::uint32_t kWorkerBaseIndex = 1100;
constexpr std::uint16_t kDispatchPort = 8081;
constexpr std::uint16_t kWorkerPort = 8082;

net::Nic::Config arm_nic_config(const ModelParams& params) {
  net::Nic::Config config;
  config.name = "stingray-arm";
  config.rx_latency = params.arm_nic_rx;
  config.tx_latency = params.arm_nic_tx;
  config.ring_capacity = params.ring_capacity;
  return config;
}

net::Nic::Config host_nic_config(const ModelParams& params) {
  net::Nic::Config config;
  config.name = "stingray-host";
  config.rx_latency = params.host_nic_rx;
  config.tx_latency = params.host_nic_tx;
  config.ring_capacity = params.ring_capacity;
  return config;
}

hw::CpuCore::Config arm_core(const ModelParams& params, std::string name) {
  hw::CpuCore::Config config;
  config.name = std::move(name);
  config.frequency = params.host_frequency;  // costs are in reference time
  config.time_scale = params.arm_time_scale;
  return config;
}

}  // namespace

// ---------------------------------------------------------------- Worker

/// One host worker: a Dune/DPDK thread pinned to its own hyperthread,
/// polling its own SR-IOV virtual function (§3.4.3).
class ShinjukuOffloadServer::Worker final : public HostWorker {
 public:
  Worker(ShinjukuOffloadServer& server, std::size_t id,
         net::NicInterface& vf)
      : HostWorker(server.sim_, server.params_, "worker" + std::to_string(id),
                   {static_cast<std::uint32_t>(100 + id), &vf, kWorkerPort,
                    server.config_.load_feedback, sim::Duration::zero(),
                    server.params_.packet_build_cost}),
        server_(server),
        id_(id),
        vf_(vf),
        timer_(server.sim_, core(), server.config_.timer_costs) {
    vf_.ring(0).set_on_packet([this]() { wake(); });
  }

 private:
  void start_next() override {
    auto packet = vf_.ring(0).pop();
    if (!packet) {
      idle_ = true;
      return;
    }
    idle_ = false;
    // Newer payloads stacked behind this one may have evicted it downward.
    const auto queued_behind =
        static_cast<std::uint32_t>(vf_.ring(0).depth());

    // Pop + parse the assignment (including the payload's first touch at
    // whatever cache level it survived); arming the preemption timer costs
    // 40 cycles through the Dune-mapped APIC registers (§3.4.4).
    sim::Duration prologue =
        server_.params_.worker_pop_cost +
        hw::payload_touch_cost(server_.config_.placement,
                               server_.params_.cache_costs, queued_behind,
                               ddio_);
    if (server_.config_.preemption_enabled) {
      prologue += timer_.set_cost();
    }
    core().run(prologue, [this, p = std::move(*packet)]() {
      // Queue sojourn at this worker: frame arrival at the VF to the start
      // of handling. Echoed on the response and piggybacked on the feedback
      // note so the dispatcher's adaptive-K governor sees per-worker
      // backlog (DESIGN §11).
      echo_ = server_.sim_.now() - p.rx_at();
      const auto datagram = net::parse_udp_datagram(p);
      if (!datagram) {
        start_next();
        return;
      }
      if (server_.reliable()) {
        handle_reliable_frame(*datagram);
        return;
      }
      auto descriptor = proto::RequestDescriptor::parse(
          datagram->payload, proto::MessageType::kAssignment);
      if (!descriptor) {
        start_next();
        return;
      }
      begin_assignment(*descriptor);
    });
  }

  /// Reliable-mode demux of a frame popped from the VF ring: a sequenced
  /// assignment (ack + dedupe + execute) or a note ack.
  void handle_reliable_frame(const net::UdpDatagramView& datagram) {
    const auto type = proto::peek_type(datagram.payload);
    if (type == proto::MessageType::kNoteAck) {
      const auto ack = proto::AckMessage::parse(datagram.payload,
                                                proto::MessageType::kNoteAck);
      if (ack) handle_note_ack(*ack);
      start_next();
      return;
    }
    if (type == proto::MessageType::kSequencedAssignment) {
      auto assignment = proto::SequencedAssignment::parse(datagram.payload);
      if (!assignment) {
        start_next();
        return;
      }
      // Ack receipt inline so the dispatcher stops retransmitting; a
      // duplicate (retransmitted copy of work already accepted) is re-acked
      // but not executed twice.
      proto::AckMessage ack;
      ack.seq = assignment->seq;
      ack.worker_id = static_cast<std::uint32_t>(id_);
      auto& scratch = proto::serialization_scratch();
      ack.serialize_into(proto::MessageType::kDispatchAck, scratch);
      vf_.transmit(net::make_udp_datagram(dispatcher_address(), scratch));
      if (!seen_assign_seqs_.insert(assignment->seq).second) {
        ++server_.ledger_.reliability_stats().duplicates;
        start_next();
        return;
      }
      begin_assignment(assignment->descriptor);
      return;
    }
    start_next();
  }

  void begin_assignment(proto::RequestDescriptor descriptor) {
    if (descriptor.preempt_count > 0) {
      // Resuming a previously preempted request: restore its context
      // (stack + registers) from host DRAM.
      core().run(server_.params_.context_restore_cost,
                 [this, descriptor]() { execute(descriptor); });
    } else {
      execute(descriptor);
    }
  }

  void execute(const proto::RequestDescriptor& descriptor) {
    if (server_.config_.preemption_enabled) {
      timer_.arm(server_.config_.time_slice,
                 [this](sim::Duration remaining) { preempt(remaining); });
    }
    start(descriptor, obs::SpanKind::kDispatch);
  }

  void task_finished() override { timer_.cancel(); }

  /// The client response already left; the dispatcher hears back in a
  /// frame of its own (§3.4 step 5). A completion pays for that frame in a
  /// second op; a preemption paid for it with the context save.
  void report(const proto::RequestDescriptor& descriptor,
              bool preempted) override {
    if (preempted) {
      send_note(true, descriptor);
      start_next();
      return;
    }
    core().run(server_.params_.packet_build_cost, [this, descriptor]() {
      send_note(false, descriptor);
      start_next();
    });
  }

  std::uint64_t spurious_interrupts() const override {
    return timer_.spurious_count();
  }

  /// Ships a completion (with the sojourn sample under adaptive-K) or a
  /// preemption (the descriptor with its remaining work) to the dispatcher.
  /// Reliable mode sequences the note and keeps retransmitting it (capped
  /// exponential backoff) until the dispatcher acks; a lost note would
  /// otherwise leak a dispatcher slot forever.
  void send_note(bool preempted, const proto::RequestDescriptor& descriptor) {
    if (!server_.reliable()) {
      auto& scratch = proto::serialization_scratch();
      if (preempted) {
        descriptor.serialize_into(proto::MessageType::kPreemption, scratch);
      } else {
        proto::CompletionMessage completion;
        completion.request_id = descriptor.request_id;
        completion.worker_id = static_cast<std::uint32_t>(id_);
        if (sojourn_sampling()) {
          completion.has_sojourn = true;
          completion.sojourn_ps = static_cast<std::uint64_t>(echo_.to_picos());
        }
        completion.serialize_into(scratch);
      }
      vf_.transmit(net::make_udp_datagram(dispatcher_address(), scratch));
      return;
    }
    proto::SequencedNote note;
    note.seq = next_note_seq_++;
    note.worker_id = static_cast<std::uint32_t>(id_);
    note.preempted = preempted;
    note.descriptor = descriptor;
    if (sojourn_sampling()) {
      note.has_sojourn = true;
      note.sojourn_ps = static_cast<std::uint64_t>(echo_.to_picos());
    }
    PendingNote pending;
    pending.payload = note.serialize();
    pending.next_rto = server_.config_.reliability.rto;
    vf_.transmit(net::make_udp_datagram(dispatcher_address(), pending.payload));
    pending.timer = server_.sim_.after(
        pending.next_rto, [this, seq = note.seq]() { retransmit_note(seq); });
    pending_notes_.emplace(note.seq, std::move(pending));
  }

  void retransmit_note(std::uint64_t seq) {
    auto it = pending_notes_.find(seq);
    if (it == pending_notes_.end()) return;
    PendingNote& pending = it->second;
    if (!core().stalled()) {
      // A crashed/stalled worker is silent; it catches up after resume. The
      // resend bypasses core().run on purpose: the NIC DMA engine does the
      // work, and routing it through the core would violate
      // run_preemptible's idle requirement.
      ++server_.ledger_.reliability_stats().note_retransmits;
      vf_.transmit(
          net::make_udp_datagram(dispatcher_address(), pending.payload));
      sim::Duration next =
          pending.next_rto * server_.config_.reliability.backoff;
      const sim::Duration cap = server_.config_.reliability.rto * 8.0;
      pending.next_rto = next > cap ? cap : next;
    }
    pending.timer = server_.sim_.after(pending.next_rto,
                                       [this, seq]() { retransmit_note(seq); });
  }

  void handle_note_ack(const proto::AckMessage& ack) {
    auto it = pending_notes_.find(ack.seq);
    if (it == pending_notes_.end()) return;
    it->second.timer.cancel();
    pending_notes_.erase(it);
  }

  bool sojourn_sampling() const { return server_.ledger_.adaptive_k(); }

  net::DatagramAddress dispatcher_address() const {
    return server_.worker_address(id_).reversed();
  }

  ShinjukuOffloadServer& server_;
  std::size_t id_;
  net::NicInterface& vf_;
  hw::ApicTimer timer_;

  // --- reliable mode only --------------------------------------------------
  /// An unacked outgoing note, resent until the dispatcher confirms.
  struct PendingNote {
    std::vector<std::uint8_t> payload;
    sim::Duration next_rto;
    sim::EventHandle timer;
  };
  std::unordered_set<std::uint64_t> seen_assign_seqs_;
  std::unordered_map<std::uint64_t, PendingNote> pending_notes_;  // by seq
  std::uint64_t next_note_seq_ = 1;
};

// ------------------------------------------------------------- the server

ShinjukuOffloadServer::ShinjukuOffloadServer(sim::Simulator& sim,
                                             net::EthernetSwitch& network,
                                             const ModelParams& params,
                                             Config config)
    : sim_(sim),
      params_(params),
      config_(config),
      arm_nic_(sim, arm_nic_config(params)),
      arm_net_(&arm_nic_.add_interface(
          "arm-net", net::MacAddress::from_index(kArmNetIndex),
          net::Ipv4Address::from_index(kArmNetIndex))),
      networker_core_(sim, arm_core(params, "arm-networker")),
      d1_core_(sim, arm_core(params, "arm-d1-queue")),
      d3_core_(sim, arm_core(params, "arm-d3-poll")),
      intake_channel_(sim, params.cacheline_ipc_latency),
      note_channel_(sim, params.cacheline_ipc_latency),
      queue_(config.queue_policy, config.overload, config.tenant),
      // Informed admission: the networker consults D1's measured queueing
      // delay (EWMA) and the backlog before spending any dispatcher work,
      // answering refusals straight from the NIC.
      ingress_(sim, *arm_net_, config.udp_port, "networker", 0, queue_,
               [this](std::uint64_t request_id) { queue_.cancel(request_id); }),
      ledger_(sim, queue_,
              {config.worker_count, config.outstanding_per_worker,
               config.reliability, config.overload, config.feedback_staleness,
               "d1"},
              [this](std::size_t worker,
                     const proto::RequestDescriptor& descriptor,
                     std::uint64_t seq) {
                send_assignment(Assignment{descriptor, worker, seq});
              },
              [this]() { d1_kick(); }),
      host_nic_(sim, host_nic_config(params)) {
  if (config_.worker_count == 0) {
    throw std::invalid_argument("ShinjukuOffloadServer: need >= 1 worker");
  }
  if (config_.outstanding_per_worker == 0) {
    throw std::invalid_argument("ShinjukuOffloadServer: K must be >= 1");
  }
  if (config_.sender_cores == 0 || config_.sender_cores > 5) {
    // 8 ARM cores total minus networker, D1, and D3.
    throw std::invalid_argument(
        "ShinjukuOffloadServer: sender_cores must be in [1, 5]");
  }
  arm_disp_ = &arm_nic_.add_interface(
      "arm-disp", net::MacAddress::from_index(kArmDispIndex),
      net::Ipv4Address::from_index(kArmDispIndex));
  arm_nic_.attach_to_switch(network, params_.stingray_port_latency,
                            params_.line_rate_gbps);
  if (config_.tx_batch_frames > 0) {
    arm_disp_->enable_tx_batching(config_.tx_batch_frames,
                                  config_.tx_batch_timeout);
  }

  for (std::size_t i = 0; i < config_.worker_count; ++i) {
    const std::uint32_t index =
        kWorkerBaseIndex + static_cast<std::uint32_t>(i);
    vfs_.push_back(&host_nic_.add_interface(
        "vf" + std::to_string(i), net::MacAddress::from_index(index),
        net::Ipv4Address::from_index(index)));
  }
  host_nic_.attach_to_switch(network, params_.stingray_port_latency,
                             params_.line_rate_gbps);

  networker_pump_ = std::make_unique<PacketPump>(
      networker_core_, arm_net_->ring(0), params_.networker_parse_cost,
      [this](net::Packet packet) {
        if (auto descriptor =
                ingress_.accept(packet, intake_channel_.depth())) {
          intake_channel_.send(std::move(*descriptor));
        }
      });
  d3_pump_ = std::make_unique<PacketPump>(
      d3_core_, arm_disp_->ring(0), params_.notification_parse_cost,
      [this](net::Packet packet) { d3_handle(std::move(packet)); });
  for (std::size_t i = 0; i < config_.sender_cores; ++i) {
    SenderCore sender;
    sender.core = std::make_unique<hw::CpuCore>(
        sim, arm_core(params, "arm-d2-send" + std::to_string(i)));
    sender.channel = std::make_unique<hw::MessageChannel<Assignment>>(
        sim, params.dedicated_poll_latency);
    sender.pump = std::make_unique<ChannelPump<Assignment>>(
        *sender.core, *sender.channel, params_.packet_build_cost,
        [this](Assignment assignment) { d2_send(std::move(assignment)); });
    senders_.push_back(std::move(sender));
  }

  intake_channel_.set_on_message([this]() { d1_kick(); });
  note_channel_.set_on_message([this]() { d1_kick(); });

  std::vector<hw::CpuCore*> cores;
  cores.reserve(config_.worker_count);
  for (std::size_t i = 0; i < config_.worker_count; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i, *vfs_[i]));
    cores.push_back(&workers_.back()->core());
  }
  // Dispatcher→worker frames (assignments, note acks) leave on the ARM
  // NIC's uplink; worker→dispatcher frames (acks, notes) come back through
  // the switch port toward arm-disp. The host NIC's uplink stays clean — it
  // also carries worker→client responses, which this fault must not eat.
  surface_.emplace(network, arm_net_->mac(), std::move(cores),
                   [this, &network](double probability, std::uint64_t seed) {
                     arm_nic_.set_uplink_loss(probability, seed);
                     network.set_port_loss(arm_disp_->mac(), probability,
                                           probability > 0.0 ? seed + 1 : 0);
                   });
}

ShinjukuOffloadServer::~ShinjukuOffloadServer() = default;

net::MacAddress ShinjukuOffloadServer::ingress_mac() const {
  return arm_net_->mac();
}

net::Ipv4Address ShinjukuOffloadServer::ingress_ip() const {
  return arm_net_->ip();
}

void ShinjukuOffloadServer::d1_kick() {
  if (d1_pumping_) return;
  d1_pumping_ = true;
  d1_step();
}

// D1's poll loop: worker notifications first (they free capacity), then
// assignments, then intake of new requests. One operation per iteration so
// the ARM core's speed bounds dispatcher throughput.
void ShinjukuOffloadServer::d1_step() {
  if (!note_channel_.empty()) {
    d1_core_.run(params_.dispatch_note_cost, [this]() {
      auto note = note_channel_.pop();
      if (note) {
        ledger_.status().note_retired(note->worker, sim_.now());
        if (note->has_sojourn) {
          // Adaptive-K backpressure: fold the piggybacked sojourn sample and
          // apply the governor's bound to the status table.
          ledger_.fold_sojourn(note->worker,
                               sim::Duration::picos(static_cast<std::int64_t>(
                                   note->sojourn_ps)));
        }
        if (note->preempted) {
          sim_.trace(sim::TraceCategory::kQueue, [&] {
            return std::pair{std::string("d1"),
                             "requeue " +
                                 std::to_string(note->descriptor.request_id)};
          });
          queue_.push_preempted(std::move(note->descriptor), sim_.now());
        }
      }
      d1_step();
    });
    return;
  }
  if (!queue_.empty() && ledger_.status().pick_least_loaded().has_value()) {
    d1_core_.run(params_.dispatch_assign_cost, [this]() {
      const auto worker = ledger_.status().pick_least_loaded();
      if (worker) {
        sim::Duration queue_delay = sim::Duration::zero();
        auto descriptor = queue_.pop(sim_.now(), queue_delay);
        if (descriptor) {
          // Stamp the congestion feedback the response will carry (§5.2).
          descriptor->queue_depth = static_cast<std::uint32_t>(queue_.depth());
          ledger_.status().note_sent(*worker, sim_.now());
          sim_.trace(sim::TraceCategory::kDispatch, [&] {
            return std::pair{std::string("d1"),
                             "assign " +
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
          const std::uint64_t seq = ledger_.track(*descriptor, *worker);
          send_assignment(Assignment{std::move(*descriptor), *worker, seq});
        }
      }
      d1_step();
    });
    return;
  }
  if (!intake_channel_.empty()) {
    d1_core_.run(params_.dispatch_enqueue_cost, [this]() {
      auto descriptor = intake_channel_.pop();
      if (descriptor) queue_.push_new(std::move(*descriptor), sim_.now());
      d1_step();
    });
    return;
  }
  d1_pumping_ = false;
}

void ShinjukuOffloadServer::send_assignment(Assignment assignment) {
  senders_[next_sender_].channel->send(std::move(assignment));
  next_sender_ = (next_sender_ + 1) % senders_.size();
}

net::DatagramAddress ShinjukuOffloadServer::worker_address(
    std::size_t worker) const {
  net::DatagramAddress address;
  address.src_mac = arm_disp_->mac();
  address.dst_mac = vfs_[worker]->mac();
  address.src_ip = arm_disp_->ip();
  address.dst_ip = vfs_[worker]->ip();
  address.src_port = kDispatchPort;
  address.dst_port = kWorkerPort;
  return address;
}

void ShinjukuOffloadServer::d2_send(Assignment assignment) {
  const net::DatagramAddress address = worker_address(assignment.worker);
  if (assignment.seq != 0) {
    proto::SequencedAssignment sequenced;
    sequenced.seq = assignment.seq;
    sequenced.descriptor = std::move(assignment.descriptor);
    auto& scratch = proto::serialization_scratch();
    sequenced.serialize_into(scratch);
    arm_disp_->transmit(net::make_udp_datagram(address, scratch));
    return;
  }
  auto& scratch = proto::serialization_scratch();
  assignment.descriptor.serialize_into(proto::MessageType::kAssignment,
                                       scratch);
  arm_disp_->transmit(net::make_udp_datagram(address, scratch));
}

void ShinjukuOffloadServer::d3_handle(net::Packet packet) {
  const auto datagram = net::parse_udp_datagram(packet);
  if (!datagram) {
    ++malformed_;
    return;
  }
  // Identify the worker by the source MAC of its virtual function.
  std::size_t worker_id = 0;
  while (worker_id < vfs_.size() &&
         vfs_[worker_id]->mac() != datagram->eth.src) {
    ++worker_id;
  }
  if (worker_id == vfs_.size()) {
    ++malformed_;
    return;
  }

  const auto type = proto::peek_type(datagram->payload);
  if (reliable()) {
    if (type == proto::MessageType::kDispatchAck) {
      const auto ack = proto::AckMessage::parse(
          datagram->payload, proto::MessageType::kDispatchAck);
      if (ack) {
        ledger_.note_alive(worker_id);
        ledger_.acked(worker_id, ack->seq);
      } else {
        ++malformed_;
      }
      return;
    }
    if (type == proto::MessageType::kSequencedNote) {
      auto note = proto::SequencedNote::parse(datagram->payload);
      if (note) {
        handle_sequenced_note(worker_id, std::move(*note));
      } else {
        ++malformed_;
      }
      return;
    }
  }
  if (type == proto::MessageType::kCompletion) {
    const auto completion = proto::CompletionMessage::parse(datagram->payload);
    if (completion) {
      Note note{worker_id, false, {}};
      note.has_sojourn = completion->has_sojourn;
      note.sojourn_ps = completion->sojourn_ps;
      note_channel_.send(std::move(note));
    } else {
      ++malformed_;
    }
  } else if (type == proto::MessageType::kPreemption) {
    auto descriptor = proto::RequestDescriptor::parse(
        datagram->payload, proto::MessageType::kPreemption);
    if (descriptor) {
      note_channel_.send(Note{worker_id, true, std::move(*descriptor)});
    } else {
      ++malformed_;
    }
  } else {
    ++malformed_;
  }
}

// -------------------------------------------- reliable dispatch (DESIGN §9)

void ShinjukuOffloadServer::handle_sequenced_note(std::size_t worker,
                                                  proto::SequencedNote note) {
  // Ack immediately — even duplicates — so the worker stops resending.
  proto::AckMessage ack;
  ack.seq = note.seq;
  ack.worker_id = note.worker_id;
  auto& scratch = proto::serialization_scratch();
  ack.serialize_into(proto::MessageType::kNoteAck, scratch);
  arm_disp_->transmit(net::make_udp_datagram(worker_address(worker), scratch));

  ledger_.note_alive(worker);
  if (!ledger_.first_note(worker, note.seq)) return;
  if (!ledger_.retire(worker, note.descriptor.request_id, !note.preempted)) {
    return;
  }
  Note out{worker, note.preempted, std::move(note.descriptor)};
  out.has_sojourn = note.has_sojourn;
  out.sojourn_ps = note.sojourn_ps;
  note_channel_.send(std::move(out));
}

ServerStats ShinjukuOffloadServer::stats(sim::Duration elapsed) const {
  ServerStats stats;
  stats.requests_received = ingress_.requests_received();
  for (const auto& worker : workers_) worker->add_to(stats, elapsed);
  stats.drops = arm_nic_.rx_unknown_mac_drops() +
                host_nic_.rx_unknown_mac_drops() + ingress_.malformed() +
                malformed_;
  stats.drops += arm_net_->ring(0).stats().dropped;
  stats.drops += arm_disp_->ring(0).stats().dropped;
  // Ring overflow on a worker VF would break the dispatcher's outstanding
  // accounting; surfacing it in drops makes that visible.
  for (const net::NicInterface* vf : vfs_) {
    stats.drops += vf->ring(0).stats().dropped;
  }
  queue_.add_to(stats);
  ledger_.add_to(stats);
  return stats;
}

ServerTelemetry ShinjukuOffloadServer::telemetry() const {
  ServerTelemetry t;
  t.queue_depth = intake_channel_.depth();
  // Every ring that can overflow feeds the live drop counter, mirroring
  // what stats() aggregates; a VF overflow silently corrupting the
  // outstanding accounting must be visible to the metric sampler.
  t.drops = ingress_.malformed() + malformed_ +
            arm_net_->ring(0).stats().dropped +
            arm_disp_->ring(0).stats().dropped;
  for (const net::NicInterface* vf : vfs_) t.drops += vf->ring(0).stats().dropped;
  queue_.add_to(t);
  ledger_.add_to(t);
  for (const auto& worker : workers_) worker->add_to(t);
  return t;
}

}  // namespace nicsched::core
