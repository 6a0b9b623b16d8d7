#include "core/shinjuku_server.h"

#include <deque>
#include <stdexcept>
#include <utility>

#include "core/host_worker.h"
#include "obs/span.h"

namespace nicsched::core {

namespace {

constexpr std::uint32_t kPfIndex = 2000;
constexpr std::uint16_t kWorkerPort = 8082;

net::Nic::Config nic_config(const ModelParams& params) {
  net::Nic::Config config;
  config.name = "82599es";
  config.rx_latency = params.host_nic_rx;
  config.tx_latency = params.host_nic_tx;
  config.ring_capacity = params.ring_capacity;
  return config;
}

hw::CpuCore::Config smt_core(const ModelParams& params, std::string name) {
  hw::CpuCore::Config config;
  config.name = std::move(name);
  config.frequency = params.host_frequency;
  // Networker and dispatcher share a physical core via hyperthreading
  // (§4.1), inflating both threads' per-op costs.
  config.time_scale = params.smt_penalty;
  return config;
}

}  // namespace

// ----------------------------------------------------------------- Worker

/// A Shinjuku worker: receives assignments over a cache-line channel,
/// executes them, responds to the client through the shared NIC, and is
/// preempted by dispatcher-sent posted interrupts.
class ShinjukuServer::Worker final : public HostWorker {
 public:
  Worker(Group& group, std::size_t id)
      : HostWorker(group.server.sim_, group.server.params_,
                   "worker" + std::to_string(group.index) + "." +
                       std::to_string(id),
                   {static_cast<std::uint32_t>(100 + group.index * 100 + id),
                    group.server.pf_, kWorkerPort,
                    group.server.config_.load_feedback,
                    group.server.params_.cacheline_ipc_cost,
                    group.server.params_.cacheline_ipc_cost}),
        group_(group),
        id_(id),
        interrupt_line_(group.server.sim_, core(),
                        hw::InterruptLine::Config{
                            group.server.params_.interrupt_delivery_latency,
                            group.server.params_.timer_receive_cycles}),
        assign_channel_(group.server.sim_,
                        group.server.params_.dedicated_poll_latency) {
    assign_channel_.set_on_message([this]() { wake(); });
  }

  hw::MessageChannel<proto::RequestDescriptor>& assign_channel() {
    return assign_channel_;
  }
  hw::InterruptLine& interrupt_line() { return interrupt_line_; }

  /// Load feedback: the dispatcher pairs each assignment it sends with the
  /// request's measured dispatch-queue sojourn. The FIFO mirrors the assign
  /// channel's order, so the worker pops the matching sample at pop time.
  void push_pending_sojourn(sim::Duration sojourn) {
    pending_sojourns_.push_back(sojourn);
  }

 private:
  void start_next() override {
    auto descriptor = assign_channel_.pop();
    if (!descriptor) {
      idle_ = true;
      return;
    }
    idle_ = false;
    if (!pending_sojourns_.empty()) {
      echo_ = pending_sojourns_.front();
      pending_sojourns_.pop_front();
    } else {
      echo_ = sim::Duration::zero();
    }
    auto shared =
        std::make_shared<proto::RequestDescriptor>(std::move(*descriptor));
    const ModelParams& params = group_.server.params_;
    // The payload was DMA'd by DDIO into the LLC and the dispatcher hands
    // out one request at a time, so the worker's first touch is an LLC hit
    // (never L1 — another core parsed the packet; never evicted — the
    // centralized queue holds payloads in the LLC, not on this core).
    sim::Duration prologue =
        params.worker_pop_cost +
        hw::payload_touch_cost(hw::PlacementPolicy::kDdioLlc,
                               params.cache_costs, 0, ddio_);
    if (shared->preempt_count > 0) {
      prologue += params.context_restore_cost;
    }
    core().run(prologue, [this, shared]() {
      start(*shared, obs::SpanKind::kDispatch);
    });
  }

  /// One completion flag or preempted descriptor in the worker's context
  /// line, which the dispatcher polls.
  void report(const proto::RequestDescriptor& descriptor,
              bool preempted) override {
    group_.note_channel.send(
        Note{id_, preempted, descriptor, descriptor.request_id});
    start_next();
  }

  std::uint64_t spurious_interrupts() const override {
    return interrupt_line_.spurious_count();
  }

  Group& group_;
  std::size_t id_;
  hw::InterruptLine interrupt_line_;
  hw::MessageChannel<proto::RequestDescriptor> assign_channel_;
  std::deque<sim::Duration> pending_sojourns_;
};

// -------------------------------------------------------------------- Group

ShinjukuServer::Group::Group(ShinjukuServer& server_ref, std::size_t index_arg)
    : server(server_ref),
      index(index_arg),
      networker_core(server_ref.sim_,
                     smt_core(server_ref.params_,
                              "networker" + std::to_string(index_arg))),
      dispatcher_core(server_ref.sim_,
                      smt_core(server_ref.params_,
                               "dispatcher" + std::to_string(index_arg))),
      intake_channel(server_ref.sim_, server_ref.params_.cacheline_ipc_latency),
      // Worker completion flags are the dispatcher loop's primary input; it
      // scans the few worker context lines tightly.
      note_channel(server_ref.sim_, server_ref.params_.dedicated_poll_latency),
      queue(server_ref.config_.queue_policy, server_ref.config_.overload,
            server_ref.config_.tenant),
      // The cancel's control 5-tuple need not hash to the group that queued
      // the request, so mark every group's queue.
      ingress(server_ref.sim_, *server_ref.pf_, server_ref.config_.udp_port,
              "networker" + std::to_string(index_arg),
              static_cast<std::uint32_t>(index_arg), queue,
              [&server_ref](std::uint64_t request_id) {
                for (auto& group : server_ref.groups_) {
                  group->queue.cancel(request_id);
                }
              }),
      status(0, 1) {}

// ------------------------------------------------------------- the server

ShinjukuServer::ShinjukuServer(sim::Simulator& sim,
                               net::EthernetSwitch& network,
                               const ModelParams& params, Config config)
    : sim_(sim),
      params_(params),
      config_(config),
      nic_(sim, nic_config(params)) {
  if (config_.worker_count == 0) {
    throw std::invalid_argument("ShinjukuServer: need >= 1 worker");
  }
  if (config_.dispatcher_count == 0 ||
      config_.dispatcher_count > config_.worker_count) {
    throw std::invalid_argument(
        "ShinjukuServer: dispatcher_count must be in [1, worker_count]");
  }

  pf_ = &nic_.add_interface("shinjuku-pf", net::MacAddress::from_index(kPfIndex),
                            net::Ipv4Address::from_index(kPfIndex),
                            config_.dispatcher_count);
  if (config_.dispatcher_count > 1) {
    // §2.2: "RSS can be used to route packets from the NIC to different
    // dispatchers, but this can again result in load imbalance."
    pf_->use_rss();
  }
  nic_.attach_to_switch(network, params_.stingray_port_latency,
                        params_.line_rate_gbps);

  for (std::size_t g = 0; g < config_.dispatcher_count; ++g) {
    groups_.push_back(std::make_unique<Group>(*this, g));
  }

  // Partition workers round-robin so uneven counts stay near-balanced.
  for (std::size_t w = 0; w < config_.worker_count; ++w) {
    Group& group = *groups_[w % groups_.size()];
    group.workers.push_back(
        std::make_unique<Worker>(group, group.workers.size()));
  }
  for (auto& group_ptr : groups_) {
    Group& group = *group_ptr;
    group.status = CoreStatusTable(group.workers.size(), /*capacity=*/1);
    group.running.resize(group.workers.size());
    group.networker_pump = std::make_unique<PacketPump>(
        group.networker_core, pf_->ring(group.index),
        params_.networker_parse_cost, [&group](net::Packet packet) {
          if (auto descriptor = group.ingress.accept(
                  packet, group.intake_channel.depth())) {
            group.intake_channel.send(std::move(*descriptor));
          }
        });
    group.intake_channel.set_on_message(
        [this, &group]() { dispatcher_kick(group); });
    group.note_channel.set_on_message(
        [this, &group]() { dispatcher_kick(group); });
  }

  // Workers were pushed round-robin (w % groups) in global order, so fault
  // index w is group w % G at in-group slot w / G.
  std::vector<hw::CpuCore*> cores;
  cores.reserve(config_.worker_count);
  for (std::size_t w = 0; w < config_.worker_count; ++w) {
    cores.push_back(
        &groups_[w % groups_.size()]->workers[w / groups_.size()]->core());
  }
  surface_.emplace(network, pf_->mac(), std::move(cores));
}

ShinjukuServer::~ShinjukuServer() = default;

net::MacAddress ShinjukuServer::ingress_mac() const { return pf_->mac(); }

net::Ipv4Address ShinjukuServer::ingress_ip() const { return pf_->ip(); }

std::uint64_t ShinjukuServer::group_requests(std::size_t group) const {
  return groups_[group]->ingress.requests_received();
}

const CoreStatusTable& ShinjukuServer::core_status(std::size_t group) const {
  return groups_[group]->status;
}

void ShinjukuServer::dispatcher_kick(Group& group) {
  if (group.pumping) return;
  group.pumping = true;
  dispatcher_step(group);
}

void ShinjukuServer::dispatcher_step(Group& group) {
  if (!group.note_channel.empty()) {
    group.dispatcher_core.run(params_.dispatch_note_cost, [this, &group]() {
      auto note = group.note_channel.pop();
      if (note && reliable()) {
        if (!group.status.entry(note->worker).healthy) {
          // Any note proves the worker is alive again.
          group.status.set_healthy(note->worker, true);
          ++rel_.revivals;
        }
        RunningInfo& info = group.running[note->worker];
        if (info.active && info.request_id == note->request_id) {
          group.status.note_retired(note->worker, sim_.now());
          info.active = false;
          info.preempt_in_flight = false;
          if (note->preempted) {
            group.queue.push_preempted(std::move(note->descriptor),
                                       sim_.now());
          }
        } else {
          // Stale note for a request the liveness watchdog already
          // re-steered; retiring it would corrupt the bookkeeping of
          // whatever the worker was assigned next.
          ++rel_.duplicates;
        }
      } else if (note) {
        group.status.note_retired(note->worker, sim_.now());
        group.running[note->worker].active = false;
        group.running[note->worker].preempt_in_flight = false;
        if (note->preempted) {
          group.queue.push_preempted(std::move(note->descriptor), sim_.now());
        }
      }
      dispatcher_step(group);
    });
    return;
  }
  if (!group.queue.empty() && group.status.pick_least_loaded().has_value()) {
    group.dispatcher_core.run(
        params_.dispatch_assign_cost + params_.cacheline_ipc_cost,
        [this, &group]() {
          const auto worker = group.status.pick_least_loaded();
          if (worker) {
            sim::Duration queue_delay = sim::Duration::zero();
            auto descriptor = group.queue.pop(sim_.now(), queue_delay);
            if (descriptor) {
              descriptor->queue_depth =
                  static_cast<std::uint32_t>(group.queue.depth());
              group.status.note_sent(*worker, sim_.now());
              if (sim_.span_enabled()) {
                const auto lane = static_cast<std::uint32_t>(group.index);
                obs::end_span(sim_, descriptor->request_id,
                              descriptor->preempt_count > 0
                                  ? obs::SpanKind::kRequeue
                                  : obs::SpanKind::kDispatchQueue,
                              lane);
                obs::begin_span(sim_, descriptor->request_id,
                                obs::SpanKind::kDispatch, lane);
              }
              RunningInfo& info = group.running[*worker];
              ++info.epoch;
              info.assigned_at = sim_.now();
              info.active = true;
              info.preempt_in_flight = false;
              if (config_.preemption_enabled) {
                schedule_slice_check(group, *worker, info.epoch);
              }
              if (reliable()) {
                info.request_id = descriptor->request_id;
                info.descriptor = *descriptor;
                arm_liveness(group, *worker, info.epoch);
              }
              if (config_.load_feedback) {
                group.workers[*worker]->push_pending_sojourn(queue_delay);
              }
              group.workers[*worker]->assign_channel().send(
                  std::move(*descriptor));
            }
          }
          dispatcher_step(group);
        });
    return;
  }
  if (!group.intake_channel.empty()) {
    group.dispatcher_core.run(params_.dispatch_enqueue_cost, [this, &group]() {
      auto descriptor = group.intake_channel.pop();
      if (descriptor) {
        group.queue.push_new(std::move(*descriptor), sim_.now());
        // A request arriving with every worker saturated may justify
        // preempting someone already past their slice.
        maybe_preempt_for_waiting_work(group);
      }
      dispatcher_step(group);
    });
    return;
  }
  group.pumping = false;
}

void ShinjukuServer::schedule_slice_check(Group& group, std::size_t worker,
                                          std::uint64_t epoch) {
  sim_.after(config_.time_slice, [this, &group, worker, epoch]() {
    RunningInfo& info = group.running[worker];
    if (!info.active || info.epoch != epoch || info.preempt_in_flight) return;
    if (group.queue.empty()) {
      // Informed decision: no waiting work, so let the request keep running
      // and re-check a slice later (§3.4.4 contrasts this with the offload
      // timer that fires regardless).
      schedule_slice_check(group, worker, epoch);
      return;
    }
    issue_preempt(group, worker);
  });
}

void ShinjukuServer::maybe_preempt_for_waiting_work(Group& group) {
  if (group.queue.empty()) return;
  if (group.status.pick_least_loaded().has_value()) return;  // someone free
  // Preempt the longest-running worker past its slice, if any.
  std::optional<std::size_t> victim;
  for (std::size_t i = 0; i < group.running.size(); ++i) {
    const RunningInfo& info = group.running[i];
    if (!info.active || info.preempt_in_flight) continue;
    if (sim_.now() - info.assigned_at < config_.time_slice) continue;
    if (!victim || info.assigned_at < group.running[*victim].assigned_at) {
      victim = i;
    }
  }
  if (victim) issue_preempt(group, *victim);
}

void ShinjukuServer::issue_preempt(Group& group, std::size_t worker) {
  RunningInfo& info = group.running[worker];
  info.preempt_in_flight = true;
  // The dispatcher spends cycles writing the ICR; delivery and the handler
  // entry are modelled by the worker's interrupt line.
  group.dispatcher_core.run(
      group.dispatcher_core.cycles(params_.interrupt_send_cycles),
      [&group, worker]() {
        group.workers[worker]->interrupt_line().send(
            [&group, worker](sim::Duration remaining) {
              group.workers[worker]->preempt(remaining);
            });
      });
}

void ShinjukuServer::arm_liveness(Group& group, std::size_t worker,
                                  std::uint64_t epoch) {
  // The dispatch channel is lossless, so the only failure mode is the worker
  // itself going silent mid-request: if the assignment is still active when
  // the timeout fires (same epoch — a newer assignment re-arms its own
  // watchdog), declare the worker dead and re-steer the request.
  sim_.after(config_.reliability.completion_timeout,
             [this, &group, worker, epoch]() {
               RunningInfo& info = group.running[worker];
               if (!info.active || info.epoch != epoch) return;
               ++rel_.timeouts;
               declare_worker_dead(group, worker);
             });
}

void ShinjukuServer::declare_worker_dead(Group& group, std::size_t worker) {
  if (!group.status.entry(worker).healthy) return;
  group.status.set_healthy(worker, false);
  ++rel_.worker_deaths;
  RunningInfo& info = group.running[worker];
  if (info.active) {
    group.status.note_retired(worker, sim_.now());
    info.active = false;
    info.preempt_in_flight = false;
    ++rel_.redispatched;
    group.queue.push_preempted(info.descriptor, sim_.now());
  }
  dispatcher_kick(group);
}

ServerStats ShinjukuServer::stats(sim::Duration elapsed) const {
  ServerStats stats;
  for (const auto& group : groups_) {
    stats.requests_received += group->ingress.requests_received();
    stats.drops += group->ingress.malformed();
    group->queue.add_to(stats);
    for (const auto& worker : group->workers) worker->add_to(stats, elapsed);
  }
  stats.drops += nic_.rx_unknown_mac_drops();
  for (std::size_t ring = 0; ring < pf_->ring_count(); ++ring) {
    stats.drops += pf_->ring(ring).stats().dropped;
  }
  stats.reliability = rel_;
  return stats;
}

ServerTelemetry ShinjukuServer::telemetry() const {
  ServerTelemetry t;
  for (const auto& group : groups_) {
    t.queue_depth += group->intake_channel.depth();
    group->queue.add_to(t);
    t.outstanding += group->status.total_outstanding();
    t.drops += group->ingress.malformed();
    for (const auto& worker : group->workers) worker->add_to(t);
  }
  t.drops += nic_.rx_unknown_mac_drops();
  for (std::size_t ring = 0; ring < pf_->ring_count(); ++ring) {
    t.drops += pf_->ring(ring).stats().dropped;
  }
  t.retransmits = rel_.retransmits + rel_.note_retransmits;
  t.abandoned = rel_.abandoned;
  return t;
}

}  // namespace nicsched::core
