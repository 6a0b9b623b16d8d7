#include "core/host_worker.h"

#include <utility>

namespace nicsched::core {

namespace {

hw::CpuCore::Config worker_core(const ModelParams& params, std::string name) {
  hw::CpuCore::Config config;
  config.name = std::move(name);
  config.frequency = params.host_frequency;
  return config;
}

}  // namespace

HostWorker::HostWorker(sim::Simulator& sim, const ModelParams& params,
                       std::string name, Config config)
    : sim_(sim),
      config_(config),
      completion_cost_(params.response_build_cost + config.completion_write),
      preemption_cost_(params.context_save_cost + config.preemption_write),
      core_(sim, worker_core(params, std::move(name))) {}

void HostWorker::start(const proto::RequestDescriptor& descriptor,
                       obs::SpanKind waited_in) {
  current_ = descriptor;
  sim_.trace(sim::TraceCategory::kWorker, [&] {
    return std::pair{core_.name(),
                     "start " + std::to_string(descriptor.request_id)};
  });
  if (sim_.span_enabled()) {
    obs::end_span(sim_, descriptor.request_id, waited_in, config_.lane);
    obs::begin_span(sim_, descriptor.request_id, obs::SpanKind::kService,
                    config_.lane);
  }
  core_.run_preemptible(
      sim::Duration::picos(static_cast<std::int64_t>(descriptor.remaining_ps)),
      [this]() { complete(); });
}

void HostWorker::complete() {
  task_finished();
  sim_.trace(sim::TraceCategory::kWorker, [&] {
    return std::pair{core_.name(),
                     "complete " + std::to_string(current_->request_id)};
  });
  if (sim_.span_enabled()) {
    obs::end_span(sim_, current_->request_id, obs::SpanKind::kService,
                  config_.lane);
    obs::begin_span(sim_, current_->request_id, obs::SpanKind::kResponse,
                    config_.lane);
  }
  proto::RequestDescriptor descriptor = *current_;
  current_.reset();
  core_.run(completion_cost_, [this, descriptor]() {
    respond(descriptor);
    report(descriptor, /*preempted=*/false);
  });
}

void HostWorker::preempt(sim::Duration remaining) {
  ++preemptions_;
  sim_.trace(sim::TraceCategory::kPreempt, [&] {
    return std::pair{core_.name(),
                     "preempt " + std::to_string(current_->request_id) +
                         " remaining " + remaining.to_string()};
  });
  if (sim_.span_enabled()) {
    obs::end_span(sim_, current_->request_id, obs::SpanKind::kService,
                  config_.lane);
    obs::begin_span(sim_, current_->request_id, obs::SpanKind::kRequeue,
                    config_.lane);
  }
  proto::RequestDescriptor descriptor = *current_;
  current_.reset();
  descriptor.remaining_ps = static_cast<std::uint64_t>(remaining.to_picos());
  descriptor.preempt_count =
      static_cast<std::uint16_t>(descriptor.preempt_count + 1);
  core_.run(preemption_cost_, [this, descriptor]() {
    report(descriptor, /*preempted=*/true);
  });
}

void HostWorker::respond(const proto::RequestDescriptor& descriptor) {
  net::DatagramAddress address;
  address.src_mac = config_.reply_from->mac();
  address.dst_mac = descriptor.client_mac;
  address.src_ip = config_.reply_from->ip();
  address.dst_ip = descriptor.client_ip;
  address.src_port = config_.reply_port;
  address.dst_port = descriptor.client_port;
  auto& scratch = proto::serialization_scratch();
  auto response = make_response(descriptor);
  if (config_.load_feedback) {
    // The ToR layer snoops per-server load off this version-2 response.
    response.has_sojourn = true;
    response.sojourn_ps = static_cast<std::uint64_t>(echo_.to_picos());
  }
  response.serialize_into(scratch);
  config_.reply_from->transmit(net::make_udp_datagram(address, scratch));
  ++responses_sent_;
}

void HostWorker::add_to(ServerStats& stats, sim::Duration elapsed) const {
  stats.responses_sent += responses_sent_;
  stats.preemptions += preemptions_;
  stats.spurious_interrupts += spurious_interrupts();
  stats.ddio.l1_touches += ddio_.l1_touches;
  stats.ddio.llc_touches += ddio_.llc_touches;
  stats.ddio.dram_touches += ddio_.dram_touches;
  if (elapsed > sim::Duration::zero()) {
    stats.worker_utilization.push_back(core_.stats().busy / elapsed);
  }
}

void HostWorker::add_to(ServerTelemetry& telemetry) const {
  telemetry.preemptions += preemptions_;
  telemetry.worker_busy.push_back(core_.stats().busy);
}

}  // namespace nicsched::core
