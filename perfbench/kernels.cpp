// Layer kernels: each times one module's public functions with the
// workload's shapes and checks its own work. The event-queue and switch
// kernels follow bench/perf_common.cpp, but with checksum verification on.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>

#include "bench.h"
#include "core/task_queue.h"
#include "hw/apic_timer.h"
#include "hw/cpu_core.h"
#include "net/ethernet_switch.h"
#include "net/packet.h"
#include "proto/messages.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "stats/recorder.h"
#include "workload/arrival.h"

namespace nicsched::perfbench {

namespace {

using sim::Duration;
using Clock = std::chrono::steady_clock;

/// One timed pass of a kernel: operations retired, host seconds, and the
/// self-check verdict.
struct Pass {
  std::uint64_t ops = 0;
  double seconds = 0.0;
  std::string error;  // empty = the self-check passed
};

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t scaled(std::uint64_t ops, double scale) {
  return std::max<std::uint64_t>(
      1000, static_cast<std::uint64_t>(static_cast<double>(ops) * scale));
}

/// Median ns/op over a few passes; any failed self-check fails the kernel.
KernelResult measure(const std::string& metric,
                     const std::function<Pass()>& pass) {
  constexpr int kPasses = 3;
  KernelResult result;
  result.metric = metric;
  std::vector<double> ns;
  for (int i = 0; i < kPasses; ++i) {
    Pass p;
    try {
      p = pass();
    } catch (const std::exception& e) {
      p.error = e.what();
    }
    if (!p.error.empty()) {
      result.error = p.error;
      return result;
    }
    if (p.ops == 0) {
      result.error = "no operations retired";
      return result;
    }
    ns.push_back(p.seconds * 1e9 / static_cast<double>(p.ops));
  }
  std::sort(ns.begin(), ns.end());
  result.ns_per_op = ns[ns.size() / 2];
  result.ok = true;
  return result;
}

// ---- sim -------------------------------------------------------------------

/// A self-rescheduling chain whose callback captures one pointer.
struct HotChain {
  sim::Simulator* sim = nullptr;
  std::uint64_t remaining = 0;
  Duration step;

  void fire() {
    if (remaining == 0) return;
    --remaining;
    sim->after(step, [this]() { fire(); });
  }
};

Pass event_pass(std::uint64_t events) {
  constexpr std::size_t kChains = 64;
  sim::Simulator sim;
  std::vector<HotChain> chains(kChains);
  const std::uint64_t per_chain = events / kChains;
  for (std::size_t i = 0; i < kChains; ++i) {
    chains[i].sim = &sim;
    chains[i].remaining = per_chain;
    chains[i].step = Duration::nanos(100 + 7 * (i + 1));
    HotChain* chain = &chains[i];
    sim.after(chain->step, [chain]() { chain->fire(); });
  }
  const auto start = Clock::now();
  sim.run();
  Pass p{sim.events_fired(), since(start), {}};
  if (p.ops != kChains * (per_chain + 1)) p.error = "event count mismatch";
  return p;
}

/// The re-armed-timeout idiom: each tick cancels the previous guard timer,
/// arms a fresh one, and schedules the next tick.
struct ChurnChain {
  sim::Simulator* sim = nullptr;
  std::uint64_t remaining = 0;
  std::uint64_t cancels = 0;
  std::uint64_t guards_fired = 0;
  sim::EventHandle guard;

  void fire() {
    if (guard.pending()) {
      guard.cancel();
      ++cancels;
    }
    if (remaining == 0) return;
    --remaining;
    guard = sim->after(Duration::micros(50), [this]() { ++guards_fired; });
    sim->after(Duration::nanos(200), [this]() { fire(); });
  }
};

Pass cancel_pass(std::uint64_t cycles) {
  constexpr std::size_t kChains = 32;
  sim::Simulator sim;
  std::vector<ChurnChain> chains(kChains);
  const std::uint64_t per_chain = cycles / kChains;
  for (std::size_t i = 0; i < kChains; ++i) {
    chains[i].sim = &sim;
    chains[i].remaining = per_chain;
    ChurnChain* chain = &chains[i];
    sim.after(Duration::nanos(100 + 13 * (i + 1)),
              [chain]() { chain->fire(); });
  }
  const auto start = Clock::now();
  sim.run();
  Pass p{kChains * per_chain, since(start), {}};
  for (const ChurnChain& chain : chains) {
    if (chain.cancels != per_chain || chain.guards_fired != 0) {
      p.error = "a guard timer escaped cancellation";
    }
  }
  return p;
}

// ---- net -------------------------------------------------------------------

struct ParsingSink : net::PacketSink {
  std::size_t expected_payload = 0;
  std::uint64_t parsed = 0;
  std::uint64_t bad = 0;

  void deliver(net::Packet packet) override {
    const auto view = net::parse_udp_datagram(packet);
    if (view && view->payload.size() == expected_payload) {
      ++parsed;
    } else {
      ++bad;
    }
  }
};

struct FrameSource {
  sim::Simulator* sim = nullptr;
  net::PacketSink* ingress = nullptr;
  net::DatagramAddress address;
  std::vector<std::uint8_t> payload;
  std::uint64_t remaining = 0;
  Duration gap;

  void send() {
    if (remaining == 0) return;
    --remaining;
    ingress->deliver(net::make_udp_datagram(address, payload));
    sim->after(gap, [this]() { send(); });
  }
};

/// make_udp_datagram -> EthernetSwitch -> Wire -> parse_udp_datagram at
/// the workload's request size.
Pass frame_pass(std::uint64_t frames,
                const std::vector<std::uint8_t>& payload) {
  sim::Simulator sim;
  net::EthernetSwitch fabric(sim, Duration::nanos(300));
  ParsingSink sink;
  sink.expected_payload = payload.size();
  const net::MacAddress src_mac = net::MacAddress::from_index(1);
  const net::MacAddress dst_mac = net::MacAddress::from_index(2);
  fabric.attach(dst_mac, sink, Duration::nanos(500), 10.0);

  FrameSource source;
  source.sim = &sim;
  source.ingress = &fabric.ingress();
  source.address =
      net::DatagramAddress{src_mac, dst_mac, net::Ipv4Address::from_index(1),
                           net::Ipv4Address::from_index(2), 1111, 2222};
  source.payload = payload;
  source.remaining = frames;
  source.gap = Duration::nanos(150);
  sim.defer([&source]() { source.send(); });

  const auto start = Clock::now();
  sim.run();
  Pass p{sink.parsed, since(start), {}};
  if (sink.parsed != frames || sink.bad != 0) {
    p.error = "frames parsed != frames sent";
  }
  return p;
}

// ---- proto -----------------------------------------------------------------

proto::RequestDescriptor sample_descriptor(sim::Rng& rng) {
  proto::RequestDescriptor d;
  d.request_id = rng.engine()();
  d.client_id = static_cast<std::uint32_t>(rng.engine()());
  d.kind = 1;
  d.remaining_ps = rng.engine()() >> 20;
  d.total_ps = d.remaining_ps + 1000;
  d.preempt_count = 2;
  d.queue_depth = 7;
  d.client_mac = net::MacAddress::from_index(3);
  d.client_ip = net::Ipv4Address::from_index(3);
  d.client_port = 4242;
  return d;
}

/// Serialize-then-parse round trips of `message`, bumping `vary` each time
/// so no iteration repeats the previous one's bytes.
template <typename Message, typename Vary, typename Serialize, typename Parse>
Pass codec_pass(std::uint64_t trips, Message message, Vary vary,
                Serialize serialize, Parse parse) {
  std::vector<std::uint8_t>& scratch = proto::serialization_scratch();
  std::uint64_t matched = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < trips; ++i) {
    vary(message, i);
    serialize(message, scratch);
    const std::optional<Message> back = parse(scratch);
    if (back && *back == message) ++matched;
  }
  Pass p{trips, since(start), {}};
  if (matched != trips) p.error = "a codec round trip changed its input";
  return p;
}

std::vector<KernelResult> codec_kernels(std::uint64_t trips,
                                        std::uint16_t padding) {
  using proto::MessageType;
  std::vector<KernelResult> out;
  sim::Rng rng(7);

  proto::RequestMessage request;
  request.client_id = 9;
  request.work_ps = 1'000'000;
  request.padding = padding;
  out.push_back(measure("proto.ns_per_codec.request", [&]() {
    return codec_pass(
        trips, request,
        [](proto::RequestMessage& m, std::uint64_t i) { m.request_id = i; },
        [](const proto::RequestMessage& m, std::vector<std::uint8_t>& b) {
          m.serialize_into(b);
        },
        [](const std::vector<std::uint8_t>& b) {
          return proto::RequestMessage::parse(b);
        });
  }));

  proto::ResponseMessage response;
  response.client_id = 9;
  response.queue_depth = 3;
  const auto response_codec = [&](const std::string& metric,
                                  proto::ResponseMessage base) {
    out.push_back(measure(metric, [&]() {
      return codec_pass(
          trips, base,
          [](proto::ResponseMessage& m, std::uint64_t i) { m.request_id = i; },
          [](const proto::ResponseMessage& m, std::vector<std::uint8_t>& b) {
            m.serialize_into(b);
          },
          [](const std::vector<std::uint8_t>& b) {
            return proto::ResponseMessage::parse(b);
          });
    }));
  };
  response_codec("proto.ns_per_codec.response", response);
  response.has_sojourn = true;  // piggybacked load feedback: a v2 frame
  response.sojourn_ps = 1'500'000;
  response_codec("proto.ns_per_codec.response_v2", response);

  proto::SequencedAssignment assignment;
  assignment.descriptor = sample_descriptor(rng);
  out.push_back(measure("proto.ns_per_codec.sequenced_assignment", [&]() {
    return codec_pass(
        trips, assignment,
        [](proto::SequencedAssignment& m, std::uint64_t i) { m.seq = i; },
        [](const proto::SequencedAssignment& m, std::vector<std::uint8_t>& b) {
          m.serialize_into(b);
        },
        [](const std::vector<std::uint8_t>& b) {
          return proto::SequencedAssignment::parse(b);
        });
  }));

  proto::AckMessage ack;
  ack.worker_id = 2;
  out.push_back(measure("proto.ns_per_codec.ack", [&]() {
    return codec_pass(
        trips, ack, [](proto::AckMessage& m, std::uint64_t i) { m.seq = i; },
        [](const proto::AckMessage& m, std::vector<std::uint8_t>& b) {
          m.serialize_into(MessageType::kDispatchAck, b);
        },
        [](const std::vector<std::uint8_t>& b) {
          return proto::AckMessage::parse(b, MessageType::kDispatchAck);
        });
  }));

  proto::CompletionMessage completion;
  completion.worker_id = 1;
  completion.has_sojourn = true;
  completion.sojourn_ps = 2'000'000;
  out.push_back(measure("proto.ns_per_codec.completion", [&]() {
    return codec_pass(
        trips, completion,
        [](proto::CompletionMessage& m, std::uint64_t i) { m.request_id = i; },
        [](const proto::CompletionMessage& m, std::vector<std::uint8_t>& b) {
          m.serialize_into(b);
        },
        [](const std::vector<std::uint8_t>& b) {
          return proto::CompletionMessage::parse(b);
        });
  }));
  return out;
}

// ---- hw --------------------------------------------------------------------

hw::CpuCore::Config worker_core() {
  hw::CpuCore::Config config;
  config.name = "worker";
  return config;
}

/// Back-to-back requests on one worker core: each arms the APIC slice timer,
/// runs to completion inside the slice, and cancels the timer.
struct TaskLoop {
  sim::Simulator* sim = nullptr;
  hw::CpuCore* core = nullptr;
  hw::ApicTimer* timer = nullptr;
  Duration work;
  Duration slice;
  std::uint64_t remaining = 0;
  std::uint64_t preempted = 0;

  void next() {
    if (remaining == 0) return;
    --remaining;
    core->run_preemptible(work, [this]() {
      timer->cancel();
      next();
    });
    timer->arm(slice, [this](Duration) { ++preempted; });
  }
};

Pass task_pass(std::uint64_t tasks, Duration work, Duration slice) {
  sim::Simulator sim;
  hw::CpuCore core(sim, worker_core());
  hw::ApicTimer timer(sim, core, hw::TimerCosts::dune());
  TaskLoop loop{&sim, &core, &timer, work, slice, tasks, 0};
  const auto start = Clock::now();
  sim.defer([&loop]() { loop.next(); });
  sim.run();
  Pass p{core.stats().tasks_completed, since(start), {}};
  if (p.ops != tasks || loop.preempted != 0 || timer.fired_count() != 0) {
    p.error = "a task did not complete inside its slice";
  }
  return p;
}

/// One long task sliced by the APIC timer: every expiry interrupts the core
/// and the handler resumes the remaining work with a re-armed timer.
struct PreemptLoop {
  hw::CpuCore* core = nullptr;
  hw::ApicTimer* timer = nullptr;
  Duration slice;
  std::uint64_t preemptions = 0;
  bool completed = false;

  void resume(Duration remaining) {
    core->run_preemptible(remaining, [this]() {
      timer->cancel();
      completed = true;
    });
    timer->arm(slice, [this](Duration left) {
      ++preemptions;
      resume(left);
    });
  }
};

Pass preemption_pass(std::uint64_t preemptions, Duration slice) {
  sim::Simulator sim;
  hw::CpuCore core(sim, worker_core());
  hw::ApicTimer timer(sim, core, hw::TimerCosts::dune());
  PreemptLoop loop{&core, &timer, slice, 0, false};
  // Half a slice past `preemptions` full slices: exactly that many expiries.
  const Duration work =
      slice * static_cast<std::int64_t>(preemptions) + slice / 2;
  const auto start = Clock::now();
  sim.defer([&loop, work]() { loop.resume(work); });
  sim.run();
  Pass p{loop.preemptions, since(start), {}};
  if (!loop.completed || loop.preemptions != preemptions ||
      core.stats().tasks_interrupted != preemptions) {
    p.error = "preemption count mismatch";
  }
  return p;
}

// ---- core ------------------------------------------------------------------

/// TaskQueue push, pop and requeue at a steady depth: every third popped
/// request goes back as preempted, the rest are replaced by new ones.
Pass task_queue_pass(std::uint64_t pops) {
  constexpr std::uint64_t kDepth = 32;
  core::TaskQueue queue;
  std::uint64_t next_id = 0;
  std::uint64_t pushed_ids = 0;
  std::uint64_t popped_ids = 0;
  std::uint64_t pushes = 0;
  proto::RequestDescriptor d;
  d.remaining_ps = 5'000'000;
  const auto push_new = [&]() {
    d.request_id = next_id++;
    pushed_ids += d.request_id;
    queue.push_new(d);
    ++pushes;
  };
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kDepth; ++i) push_new();
  for (std::uint64_t i = 0; i < pops; ++i) {
    std::optional<proto::RequestDescriptor> head = queue.pop();
    if (!head) break;
    if (i % 3 == 0) {
      head->remaining_ps /= 2;
      queue.push_preempted(std::move(*head));
      ++pushes;
    } else {
      popped_ids += head->request_id;
      push_new();
    }
  }
  while (std::optional<proto::RequestDescriptor> head = queue.pop()) {
    popped_ids += head->request_id;
  }
  Pass p{pushes + pops + kDepth, since(start), {}};
  const core::TaskQueue::Stats& s = queue.stats();
  if (popped_ids != pushed_ids || s.dequeued != pops + kDepth ||
      s.enqueued_new + s.enqueued_preempted != pushes) {
    p.error = "task queue lost or duplicated a request";
  }
  return p;
}

// ---- workload and stats ----------------------------------------------------

Pass request_gen_pass(std::uint64_t requests, double rate_rps,
                      workload::ServiceDistribution& service) {
  workload::PoissonArrivals arrivals(rate_rps);
  sim::Rng rng(11);
  Duration gaps;
  Duration work;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < requests; ++i) {
    gaps += arrivals.next_gap(rng);
    work += service.sample(rng).work;
  }
  Pass p{requests, since(start), {}};
  const double n = static_cast<double>(requests);
  const double mean_gap_ns = gaps.to_nanos() / n;
  const double mean_work_ns = work.to_nanos() / n;
  // Ten standard errors of an exponential mean, plus 5 % for heavy-tailed
  // service mixes: loose enough never to trip on a correct generator, tight
  // enough to catch a wrong rate or distribution.
  const double tolerance = 0.05 + 10.0 / std::sqrt(n);
  if (std::abs(mean_gap_ns * rate_rps / 1e9 - 1.0) > tolerance ||
      std::abs(mean_work_ns / service.mean().to_nanos() - 1.0) > tolerance) {
    p.error = "generated arrivals or service times miss their means";
  }
  return p;
}

Pass record_pass(std::uint64_t records) {
  stats::LatencyRecorder recorder;
  recorder.set_window(sim::TimePoint::origin(),
                      sim::TimePoint::origin() + Duration::seconds(1000));
  workload::ResponseRecord r;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < records; ++i) {
    r.request_id = i;
    r.kind = static_cast<std::uint16_t>(i & 1);
    r.sent_at = sim::TimePoint::origin() +
                Duration::nanos(static_cast<std::int64_t>(i * 100));
    r.received_at =
        r.sent_at + Duration::nanos(static_cast<std::int64_t>(2000 + i % 997));
    recorder.record(r);
  }
  Pass p{records, since(start), {}};
  if (recorder.completed_in_window() != records ||
      recorder.overall().count() != records) {
    p.error = "recorder lost samples";
  }
  return p;
}

}  // namespace

std::vector<KernelResult> run_kernels(const Workload& workload, double scale) {
  std::vector<KernelResult> out;
  if (net::checksum_elision_enabled()) {
    KernelResult broken;
    broken.metric = "net.ns_per_frame";
    broken.error = "checksum elision is on";
    out.push_back(broken);
    return out;
  }
  out.push_back(measure("sim.ns_per_event", [&]() {
    return event_pass(scaled(1'000'000, scale));
  }));
  out.push_back(measure("sim.ns_per_cancel_cycle", [&]() {
    return cancel_pass(scaled(400'000, scale));
  }));

  proto::RequestMessage request;
  request.padding = workload.request_padding;
  const std::vector<std::uint8_t> payload = request.serialize();
  out.push_back(measure("net.ns_per_frame", [&]() {
    return frame_pass(scaled(150'000, scale), payload);
  }));

  for (KernelResult& codec :
       codec_kernels(scaled(1'000'000, scale), workload.request_padding)) {
    out.push_back(std::move(codec));
  }

  // A service time that always fits inside the slice for the task kernel.
  const Duration task_work = std::min(workload.service->mean(),
                                      workload.time_slice / 2);
  out.push_back(measure("hw.ns_per_task", [&]() {
    return task_pass(scaled(200'000, scale), task_work, workload.time_slice);
  }));
  out.push_back(measure("hw.ns_per_preemption", [&]() {
    return preemption_pass(scaled(200'000, scale), workload.time_slice);
  }));
  out.push_back(measure("core.task_queue.ns_per_op", [&]() {
    return task_queue_pass(scaled(500'000, scale));
  }));
  out.push_back(measure("workload.ns_per_request_gen", [&]() {
    return request_gen_pass(scaled(1'000'000, scale),
                            workload.client_rate_rps, *workload.service);
  }));
  out.push_back(measure("stats.ns_per_record", [&]() {
    return record_pass(scaled(1'000'000, scale));
  }));
  return out;
}

}  // namespace nicsched::perfbench
