// The benchmark's workloads. Every client is open-loop Poisson in simulated
// time, so the generator is never late; every run uses the serial engine
// (the program's default) and crosses no real link.
#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "bench.h"
#include "core/cluster.h"
#include "sim/shard.h"

namespace nicsched::perfbench {

namespace {

using sim::Duration;

/// Figure 3/6 operating point, once per family: 4 workers, K=4, fixed 1 us
/// service, no preemption, 800 kRPS from 4x64 flows. Per-request framework
/// cost (events, frames, codec, dispatch logic) dominates host time.
Workload families_1us(std::uint64_t seed) {
  Workload w;
  w.name = "families_1us";
  const core::SystemKind kinds[] = {
      core::SystemKind::kShinjuku, core::SystemKind::kShinjukuOffload,
      core::SystemKind::kRss, core::SystemKind::kIdealNic,
      core::SystemKind::kRain};
  for (core::SystemKind kind : kinds) {
    auto config = core::ExperimentConfig::of(kind)
                      .workers(4)
                      .outstanding(4)
                      .fixed(Duration::micros(1))
                      .no_preemption()
                      .load(800e3)
                      .clients(4, 64)
                      .measure_for(Duration::millis(20))
                      .with_seed(seed);
    config.warmup = Duration::millis(2);
    config.drain = Duration::millis(2);
    w.configs.push_back(config);
    w.families.emplace_back(core::to_string(kind));
  }
  w.service = w.configs.front().service;
  w.time_slice = w.configs.front().time_slice;
  w.client_rate_rps = 800e3 / 4;
  return w;
}

/// Section 2.2's high-dispersion regime on host Shinjuku: 3 workers, a
/// 10 us slice, 95 % x 1 us + 5 % x 100 us at 300 kRPS (about 60 % load).
/// Preemption and requeueing do the work; the net layer does little. The
/// tail depends on how the rare long requests bunch up, so one repetition
/// pools several sub-seeds to keep it steady from one seed to the next.
Workload dispersion_shinjuku(std::uint64_t seed) {
  constexpr std::uint64_t kSubRuns = 16;
  Workload w;
  w.name = "dispersion_shinjuku";
  for (std::uint64_t sub = 0; sub < kSubRuns; ++sub) {
    auto config = core::ExperimentConfig::shinjuku()
                      .workers(3)
                      .slice(Duration::micros(10))
                      .bimodal(Duration::micros(1), Duration::micros(100), 0.05)
                      .load(300e3)
                      .clients(4, 64)
                      .measure_for(Duration::millis(100))
                      .with_seed(seed * kSubRuns + sub);
    config.warmup = Duration::millis(5);
    config.drain = Duration::millis(3);
    w.configs.push_back(config);
    w.families.emplace_back(core::to_string(config.system));
  }
  const auto& first = w.configs.front();
  w.service = first.service;
  w.time_slice = first.time_slice;
  w.client_rate_rps = 300e3 / 4;
  return w;
}

/// Four offload hosts (4 workers, K=4) behind a power-of-two-choices ToR,
/// with reliable dispatch, failover, hedging, a seeded chaos storm, overload
/// control, and two tenants (latency-critical fixed 5 us at weight 4,
/// best-effort bimodal at weight 1), at about 60 % of rack worker capacity.
/// Storm effects vary a lot from one chaos seed to the next, so a repetition
/// runs a fixed set of short storms, one per sub-run: the storms are part of
/// the workload, and the seed varies the traffic that meets them.
Workload rack_chaos(std::uint64_t seed) {
  constexpr std::uint64_t kSubRuns = 48;
  Workload w;
  w.name = "rack_chaos";
  w.rack = true;
  overload::OverloadParams over;
  over.enabled = true;
  over.deadline = Duration::micros(400);
  over.retry_budget = 2;
  over.retry_timeout = Duration::micros(150);
  for (std::uint64_t sub = 0; sub < kSubRuns; ++sub) {
    const std::uint64_t sub_seed = seed * kSubRuns + sub;
    auto config =
        core::ExperimentConfig::offload()
            .workers(4)
            .outstanding(4)
            .load(1.9e6)
            .clients(4, 64)
            .measure_for(Duration::millis(2))
            .with_seed(sub_seed)
            .with_rack(4, rack::TorPolicy::kPowerOfTwo)
            .with_failover()
            .with_hedging()
            .reliable()
            .with_chaos(sub * 131 + 7)
            .with_overload(over)
            .with_tenants(
                {tenant::make_tenant(1)
                     .named("lc")
                     .weighted(4)
                     .slo_class(tenant::SloClass::kLatencyCritical)
                     .fixed(Duration::micros(5)),
                 tenant::make_tenant(2)
                     .named("be")
                     .weighted(1)
                     .slo_class(tenant::SloClass::kBestEffort)
                     .bimodal(Duration::micros(5), Duration::micros(100),
                              0.005)});
    config.warmup = Duration::micros(500);
    config.drain = Duration::micros(1500);
    w.configs.push_back(config);
    w.families.emplace_back(core::to_string(config.system));
  }
  // Kernel shapes follow the latency-critical tenant: 4 of 5 weight units
  // of the offered load, spread over its 4 client machines.
  const auto& first = w.configs.front();
  w.service = first.tenants.front().service;
  w.time_slice = first.time_slice;
  w.client_rate_rps = first.offered_rps * 4.0 / 5.0 / 4.0;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "families_1us", "dispersion_shinjuku", "rack_chaos"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "families_1us") {
    w = families_1us(seed);
  } else if (name == "dispersion_shinjuku") {
    w = dispersion_shinjuku(seed);
  } else if (name == "rack_chaos") {
    w = rack_chaos(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.request_padding = w.configs.front().request_padding;
  return w;
}

double time_topology_build(const core::ExperimentConfig& config) {
  // Mirrors run_experiment's build stage with a clean environment: explicit
  // overload knobs or defaults, and TorParams from the RackConfig fields.
  core::ExperimentConfig resolved = config;
  if (!resolved.overload) resolved.overload = overload::OverloadParams{};
  if (!resolved.feedback_staleness) {
    resolved.feedback_staleness = Duration::zero();
  }
  const bool rack_mode = resolved.rack && resolved.rack->hosts > 1;

  sim::ShardGroup group(1);
  const auto start = std::chrono::steady_clock::now();
  core::ClusterBuilder builder(group);
  builder.switch_latency(resolved.params.switch_forward_latency);
  const core::HostSpec spec = core::HostSpec::from_config(resolved);
  if (rack_mode) {
    rack::TorParams tor;
    if (resolved.rack->tor) {
      tor = *resolved.rack->tor;
    } else {
      tor.policy = resolved.rack->policy;
      tor.failover = resolved.rack->failover;
      tor.hedge = resolved.rack->hedge;
      if (!resolved.feedback_staleness->is_zero()) {
        tor.feedback_stale_after = *resolved.feedback_staleness;
      }
    }
    builder.with_rack(tor);
    for (std::size_t i = 0; i < resolved.rack->hosts; ++i) {
      builder.add_host(spec);
    }
  } else {
    builder.add_host(spec);
  }
  core::Cluster cluster = builder.build();
  const auto end = std::chrono::steady_clock::now();
  if (cluster.host_count() == 0) throw std::logic_error("empty cluster");
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace nicsched::perfbench
