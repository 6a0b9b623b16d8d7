// Determinism regression: for 3 seeds x 4 server kinds, the full observable
// output of a run — every response record, every span, and the ServerStats
// counters — is hashed into one digest and compared against golden values
// recorded at the pre-fast-path (shared_ptr EventQueue, per-frame-allocating
// packet path) implementation. The slab event queue, the packet-buffer pool,
// and checksum elision must all reproduce these digests bit for bit.
//
// A second table pins the dispatch-core paths the first one never reaches:
// rain and rpcvalet, reliable dispatch under loss and crashes, overload with
// tenants, hedged and p2c racks, every fault-surface hook, and the
// run-to-completion policies. Those digests also hash every reliability,
// overload, cancel, and tenant counter.
//
// Regenerate goldens (only legitimate after a change that intentionally
// alters modelled behaviour, never for a perf change):
//   NICSCHED_PRINT_GOLDEN=1 ./build/tests/sim_determinism_test
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include <gtest/gtest.h>

#include <bit>

#include "core/testbed.h"
#include "fault/fault_schedule.h"
#include "net/packet.h"
#include "obs/capture.h"
#include "stats/response_log.h"

namespace nicsched {
namespace {

class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ULL;  // FNV-1a 64
    }
  }
  void add_signed(std::int64_t value) {
    add(static_cast<std::uint64_t>(value));
  }
  void add_double(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

void hash_lifecycles(Digest& digest,
                     const std::vector<obs::RequestLifecycle>& lifecycles) {
  digest.add(lifecycles.size());
  for (const auto& lifecycle : lifecycles) {
    digest.add(lifecycle.request_id);
    digest.add(lifecycle.complete ? 1 : 0);
    digest.add(lifecycle.spans.size());
    for (const auto& span : lifecycle.spans) {
      digest.add(static_cast<std::uint64_t>(span.kind));
      digest.add(span.component);
      digest.add_signed(span.begin.to_picos());
      digest.add_signed(span.end.to_picos());
    }
  }
}

/// The determinism run: 2 workers, K=2, the 5us/100us bimodal (which
/// exercises preemption and requeue), 2 ms measured between 1 ms phases.
core::ExperimentConfig bimodal_config(core::SystemKind kind,
                                      std::uint64_t seed) {
  obs::CaptureOptions capture;
  capture.enabled = true;
  capture.spans = true;
  capture.metric_cadence = sim::Duration::zero();  // spans only
  capture.label = "determinism";

  auto config = core::ExperimentConfig::of(kind)
                    .workers(2)
                    .outstanding(2)
                    .bimodal()
                    .load(150e3)
                    .clients(2, 16)
                    .measure_for(sim::Duration::millis(2))
                    .with_seed(seed)
                    .with_capture(capture);
  config.warmup = sim::Duration::millis(1);
  config.drain = sim::Duration::millis(1);
  return config;
}

/// Response log (every in-window record, every field) and span streams
/// (completed and truncated lifecycles, in recorder order).
void hash_log_and_spans(Digest& digest, const stats::ResponseLog& log,
                        const core::ExperimentResult& result) {
  digest.add(log.seen());
  for (const auto& r : log.records()) {
    digest.add(r.request_id);
    digest.add(r.kind);
    digest.add(r.preempt_count);
    digest.add_signed(r.sent_at.to_picos());
    digest.add_signed(r.received_at.to_picos());
    digest.add_signed(r.work.to_picos());
  }
  if (result.capture) {
    hash_lifecycles(digest, result.capture->spans().completed());
    hash_lifecycles(digest, result.capture->spans().incomplete());
    digest.add(result.capture->spans().violations());
  }
}

std::uint64_t run_digest(core::SystemKind kind, std::uint64_t seed) {
  stats::ResponseLog log;
  auto config = bimodal_config(kind, seed);
  config.response_log = &log;

  const core::ExperimentResult result = core::run_experiment(config);

  Digest digest;
  hash_log_and_spans(digest, log, result);
  // Server counters.
  const core::ServerStats& s = result.server;
  digest.add(s.requests_received);
  digest.add(s.responses_sent);
  digest.add(s.preemptions);
  digest.add(s.spurious_interrupts);
  digest.add(s.steals);
  digest.add(s.drops);
  digest.add(s.queue_max_depth);
  for (double u : s.worker_utilization) digest.add_double(u);
  digest.add(s.ddio.l1_touches);
  digest.add(s.ddio.llc_touches);
  digest.add(s.ddio.dram_touches);
  digest.add(s.reliability.retransmits);
  digest.add(s.reliability.abandoned);
  return digest.value();
}

struct Golden {
  core::SystemKind kind;
  std::uint64_t seed;
  std::uint64_t digest;
};

// Recorded at the seed implementation (PR 3 tree: weak_ptr EventQueue,
// per-frame allocations, always-verify checksums) — see header comment.
const Golden kGoldens[] = {
    {core::SystemKind::kShinjuku, 1, 0x60c08ff1cc40f049ULL},
    {core::SystemKind::kShinjuku, 2, 0xd50f92db774edff6ULL},
    {core::SystemKind::kShinjuku, 3, 0xcce6907a2752b602ULL},
    {core::SystemKind::kShinjukuOffload, 1, 0x457d12fa6596f1a8ULL},
    {core::SystemKind::kShinjukuOffload, 2, 0xc09c47c4962ff9daULL},
    {core::SystemKind::kShinjukuOffload, 3, 0x7e018d2725d7a171ULL},
    {core::SystemKind::kRss, 1, 0xfc314144d2f2aaf3ULL},
    {core::SystemKind::kRss, 2, 0xaad73592be769783ULL},
    {core::SystemKind::kRss, 3, 0xdc04f4c9c72a59c7ULL},
    {core::SystemKind::kIdealNic, 1, 0x13be2ff67a0b9d70ULL},
    {core::SystemKind::kIdealNic, 2, 0x9b0ee4ade6aee287ULL},
    {core::SystemKind::kIdealNic, 3, 0x507fe88b06cf7f47ULL},
};

TEST(SimDeterminism, BitIdenticalToPreFastPathGoldens) {
  const bool print = std::getenv("NICSCHED_PRINT_GOLDEN") != nullptr;
  for (const Golden& golden : kGoldens) {
    const std::uint64_t digest = run_digest(golden.kind, golden.seed);
    if (print) {
      std::printf("    {core::SystemKind::k%s, %llu, 0x%llxULL},\n",
                  golden.kind == core::SystemKind::kShinjuku ? "Shinjuku"
                  : golden.kind == core::SystemKind::kShinjukuOffload
                      ? "ShinjukuOffload"
                  : golden.kind == core::SystemKind::kRss ? "Rss"
                                                          : "IdealNic",
                  static_cast<unsigned long long>(golden.seed),
                  static_cast<unsigned long long>(digest));
      continue;
    }
    EXPECT_EQ(digest, golden.digest)
        << "kind=" << core::to_string(golden.kind) << " seed=" << golden.seed;
  }
  if (print) GTEST_SKIP() << "golden print mode";
}

void hash_overload(Digest& digest, const overload::OverloadStats& o) {
  digest.add(o.admitted);
  digest.add(o.rejected);
  digest.add(o.shed_expired);
  digest.add(o.k_shrinks);
  digest.add(o.k_restores);
}

/// Every ServerStats field, including the reliability, overload, cancel, and
/// tenant counters the first golden table leaves out.
void hash_server(Digest& digest, const core::ServerStats& s) {
  digest.add(s.requests_received);
  digest.add(s.responses_sent);
  digest.add(s.preemptions);
  digest.add(s.spurious_interrupts);
  digest.add(s.steals);
  digest.add(s.drops);
  digest.add(s.cancelled);
  digest.add(s.queue_max_depth);
  digest.add(s.worker_utilization.size());
  for (double u : s.worker_utilization) digest.add_double(u);
  digest.add(s.ddio.l1_touches);
  digest.add(s.ddio.llc_touches);
  digest.add(s.ddio.dram_touches);
  const core::ReliabilityStats& r = s.reliability;
  digest.add(r.retransmits);
  digest.add(r.note_retransmits);
  digest.add(r.timeouts);
  digest.add(r.redispatched);
  digest.add(r.abandoned);
  digest.add(r.duplicates);
  digest.add(r.worker_deaths);
  digest.add(r.revivals);
  digest.add(r.loss_injections_ignored);
  hash_overload(digest, s.overload);
  digest.add(s.tenants.size());
  for (const tenant::TenantStats& t : s.tenants) {
    digest.add(t.id);
    digest.add(t.enqueued);
    digest.add(t.dispatched);
    digest.add(t.max_depth);
    hash_overload(digest, t.overload);
  }
}

void hash_clients(Digest& digest,
                  const core::ExperimentResult::ClientTotals& c) {
  digest.add(c.sent);
  digest.add(c.completed);
  digest.add(c.goodput);
  digest.add(c.rejected);
  digest.add(c.expired);
  digest.add(c.abandoned);
  digest.add(c.outstanding);
  digest.add(c.retries);
  digest.add(c.duplicates);
}

/// One run, fully hashed: log, spans, every server counter (per host in a
/// rack), the client totals, and the per-tenant client rows.
std::uint64_t full_digest(core::ExperimentConfig config,
                          core::ExperimentResult* out = nullptr) {
  stats::ResponseLog log;
  config.response_log = &log;
  core::ExperimentResult result = core::run_experiment(config);

  Digest digest;
  hash_log_and_spans(digest, log, result);
  hash_server(digest, result.server);
  digest.add(result.rack_hosts.size());
  for (const core::ServerStats& host : result.rack_hosts) {
    hash_server(digest, host);
  }
  hash_clients(digest, result.clients);
  digest.add(result.tenants.size());
  for (const auto& row : result.tenants) hash_clients(digest, row.clients);
  if (out != nullptr) *out = std::move(result);
  return digest.value();
}

sim::TimePoint at_us(std::int64_t us) {
  return sim::TimePoint::origin() + sim::Duration::micros(us);
}

/// Reliable dispatch under a dispatch-loss window, then worker 1 crashes for
/// longer than the completion watchdog and resumes: retransmit, abandon and
/// un-abandon, declare-dead with re-steer, and revival.
core::ExperimentConfig faulted_config(core::SystemKind kind) {
  fault::FaultSchedule schedule;
  schedule.with_seed(17)
      .dispatch_loss(at_us(1000), at_us(2800), 0.3)
      .crash_worker(at_us(3000), 1)
      .resume_worker(at_us(3800), 1);
  return bimodal_config(kind, 4)
      .measure_for(sim::Duration::millis(4))
      .reliable()
      .with_faults(schedule);
}

/// Reliable dispatch with a crash only: on shinjuku the completion watchdog
/// is the whole ledger.
core::ExperimentConfig crashed_config(core::SystemKind kind) {
  fault::FaultSchedule schedule;
  schedule.crash_worker(at_us(2000), 1).resume_worker(at_us(2700), 1);
  return bimodal_config(kind, 4).reliable().with_faults(schedule);
}

/// Admission, shedding, and adaptive-K at 1.4x capacity, split across a
/// latency-critical and a best-effort tenant.
core::ExperimentConfig overload_config(core::SystemKind kind) {
  overload::OverloadParams knobs;
  knobs.enabled = true;
  knobs.k_shrink_limit = sim::Duration::micros(2);
  knobs.k_restore_limit = sim::Duration::micros(1);
  return bimodal_config(kind, 5).load(500e3).with_overload(knobs).with_tenants(
      {tenant::make_tenant(1)
           .named("lc")
           .weighted(4)
           .slo_class(tenant::SloClass::kLatencyCritical)
           .load(150e3),
       tenant::make_tenant(2)
           .named("be")
           .slo_class(tenant::SloClass::kBestEffort)
           .load(350e3)});
}

/// Four hosts behind a round-robin ToR with hedging. Hedges go out only once
/// a host falls silent, so both workers of host 1 freeze for a while; its
/// dispatcher keeps queueing its share, and the losing copies' kCancel
/// frames land in that queue.
core::ExperimentConfig hedged_rack_config(core::SystemKind kind) {
  fault::FaultSchedule schedule;
  for (std::uint32_t worker = 0; worker < 2; ++worker) {
    schedule.crash_worker_on(1, at_us(1500), worker)
        .resume_worker_on(1, at_us(2300), worker);
  }
  return bimodal_config(kind, 6)
      .load(600e3)
      .with_rack(4, rack::TorPolicy::kRoundRobin)
      .with_hedging()
      .with_faults(schedule);
}

/// Four workers under one schedule that reaches every hook of a server's
/// fault surface: ingress loss, dispatch loss, ingress degrade, and a worker
/// stall, crash and resume.
core::ExperimentConfig worker_faults_config(core::SystemKind kind) {
  fault::FaultSchedule schedule;
  schedule.with_seed(23)
      .ingress_loss(at_us(1200), at_us(1600), 0.05)
      .dispatch_loss(at_us(1300), at_us(1700), 0.05)
      .degrade_ingress(at_us(2500), at_us(2800), 4.0)
      .stall_worker(at_us(1500), 1, sim::Duration::micros(200))
      .crash_worker(at_us(2000), 2)
      .resume_worker(at_us(2400), 2);
  return bimodal_config(kind, 7).workers(4).with_faults(schedule);
}

/// Four hosts behind a power-of-two-choices ToR, which steers on the
/// sojourn every family echoes on its responses.
core::ExperimentConfig p2c_rack_config(core::SystemKind kind) {
  return bimodal_config(kind, 8).load(600e3).with_rack(
      4, rack::TorPolicy::kPowerOfTwo);
}

struct Scenario {
  const char* name;
  std::function<core::ExperimentConfig()> make;
  /// The paths the scenario exists to pin must actually run, or the golden
  /// would guard nothing.
  std::function<bool(const core::ServerStats&)> exercised;
  std::uint64_t digest;
};

using core::SystemKind;

bool any(const core::ServerStats&) { return true; }
bool recovered(const core::ServerStats& s) {
  return s.reliability.retransmits > 0 && s.reliability.redispatched > 0 &&
         s.reliability.revivals > 0;
}
bool watchdog_fired(const core::ServerStats& s) {
  return s.reliability.worker_deaths > 0 && s.reliability.revivals > 0;
}
bool overloaded(const core::ServerStats& s) {
  return s.overload.rejected > 0 && s.overload.shed_expired > 0 &&
         s.tenants.size() == 2;
}
bool shrank_k(const core::ServerStats& s) {
  return overloaded(s) && s.overload.k_shrinks > 0;
}
bool cancelled(const core::ServerStats& s) { return s.cancelled > 0; }

// Recorded before the per-family dispatch code was merged into one NIC
// scheduler server, one central queue, and one dispatch ledger.
const Scenario kScenarios[] = {
    {"rain/bimodal/1", [] { return bimodal_config(SystemKind::kRain, 1); },
     any, 0x19c1791b57ba05ecULL},
    {"rain/bimodal/2", [] { return bimodal_config(SystemKind::kRain, 2); },
     any, 0x1929f6da0b009834ULL},
    {"rain/bimodal/3", [] { return bimodal_config(SystemKind::kRain, 3); },
     any, 0x28a6ec48259f987fULL},
    {"rpcvalet/bimodal/1",
     [] { return bimodal_config(SystemKind::kRpcValet, 1); }, any, 0x612078950b3333daULL},
    {"rpcvalet/bimodal/2",
     [] { return bimodal_config(SystemKind::kRpcValet, 2); }, any, 0x8130124443c6f770ULL},
    {"rpcvalet/bimodal/3",
     [] { return bimodal_config(SystemKind::kRpcValet, 3); }, any, 0x4e51d7e725a146ddULL},
    {"shinjuku-offload/faulted",
     [] { return faulted_config(SystemKind::kShinjukuOffload); },
     [](const core::ServerStats& s) {
       return recovered(s) && s.reliability.abandoned > 0;
     },
     0xa9224f8f76b68c4eULL},
    {"rain/faulted", [] { return faulted_config(SystemKind::kRain); },
     [](const core::ServerStats& s) {
       return recovered(s) && s.reliability.loss_injections_ignored > 0;
     },
     0xf342174f4dc2948cULL},
    {"shinjuku/crashed", [] { return crashed_config(SystemKind::kShinjuku); },
     watchdog_fired, 0xd2144f9a030d37ddULL},
    {"shinjuku/overload",
     [] { return overload_config(SystemKind::kShinjuku); }, overloaded,
     0x3899edbf62e2ebfbULL},
    {"shinjuku-offload/overload",
     [] { return overload_config(SystemKind::kShinjukuOffload); }, shrank_k,
     0xf17cc22df1ad2341ULL},
    {"ideal-nic/overload",
     [] { return overload_config(SystemKind::kIdealNic); }, overloaded,
     0x85776f57a73358daULL},
    {"rain/overload", [] { return overload_config(SystemKind::kRain); },
     shrank_k, 0xc58df0c8875fd718ULL},
    {"rain/overload-stale",
     [] {
       return overload_config(SystemKind::kRain)
           .with_feedback_staleness(sim::Duration::micros(20));
     },
     shrank_k, 0xed2e1edc997c3f3bULL},
    // Recorded once make_host_server passed the staleness knob to
    // shinjuku-offload hosts.
    {"shinjuku-offload/overload-stale",
     [] {
       return overload_config(SystemKind::kShinjukuOffload)
           .with_feedback_staleness(sim::Duration::micros(20));
     },
     shrank_k, 0x9f68d51f40bd2727ULL},
    {"shinjuku/hedged-rack",
     [] { return hedged_rack_config(SystemKind::kShinjuku); }, cancelled,
     0x4766954e68c71654ULL},
    {"shinjuku-offload/hedged-rack",
     [] { return hedged_rack_config(SystemKind::kShinjukuOffload); },
     cancelled, 0x6bfcd08d8766eab3ULL},
    {"ideal-nic/hedged-rack",
     [] { return hedged_rack_config(SystemKind::kIdealNic); }, cancelled,
     0x434e9a87f2f40c16ULL},
    {"rain/hedged-rack",
     [] { return hedged_rack_config(SystemKind::kRain); }, cancelled,
     0x28a6b10a47533112ULL},
    // Recorded before the four host families' workers, ingress and fault
    // surfaces were merged into one skeleton: run-to-completion policies,
    // multi-group shinjuku, offload's Linux timers, and every family's
    // sojourn echo under a p2c ToR.
    {"work-stealing/bimodal",
     [] { return bimodal_config(SystemKind::kWorkStealing, 1); },
     [](const core::ServerStats& s) { return s.steals > 0; },
     0xcd94b8802f7eacc4ULL},
    {"flow-director/bimodal",
     [] { return bimodal_config(SystemKind::kFlowDirector, 1); }, any,
     0xd731bf3c54fcb4ddULL},
    {"elastic-rss/bimodal",
     [] { return bimodal_config(SystemKind::kElasticRss, 1); }, any,
     0xbf745f09a08a51a1ULL},
    {"rss/overload", [] { return overload_config(SystemKind::kRss); },
     [](const core::ServerStats& s) {
       return s.overload.rejected > 0 && s.tenants.size() == 2;
     },
     0xec5d01413567150bULL},
    {"shinjuku/worker-faults",
     [] { return worker_faults_config(SystemKind::kShinjuku).dispatchers(2); },
     any, 0x42f600ae6bf6167bULL},
    {"shinjuku-offload/worker-faults",
     [] { return worker_faults_config(SystemKind::kShinjukuOffload); }, any,
     0xb0ee0d9562611b52ULL},
    {"ideal-nic/worker-faults",
     [] { return worker_faults_config(SystemKind::kIdealNic); },
     [](const core::ServerStats& s) {
       return s.reliability.loss_injections_ignored > 0;
     },
     0x704ac80d7a373c83ULL},
    {"rss/worker-faults",
     [] { return worker_faults_config(SystemKind::kRss); }, any,
     0x4c32157860d690deULL},
    {"shinjuku-offload/linux-timers",
     [] {
       return bimodal_config(SystemKind::kShinjukuOffload, 2)
           .timers(hw::TimerCosts::linux_signal())
           .senders(2)
           .place(hw::PlacementPolicy::kDdioL1);
     },
     any, 0xdb2751a208172e94ULL},
    {"shinjuku/p2c-rack", [] { return p2c_rack_config(SystemKind::kShinjuku); },
     any, 0x4b949df930774dddULL},
    {"shinjuku-offload/p2c-rack",
     [] { return p2c_rack_config(SystemKind::kShinjukuOffload); }, any,
     0xc85b7754a81a5b34ULL},
    {"rss/p2c-rack", [] { return p2c_rack_config(SystemKind::kRss); }, any,
     0x7a2ef67a968c3940ULL},
    {"ideal-nic/p2c-rack",
     [] { return p2c_rack_config(SystemKind::kIdealNic); }, any,
     0x544f0a68da579e5dULL},
    {"rain/p2c-rack", [] { return p2c_rack_config(SystemKind::kRain); }, any,
     0xac32e47277e4e191ULL},
};

TEST(SimDeterminism, DispatchCoreScenariosMatchGoldens) {
  const bool print = std::getenv("NICSCHED_PRINT_GOLDEN") != nullptr;
  for (const Scenario& scenario : kScenarios) {
    core::ExperimentResult result;
    const std::uint64_t digest = full_digest(scenario.make(), &result);
    EXPECT_TRUE(scenario.exercised(result.server)) << scenario.name;
    if (print) {
      std::printf("    {\"%s\", 0x%llxULL},\n", scenario.name,
                  static_cast<unsigned long long>(digest));
      continue;
    }
    EXPECT_EQ(digest, scenario.digest) << scenario.name;
  }
  if (print) GTEST_SKIP() << "golden print mode";
}

// Two identical runs in one process must agree exactly — catches any hidden
// global state (pool reuse order, static caches) leaking into results.
TEST(SimDeterminism, RepeatedRunsAgree) {
  const std::uint64_t first =
      run_digest(core::SystemKind::kShinjukuOffload, 7);
  const std::uint64_t second =
      run_digest(core::SystemKind::kShinjukuOffload, 7);
  EXPECT_EQ(first, second);
}

// Checksum elision must be invisible to modelled results: every frame the
// simulation builds carries a correct checksum, so skipping the verification
// can only change wall time, never behaviour. Guard with an RAII restore so
// a failing EXPECT can't leak elision into later tests.
TEST(SimDeterminism, ChecksumElisionIsInvisible) {
  struct Restore {
    ~Restore() { net::set_checksum_elision(false); }
  } restore;
  for (const auto kind :
       {core::SystemKind::kShinjuku, core::SystemKind::kShinjukuOffload}) {
    net::set_checksum_elision(false);
    const std::uint64_t verified = run_digest(kind, 5);
    net::set_checksum_elision(true);
    const std::uint64_t elided = run_digest(kind, 5);
    EXPECT_EQ(verified, elided) << "kind=" << core::to_string(kind);
  }
}

}  // namespace
}  // namespace nicsched
