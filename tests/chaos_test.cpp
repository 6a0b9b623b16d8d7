// The chaos tier (DESIGN §16): seed-derived composed fault storms — host
// crashes, link partitions, worker stalls/crashes, loss windows — sprayed
// across a failover rack running every server family, with overload control
// and the tenant layer active, checked for two properties:
//
//   * Conservation: at quiescence every issued request is accounted for
//     exactly once (sent == completed + rejected + expired + abandoned +
//     outstanding), no matter what the storm did to the rack mid-run.
//   * Replay: the same seed reproduces the run bit for bit, down to the
//     order in which responses reach the clients.
//
// The smoke tier (NICSCHED_FAST=1, the `chaos_smoke` ctest entry) keeps one
// seed; the full tier runs three.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/testbed.h"
#include "fault/chaos_schedule.h"
#include "fault/fault_schedule.h"
#include "rack/tor_scheduler.h"
#include "stats/response_log.h"
#include "tenant/tenant.h"

namespace nicsched {
namespace {

sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint::origin() + sim::Duration::millis(ms);
}

bool fast_mode() { return std::getenv("NICSCHED_FAST") != nullptr; }

std::vector<std::uint64_t> tier_seeds() {
  return fast_mode() ? std::vector<std::uint64_t>{11}
                     : std::vector<std::uint64_t>{11, 12, 13};
}

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
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// A 4-host failover+hedge rack under a chaos storm, with overload control
/// (deadlines + retries) and a two-tenant mix active — the kitchen-sink
/// configuration the tier is about.
core::ExperimentConfig chaos_config(core::SystemKind kind,
                                    std::uint64_t seed) {
  overload::OverloadParams over;
  over.enabled = true;
  over.deadline = sim::Duration::micros(400);
  over.retry_budget = 2;
  over.retry_timeout = sim::Duration::micros(150);

  auto config =
      core::ExperimentConfig::of(kind)
          .workers(2)
          .outstanding(2)
          .bimodal()  // 5us/100us: preemption + requeue traffic
          .load(200e3)
          .clients(2, 8)
          .measure_for(sim::Duration::millis(2))
          .with_seed(seed)
          .with_rack(4, rack::TorPolicy::kPowerOfTwo)
          .with_failover()
          .with_hedging()
          .with_chaos(seed * 131 + 7)
          .with_overload(over)
          .with_tenants({tenant::make_tenant(1).named("lc").weighted(4).slo_class(
                             tenant::SloClass::kLatencyCritical),
                         tenant::make_tenant(2).named("be")});
  config.warmup = sim::Duration::millis(1);
  config.drain = sim::Duration::millis(2);
  return config;
}

struct ChaosRun {
  std::uint64_t digest = 0;
  core::ExperimentResult result;
};

/// Runs one chaos point and hashes everything observable; also asserts the
/// conservation identity — the storm may cost requests (expired, abandoned,
/// rejected) but never lose track of one.
ChaosRun chaos_run(core::SystemKind kind, std::uint64_t seed) {
  stats::ResponseLog log;
  auto config = chaos_config(kind, seed);
  config.response_log = &log;

  ChaosRun run;
  run.result = core::run_experiment(config);

  const auto& ca = run.result.clients;
  EXPECT_EQ(ca.sent, ca.completed + ca.rejected + ca.expired + ca.abandoned +
                         ca.outstanding)
      << "conservation broken: kind=" << core::to_string(kind)
      << " seed=" << seed;
  EXPECT_GT(ca.completed, 0u);
  // Per-tenant conservation holds independently under the storm too.
  for (const auto& t : run.result.tenants) {
    const auto& tc = t.clients;
    EXPECT_EQ(tc.sent, tc.completed + tc.rejected + tc.expired + tc.abandoned +
                           tc.outstanding)
        << "tenant " << t.spec.id << " kind=" << core::to_string(kind)
        << " seed=" << seed;
  }

  Digest digest;
  digest.add(log.seen());
  for (const auto& r : log.records()) {
    digest.add(r.request_id);
    digest.add(r.kind);
    digest.add(r.preempt_count);
    digest.add_signed(r.sent_at.to_picos());
    digest.add_signed(r.received_at.to_picos());
    digest.add_signed(r.work.to_picos());
  }
  digest.add(ca.sent);
  digest.add(ca.completed);
  digest.add(ca.goodput);
  digest.add(ca.rejected);
  digest.add(ca.expired);
  digest.add(ca.abandoned);
  digest.add(ca.outstanding);
  digest.add(ca.retries);
  digest.add(ca.duplicates);
  const core::ServerStats& s = run.result.server;
  digest.add(s.requests_received);
  digest.add(s.responses_sent);
  digest.add(s.preemptions);
  digest.add(s.drops);
  digest.add(s.cancelled);
  digest.add(s.overload.admitted);
  digest.add(s.overload.rejected);
  digest.add(s.overload.shed_expired);
  if (run.result.rack) {
    const rack::RackStats& r = *run.result.rack;
    digest.add(r.requests_forwarded);
    digest.add(r.responses_forwarded);
    digest.add(r.rejects_forwarded);
    digest.add(r.affinity_hits);
    digest.add(r.affinity_expired);
    digest.add(r.unknown_responses);
    digest.add(r.feedback_samples);
    digest.add(r.feedback_discarded_dead);
    digest.add(r.probes_sent);
    digest.add(r.probe_acks);
    digest.add(r.probe_deaths);
    digest.add(r.requests_resteered);
    digest.add(r.hedges_sent);
    digest.add(r.hedge_wins);
    digest.add(r.cancels_sent);
    digest.add(r.duplicates_suppressed);
    for (const auto& host : r.hosts) {
      digest.add(host.requests);
      digest.add(host.responses);
      digest.add(host.deaths);
      digest.add(host.revivals);
      digest.add(host.feedback_discarded);
    }
  }
  run.digest = digest.value();
  return run;
}

const core::SystemKind kFamilies[] = {
    core::SystemKind::kShinjuku,
    core::SystemKind::kShinjukuOffload,
    core::SystemKind::kRss,
    core::SystemKind::kIdealNic,
    core::SystemKind::kRain,
};

// ---------------------------------------------------------------------------
// The schedule generator itself: pure, quiescent, category-independent.
// ---------------------------------------------------------------------------

fault::ChaosOptions options_for(std::uint64_t seed) {
  fault::ChaosOptions options;
  options.seed = seed;
  options.host_count = 4;
  options.worker_count = 2;
  options.start = at_ms(0);
  options.end = at_ms(10);
  return options;
}

TEST(ChaosSchedule, SameOptionsSameScheduleToTheNanosecond) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 99ULL}) {
    const fault::FaultSchedule a =
        fault::make_chaos_schedule(options_for(seed));
    const fault::FaultSchedule b =
        fault::make_chaos_schedule(options_for(seed));
    ASSERT_EQ(a.host_actions().size(), b.host_actions().size());
    for (std::size_t i = 0; i < a.host_actions().size(); ++i) {
      EXPECT_EQ(a.host_actions()[i].at, b.host_actions()[i].at);
      EXPECT_EQ(a.host_actions()[i].host, b.host_actions()[i].host);
      EXPECT_EQ(a.host_actions()[i].kind, b.host_actions()[i].kind);
    }
    ASSERT_EQ(a.partition_windows().size(), b.partition_windows().size());
    for (std::size_t i = 0; i < a.partition_windows().size(); ++i) {
      EXPECT_EQ(a.partition_windows()[i].start, b.partition_windows()[i].start);
      EXPECT_EQ(a.partition_windows()[i].end, b.partition_windows()[i].end);
      EXPECT_EQ(a.partition_windows()[i].host, b.partition_windows()[i].host);
    }
    ASSERT_EQ(a.worker_actions().size(), b.worker_actions().size());
    ASSERT_EQ(a.ingress_loss_windows().size(), b.ingress_loss_windows().size());
    EXPECT_TRUE(a.host_scoped());
  }
}

TEST(ChaosSchedule, EveryFaultRecoversStrictlyBeforeEnd) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    const fault::ChaosOptions options = options_for(seed);
    const fault::FaultSchedule schedule = fault::make_chaos_schedule(options);
    // Every crash has a later recover on the same host, inside the window.
    for (const auto& action : schedule.host_actions()) {
      EXPECT_GE(action.at, options.start);
      EXPECT_LT(action.at, options.end);
      if (action.kind == fault::HostActionKind::kCrash) {
        bool recovered = false;
        for (const auto& other : schedule.host_actions()) {
          if (other.kind == fault::HostActionKind::kRecover &&
              other.host == action.host && other.at > action.at) {
            recovered = true;
          }
        }
        EXPECT_TRUE(recovered) << "host " << action.host << " never recovers";
      }
    }
    for (const auto& window : schedule.partition_windows()) {
      EXPECT_GE(window.start, options.start);
      EXPECT_LT(window.end, options.end);
    }
    for (const auto& window : schedule.ingress_loss_windows()) {
      EXPECT_LT(window.end, options.end);
    }
    for (const auto& window : schedule.dispatch_loss_windows()) {
      EXPECT_LT(window.end, options.end);
    }
    for (const auto& action : schedule.worker_actions()) {
      if (action.kind == fault::WorkerActionKind::kStall) {
        EXPECT_LT(action.at + action.duration, options.end);
      } else if (action.kind == fault::WorkerActionKind::kCrash) {
        bool resumed = false;
        for (const auto& other : schedule.worker_actions()) {
          if (other.kind == fault::WorkerActionKind::kResume &&
              other.host == action.host && other.worker == action.worker &&
              other.at > action.at) {
            resumed = true;
          }
        }
        EXPECT_TRUE(resumed) << "worker never resumes";
      }
    }
  }
}

TEST(ChaosSchedule, CategoryTogglesDoNotRetimeOtherCategories) {
  // The per-category RNG streams are forked in a fixed order, so switching
  // one class of faults off leaves every other class's windows untouched —
  // a test can isolate host faults without perturbing the storm around them.
  fault::ChaosOptions all = options_for(5);
  fault::ChaosOptions no_hosts = all;
  no_hosts.host_faults = false;
  const fault::FaultSchedule full = fault::make_chaos_schedule(all);
  const fault::FaultSchedule trimmed = fault::make_chaos_schedule(no_hosts);
  EXPECT_TRUE(trimmed.host_actions().empty());
  ASSERT_EQ(full.partition_windows().size(),
            trimmed.partition_windows().size());
  for (std::size_t i = 0; i < full.partition_windows().size(); ++i) {
    EXPECT_EQ(full.partition_windows()[i].start,
              trimmed.partition_windows()[i].start);
    EXPECT_EQ(full.partition_windows()[i].host,
              trimmed.partition_windows()[i].host);
  }
  ASSERT_EQ(full.worker_actions().size(), trimmed.worker_actions().size());
  for (std::size_t i = 0; i < full.worker_actions().size(); ++i) {
    EXPECT_EQ(full.worker_actions()[i].at, trimmed.worker_actions()[i].at);
  }
  ASSERT_EQ(full.ingress_loss_windows().size(),
            trimmed.ingress_loss_windows().size());
}

// ---------------------------------------------------------------------------
// Satellite: builders reject silently-inert inputs instead of carrying them.
// ---------------------------------------------------------------------------

TEST(ChaosSchedule, BuildersDropInertInputs) {
  fault::FaultSchedule schedule;
  schedule.ingress_loss(at_ms(2), at_ms(2), 0.5);    // zero-length window
  schedule.ingress_loss(at_ms(2), at_ms(1), 0.5);    // inverted window
  schedule.ingress_loss(at_ms(1), at_ms(2), 0.0);    // injects nothing
  schedule.ingress_loss(at_ms(1), at_ms(2), -0.3);   // injects nothing
  schedule.dispatch_loss(at_ms(1), at_ms(2), 0.0);   // injects nothing
  schedule.degrade_ingress(at_ms(1), at_ms(2), 1.0); // does not degrade
  schedule.degrade_ingress(at_ms(1), at_ms(2), 0.5); // does not degrade
  schedule.stall_worker(at_ms(1), 0, sim::Duration::zero());  // pauses nothing
  schedule.partition(at_ms(3), at_ms(3), 0, fault::LinkDirection::kBoth);
  EXPECT_TRUE(schedule.empty())
      << "an inert input rode along instead of being dropped";

  // Out-of-range probabilities are clamped, not dropped: the caller asked
  // for loss and gets the strongest expressible version of it.
  schedule.ingress_loss(at_ms(1), at_ms(2), 7.0);
  ASSERT_EQ(schedule.ingress_loss_windows().size(), 1u);
  EXPECT_DOUBLE_EQ(schedule.ingress_loss_windows()[0].probability, 1.0);

  // Valid inputs still land.
  schedule.crash_host(at_ms(1), 2);
  schedule.recover_host(at_ms(2), 2);
  schedule.blackhole_host(at_ms(1), at_ms(2), 1);
  EXPECT_EQ(schedule.host_actions().size(), 2u);
  EXPECT_EQ(schedule.partition_windows().size(), 1u);
  EXPECT_TRUE(schedule.host_scoped());
}

// ---------------------------------------------------------------------------
// The tier proper: conservation + replay under the storm.
// ---------------------------------------------------------------------------

TEST(ChaosTier, EveryFamilyConservesAndReplaysBitForBit) {
  for (const core::SystemKind kind : kFamilies) {
    for (const std::uint64_t seed : tier_seeds()) {
      SCOPED_TRACE(std::string(core::to_string(kind)) +
                   " seed=" + std::to_string(seed));
      const ChaosRun first = chaos_run(kind, seed);
      const ChaosRun second = chaos_run(kind, seed);
      EXPECT_EQ(first.digest, second.digest) << "chaos replay diverged";
      ASSERT_GT(first.result.clients.sent, 0u);
    }
  }
}

TEST(ChaosTier, StormActuallyBitesAndDeadHostsStayDead) {
  // Guard against a storm that silently degenerated into a no-op, and check
  // the §16 failure-handling accounting on a scripted crash: the victim is
  // declared dead (probe timeout — its links are severed, so feedback
  // silence alone cannot clear it), its in-flight requests re-steer, and
  // the dead-incarnation EWMA rule's books balance: the rack-wide discard
  // counter is exactly the sum of the per-host ones (a sample from before
  // the death verdict must never resurrect the dead host's load estimate).
  auto config = chaos_config(core::SystemKind::kShinjukuOffload, 11);
  config.chaos.reset();
  config.with_faults(fault::FaultSchedule{}
                         .crash_host(at_ms(1) + sim::Duration::micros(500), 2)
                         .recover_host(at_ms(2) + sim::Duration::micros(500),
                                       2));
  stats::ResponseLog log;
  config.response_log = &log;
  const core::ExperimentResult result = core::run_experiment(config);

  ASSERT_TRUE(result.rack.has_value());
  const rack::RackStats& r = *result.rack;
  EXPECT_GE(r.hosts.at(2).deaths, 1u) << "crashed host never declared dead";
  EXPECT_GE(r.hosts.at(2).revivals, 1u) << "recovered host never readmitted";
  EXPECT_GT(r.probes_sent, 0u);
  EXPECT_GT(r.probe_acks, 0u);
  EXPECT_GE(r.probes_sent, r.probe_acks);
  EXPECT_GT(r.requests_resteered, 0u)
      << "the dead host's in-flight requests were never drained";
  std::uint64_t discarded = 0;
  for (const auto& host : r.hosts) discarded += host.feedback_discarded;
  EXPECT_EQ(r.feedback_discarded_dead, discarded);
  const auto& ca = result.clients;
  EXPECT_EQ(ca.sent, ca.completed + ca.rejected + ca.expired + ca.abandoned +
                         ca.outstanding);
  EXPECT_GT(ca.completed, 0u);
}

}  // namespace
}  // namespace nicsched
