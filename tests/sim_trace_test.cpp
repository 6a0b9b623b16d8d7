// Tracer mechanics and end-to-end trace content from every host family.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cluster.h"
#include "core/testbed.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "workload/client.h"

namespace nicsched {
namespace {

TEST(Tracer, DisabledByDefaultAndCostsNothing) {
  sim::Simulator sim;
  EXPECT_FALSE(sim.tracer().enabled());
  // Emitting with no sink is a no-op.
  sim.trace(sim::TraceCategory::kPacket, "x", "y");
}

TEST(Tracer, CollectorReceivesRecordsWithTimestamps) {
  sim::Simulator sim;
  sim::TraceCollector collector;
  sim.tracer().set_sink(collector.sink());
  EXPECT_TRUE(sim.tracer().enabled());

  sim.after(sim::Duration::micros(3), [&]() {
    sim.trace(sim::TraceCategory::kDispatch, "dispatcher", "assign 1");
  });
  sim.run();

  ASSERT_EQ(collector.records().size(), 1u);
  const auto& record = collector.records()[0];
  EXPECT_EQ(record.when, sim::TimePoint::origin() + sim::Duration::micros(3));
  EXPECT_EQ(record.category, sim::TraceCategory::kDispatch);
  EXPECT_EQ(record.component, "dispatcher");
  EXPECT_EQ(record.message, "assign 1");
}

TEST(Tracer, SetSinkReturnsPrevious) {
  sim::Simulator sim;
  sim::TraceCollector collector;
  auto previous = sim.tracer().set_sink(collector.sink());
  EXPECT_FALSE(previous);  // none installed before
  auto installed = sim.tracer().set_sink(nullptr);
  EXPECT_TRUE(installed);
  EXPECT_FALSE(sim.tracer().enabled());
}

TEST(Tracer, CategoryNames) {
  EXPECT_STREQ(to_string(sim::TraceCategory::kPacket), "packet");
  EXPECT_STREQ(to_string(sim::TraceCategory::kPreempt), "preempt");
  EXPECT_STREQ(to_string(sim::TraceCategory::kClient), "client");
}

TEST(TracerEndToEnd, OffloadRequestLifecycleIsVisible) {
  sim::Simulator sim;
  sim::TraceCollector collector;
  sim.tracer().set_sink(collector.sink());

  const core::ModelParams params = core::ModelParams::defaults();
  const auto experiment = core::ExperimentConfig::offload().workers(1).slice(
      sim::Duration::micros(10));
  core::ClusterBuilder topology(sim);
  topology.switch_latency(params.switch_forward_latency);
  topology.add_host(core::HostSpec::from_config(experiment));
  core::Cluster cluster = topology.build();
  net::EthernetSwitch& network = cluster.client_network();
  core::Server& server = cluster.server();

  workload::ClientMachine::Config client_config;
  client_config.client_id = 1;
  client_config.mac = net::MacAddress::from_index(1);
  client_config.ip = net::Ipv4Address::from_index(1);
  client_config.server_mac = server.ingress_mac();
  client_config.server_ip = server.ingress_ip();
  client_config.server_port = server.port();
  // One 25 us request: expect received → assigned → started → preempted
  // (twice) → requeued → restarted → completed.
  workload::ClientMachine client(
      sim, network, client_config,
      std::make_shared<workload::FixedDistribution>(sim::Duration::micros(25)),
      std::make_unique<workload::UniformArrivals>(1.0), sim::Rng(1));
  client.start(sim::TimePoint::origin() + sim::Duration::seconds(1));
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(1) +
                sim::Duration::millis(1));

  ASSERT_EQ(client.received(), 1u);
  int received = 0, assigned = 0, started = 0, preempted = 0, requeued = 0,
      completed = 0;
  for (const auto& record : collector.records()) {
    switch (record.category) {
      case sim::TraceCategory::kClient: ++received; break;
      case sim::TraceCategory::kDispatch: ++assigned; break;
      case sim::TraceCategory::kQueue: ++requeued; break;
      case sim::TraceCategory::kPreempt: ++preempted; break;
      case sim::TraceCategory::kWorker:
        if (record.message.rfind("start", 0) == 0) ++started;
        if (record.message.rfind("complete", 0) == 0) ++completed;
        break;
      default: break;
    }
  }
  EXPECT_EQ(received, 1);
  EXPECT_EQ(completed, 1);
  // 25 us of work in 10 us slices: two preemptions, each causing a requeue
  // and a re-assignment.
  EXPECT_EQ(preempted, 2);
  EXPECT_EQ(requeued, 2);
  EXPECT_EQ(assigned, 3);
  EXPECT_EQ(started, 3);
}

// Every host family's workers trace the same lifecycle: one `start` line per
// service burst, one `preempt` line per preemption, one `complete` line per
// response. Two 25 us requests on one worker with a 10 us slice make every
// preemptive family preempt; run-to-completion serves them back to back.
TEST(TracerEndToEnd, EveryFamilyTracesItsWorkerLifecycle) {
  for (const core::SystemKind kind :
       {core::SystemKind::kShinjuku, core::SystemKind::kShinjukuOffload,
        core::SystemKind::kRss, core::SystemKind::kIdealNic,
        core::SystemKind::kRain}) {
    SCOPED_TRACE(core::to_string(kind));
    sim::Simulator sim;
    sim::TraceCollector collector;
    sim.tracer().set_sink(collector.sink());

    const core::ModelParams params = core::ModelParams::defaults();
    const auto experiment = core::ExperimentConfig::of(kind)
                                .workers(1)
                                .outstanding(1)
                                .slice(sim::Duration::micros(10));
    core::ClusterBuilder topology(sim);
    topology.switch_latency(params.switch_forward_latency);
    topology.add_host(core::HostSpec::from_config(experiment));
    core::Cluster cluster = topology.build();
    core::Server& server = cluster.server();

    std::vector<std::unique_ptr<workload::ClientMachine>> clients;
    for (std::uint32_t id = 1; id <= 2; ++id) {
      workload::ClientMachine::Config client_config;
      client_config.client_id = id;
      client_config.mac = net::MacAddress::from_index(id);
      client_config.ip = net::Ipv4Address::from_index(id);
      client_config.server_mac = server.ingress_mac();
      client_config.server_ip = server.ingress_ip();
      client_config.server_port = server.port();
      clients.push_back(std::make_unique<workload::ClientMachine>(
          sim, cluster.client_network(), client_config,
          std::make_shared<workload::FixedDistribution>(
              sim::Duration::micros(25)),
          std::make_unique<workload::UniformArrivals>(1.0), sim::Rng(id)));
      clients.back()->start(sim::TimePoint::origin() +
                            sim::Duration::seconds(1));
    }
    const sim::TimePoint end = sim::TimePoint::origin() +
                               sim::Duration::seconds(1) +
                               sim::Duration::millis(1);
    sim.run_until(end);

    ASSERT_EQ(clients[0]->received() + clients[1]->received(), 2u);
    std::uint64_t started = 0, preempted = 0, completed = 0;
    for (const auto& record : collector.records()) {
      if (record.category == sim::TraceCategory::kPreempt &&
          record.message.rfind("preempt", 0) == 0) {
        ++preempted;
      }
      if (record.category != sim::TraceCategory::kWorker) continue;
      if (record.message.rfind("start", 0) == 0) ++started;
      if (record.message.rfind("complete", 0) == 0) ++completed;
    }
    EXPECT_EQ(completed, 2u);
    EXPECT_EQ(started, preempted + 2);
    EXPECT_EQ(preempted,
              server.stats(end - sim::TimePoint::origin()).preemptions);
  }
}

}  // namespace
}  // namespace nicsched
