// Per-run outcome checks: the conservation identity and a digest of the
// simulated outcome, compared against the digests recorded in digests.txt.
#include <bit>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace nicsched::perfbench {

namespace {

class Fnv {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(sim::Duration value) {
    add(static_cast<std::uint64_t>(value.to_picos()));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

void add_summary(Fnv& h, const stats::RunSummary& s) {
  h.add(s.offered_rps);
  h.add(s.achieved_rps);
  h.add(s.issued);
  h.add(s.completed);
  h.add(s.mean_us);
  h.add(s.p50_us);
  h.add(s.p90_us);
  h.add(s.p99_us);
  h.add(s.p999_us);
  h.add(s.max_us);
  h.add(s.preemptions);
  h.add(s.goodput);
  h.add(s.goodput_rps);
}

void add_clients(Fnv& h, const core::ExperimentResult::ClientTotals& c) {
  h.add(c.sent);
  h.add(c.completed);
  h.add(c.goodput);
  h.add(c.rejected);
  h.add(c.expired);
  h.add(c.abandoned);
  h.add(c.outstanding);
  h.add(c.retries);
  h.add(c.duplicates);
}

void add_overload(Fnv& h, const overload::OverloadStats& o) {
  h.add(o.admitted);
  h.add(o.rejected);
  h.add(o.shed_expired);
  h.add(o.k_shrinks);
  h.add(o.k_restores);
}

void add_server(Fnv& h, const core::ServerStats& s) {
  h.add(s.requests_received);
  h.add(s.responses_sent);
  h.add(s.preemptions);
  h.add(s.spurious_interrupts);
  h.add(s.steals);
  h.add(s.drops);
  h.add(s.cancelled);
  h.add(static_cast<std::uint64_t>(s.queue_max_depth));
  h.add(static_cast<std::uint64_t>(s.worker_utilization.size()));
  for (double u : s.worker_utilization) h.add(u);
  h.add(s.ddio.l1_touches);
  h.add(s.ddio.llc_touches);
  h.add(s.ddio.dram_touches);
  const core::ReliabilityStats& r = s.reliability;
  h.add(r.retransmits);
  h.add(r.note_retransmits);
  h.add(r.timeouts);
  h.add(r.redispatched);
  h.add(r.abandoned);
  h.add(r.duplicates);
  h.add(r.worker_deaths);
  h.add(r.revivals);
  h.add(r.loss_injections_ignored);
  add_overload(h, s.overload);
  h.add(static_cast<std::uint64_t>(s.tenants.size()));
  for (const tenant::TenantStats& t : s.tenants) {
    h.add(static_cast<std::uint64_t>(t.id));
    h.add(t.enqueued);
    h.add(t.dispatched);
    h.add(static_cast<std::uint64_t>(t.max_depth));
    add_overload(h, t.overload);
  }
}

void add_rack_tenants(Fnv& h, const std::vector<rack::RackTenantStats>& rows) {
  h.add(static_cast<std::uint64_t>(rows.size()));
  for (const rack::RackTenantStats& t : rows) {
    h.add(static_cast<std::uint64_t>(t.tenant));
    h.add(t.requests);
    h.add(t.responses);
    h.add(t.rejects);
    h.add(t.outstanding);
  }
}

void add_rack(Fnv& h, const rack::RackStats& r) {
  h.add(r.requests_forwarded);
  h.add(r.responses_forwarded);
  h.add(r.rejects_forwarded);
  h.add(r.other_forwarded);
  h.add(r.malformed_dropped);
  h.add(r.affinity_hits);
  h.add(r.affinity_expired);
  h.add(r.unknown_responses);
  h.add(r.informed_decisions);
  h.add(r.stale_decisions);
  h.add(r.feedback_samples);
  h.add(r.feedback_discarded_dead);
  h.add(r.probes_sent);
  h.add(r.probe_acks);
  h.add(r.probe_deaths);
  h.add(r.requests_resteered);
  h.add(r.hedges_sent);
  h.add(r.hedge_wins);
  h.add(r.cancels_sent);
  h.add(r.duplicates_suppressed);
  h.add(static_cast<std::uint64_t>(r.hosts.size()));
  for (const rack::RackHostStats& host : r.hosts) {
    h.add(host.requests);
    h.add(host.responses);
    h.add(host.rejects);
    h.add(host.outstanding);
    h.add(host.deaths);
    h.add(host.revivals);
    h.add(host.resets);
    h.add(host.feedback_discarded);
    h.add(host.sojourn_ewma_us);
    h.add(static_cast<std::uint64_t>(host.queue_depth));
    add_rack_tenants(h, host.tenants);
  }
  add_rack_tenants(h, r.tenants);
}

std::string key(const std::string& workload, std::uint64_t seed) {
  return workload + " " + std::to_string(seed);
}

}  // namespace

std::uint64_t outcome_digest(const core::ExperimentResult& result) {
  Fnv h;
  add_summary(h, result.summary);
  add_clients(h, result.clients);
  add_server(h, result.server);
  h.add(result.mean_worker_utilization);
  h.add(static_cast<std::uint64_t>(result.rack_hosts.size()));
  for (const core::ServerStats& host : result.rack_hosts) add_server(h, host);
  h.add(static_cast<std::uint64_t>(result.rack.has_value()));
  if (result.rack) add_rack(h, *result.rack);
  h.add(static_cast<std::uint64_t>(result.tenants.size()));
  for (const auto& row : result.tenants) {
    h.add(static_cast<std::uint64_t>(row.spec.id));
    h.add(row.offered_rps);
    add_summary(h, row.summary);
    add_clients(h, row.clients);
  }
  return h.value();
}

std::string conservation_error(const core::ExperimentResult& result) {
  const auto broken = [](const core::ExperimentResult::ClientTotals& c) {
    return c.sent !=
           c.completed + c.rejected + c.expired + c.abandoned + c.outstanding;
  };
  if (broken(result.clients)) return "conservation broken on client totals";
  for (const auto& row : result.tenants) {
    if (broken(row.clients)) {
      return "conservation broken for tenant " + std::to_string(row.spec.id);
    }
  }
  if (result.clients.completed == 0) return "no request completed";
  return {};
}

bool DigestBook::load(const std::string& path, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return false;
  }
  std::string line;
  int number = 0;
  while (std::getline(in, line)) {
    ++number;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string workload;
    if (!(fields >> workload)) continue;  // blank or comment-only line
    std::uint64_t seed = 0;
    std::uint64_t digest = 0;
    std::string extra;
    if (!(fields >> seed >> std::hex >> digest) || (fields >> extra)) {
      error = path + ":" + std::to_string(number) + ": malformed line";
      return false;
    }
    digests_[key(workload, seed)] = digest;
  }
  return true;
}

const std::uint64_t* DigestBook::find(const std::string& workload,
                                      std::uint64_t seed) const {
  const auto it = digests_.find(key(workload, seed));
  return it == digests_.end() ? nullptr : &it->second;
}

}  // namespace nicsched::perfbench
