// perfbench: host cost per simulated request, with per-layer attribution.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --digests <path> [--digest-seed <n>]
//   perfbench --record <first-seed> <last-seed> --workload <name>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics;
// the last line of stdout is one JSON object either way. --digest-seed
// checks the outcome against another seed's recorded digest (the self-test
// uses it to prove a perturbed run is caught). --record prints digest lines
// for digests.txt. README.md in this directory explains every metric.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "obs/span.h"
#include "stats/response_log.h"

extern char** environ;

namespace nicsched::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linearly interpolated quantile `q` in [0, 1]; 0 for no values.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank percentile of latencies in picoseconds, returned in us.
double percentile_us(std::vector<std::int64_t>& ps, double q) {
  if (ps.empty()) return 0.0;
  const auto n = static_cast<double>(ps.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, ps.size()) - 1;
  std::nth_element(ps.begin(), ps.begin() + static_cast<std::ptrdiff_t>(rank),
                   ps.end());
  return static_cast<double>(ps[rank]) / 1e6;
}

std::uint64_t combine(std::uint64_t acc, std::uint64_t digest) {
  return (acc ^ digest) * 1099511628211ULL + 0x9E3779B97F4A7C15ULL;
}

// ---- one repetition --------------------------------------------------------

/// How a repetition runs its configs: as shipped, with per-request response
/// logs (exact latency percentiles), or with span capture on.
enum class RepMode { kPlain, kLogged, kTraced, kTracedLogged };

struct ConfigRun {
  double wall = 0.0;
  /// Takes `wall` to the reference speed: the speed reference's nominal time
  /// over its time measured right after the call. 1 when not measured.
  double scale = 1.0;
  std::uint64_t completed = 0;
  std::uint64_t pool_acquired = 0;
  std::uint64_t pool_reused = 0;
  /// Null unless the repetition was asked to keep its results: a timed
  /// repetition keeps only its timing, so memory stays flat over a run.
  std::unique_ptr<core::ExperimentResult> result;
  std::vector<workload::ResponseRecord> responses;  // logged modes only
  std::string error;
};

struct Rep {
  std::vector<ConfigRun> runs;
  std::uint64_t digest = 14695981039346656037ULL;
};

/// Host us per completed request of each repetition: the wall time of its
/// run_experiment calls, at the reference speed unless `raw` is set, over
/// their completed requests. Only configs whose family is `family` count,
/// unless it is empty.
std::vector<double> us_per_req(const Workload& workload,
                               const std::vector<Rep>& reps,
                               const std::string& family = {},
                               bool raw = false) {
  std::vector<double> per_rep;
  for (const Rep& rep : reps) {
    double wall = 0.0;
    double completed = 0.0;
    for (std::size_t i = 0; i < rep.runs.size(); ++i) {
      if (!family.empty() && workload.families[i] != family) continue;
      wall += rep.runs[i].wall * (raw ? 1.0 : rep.runs[i].scale);
      completed += static_cast<double>(rep.runs[i].completed);
    }
    per_rep.push_back(ratio(wall * 1e6, completed));
  }
  return per_rep;
}

/// Moves the thread to the next CPU the process may use, in turn, before
/// each run. On a shared machine, co-tenant load differs from core to core
/// and lasts for minutes; a run that stays on one core measures that core's
/// neighbours. Rotating makes every repetition sample all cores alike. Best
/// effort: with one CPU, or if the kernel refuses, the thread stays put.
void next_cpu() {
  static const std::vector<std::size_t> cpus = [] {
    std::vector<std::size_t> allowed;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  static std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

/// Runs every config of the workload once. With `reference` set, each call
/// is followed by the speed reference, which sets the call's scale.
/// `inspect`, when set, sees each run (with its result) before the result
/// is dropped.
Rep run_rep(const Workload& workload, RepMode mode, bool keep_results,
            SpeedReference* reference = nullptr,
            const std::function<void(const ConfigRun&)>& inspect = {}) {
  Rep rep;
  const bool logged =
      mode == RepMode::kLogged || mode == RepMode::kTracedLogged;
  const bool traced =
      mode == RepMode::kTraced || mode == RepMode::kTracedLogged;
  for (const core::ExperimentConfig& base : workload.configs) {
    core::ExperimentConfig config = base;
    stats::ResponseLog log(std::size_t{1} << 24);
    if (logged) config.response_log = &log;
    if (traced) {
      obs::CaptureOptions capture;
      capture.enabled = true;
      capture.spans = true;
      capture.metric_cadence = sim::Duration::zero();
      capture.label = workload.name;
      config.with_capture(capture);
    } else {
      config.with_capture(obs::CaptureOptions::disabled_options());
    }
    ConfigRun run;
    const net::PacketBufferPool::Stats before =
        net::PacketBufferPool::instance().stats();
    next_cpu();
    try {
      const auto start = Clock::now();
      run.result = std::make_unique<core::ExperimentResult>(
          core::run_experiment(config));
      run.wall = since(start);
      run.completed = run.result->clients.completed;
      run.error = conservation_error(*run.result);
    } catch (const std::exception& e) {
      run.error = std::string("run_experiment threw: ") + e.what();
      run.result = std::make_unique<core::ExperimentResult>();
    }
    if (reference != nullptr) run.scale = reference->scale(run.wall);
    const net::PacketBufferPool::Stats after =
        net::PacketBufferPool::instance().stats();
    run.pool_acquired = after.acquired - before.acquired;
    run.pool_reused = after.reused - before.reused;
    if (logged) {
      if (log.truncated()) run.error = "response log truncated";
      run.responses = log.records();
    }
    rep.digest = combine(rep.digest, outcome_digest(*run.result));
    if (inspect) inspect(run);
    if (!keep_results) run.result.reset();
    if (inspect) run.responses.clear();
    rep.runs.push_back(std::move(run));
  }
  return rep;
}

/// Checks every run of `rep` and its digest; failures are counted per run
/// and explained on stderr.
class Checker {
 public:
  Checker(std::string workload, const std::uint64_t* recorded)
      : workload_(std::move(workload)), recorded_(recorded) {}

  void check(const Rep& rep) {
    if (!expected_) expected_ = recorded_ ? *recorded_ : rep.digest;
    const bool digest_ok = rep.digest == *expected_;
    if (!digest_ok) {
      std::cerr << "FAIL " << workload_ << ": outcome digest " << std::hex
                << rep.digest << " != expected " << *expected_ << std::dec
                << "\n";
    }
    for (const ConfigRun& run : rep.runs) {
      ++attempted_;
      if (!run.error.empty()) {
        std::cerr << "FAIL " << workload_ << ": " << run.error << "\n";
      }
      if (!run.error.empty() || !digest_ok) ++failed_;
    }
  }

  /// A non-run check (kernel self-check, span tiling) that failed or passed.
  void note(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "FAIL " << workload_ << ": " << what << "\n";
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t digest() const { return expected_.value_or(0); }

 private:
  std::string workload_;
  const std::uint64_t* recorded_;
  std::optional<std::uint64_t> expected_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Times topology builds for set-up time. One build takes microseconds, so
/// builds are timed in batches of at least a millisecond, once per distinct
/// family (configs of one family differ only in seeds), and each batch is
/// taken to the reference speed. Batches are spread over the whole run,
/// between repetitions, so they meet the same machine load as the
/// repetitions do.
class SetupTimer {
 public:
  SetupTimer(const Workload& workload, SpeedReference& reference)
      : reference_(reference) {
    for (std::size_t c = 0; c < workload.configs.size(); ++c) {
      bool seen = false;
      for (const Family& f : families_) {
        seen = seen || f.name == workload.families[c];
      }
      if (seen) continue;
      Family family{workload.families[c], &workload.configs[c], 1, {}};
      time_topology_build(*family.config);  // first touch of the allocator
      while (family.per_batch < (1 << 16) && batch(family) < kMinBatchSeconds) {
        family.per_batch *= 2;
      }
      families_.push_back(std::move(family));
    }
  }

  /// Times `batches` more batches of every family.
  void sample(int batches) {
    for (Family& family : families_) {
      for (int b = 0; b < batches; ++b) {
        const double elapsed = batch(family);
        family.means.push_back(elapsed * reference_.scale(elapsed) /
                               family.per_batch);
      }
    }
  }

  /// Sum over the families of the median batch mean, in seconds.
  double seconds() const {
    double total = 0.0;
    for (const Family& family : families_) {
      total += quantile(family.means, 0.5);
    }
    return total;
  }

 private:
  static constexpr double kMinBatchSeconds = 1e-3;
  struct Family {
    std::string name;
    const core::ExperimentConfig* config;
    int per_batch;
    std::vector<double> means;
  };

  static double batch(const Family& family) {
    double total = 0.0;
    for (int i = 0; i < family.per_batch; ++i) {
      total += time_topology_build(*family.config);
    }
    return total;
  }

  SpeedReference& reference_;
  std::vector<Family> families_;
};

/// Timed repetitions until `seconds` of host time have passed (and at least
/// `min_reps` ran), each call followed by the speed reference. Only the
/// first repetition keeps its ExperimentResults, and only if `keep_first`
/// is set.
std::vector<Rep> timed_reps(const Workload& workload, RepMode mode,
                            double seconds, int min_reps, bool keep_first,
                            Checker& checker, SpeedReference& reference,
                            SetupTimer* setup = nullptr) {
  std::vector<Rep> reps;
  const auto start = Clock::now();
  while (static_cast<int>(reps.size()) < min_reps || since(start) < seconds) {
    Rep rep =
        run_rep(workload, mode, keep_first && reps.empty(), &reference);
    checker.check(rep);
    reps.push_back(std::move(rep));
    if (setup != nullptr) setup->sample(2);
  }
  return reps;
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void emit(const std::vector<Metric>& metrics, bool correct,
          std::uint64_t attempted, std::uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << number << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

void print_quartiles(const char* what, const std::vector<double>& values) {
  std::printf("# host us/req %s: min %.4f q1 %.4f median %.4f q3 %.4f "
              "max %.4f\n",
              what, quantile(values, 0.0), quantile(values, 0.25),
              quantile(values, 0.5), quantile(values, 0.75),
              quantile(values, 1.0));
}

// ---- the two modes ---------------------------------------------------------

/// Exact client latencies (ps) of a logged repetition.
std::vector<std::int64_t> latencies(const Rep& rep) {
  std::vector<std::int64_t> ps;
  for (const ConfigRun& run : rep.runs) {
    for (const auto& r : run.responses) ps.push_back(r.latency().to_picos());
  }
  return ps;
}

/// Peak resident memory of a child process that runs one repetition of the
/// workload as shipped and nothing else, so the benchmark's own latency logs
/// stay out of the figure. Returns a negative value if the child failed.
double child_peak_rss_mb(const Workload& workload) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  std::fflush(nullptr);  // the child must not replay buffered output
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1.0;
  }
  if (pid == 0) {
    close(fds[0]);
    double mb = -1.0;
    try {
      const Rep rep = run_rep(workload, RepMode::kPlain, false);
      bool ok = true;
      for (const ConfigRun& run : rep.runs) ok = ok && run.error.empty();
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      if (ok) mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
    } catch (...) {
    }
    const bool sent = write(fds[1], &mb, sizeof mb) == sizeof mb;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double mb = -1.0;
  if (read(fds[0], &mb, sizeof mb) != sizeof mb) mb = -1.0;
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? mb : -1.0;
}

void end_to_end(const Workload& workload, double seconds, Checker& checker) {
  const double rss_mb = child_peak_rss_mb(workload);
  checker.note(rss_mb > 0.0, "peak-memory child process failed");
  SpeedReference reference;
  SetupTimer setup(workload, reference);
  setup.sample(5);

  // One logged repetition gives exact latency percentiles; the timed
  // repetitions then run exactly as shipped and must replay its outcome.
  std::size_t samples = 0;
  double p50 = 0.0, p99 = 0.0, p999 = 0.0, sent = 0.0, goodput = 0.0;
  {
    const Rep logged = run_rep(workload, RepMode::kLogged, true);
    checker.check(logged);
    std::vector<std::int64_t> ps = latencies(logged);
    samples = ps.size();
    p50 = percentile_us(ps, 0.50);
    p99 = percentile_us(ps, 0.99);
    p999 = percentile_us(ps, 0.999);
    for (const ConfigRun& run : logged.runs) {
      sent += static_cast<double>(run.result->clients.sent);
      goodput += static_cast<double>(run.result->clients.goodput);
    }
  }

  const std::vector<Rep> reps = timed_reps(
      workload, RepMode::kPlain, seconds, 4, false, checker, reference, &setup);
  checker.note(reference.ok(), "speed reference changed its result");
  const std::vector<double> per_req = us_per_req(workload, reps);

  std::printf("# %s seed digest %016llx; %zu timed repetitions; %zu latency "
              "samples\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(checker.digest()), reps.size(),
              samples);
  print_quartiles("at reference speed", per_req);
  print_quartiles("raw wall", us_per_req(workload, reps, {}, true));
  std::printf("# run_fail_frac %.6f (%llu of %llu runs failed)\n",
              ratio(static_cast<double>(checker.failed()),
                    static_cast<double>(checker.attempted())),
              static_cast<unsigned long long>(checker.failed()),
              static_cast<unsigned long long>(checker.attempted()));

  emit({{"host_us_per_req", quantile(per_req, 0.5), "us"},
        {"setup_s", setup.seconds(), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"sim_p50_us", p50, "sim_us"},
        {"sim_p99_us", p99, "sim_us"},
        {"sim_p999_us", p999, "sim_us"},
        {"sim_goodput_frac", ratio(goodput, sent), "ratio"}},
       checker.failed() == 0, checker.attempted(), checker.failed());
}

/// Sums of the counters the per-layer metrics divide, over one repetition.
struct Counters {
  double completed = 0, events = 0, frames = 0, reused = 0;
  double responses = 0, preemptions = 0, retransmits = 0, redispatched = 0;
  double admitted = 0, rejected = 0, k_shrinks = 0;
  double forwards = 0, rack_responses = 0, resteered = 0, hedges = 0;
  double informed = 0, stale = 0;

  explicit Counters(const Rep& rep) {
    for (const ConfigRun& run : rep.runs) {
      const core::ExperimentResult& r = *run.result;
      completed += static_cast<double>(r.clients.completed);
      events += static_cast<double>(r.events_fired);
      frames += static_cast<double>(run.pool_acquired);
      reused += static_cast<double>(run.pool_reused);
      responses += static_cast<double>(r.server.responses_sent);
      preemptions += static_cast<double>(r.server.preemptions);
      retransmits += static_cast<double>(r.server.reliability.retransmits);
      redispatched += static_cast<double>(r.server.reliability.redispatched);
      admitted += static_cast<double>(r.server.overload.admitted);
      rejected += static_cast<double>(r.server.overload.rejected);
      k_shrinks += static_cast<double>(r.server.overload.k_shrinks);
      if (r.rack) {
        forwards += static_cast<double>(r.rack->requests_forwarded);
        rack_responses += static_cast<double>(r.rack->responses_forwarded);
        resteered += static_cast<double>(r.rack->requests_resteered);
        hedges += static_cast<double>(r.rack->hedges_sent);
        informed += static_cast<double>(r.rack->informed_decisions);
        stale += static_cast<double>(r.rack->stale_decisions);
      }
    }
  }
};

void per_layer(const Workload& workload, double seconds, Checker& checker) {
  // Spans: one traced, logged repetition checks tiling against the client
  // latencies and splits simulated time by span kind, one run at a time. It
  // also supplies the per-tenant latencies: tracing must not change the
  // outcome, which its digest check confirms.
  std::uint64_t violations = 0;
  std::vector<double> kind_ps(obs::kSpanKindCount, 0.0);
  double lifecycles = 0.0;
  std::vector<std::int64_t> lc;
  std::vector<std::int64_t> be;
  const auto inspect_spans = [&](const ConfigRun& run) {
    for (const auto& r : run.responses) {
      if (r.tenant == 1) lc.push_back(r.latency().to_picos());
      if (r.tenant == 2) be.push_back(r.latency().to_picos());
    }
    if (!run.result->capture) {
      ++violations;
      return;
    }
    const obs::SpanRecorder& recorder = run.result->capture->spans();
    violations += recorder.violations();
    std::unordered_map<std::uint64_t, sim::Duration> measured;
    for (const auto& r : run.responses) measured[r.request_id] = r.latency();
    for (const obs::RequestLifecycle& life : recorder.completed()) {
      lifecycles += 1.0;
      for (std::uint16_t k = 0; k < obs::kSpanKindCount; ++k) {
        kind_ps[k] += static_cast<double>(
            life.total_of(static_cast<obs::SpanKind>(k)).to_picos());
      }
      bool tiles = life.total() == life.end() - life.begin();
      const auto it = measured.find(life.request_id);
      if (it != measured.end() && it->second != life.total()) tiles = false;
      if (!tiles) ++violations;
    }
  };
  checker.check(run_rep(workload, RepMode::kTracedLogged, false, nullptr,
                        inspect_spans));
  if (!workload.rack) {
    checker.note(violations == 0, std::to_string(violations) +
                                      " span tiling violations");
  }

  // Counters repeat exactly. The first plain repetition runs on a pool the
  // traced repetition already warmed, so its reuse is the steady state.
  SpeedReference reference;
  const std::vector<Rep> plain = timed_reps(
      workload, RepMode::kPlain, 0.35 * seconds, 1, true, checker, reference);
  const Counters c(plain.front());
  const double host_us = quantile(us_per_req(workload, plain), 0.5);

  const std::vector<Rep> traced = timed_reps(
      workload, RepMode::kTraced, 0.35 * seconds, 1, false, checker, reference);
  const double traced_us = quantile(us_per_req(workload, traced), 0.5);

  // Kernel times are taken to the reference speed like the calls are.
  const double kernel_scale = std::clamp(seconds / 20.0, 0.02, 1.0);
  const auto kernels_start = Clock::now();
  std::vector<KernelResult> kernels = run_kernels(workload, kernel_scale);
  const double speed = reference.scale(since(kernels_start));
  checker.note(reference.ok(), "speed reference changed its result");
  double ns_per_event = 0.0;
  double ns_per_frame = 0.0;
  for (KernelResult& k : kernels) {
    checker.note(k.ok, k.metric + " kernel: " + k.error);
    k.ns_per_op *= speed;
    if (k.metric == "sim.ns_per_event") ns_per_event = k.ns_per_op;
    if (k.metric == "net.ns_per_frame") ns_per_frame = k.ns_per_op;
  }

  const double events_per_req = ratio(c.events, c.completed);
  const double frames_per_req = ratio(c.frames, c.completed);
  std::vector<Metric> m = {
      {"sim.events_per_req", events_per_req, "count"},
      {"net.frames_per_req", frames_per_req, "count"},
      {"net.pool_reuse_frac", ratio(c.reused, c.frames), "ratio"},
      {"hw.preemptions_per_req", ratio(c.preemptions, c.responses), "count"},
      {"core.retransmits_per_req", ratio(c.retransmits, c.responses), "count"},
      {"core.redispatched_per_req", ratio(c.redispatched, c.responses),
       "count"},
      {"rack.forwards_per_req", ratio(c.forwards, c.rack_responses), "count"},
      {"rack.resteered_per_req", ratio(c.resteered, c.rack_responses),
       "count"},
      {"rack.hedges_per_req", ratio(c.hedges, c.rack_responses), "count"},
      {"rack.informed_decision_frac", ratio(c.informed, c.informed + c.stale),
       "ratio"},
      {"overload.reject_frac", ratio(c.rejected, c.admitted + c.rejected),
       "ratio"},
      {"overload.k_shrinks", c.k_shrinks, "count"},
      {"tenant.lc.sim_p99_us", percentile_us(lc, 0.99), "sim_us"},
      {"tenant.be.sim_p99_us", percentile_us(be, 0.99), "sim_us"},
  };
  for (const KernelResult& k : kernels) {
    m.push_back({k.metric, k.ns_per_op, "ns"});
  }
  for (const char* family :
       {"shinjuku", "shinjuku-offload", "rss-rtc", "ideal-nic", "rain"}) {
    m.push_back({std::string("core.") + family + ".host_us_per_req",
                 quantile(us_per_req(workload, plain, family), 0.5), "us"});
  }
  m.push_back({"core.unattributed_us_per_req",
               host_us - (events_per_req * ns_per_event +
                          frames_per_req * ns_per_frame) /
                             1000.0,
               "us"});
  for (std::uint16_t k = 0; k < obs::kSpanKindCount; ++k) {
    std::string kind = obs::to_string(static_cast<obs::SpanKind>(k));
    std::replace(kind.begin(), kind.end(), '-', '_');
    m.push_back({"obs." + kind + ".sim_us_per_req",
                 ratio(kind_ps[k], lifecycles) / 1e6, "sim_us"});
  }
  m.push_back({"obs.trace_overhead_frac", traced_us / host_us - 1.0,
               "ratio"});
  m.push_back({"obs.tiling_violations", static_cast<double>(violations),
               "count"});

  std::printf("# %s untraced host us/req %.4f over %zu repetitions, traced "
              "%.4f over %zu (at reference speed)\n",
              workload.name.c_str(), host_us, plain.size(), traced_us,
              traced.size());
  emit(m, checker.failed() == 0, checker.attempted(), checker.failed());
}

int record(const std::string& name, std::uint64_t first, std::uint64_t last) {
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const Workload workload = make_workload(name, seed);
    const Rep rep = run_rep(workload, RepMode::kPlain, false);
    for (const ConfigRun& run : rep.runs) {
      if (!run.error.empty()) {
        std::cerr << name << " seed " << seed << ": " << run.error << "\n";
        return 1;
      }
    }
    std::printf("%s %llu %016llx\n", name.c_str(),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(rep.digest));
    std::fflush(stdout);
  }
  return 0;
}

// ---- arguments -------------------------------------------------------------

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --digests <path> [--digest-seed <n>]\n"
               "       perfbench --record <first> <last> --workload <name>\n";
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

int run(int argc, char** argv) {
  // The NICSCHED_* variables reshape tenants, overload, faults, tracing,
  // shards and ToR knobs inside run_experiment: refuse to measure under them.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "NICSCHED_", 9) == 0) {
      const std::string var(*env, std::strcspn(*env, "="));
      std::cerr << "perfbench: refusing to run with " << var
                << " set; it changes what run_experiment measures\n";
      return 2;
    }
  }
  if (net::checksum_elision_enabled()) {
    std::cerr << "perfbench: checksum elision is on\n";
    return 2;
  }

  std::string workload_name;
  std::string digests;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  std::optional<std::uint64_t> digest_seed;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> record_range;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t number = 0;
    if (flag == "--workload" && value != nullptr) {
      workload_name = value;
    } else if (flag == "--digests" && value != nullptr) {
      digests = value;
    } else if (flag == "--seed" && parse_u64(value, seed)) {
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, seconds)) {
    } else if (flag == "--trace" && parse_u64(value, trace)) {
    } else if (flag == "--digest-seed" && parse_u64(value, number)) {
      digest_seed = number;
    } else if (flag == "--record" && i + 2 < argc &&
               parse_u64(argv[i + 1], number) &&
               parse_u64(argv[i + 2], seed)) {
      record_range = {number, seed};
      ++i;
    } else {
      return usage("bad or incomplete argument '" + flag + "'");
    }
    ++i;
  }
  if (std::find(workload_names().begin(), workload_names().end(),
                workload_name) == workload_names().end()) {
    return usage("unknown workload '" + workload_name + "'");
  }
  if (record_range) {
    return record(workload_name, record_range->first, record_range->second);
  }
  if (!have_seed || seconds == 0 || trace > 1 || digests.empty()) {
    return usage("--seed, --seconds, --trace and --digests are required");
  }

  DigestBook book;
  std::string error;
  if (!book.load(digests, error)) return usage(error);
  const Workload workload = make_workload(workload_name, seed);
  const std::uint64_t* recorded =
      book.find(workload_name, digest_seed.value_or(seed));
  if (recorded == nullptr) {
    std::printf("# no recorded digest for %s seed %llu: checking replay "
                "across repetitions only\n",
                workload_name.c_str(),
                static_cast<unsigned long long>(digest_seed.value_or(seed)));
  }
  Checker checker(workload_name, recorded);
  if (trace == 0) {
    end_to_end(workload, static_cast<double>(seconds), checker);
  } else {
    per_layer(workload, static_cast<double>(seconds), checker);
  }
  return 0;
}

}  // namespace
}  // namespace nicsched::perfbench

int main(int argc, char** argv) {
  try {
    return nicsched::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
