// Shared declarations of the simulator-cost benchmark: the workloads, the
// per-run outcome checks, and the layer kernels. main.cpp composes them into
// the untraced (end-to-end) and traced (per-layer) modes; README.md in this
// directory explains the workloads and metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "workload/distribution.h"

namespace nicsched::perfbench {

/// One named workload: the run_experiment configs one repetition executes,
/// in order, plus the shapes its layer kernels reuse.
struct Workload {
  std::string name;
  /// Every config runs once per repetition. A family sweep has one config
  /// per family; a pooled workload has one config per sub-run.
  std::vector<core::ExperimentConfig> configs;
  /// Family label per config (the core.<family>.host_us_per_req split).
  std::vector<std::string> families;
  /// True when the workload puts hosts behind a ToR. Spans do not yet cover
  /// the ToR hop, so span tiling is reported but not required there.
  bool rack = false;

  // Kernel shapes, taken from the workload's own configuration.
  std::uint16_t request_padding = 24;
  sim::Duration time_slice = sim::Duration::micros(10);
  std::shared_ptr<workload::ServiceDistribution> service;
  double client_rate_rps = 0.0;  // one client machine's Poisson rate
};

/// The workload names the benchmark accepts, in documentation order.
const std::vector<std::string>& workload_names();

/// Builds workload `name` for `seed`; throws std::invalid_argument for an
/// unknown name. The same seed always yields the same configs.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Host seconds to build one config's topology the way run_experiment does
/// (HostSpec::from_config, ClusterBuilder, and the ToR in rack mode),
/// excluding simulator construction and teardown.
double time_topology_build(const core::ExperimentConfig& config);

// ---- outcome checks --------------------------------------------------------

/// FNV-1a over the simulated outcome of one run: RunSummary, client totals,
/// ServerStats (aggregate and per host), RackStats, and the tenant rows.
/// Excludes events_fired and every host-time quantity, so a change that
/// removes events without changing results keeps the digest.
std::uint64_t outcome_digest(const core::ExperimentResult& result);

/// Conservation: sent == completed + rejected + expired + abandoned +
/// outstanding, globally and per tenant. Returns an empty string when it
/// holds, otherwise a description of the first violation.
std::string conservation_error(const core::ExperimentResult& result);

/// Recorded digests, keyed by "<workload> <seed>".
class DigestBook {
 public:
  /// Loads `path` (lines of "<workload> <seed> <hex digest>"; '#' starts a
  /// comment). Returns false if the file cannot be read or a line is
  /// malformed; `error` then says why.
  bool load(const std::string& path, std::string& error);
  /// The recorded digest, or nullptr when none was recorded.
  const std::uint64_t* find(const std::string& workload,
                            std::uint64_t seed) const;

 private:
  std::map<std::string, std::uint64_t> digests_;
};

// ---- layer kernels ---------------------------------------------------------

/// One kernel measurement: host nanoseconds per operation, and whether the
/// kernel's self-check passed (a failed check counts as a failed run).
struct KernelResult {
  std::string metric;
  double ns_per_op = 0.0;
  bool ok = false;
  std::string error;
};

/// Runs every layer kernel with the workload's shapes. `scale` multiplies
/// the operation counts (1.0 is the full size). Checksum verification stays
/// on throughout.
std::vector<KernelResult> run_kernels(const Workload& workload, double scale);

// ---- speed reference -------------------------------------------------------

/// A fixed piece of simulator-shaped work (reference.cpp) that uses nothing
/// from ../src. A shared machine's speed drifts by tens of percent from one
/// minute to the next; timed on the same CPU right after a measurement, the
/// reference tells how fast the machine ran just then.
class SpeedReference {
 public:
  /// Host ns per reference event that reported times are scaled to: about
  /// what one takes on the machine README.md describes.
  static constexpr double kNominalNsPerEvent = 300.0;

  /// Runs the reference for a quarter of `seconds`, and at least one chunk,
  /// and returns kNominalNsPerEvent over the measured ns per event: the
  /// factor that takes a host time measured just before to the reference
  /// speed.
  double scale(double seconds);

  /// False once a chunk computed a different result from the first.
  bool ok() const { return ok_; }

 private:
  std::optional<std::uint64_t> expected_;
  bool ok_ = true;
};

}  // namespace nicsched::perfbench
