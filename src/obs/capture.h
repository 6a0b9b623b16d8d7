// Capture: the bundle of observability state for one experiment run — a
// SpanRecorder wired into the simulator's span channel plus a MetricSampler
// ticking on a sim-time cadence — and the file exports built from it.
//
// The env contract (resolved by capture_options_from_env, consulted by
// core::run_experiment when ExperimentConfig::capture is unset):
//
//   NICSCHED_TRACE=<path-prefix>   enable capture; export files named
//                                  <prefix><label>.trace.json,
//                                  <prefix><label>.breakdown.csv,
//                                  <prefix><label>.metrics.csv
//   NICSCHED_TRACE_CADENCE_US=<n>  metric sampling cadence (default 100)
//
// With neither the config field nor the env var set, nothing is constructed
// and every emission site reduces to one untaken branch — the zero-cost
// contract.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span_recorder.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace nicsched::obs {

struct CaptureOptions {
  /// Master switch; a present-but-disabled options value forces capture off
  /// regardless of the environment.
  bool enabled = false;
  /// Record per-request spans (the Chrome trace / breakdown substrate).
  bool spans = true;
  /// Metric sampling cadence; zero disables the sampler.
  sim::Duration metric_cadence = sim::Duration::micros(100);
  /// Export path prefix; empty keeps the capture in memory only.
  std::string export_prefix;
  /// Distinguishes files when several points of a sweep export under one
  /// prefix; empty lets run_experiment derive system+load+seed.
  std::string label;

  static CaptureOptions disabled_options() { return CaptureOptions{}; }
};

/// Reads the NICSCHED_TRACE contract from the environment.
CaptureOptions capture_options_from_env();

/// Live capture state for one run. Created and installed by
/// core::run_experiment; reachable afterwards via ExperimentResult::capture.
class Capture {
 public:
  Capture(sim::Simulator& sim, CaptureOptions options);

  const CaptureOptions& options() const { return options_; }
  SpanRecorder& spans() { return spans_; }
  const SpanRecorder& spans() const { return spans_; }
  /// Null when options().metric_cadence is zero.
  MetricSampler* metrics() { return metrics_.get(); }
  const MetricSampler* metrics() const { return metrics_.get(); }

  /// Installs the span sink and (if configured) starts the sampler.
  void start(sim::TimePoint sample_until);

  /// Writes <prefix><label>.trace.json / .breakdown.csv / .metrics.csv.
  /// No-op when export_prefix is empty. Returns false if any file failed.
  bool export_files() const;

 private:
  sim::Simulator& sim_;
  CaptureOptions options_;
  SpanRecorder spans_;
  std::unique_ptr<MetricSampler> metrics_;
};

/// The per-request breakdown table: one row per completed request with the
/// time spent in each span kind, the span sum, and the end-to-end latency
/// (identical to the sum by the tiling property).
void write_breakdown_csv(std::ostream& out,
                         const std::vector<RequestLifecycle>& lifecycles);

}  // namespace nicsched::obs
