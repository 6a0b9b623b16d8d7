// Sim-time metrics: gauges and counters sampled on a fixed sim-time cadence
// into time series.
//
// A MetricSampler owns a set of probes (callables reading live component
// state — queue depths, outstanding slots, cumulative busy time) and one
// repeating simulator event that samples every probe each tick. Probes can
// be registered individually or as a block: a block invokes one callable per
// tick and fans its vector result across several series, so a server's
// telemetry() snapshot is taken once per tick no matter how many series it
// feeds.
//
// Sampling only reads state; it never perturbs the simulation's own event
// ordering at a timestamp. With no sampler constructed the cost is zero.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace nicsched::obs {

/// One named series of (sim time, value) samples, uniform cadence.
struct TimeSeries {
  std::string name;
  std::vector<sim::TimePoint> at;
  std::vector<double> values;

  std::size_t size() const { return values.size(); }
  double last() const { return values.empty() ? 0.0 : values.back(); }
  double max() const;
  double mean() const;
};

class MetricSampler {
 public:
  MetricSampler(sim::Simulator& sim, sim::Duration cadence);

  sim::Duration cadence() const { return cadence_; }

  /// Registers a single-value probe.
  void add_probe(std::string name, std::function<double()> probe);

  /// Registers a block of series fed by one callable: `probe()` is invoked
  /// once per tick and must return exactly names.size() values.
  void add_probe_block(std::vector<std::string> names,
                       std::function<std::vector<double>()> probe);

  /// Starts sampling: one tick per cadence until (and including the tick at
  /// or before) `until`. The first sample fires one cadence from now.
  void start(sim::TimePoint until);

  const std::vector<TimeSeries>& series() const { return series_; }
  const TimeSeries* find(const std::string& name) const;
  std::uint64_t ticks() const { return ticks_; }

  /// Writes all series as one CSV: time_us column plus one column per
  /// series, rows aligned by tick.
  void write_csv(std::ostream& out) const;

 private:
  struct Block {
    std::size_t first_series = 0;
    std::size_t count = 0;
    std::function<std::vector<double>()> probe;
  };

  void tick();

  sim::Simulator& sim_;
  sim::Duration cadence_;
  sim::TimePoint until_;
  std::vector<TimeSeries> series_;
  std::vector<Block> blocks_;
  std::uint64_t ticks_ = 0;
  bool running_ = false;
};

}  // namespace nicsched::obs
