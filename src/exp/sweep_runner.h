// Parallel experiment execution. Every figure in the paper is a matrix of
// independent load points, each deterministic in its config's seed, so the
// sweep is an embarrassingly parallel map: SweepRunner fans points across a
// std::thread pool and produces results bit-identical to the serial
// core::run_sweep, with wall clock bound by the slowest point instead of the
// sum of all points.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "core/testbed.h"

namespace nicsched::exp {

class SweepRunner {
 public:
  struct Options {
    /// Worker threads for the point fan-out. 0 = the NICSCHED_THREADS
    /// environment variable if set, else std::thread::hardware_concurrency.
    /// 1 runs everything inline on the calling thread (the serial path).
    std::size_t threads = 0;
  };

  SweepRunner() : SweepRunner(Options{}) {}
  explicit SweepRunner(const Options& options);

  std::size_t thread_count() const { return threads_; }

  /// Runs `base` once per load (offered_rps overridden per point), parallel
  /// across points, results in load order. `base.response_log` must be null:
  /// a shared log cannot be filled from concurrent points (and its row order
  /// would be nondeterministic anyway).
  std::vector<core::ExperimentResult> run(
      const core::ExperimentConfig& base,
      const std::vector<double>& loads) const;

  /// Runs each fully-formed config as its own point (heterogeneous sweeps:
  /// system x load matrices, policy grids, parameter ablations).
  std::vector<core::ExperimentResult> run_configs(
      const std::vector<core::ExperimentConfig>& configs) const;

  /// Generic parallel map for independent work that isn't a plain
  /// run_experiment call (saturation searches, custom harnesses). `fn` must
  /// be safe to call concurrently; results keep item order. The result type
  /// must be default-constructible.
  template <typename T, typename Fn>
  auto map(const std::vector<T>& items, Fn fn) const
      -> std::vector<decltype(fn(items[0]))> {
    std::vector<decltype(fn(items[0]))> results(items.size());
    dispatch(items.size(), [&](std::size_t index) {
      results[index] = fn(items[index]);
    });
    return results;
  }

  /// Runs fn(0..count-1) across the pool; blocks until all complete. The
  /// first exception thrown by any invocation is rethrown on the caller.
  void dispatch(std::size_t count,
                const std::function<void(std::size_t)>& fn) const;

 private:
  std::size_t threads_;
};

}  // namespace nicsched::exp
