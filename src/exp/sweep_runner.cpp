#include "exp/sweep_runner.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/capture.h"

namespace nicsched::exp {

namespace {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("NICSCHED_THREADS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

}  // namespace

SweepRunner::SweepRunner(const Options& options)
    : threads_(resolve_thread_count(options.threads)) {}

void SweepRunner::dispatch(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return;
  const std::size_t pool = std::min(threads_, count);
  if (pool <= 1) {
    for (std::size_t index = 0; index < count; ++index) fn(index);
    return;
  }

  // Work-queue fan-out: each thread claims the next unclaimed index. Results
  // land at their item's slot, so ordering (and therefore output) is
  // independent of which thread ran which point.
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&]() {
    while (true) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) return;
      try {
        fn(index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(pool);
  for (std::size_t i = 0; i < pool; ++i) threads.emplace_back(worker);
  for (auto& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<core::ExperimentResult> SweepRunner::run(
    const core::ExperimentConfig& base,
    const std::vector<double>& loads) const {
  if (base.response_log != nullptr) {
    throw std::invalid_argument(
        "SweepRunner::run: response_log is not supported across a parallel "
        "sweep; run the single point through core::run_experiment instead");
  }
  std::vector<core::ExperimentResult> results(loads.size());
  dispatch(loads.size(), [&](std::size_t index) {
    core::ExperimentConfig config = base;
    config.offered_rps = loads[index];
    // Per-point export label: the run_experiment default (system+load+seed)
    // already distinguishes sweep points, but an explicit point index keeps
    // exports unique even when two points share a load.
    obs::CaptureOptions capture =
        config.capture ? *config.capture : obs::capture_options_from_env();
    if (capture.enabled && capture.label.empty()) {
      capture.label = std::string(core::to_string(config.system)) + "_p" +
                      std::to_string(index);
      config.capture = std::move(capture);
    }
    results[index] = core::run_experiment(config);
  });
  return results;
}

std::vector<core::ExperimentResult> SweepRunner::run_configs(
    const std::vector<core::ExperimentConfig>& configs) const {
  std::vector<core::ExperimentResult> results(configs.size());
  dispatch(configs.size(), [&](std::size_t index) {
    results[index] = core::run_experiment(configs[index]);
  });
  return results;
}

}  // namespace nicsched::exp
