#include "obs/capture.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "obs/chrome_trace.h"

namespace nicsched::obs {

CaptureOptions capture_options_from_env() {
  CaptureOptions options;
  const char* prefix = std::getenv("NICSCHED_TRACE");
  if (prefix == nullptr || *prefix == '\0') return options;
  options.enabled = true;
  options.export_prefix = prefix;
  if (const char* cadence = std::getenv("NICSCHED_TRACE_CADENCE_US");
      cadence != nullptr && *cadence != '\0') {
    options.metric_cadence = sim::Duration::micros(std::atof(cadence));
  }
  return options;
}

Capture::Capture(sim::Simulator& sim, CaptureOptions options)
    : sim_(sim), options_(std::move(options)) {
  if (options_.metric_cadence > sim::Duration::zero()) {
    metrics_ = std::make_unique<MetricSampler>(sim_, options_.metric_cadence);
  }
}

void Capture::start(sim::TimePoint sample_until) {
  if (options_.spans) sim_.tracer().set_span_sink(spans_.sink());
  if (metrics_) metrics_->start(sample_until);
}

bool Capture::export_files() const {
  if (options_.export_prefix.empty()) return true;
  const std::string stem = options_.export_prefix + options_.label;
  bool ok = true;

  const auto lifecycles = spans_.completed();
  auto everything = lifecycles;
  for (auto& open : spans_.incomplete()) everything.push_back(std::move(open));
  if (!write_chrome_trace_file(stem + ".trace.json", everything)) ok = false;

  {
    std::ofstream out(stem + ".breakdown.csv");
    if (out) {
      write_breakdown_csv(out, lifecycles);
    } else {
      ok = false;
    }
  }
  if (metrics_) {
    std::ofstream out(stem + ".metrics.csv");
    if (out) {
      metrics_->write_csv(out);
    } else {
      ok = false;
    }
  }
  return ok;
}

void write_breakdown_csv(std::ostream& out,
                         const std::vector<RequestLifecycle>& lifecycles) {
  out << "request_id";
  for (std::uint16_t k = 0; k < kSpanKindCount; ++k) {
    out << ',' << to_string(static_cast<SpanKind>(k)) << "_us";
  }
  out << ",span_sum_us,e2e_us\n";
  char cell[48];
  for (const RequestLifecycle& lifecycle : lifecycles) {
    out << lifecycle.request_id;
    for (std::uint16_t k = 0; k < kSpanKindCount; ++k) {
      std::snprintf(cell, sizeof(cell), "%.6f",
                    lifecycle.total_of(static_cast<SpanKind>(k)).to_micros());
      out << ',' << cell;
    }
    std::snprintf(cell, sizeof(cell), "%.6f", lifecycle.total().to_micros());
    out << ',' << cell;
    std::snprintf(cell, sizeof(cell), "%.6f",
                  (lifecycle.end() - lifecycle.begin()).to_micros());
    out << ',' << cell << '\n';
  }
}

}  // namespace nicsched::obs
