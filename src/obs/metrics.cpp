#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace nicsched::obs {

double TimeSeries::max() const {
  double best = 0.0;
  for (double v : values) best = std::max(best, v);
  return best;
}

double TimeSeries::mean() const {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

MetricSampler::MetricSampler(sim::Simulator& sim, sim::Duration cadence)
    : sim_(sim), cadence_(cadence) {
  if (cadence_ <= sim::Duration::zero()) {
    throw std::invalid_argument("MetricSampler: cadence must be positive");
  }
}

void MetricSampler::add_probe(std::string name,
                              std::function<double()> probe) {
  add_probe_block({std::move(name)},
                  [probe = std::move(probe)]() {
                    return std::vector<double>{probe()};
                  });
}

void MetricSampler::add_probe_block(
    std::vector<std::string> names,
    std::function<std::vector<double>()> probe) {
  if (running_) {
    throw std::logic_error("MetricSampler: add probes before start()");
  }
  Block block;
  block.first_series = series_.size();
  block.count = names.size();
  block.probe = std::move(probe);
  for (auto& name : names) {
    TimeSeries series;
    series.name = std::move(name);
    series_.push_back(std::move(series));
  }
  blocks_.push_back(std::move(block));
}

void MetricSampler::start(sim::TimePoint until) {
  if (running_) return;
  running_ = true;
  until_ = until;
  sim_.after(cadence_, [this]() { tick(); });
}

void MetricSampler::tick() {
  const sim::TimePoint now = sim_.now();
  if (now > until_) return;
  ++ticks_;
  for (const Block& block : blocks_) {
    const std::vector<double> values = block.probe();
    const std::size_t n = std::min(block.count, values.size());
    for (std::size_t i = 0; i < n; ++i) {
      TimeSeries& series = series_[block.first_series + i];
      series.at.push_back(now);
      series.values.push_back(values[i]);
    }
  }
  sim_.after(cadence_, [this]() { tick(); });
}

const TimeSeries* MetricSampler::find(const std::string& name) const {
  for (const TimeSeries& series : series_) {
    if (series.name == name) return &series;
  }
  return nullptr;
}

void MetricSampler::write_csv(std::ostream& out) const {
  out << "time_us";
  for (const TimeSeries& series : series_) out << ',' << series.name;
  out << '\n';
  std::size_t rows = 0;
  for (const TimeSeries& series : series_) {
    rows = std::max(rows, series.size());
  }
  for (std::size_t row = 0; row < rows; ++row) {
    // All series tick together; take the timestamp from the first that has
    // this row.
    sim::TimePoint when;
    for (const TimeSeries& series : series_) {
      if (row < series.at.size()) {
        when = series.at[row];
        break;
      }
    }
    char stamp[48];
    std::snprintf(stamp, sizeof(stamp), "%.3f",
                  (when - sim::TimePoint::origin()).to_micros());
    out << stamp;
    for (const TimeSeries& series : series_) {
      out << ',';
      if (row < series.values.size()) {
        char value[48];
        std::snprintf(value, sizeof(value), "%.6g", series.values[row]);
        out << value;
      }
    }
    out << '\n';
  }
}

}  // namespace nicsched::obs
