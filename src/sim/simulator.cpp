#include "sim/simulator.h"

namespace nicsched::sim {

std::uint64_t Simulator::run() {
  stopped_ = false;
  std::uint64_t fired = 0;
  TimePoint when;
  EventFn callback;
  while (!stopped_ && queue_.pop_next(when, callback)) {
    now_ = when;
    callback();
    ++fired;
    ++events_fired_;
  }
  return fired;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  stopped_ = false;
  std::uint64_t fired = 0;
  TimePoint when;
  EventFn callback;
  while (!stopped_) {
    const TimePoint next = queue_.next_event_time();
    if (next > deadline) break;
    if (!queue_.pop_next(when, callback)) break;
    now_ = when;
    callback();
    ++fired;
    ++events_fired_;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

bool Simulator::step() {
  TimePoint when;
  EventFn callback;
  if (!queue_.pop_next(when, callback)) return false;
  now_ = when;
  callback();
  ++events_fired_;
  return true;
}

}  // namespace nicsched::sim
