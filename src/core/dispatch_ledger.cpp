#include "core/dispatch_ledger.h"

#include <algorithm>
#include <utility>

namespace nicsched::core {

DispatchLedger::DispatchLedger(sim::Simulator& sim, CentralQueue& queue,
                               Config config, Repost repost, Kick kick)
    : sim_(sim),
      queue_(queue),
      config_(std::move(config)),
      repost_(std::move(repost)),
      kick_(std::move(kick)),
      status_(config_.worker_count, config_.outstanding_per_worker),
      adaptive_k_(config_.overload, config_.worker_count,
                  config_.outstanding_per_worker),
      consecutive_timeouts_(config_.worker_count, 0) {
  seen_note_seqs_.reserve(config_.worker_count);
  for (std::size_t i = 0; i < config_.worker_count; ++i) {
    seen_note_seqs_.emplace_back(&arena_);
  }
}

DispatchLedger::~DispatchLedger() = default;

std::uint64_t DispatchLedger::track(const proto::RequestDescriptor& descriptor,
                                    std::size_t worker) {
  if (!reliable()) return 0;
  const std::uint64_t seq = next_seq_++;
  // A request_id should never be dispatched while still tracked; if it ever
  // is, retire the stale entry's timer so no orphan event fires.
  auto stale = inflight_.find(descriptor.request_id);
  if (stale != inflight_.end()) {
    stale->second.timer.cancel();
    seq_to_request_.erase(stale->second.seq);
    inflight_.erase(stale);
  }
  Inflight entry;
  entry.descriptor = descriptor;
  entry.worker = worker;
  entry.seq = seq;
  seq_to_request_[seq] = descriptor.request_id;
  auto [it, inserted] =
      inflight_.emplace(descriptor.request_id, std::move(entry));
  arm_retransmit(it->second);
  return seq;
}

void DispatchLedger::arm_retransmit(Inflight& entry) {
  sim::Duration rto = config_.reliability.rto;
  for (std::uint32_t i = 1; i < entry.attempts; ++i) {
    rto = rto * config_.reliability.backoff;
  }
  entry.timer.cancel();
  entry.timer =
      sim_.after(rto, [this, id = entry.descriptor.request_id,
                       seq = entry.seq]() { on_retransmit_timeout(id, seq); });
}

void DispatchLedger::on_retransmit_timeout(std::uint64_t request_id,
                                           std::uint64_t seq) {
  auto it = inflight_.find(request_id);
  if (it == inflight_.end() || it->second.seq != seq || it->second.acked) {
    return;  // retired or re-dispatched since the timer was armed
  }
  Inflight& entry = it->second;
  const std::size_t worker = entry.worker;
  ++rel_.timeouts;
  ++consecutive_timeouts_[worker];
  if (consecutive_timeouts_[worker] >= config_.reliability.miss_threshold) {
    // The worker has missed too many acks in a row: liveness verdict, which
    // re-steers every in-flight request it holds (including this one).
    declare_dead(worker);
    return;
  }
  if (entry.attempts >= config_.reliability.retry_budget) {
    // Budget exhausted against a worker still believed alive: abandon. The
    // slot is freed; a late completion will un-count the abandonment.
    seq_to_request_.erase(entry.seq);
    inflight_.erase(it);
    abandoned_ids_.insert(request_id);
    ++rel_.abandoned;
    sim_.trace(sim::TraceCategory::kDispatch, [&] {
      return std::pair{config_.trace_name,
                       "abandon " + std::to_string(request_id)};
    });
    status_.note_retired(worker, sim_.now());
    kick_();
    return;
  }
  ++entry.attempts;
  ++rel_.retransmits;
  // Re-send the same sequenced assignment; if the first copy was merely
  // slow, the worker's seq dedup suppresses the duplicate.
  repost_(worker, entry.descriptor, entry.seq);
  arm_retransmit(entry);
}

void DispatchLedger::on_completion_timeout(std::uint64_t request_id,
                                           std::uint64_t seq) {
  auto it = inflight_.find(request_id);
  if (it == inflight_.end() || it->second.seq != seq || !it->second.acked) {
    return;
  }
  // The worker accepted the assignment but never reported back: it died (or
  // stalled far beyond the service-time budget) after the ack.
  ++rel_.timeouts;
  declare_dead(it->second.worker);
}

void DispatchLedger::note_alive(std::size_t worker) {
  if (!reliable()) return;
  consecutive_timeouts_[worker] = 0;
  if (!status_.entry(worker).healthy) {
    status_.set_healthy(worker, true);
    ++rel_.revivals;
    reset_capacity(worker);
    kick_();
  }
}

void DispatchLedger::acked(std::size_t worker, std::uint64_t seq) {
  if (!reliable()) return;
  auto sit = seq_to_request_.find(seq);
  if (sit == seq_to_request_.end()) {
    ++rel_.duplicates;  // ack for an entry already retired/abandoned
    return;
  }
  const std::uint64_t request_id = sit->second;
  auto it = inflight_.find(request_id);
  if (it == inflight_.end() || it->second.seq != seq ||
      it->second.worker != worker) {
    return;  // stale ack from a worker the request was re-steered off
  }
  Inflight& entry = it->second;
  if (entry.acked) {
    ++rel_.duplicates;
    return;
  }
  entry.acked = true;
  // Acceptance is not completion: swap the retransmit timer for a watchdog
  // that catches a worker dying *after* it acked.
  entry.timer.cancel();
  entry.timer = sim_.after(config_.reliability.completion_timeout,
                           [this, request_id, seq]() {
                             on_completion_timeout(request_id, seq);
                           });
}

bool DispatchLedger::retire(std::size_t worker, std::uint64_t request_id,
                            bool completed) {
  if (!reliable()) return true;
  if (abandoned_ids_.contains(request_id)) {
    if (completed) {
      // The "abandoned" request ran to completion after all (its assignment
      // arrived but every ack was lost); the client did get a response.
      abandoned_ids_.erase(request_id);
      --rel_.abandoned;
    }
    // A preemption report for an abandoned request is dropped: the request
    // stays accounted as abandoned and is never resumed.
    return false;
  }
  auto it = inflight_.find(request_id);
  if (it == inflight_.end() || it->second.worker != worker) {
    // Stale report from a worker the request was re-steered off; the dead
    // worker's slot was already freed when it was declared dead.
    ++rel_.duplicates;
    return false;
  }
  it->second.timer.cancel();
  seq_to_request_.erase(it->second.seq);
  inflight_.erase(it);
  return true;
}

bool DispatchLedger::first_note(std::size_t worker, std::uint64_t seq) {
  if (seen_note_seqs_[worker].insert(seq).second) return true;
  ++rel_.duplicates;
  return false;
}

void DispatchLedger::declare_dead(std::size_t worker) {
  if (!status_.entry(worker).healthy) return;
  status_.set_healthy(worker, false);
  ++rel_.worker_deaths;
  consecutive_timeouts_[worker] = 0;
  // Forget the dead worker's sojourn history; it restarts from full K so the
  // re-steer path and the governor compose cleanly.
  reset_capacity(worker);
  sim_.trace(sim::TraceCategory::kDispatch, [&] {
    return std::pair{config_.trace_name,
                     "worker" + std::to_string(worker) + " declared dead"};
  });
  // Re-steer everything the dead worker holds back through the centralized
  // queue; sorted so replay order never depends on hash-table layout.
  std::vector<std::uint64_t> ids;
  for (const auto& [id, entry] : inflight_) {
    if (entry.worker == worker) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const std::uint64_t id : ids) {
    auto it = inflight_.find(id);
    Inflight& entry = it->second;
    entry.timer.cancel();
    seq_to_request_.erase(entry.seq);
    proto::RequestDescriptor descriptor = std::move(entry.descriptor);
    inflight_.erase(it);
    status_.note_retired(worker, sim_.now());
    ++rel_.redispatched;
    queue_.push_preempted(std::move(descriptor), sim_.now());
  }
  kick_();
}

void DispatchLedger::reset_capacity(std::size_t worker) {
  if (!adaptive_k()) return;
  status_.set_capacity(worker,
                       static_cast<std::uint32_t>(adaptive_k_.reset(worker)));
}

void DispatchLedger::fold_sojourn(std::size_t worker, sim::Duration sojourn) {
  if (!adaptive_k()) return;
  const auto fold = [this, worker, sojourn]() {
    status_.set_capacity(worker, static_cast<std::uint32_t>(
                                     adaptive_k_.observe_sojourn(worker,
                                                                 sojourn)));
  };
  if (config_.feedback_staleness.is_zero()) {
    fold();
  } else {
    // A control loop whose load signal trails the data path (DESIGN §15).
    sim_.after(config_.feedback_staleness, fold);
  }
}

void DispatchLedger::add_to(ServerStats& stats) const {
  stats.reliability = rel_;
  stats.overload.k_shrinks = adaptive_k_.shrinks();
  stats.overload.k_restores = adaptive_k_.restores();
}

void DispatchLedger::add_to(ServerTelemetry& telemetry) const {
  telemetry.outstanding = status_.total_outstanding();
  telemetry.retransmits = rel_.retransmits + rel_.note_retransmits;
  telemetry.abandoned = rel_.abandoned;
}

}  // namespace nicsched::core
