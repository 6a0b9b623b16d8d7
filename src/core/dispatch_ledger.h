// What a NIC-side dispatcher knows about its workers, and how it recovers
// when they go quiet (DESIGN §9).
//
// The ledger owns the informed half of dispatch: the core-status table the
// scheduler picks from, and the adaptive-K governor (DESIGN §11) that sizes
// each worker's outstanding bound from the sojourn samples workers report,
// optionally folded after a staleness delay (DESIGN §15).
//
// Under reliable dispatch it also owns the recovery machinery, identical for
// UDP frames (shinjuku-offload) and one-sided writes (rain): every dispatch
// is tracked under a sequence number with a retransmit timer that backs off
// per attempt; the worker's receipt ack swaps the timer for a completion
// watchdog; a retry budget abandons a request (and un-abandons it if it
// completes after all); a run of timeouts, or a watchdog firing, declares
// the worker dead and re-steers everything it held, in request-id order,
// back through the central queue; any later word from the worker revives
// it. The transports differ only in how an assignment is re-posted and how
// the dispatch loop is woken, which are the two callbacks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/central_queue.h"
#include "core/core_status.h"
#include "core/server.h"
#include "overload/overload.h"
#include "proto/messages.h"
#include "sim/arena.h"
#include "sim/simulator.h"
#include "sim/small_fn.h"

namespace nicsched::core {

class DispatchLedger {
 public:
  struct Config {
    std::size_t worker_count = 4;
    /// The queuing optimization's K, and the adaptive-K ceiling.
    std::uint32_t outstanding_per_worker = 4;
    ReliabilityParams reliability;
    overload::OverloadParams overload;
    /// Extra delay before a sojourn sample folds into the governor. Zero =
    /// the synchronous fold.
    sim::Duration feedback_staleness = sim::Duration::zero();
    /// Actor name on the ledger's trace lines.
    std::string trace_name = "dispatcher";
  };
  /// Re-sends one tracked assignment to `worker` after a retransmit timeout.
  using Repost = sim::SmallFn<void(std::size_t worker,
                                   const proto::RequestDescriptor& descriptor,
                                   std::uint64_t seq)>;
  /// Wakes the dispatch loop after a slot frees up or a worker revives.
  using Kick = sim::SmallFn<void()>;

  DispatchLedger(sim::Simulator& sim, CentralQueue& queue, Config config,
                 Repost repost, Kick kick);
  ~DispatchLedger();

  DispatchLedger(const DispatchLedger&) = delete;
  DispatchLedger& operator=(const DispatchLedger&) = delete;

  CoreStatusTable& status() { return status_; }
  const CoreStatusTable& status() const { return status_; }
  bool reliable() const { return config_.reliability.enabled; }
  /// Whether workers should sample their sojourn for the governor.
  bool adaptive_k() const {
    return config_.overload.enabled && config_.overload.adaptive_k_enabled;
  }
  /// Worker-side recovery counters (duplicates, note resends) land here too.
  ReliabilityStats& reliability_stats() { return rel_; }

  /// Starts tracking an assignment just sent to `worker` and arms its
  /// retransmit timer. Returns the sequence number to stamp on it, or 0
  /// (and tracks nothing) when dispatch is unreliable.
  std::uint64_t track(const proto::RequestDescriptor& descriptor,
                      std::size_t worker);
  /// Any word from `worker` proves it alive: clears its timeout streak and
  /// revives it if it was declared dead. No-op when unreliable.
  void note_alive(std::size_t worker);
  /// The worker's receipt of `seq`: swaps the retransmit timer for the
  /// completion watchdog. No-op when unreliable.
  void acked(std::size_t worker, std::uint64_t seq);
  /// Retires the tracked assignment a completion (or preemption) report
  /// resolves. False for reports the caller must ignore: abandoned requests
  /// (a completion un-counts the abandonment) and stale reports from a
  /// worker the request was re-steered off, whose slot is already free.
  /// Always true when unreliable.
  bool retire(std::size_t worker, std::uint64_t request_id, bool completed);
  /// First sight of a worker's note `seq` (lossy transports resend notes
  /// until acked). Counts a duplicate and returns false otherwise.
  bool first_note(std::size_t worker, std::uint64_t seq);

  /// Folds a worker's sojourn sample into the adaptive-K governor and
  /// applies the new bound, now or after the staleness delay. No-op unless
  /// adaptive-K is on.
  void fold_sojourn(std::size_t worker, sim::Duration sojourn);

  /// Adds reliability and adaptive-K counters and the outstanding total.
  void add_to(ServerStats& stats) const;
  void add_to(ServerTelemetry& telemetry) const;

 private:
  struct Inflight {
    proto::RequestDescriptor descriptor;
    std::size_t worker = 0;
    std::uint64_t seq = 0;
    std::uint32_t attempts = 1;
    bool acked = false;
    sim::EventHandle timer;  // retransmit timer, then completion watchdog
  };

  void arm_retransmit(Inflight& entry);
  void on_retransmit_timeout(std::uint64_t request_id, std::uint64_t seq);
  void on_completion_timeout(std::uint64_t request_id, std::uint64_t seq);
  void declare_dead(std::size_t worker);
  void reset_capacity(std::size_t worker);

  sim::Simulator& sim_;
  CentralQueue& queue_;
  Config config_;
  Repost repost_;
  Kick kick_;
  CoreStatusTable status_;
  overload::AdaptiveKController adaptive_k_;

  // Per-request bookkeeping nodes churn once per tracked request; the arena's
  // exact-size freelists recycle them so the reliable steady state stays off
  // the global allocator (sim_alloc_test pins this). Declared before the
  // containers it feeds: members destroy in reverse order, so the maps
  // release their nodes while the arena still exists.
  sim::ArenaResource arena_;
  std::pmr::unordered_map<std::uint64_t, Inflight> inflight_{&arena_};
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> seq_to_request_{
      &arena_};
  std::uint64_t next_seq_ = 1;
  /// Requests whose retry budget ran out; a late completion for one of these
  /// decrements `rel_.abandoned` again so conservation stays exact.
  std::pmr::unordered_set<std::uint64_t> abandoned_ids_{&arena_};
  std::vector<std::uint32_t> consecutive_timeouts_;  // per worker
  std::vector<std::pmr::unordered_set<std::uint64_t>> seen_note_seqs_;
  ReliabilityStats rel_;
};

}  // namespace nicsched::core
