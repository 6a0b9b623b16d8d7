// The speed reference: a fixed piece of simulator-shaped work that uses
// nothing from ../src, so no change to the program can change it. Timed on
// the same CPU right after a measurement, it tells how fast the machine ran
// just then; main.cpp reports host times at a fixed reference speed.
#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace nicsched::perfbench {

namespace {

constexpr std::uint32_t kFlows = 256;
constexpr std::size_t kInFlight = 512;
constexpr std::uint64_t kEventsPerChunk = 20000;
/// Reference time per measured second: enough to span the machine's state
/// over the measurement, little enough to leave most of a run measuring.
constexpr double kShare = 0.25;

struct Frame {
  std::array<std::uint8_t, 96> bytes{};
};

struct Event {
  std::uint64_t when = 0;
  std::uint64_t seq = 0;
  std::function<void()> fire;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }
};

struct FlowState {
  std::uint64_t bytes = 0;
  std::uint32_t packets = 0;
  std::uint16_t last_sum = 0;
};

/// Ones'-complement sum over 16-bit words, as an Internet checksum does.
std::uint16_t checksum(const Frame& frame) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < frame.bytes.size(); i += 2) {
    sum += static_cast<std::uint32_t>(frame.bytes[i] << 8 | frame.bytes[i + 1]);
  }
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

/// One chunk: an event loop over a binary heap of closures. Every event
/// fills a pooled frame, checksums it, updates a hashed flow table (with
/// erase and insert churn) and schedules its flow's next event.
class Chunk {
 public:
  std::uint64_t run() {
    for (std::uint32_t f = 0; f < kFlows; ++f) schedule(f, f);
    while (fired_ < kEventsPerChunk && !heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Event event = std::move(heap_.back());
      heap_.pop_back();
      now_ = event.when;
      ++fired_;
      event.fire();
    }
    return digest_ ^ fired_;
  }

 private:
  std::uint64_t next_random() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  void schedule(std::uint32_t flow, std::uint64_t delay) {
    heap_.push_back({now_ + delay, seq_++, [this, flow]() { packet(flow); }});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  void packet(std::uint32_t flow) {
    std::unique_ptr<Frame> frame;
    if (free_.empty()) {
      frame = std::make_unique<Frame>();
    } else {
      frame = std::move(free_.back());
      free_.pop_back();
    }
    std::uint64_t word = next_random();
    for (std::size_t i = 0; i < frame->bytes.size(); ++i) {
      if (i % 8 == 0) word = word * 6364136223846793005ULL + flow;
      frame->bytes[i] = static_cast<std::uint8_t>(word >> (8 * (i % 8)));
    }
    const std::uint16_t sum = checksum(*frame);
    const std::uint64_t key = (flow + 1ULL) * 0x9E3779B97F4A7C15ULL;
    FlowState& state = flows_[key];
    state.bytes += frame->bytes.size();
    state.last_sum = sum;
    if (++state.packets % 8 == 0) {
      const FlowState kept = state;
      flows_.erase(key);
      flows_.emplace(key ^ now_, kept);
      flows_.erase(key ^ now_);
      flows_.emplace(key, kept);
    }
    digest_ = (digest_ ^ sum ^ now_) * 1099511628211ULL;
    // Frames stay in flight for a while, then return to the pool.
    std::unique_ptr<Frame>& slot = ring_[cursor_++ % kInFlight];
    if (slot) free_.push_back(std::move(slot));
    slot = std::move(frame);
    schedule(flow, 100 + next_random() % 900);
  }

  std::vector<Event> heap_;
  std::vector<std::unique_ptr<Frame>> free_;
  std::vector<std::unique_ptr<Frame>> ring_ =
      std::vector<std::unique_ptr<Frame>>(kInFlight);
  std::size_t cursor_ = 0;
  std::unordered_map<std::uint64_t, FlowState> flows_;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t rng_ = 0x2545F4914F6CDD1DULL;
  std::uint64_t digest_ = 14695981039346656037ULL;
};

}  // namespace

double SpeedReference::scale(double seconds) {
  double spent = 0.0;
  std::uint64_t events = 0;
  do {
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t digest = Chunk().run();
    spent += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
    events += kEventsPerChunk;
    if (!expected_) expected_ = digest;
    ok_ = ok_ && digest == *expected_;
  } while (spent < kShare * seconds);
  return kNominalNsPerEvent * static_cast<double>(events) / (spent * 1e9);
}

}  // namespace nicsched::perfbench
