// ShardGroup: a one-simulator holder that only perfbench uses. Its
// topology-build timer constructs `sim::ShardGroup group(1)` and hands it to
// ClusterBuilder. The serial `Simulator` is the only engine (DESIGN §14); a
// benchmark change that builds over a `Simulator` directly deletes this
// header.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>

#include "sim/simulator.h"

namespace nicsched::sim {

class ShardGroup {
 public:
  explicit ShardGroup(std::size_t shard_count) {
    if (shard_count != 1) {
      throw std::invalid_argument("ShardGroup: only one shard is supported");
    }
  }

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  operator Simulator&() { return *sim_; }

 private:
  // Heap-held: perfbench's timed topology build runs in the stack frame
  // that holds this object, and an inline Simulator there read about a
  // quarter slower in setup time on a 4-vCPU VM.
  std::unique_ptr<Simulator> sim_ = std::make_unique<Simulator>();
};

}  // namespace nicsched::sim
