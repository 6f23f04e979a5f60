// Open-loop load generator (the paper's Vegeta [13]): requests arrive at a
// target rate regardless of completions — the right model for measuring
// what a fixed external demand does to the system (surge Figures 2/3/7).
//
// Generator state lives behind a shared_ptr owned by the scheduled events
// themselves, so a generator object may safely go out of scope while its
// arrival chain drains (the chain stops at `until` or after stop()).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/cluster.h"
#include "workload/schedule.h"

namespace graf::workload {

struct OpenLoopConfig {
  Schedule rate = Schedule::constant(100.0);  ///< qps over time
  /// Weights over the cluster's APIs; empty = all weight on API 0.
  std::vector<double> api_weights;
  bool poisson = true;  ///< exponential inter-arrivals; false = fixed pacing
  std::uint64_t seed = 7;
  /// Invoked for every completed (or failed) request.
  sim::Cluster::CompletionFn on_complete;
};

class OpenLoopGenerator {
 public:
  OpenLoopGenerator(sim::Cluster& cluster, OpenLoopConfig cfg);

  /// Begin injecting arrivals until `until` (simulation time).
  void start(Seconds until);
  void stop() { state_->stopped = true; }

  std::uint64_t generated() const { return state_->generated; }

 private:
  struct State {
    sim::Cluster& cluster;
    OpenLoopConfig cfg;
    Rng rng;
    Seconds until = 0.0;
    bool stopped = true;
    std::uint64_t generated = 0;
  };

  static void arm_next(const std::shared_ptr<State>& st);

  std::shared_ptr<State> state_;
};

}  // namespace graf::workload
