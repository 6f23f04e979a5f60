#include "workload/open_loop.h"

#include <stdexcept>

namespace graf::workload {

OpenLoopGenerator::OpenLoopGenerator(sim::Cluster& cluster, OpenLoopConfig cfg)
    : state_{std::make_shared<State>(State{cluster, std::move(cfg), Rng{0}})} {
  state_->rng = Rng{state_->cfg.seed};
  if (state_->cfg.api_weights.empty()) {
    state_->cfg.api_weights.assign(cluster.api_count(), 0.0);
    state_->cfg.api_weights[0] = 1.0;
  }
  if (state_->cfg.api_weights.size() != cluster.api_count())
    throw std::invalid_argument{"OpenLoopGenerator: weight/API count mismatch"};
}

void OpenLoopGenerator::start(Seconds until) {
  state_->until = until;
  state_->stopped = false;
  arm_next(state_);
}

void OpenLoopGenerator::arm_next(const std::shared_ptr<State>& st) {
  const Seconds now = st->cluster.now();
  if (st->stopped || now >= st->until) return;
  const double rate = st->cfg.rate.at(now);
  if (rate <= 0.0) {
    // Idle poll until the schedule turns back on.
    st->cluster.events().schedule_in(0.1, [st] { arm_next(st); });
    return;
  }
  const Seconds dt = st->cfg.poisson ? st->rng.exponential(rate) : 1.0 / rate;
  st->cluster.events().schedule_in(dt, [st] {
    if (st->stopped || st->cluster.now() > st->until) return;
    const int api = static_cast<int>(st->rng.weighted_index(st->cfg.api_weights));
    st->cluster.submit_request(api, st->cfg.on_complete);
    ++st->generated;
    arm_next(st);
  });
}

}  // namespace graf::workload
