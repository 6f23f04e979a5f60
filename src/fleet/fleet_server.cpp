#include "fleet/fleet_server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"
#include "gnn/batched_latency_model.h"

namespace graf::fleet {

namespace {

/// Why drain rejects a pushed rate vector (the fleet.ingest.rejected cause
/// label), or nullptr when every rate is a finite, non-negative number.
const char* rejected_rate_cause(const std::vector<Qps>& api_qps) {
  for (Qps q : api_qps) {
    if (std::isnan(q)) return "nan";
    if (std::isinf(q)) return "inf";
    if (q < 0.0) return "negative";
  }
  return nullptr;
}

}  // namespace

FleetServer::FleetServer(FleetConfig cfg)
    : registry_{std::move(cfg.store_dir)}, queue_{cfg.ingest_capacity} {
  tel_pushes_ = &metrics_.counter("fleet.ingest.pushes");
  tel_dropped_ = &metrics_.counter("fleet.ingest.dropped");
  tel_stale_ = &metrics_.counter("fleet.ingest.stale");
  for (const char* cause : {"nan", "inf", "negative"})
    metrics_.counter("fleet.ingest.rejected", {{"cause", cause}});
  tel_steps_ = &metrics_.counter("fleet.steps");
  tel_plans_ = &metrics_.counter("fleet.plans");
  tel_changes_ = &metrics_.counter("fleet.plan_changes");
  tel_failures_ = &metrics_.counter("fleet.tenant_failures");
  tel_signal_losses_ = &metrics_.counter("fleet.signal_losses");
  tel_notifications_ = &metrics_.counter("fleet.notifications");
  tel_sub_failures_ = &metrics_.counter("fleet.subscriber_failures");
  tel_cache_hits_ = &metrics_.counter("fleet.plan_cache.hits");
  tel_cache_misses_ = &metrics_.counter("fleet.plan_cache.misses");
  tel_cache_evictions_ = &metrics_.counter("fleet.plan_cache.evictions");
  tel_batched_groups_ = &metrics_.counter("fleet.batched_groups");
  tel_batched_tenants_ = &metrics_.counter("fleet.batched_tenants");
  tel_tenants_ = &metrics_.gauge("fleet.tenants");
  tel_degraded_tenants_ = &metrics_.gauge("fleet.degraded_tenants");
}

FleetServer::~FleetServer() = default;

TenantId FleetServer::add_tenant(const TenantSpec& spec) {
  Tenant::validate(spec);  // before find(): a NaN SLO cannot form a key
  if (find(spec.application, spec.slo_ms))
    throw std::invalid_argument("fleet: tenant (" + spec.application + ", " +
                                std::to_string(spec.slo_ms) +
                                "ms) already exists");
  // The slot is claimed only once the tenant is built: a rejected spec
  // leaves the free list and the slot table untouched.
  const bool reuse = !free_slots_.empty();
  const std::uint32_t slot =
      reuse ? free_slots_.back() : static_cast<std::uint32_t>(slots_.size());
  const TenantId id{slot, reuse ? slots_[slot].generation : Slot{}.generation};
  auto tenant = std::make_unique<Tenant>(id, spec, registry_);
  if (reuse)
    free_slots_.pop_back();
  else
    slots_.emplace_back();
  slots_[slot].tenant = std::move(tenant);
  ++live_tenants_;
  tel_tenants_->set(static_cast<double>(live_tenants_));
  return id;
}

bool FleetServer::remove_tenant(TenantId id) {
  Tenant* t = resolve(id);
  if (t == nullptr) return false;
  Slot& slot = slots_[id.slot];
  slot.tenant.reset();   // ~Tenant detaches its handle from the registry
  ++slot.generation;     // every outstanding copy of `id` goes inert
  free_slots_.push_back(id.slot);
  --live_tenants_;
  tel_tenants_->set(static_cast<double>(live_tenants_));
  return true;
}

Tenant* FleetServer::resolve(TenantId id) const {
  if (id.slot >= slots_.size()) return nullptr;
  const Slot& slot = slots_[id.slot];
  if (slot.generation != id.generation) return nullptr;
  return slot.tenant.get();
}

Tenant* FleetServer::tenant(TenantId id) { return resolve(id); }
const Tenant* FleetServer::tenant(TenantId id) const { return resolve(id); }

std::optional<TenantId> FleetServer::find(const std::string& application,
                                          double slo_ms) const {
  const std::string key = serve::ModelKey{application, slo_ms}.str();
  for (const Slot& slot : slots_)
    if (slot.tenant && slot.tenant->key().str() == key)
      return slot.tenant->id();
  return std::nullopt;
}

bool FleetServer::enable_online_training(TenantId id,
                                         const serve::OnlineTrainerConfig& cfg) {
  Tenant* t = resolve(id);
  if (t == nullptr) return false;
  t->enable_online_training(cfg);
  return true;
}

bool FleetServer::push(TelemetryUpdate update) {
  pushes_.fetch_add(1, std::memory_order_relaxed);
  if (queue_.push(std::move(update))) return true;
  dropped_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

SubscriptionToken FleetServer::subscribe(PlanCallback cb,
                                         std::optional<TenantId> filter) {
  return subscribers_.subscribe(std::move(cb), filter);
}

FleetServer::StepStats FleetServer::step() {
  tel_steps_->add();
  // Mirror producer tallies as deltas (coordinator-only instrument writes).
  const std::uint64_t pushes = pushes_.load(std::memory_order_relaxed);
  const std::uint64_t dropped = dropped_.load(std::memory_order_relaxed);
  tel_pushes_->add(static_cast<double>(pushes - seen_pushes_));
  tel_dropped_->add(static_cast<double>(dropped - seen_dropped_));
  seen_pushes_ = pushes;
  seen_dropped_ = dropped;

  StepStats stats;

  // Phase 1 — drain: consume the ring in FIFO order, coalescing into each
  // tenant's pending slot (newest qps wins, samples append). The fan-out's
  // input is a pure function of push order, independent of thread count.
  // An update carrying a NaN, infinite or negative rate is rejected whole:
  // its rates never reach a cache key or the solver, and the cleared rate
  // slot sends the tenant down the signal-loss path (hold the last plan).
  TelemetryUpdate u;
  std::vector<Tenant*> pending;
  while (queue_.pop(u)) {
    ++stats.drained;
    Tenant* t = resolve(u.tenant);
    if (t == nullptr) {
      tel_stale_->add();
      continue;
    }
    if (!t->pending_) {
      t->pending_ = true;
      pending.push_back(t);
    }
    t->pending_now_ = u.now;
    if (const char* cause = rejected_rate_cause(u.api_qps)) {
      metrics_.counter("fleet.ingest.rejected", {{"cause", cause}}).add();
      t->pending_qps_.clear();
      continue;
    }
    if (!u.api_qps.empty()) t->pending_qps_ = std::move(u.api_qps);
    for (auto& s : u.samples) t->pending_samples_.push_back(s);
  }
  // `pending` preserves first-push order; sort into slot order so the
  // ordered commit below is stable regardless of ingest interleavings.
  std::sort(pending.begin(), pending.end(), [](const Tenant* a, const Tenant* b) {
    return a->id().slot < b->id().slot;
  });

  // Phase 2 — fan-out: one pending tenant per pool index. Each worker
  // touches exactly one tenant's private model/solver/metrics, so the
  // computation is race-free and bit-identical at any GRAF_THREADS
  // (§3.7: threads are pure executors; a failure degrades its tenant only).
  // prepare() resolves everything short of a solver run (signal loss,
  // hysteresis, cache hits, degraded fallbacks) and leaves tenants still
  // owing a solve flagged needs_solve_.
  if (!pending.empty()) {
    global_pool().parallel_for(pending.size(),
                               [&](std::size_t i) { pending[i]->prepare(); });
  }

  // Phase 2b — group (coordinator): coalesce owed solves by model content
  // fingerprint + node count + solver config, in slot order, so the group
  // list is a pure function of tenant state — never of thread count. A
  // tenant that matches no group leads a new one.
  std::vector<std::vector<Tenant*>> groups;
  for (Tenant* t : pending) {
    if (!t->needs_solve_) continue;
    const auto joins = [t](Tenant* lead) {
      if (lead->controller_->current_model().node_count() !=
              t->controller_->current_model().node_count() ||
          lead->solver_->config() != t->solver_->config() ||
          lead->model_fingerprint() != t->model_fingerprint())
        return false;
      // Tiered tenants batch only with tiered tenants whose surrogate
      // descent is bit-equivalent: same surrogate weights (fingerprint
      // covers config + scalers + every parameter), same descent knobs on
      // the surrogate tier, and the same trust band so accept/escalate
      // decisions match the solo path exactly.
      if (t->tiered_ == nullptr || lead->tiered_ == nullptr)
        return t->tiered_ == nullptr && lead->tiered_ == nullptr;
      return lead->tiered_->config().solver == t->tiered_->config().solver &&
             lead->tiered_->config().trust_band_pct ==
                 t->tiered_->config().trust_band_pct &&
             lead->surrogate_fingerprint_ == t->surrogate_fingerprint_;
    };
    const auto group = std::find_if(groups.begin(), groups.end(),
                                    [&](const auto& g) { return joins(g.front()); });
    if (group != groups.end())
      group->push_back(t);
    else
      groups.emplace_back(1, t);
  }

  // Phase 2c — solve fan-out: one group per pool index. Members of a group
  // are touched only by that group's worker, so the §3.7 single-writer
  // discipline holds for a batch exactly as for a lone tenant.
  if (!groups.empty()) {
    global_pool().parallel_for(groups.size(),
                               [&](std::size_t g) { solve_group(groups[g]); });
    for (const auto& group : groups) {
      if (group.size() < 2) continue;
      tel_batched_groups_->add();
      tel_batched_tenants_->add(static_cast<double>(group.size()));
    }
  }

  // Phase 3 — ordered commit on the coordinator, in slot order: plan-state
  // bookkeeping, trainer ingest (may publish/promote through the registry),
  // fleet counter mirroring, and change-only notification.
  for (Tenant* t : pending) commit(*t, stats);

  std::size_t degraded = 0;
  for (const Slot& slot : slots_)
    if (slot.tenant && slot.tenant->degraded()) ++degraded;
  tel_degraded_tenants_->set(static_cast<double>(degraded));
  return stats;
}

void FleetServer::solve_group(std::span<Tenant* const> group) {
  // Every member's descent rides one call over the lead's model (or, in
  // surrogate mode, the lead's surrogate), which is fingerprint-equal to
  // each member's own. Verification, escalation and the iteration ledger
  // stay per member, so a member's plan and counters are the bits its own
  // pipeline gives alone.
  Tenant* lead = group.front();
  std::vector<core::SolverResult> solved;
  try {
    if (lead->tiered_ != nullptr) {
      std::vector<core::TieredPlanner::Item> items;
      items.reserve(group.size());
      for (Tenant* t : group)
        items.push_back({t->tiered_.get(), &t->controller_->current_model(),
                         t->solver_.get(), t->prep_.scaled, t->prep_.slo_ms,
                         t->controller_->lower_bounds(),
                         t->controller_->upper_bounds()});
      // solve_items credits each item's solver with its surrogate descent,
      // and an escalated full solve instruments itself.
      solved = core::TieredPlanner::solve_items(
          lead->tiered_->active_surrogate(), lead->tiered_->config().solver, items);
    } else {
      const core::SolverConfig& cfg = lead->solver_->config();
      gnn::BatchedLatencyModel batched{lead->controller_->current_model(),
                                       std::max<std::size_t>(1, cfg.multi_starts)};
      std::vector<core::BatchItem> items;
      items.reserve(group.size());
      for (Tenant* t : group)
        items.push_back({t->prep_.scaled, t->prep_.slo_ms,
                         t->controller_->lower_bounds(),
                         t->controller_->upper_bounds()});
      std::vector<core::BatchItemResult> batch =
          core::ConfigurationSolver::solve_batch(batched, cfg, items);
      if (batch.size() == group.size()) {
        for (std::size_t i = 0; i < group.size(); ++i) {
          group[i]->solver_->note_external_iterations(batch[i].total_iterations);
          solved.push_back(std::move(batch[i].result));
        }
      }
    }
  } catch (...) {
    solved.clear();
  }
  if (solved.size() != group.size()) {
    if (group.size() == 1) {
      lead->needs_solve_ = false;
      lead->outcome_ = Tenant::Outcome::kFailed;
      return;
    }
    // The group failed as a unit; each member retries alone so one
    // tenant's pathology can't degrade its groupmates.
    for (Tenant* const& t : group) solve_group({&t, 1});
    return;
  }
  // finish_solve never throws (it catches into kFailed), so results are
  // consumed exactly once — no member can double-finish into its cache.
  for (std::size_t i = 0; i < group.size(); ++i)
    group[i]->finish_solve(std::move(solved[i]));
}

void FleetServer::commit(Tenant& t, StepStats& stats) {
  switch (t.outcome_) {
    case Tenant::Outcome::kPlanned:
      ++t.plans_;
      t.tel_plans_->add();
      tel_plans_->add();
      t.last_plan_ = std::move(t.computed_);
      t.has_plan_ = true;
      t.degraded_ = t.last_plan_.degraded;
      t.last_solved_qps_ = t.planned_qps_;
      t.slo_dirty_ = false;
      t.signal_lost_ = false;
      ++stats.planned;
      break;
    case Tenant::Outcome::kCoasted:
      ++stats.coasted;
      break;
    case Tenant::Outcome::kSignalLost:
      ++t.signal_losses_;
      t.tel_signal_loss_->add();
      tel_signal_losses_->add();
      t.signal_lost_ = true;
      // Coast on the last plan, flagged degraded; a tenant that never had
      // a plan has nothing to hold (and nothing to notify about).
      if (t.has_plan_) t.degraded_ = true;
      break;
    case Tenant::Outcome::kFailed:
      ++t.failures_;
      t.tel_failures_->add();
      tel_failures_->add();
      t.degraded_ = true;
      ++stats.failures;
      break;
    case Tenant::Outcome::kIdle:
      break;
  }
  t.tel_degraded_->set(t.degraded_ ? 1.0 : 0.0);

  // Trainer ingest runs here — sequentially, in slot order — because a
  // drift-triggered fine-tune publishes and promotes through the shared
  // registry; keeping it off the fan-out keeps registry mutation ordered
  // (and therefore replayable) without any cross-tenant contention.
  if (t.trainer_ != nullptr)
    for (const auto& sample : t.pending_samples_)
      t.trainer_->ingest(sample, t.pending_now_);

  // Mirror per-tenant plan-cache activity into the shared fleet counters as
  // deltas (no copy-the-world: only tenants that did work this step pay).
  const std::uint64_t hits = t.controller_->plan_cache_hits();
  const std::uint64_t misses = t.controller_->plan_cache_misses();
  const std::uint64_t evictions = t.controller_->plan_cache_evictions();
  tel_cache_hits_->add(static_cast<double>(hits - t.seen_cache_hits_));
  tel_cache_misses_->add(static_cast<double>(misses - t.seen_cache_misses_));
  tel_cache_evictions_->add(static_cast<double>(evictions - t.seen_cache_evictions_));
  t.seen_cache_hits_ = hits;
  t.seen_cache_misses_ = misses;
  t.seen_cache_evictions_ = evictions;

  // Change-only notification: subscribers hear from a tenant only when its
  // replica vector or degraded flag actually moved since the last notice.
  if (t.has_plan_) {
    const bool changed = t.seq_ == 0 ||
                         t.last_plan_.instances != t.last_notified_instances_ ||
                         t.degraded_ != t.last_notified_degraded_;
    if (changed) {
      ++t.seq_;
      ++t.plan_changes_;
      t.tel_changes_->add();
      tel_changes_->add();
      PlanUpdate update{t.id_,          t.application(), t.slo_ms_, t.seq_,
                       t.pending_now_, t.last_plan_,    t.degraded_};
      const auto pub = subscribers_.publish(update);
      tel_notifications_->add(static_cast<double>(pub.delivered));
      tel_sub_failures_->add(static_cast<double>(pub.failed));
      t.last_notified_instances_ = t.last_plan_.instances;
      t.last_notified_degraded_ = t.degraded_;
      ++stats.notified;
    }
  }

  t.pending_ = false;
  t.pending_samples_.clear();
  t.outcome_ = Tenant::Outcome::kIdle;
}

telemetry::RegistrySnapshot FleetServer::metrics_snapshot() const {
  telemetry::RegistrySnapshot snap = metrics_.snapshot();
  for (const Slot& slot : slots_)
    if (slot.tenant) snap.merge(slot.tenant->metrics().snapshot());
  return snap;
}

}  // namespace graf::fleet
