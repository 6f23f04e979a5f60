// FleetServer: one long-running control-plane daemon planning for many
// (application, SLO) tenants concurrently.
//
// Threading model (the GMA_V3 dispatcher shape, DESIGN.md §3.10):
//
//   producers ──push()──► IngestQueue (lock-free MPSC ring)
//                              │ drain, coalesce per tenant   ┐
//                              ▼                              │ step(), on
//                    parallel_for over pending tenants        │ the single
//                              │ per-tenant plan slots        │ coordinator
//                              ▼                              │ thread
//                    ordered commit + trainer ingest          │
//                    + change-only subscriber notify          ┘
//
// push() is safe from any number of threads and never blocks (a full ring
// rejects, counted as fleet.ingest.dropped). Everything else — add/remove
// tenant, step(), snapshots — is coordinator-thread only: the control plane
// is a single-writer design, and all cross-thread traffic funnels through
// the ring or the pool's fork/join.
//
// Determinism (§3.7 discipline): the drain consumes the ring in FIFO order
// and coalesces into per-tenant slots (last qps wins, samples append), so
// the fan-out's input is a pure function of push order. The fan-out gives
// each pool worker exactly one tenant's private state — its own model,
// solver, controller, and MetricsRegistry — so no instrument or tape is
// shared across workers. Commit, trainer ingest, and notification then run
// sequentially in tenant-slot order on the coordinator. Work decomposition
// never depends on the thread count, so a scripted scenario replays
// bit-identically at GRAF_THREADS=1 and 8.
//
// Designed-out bug classes (exemplar post-mortem, ROADMAP):
//   - listener UAF after lock release → SubscriberRegistry weak tokens
//   - dangling pointers into rehashed maps → stable (slot, generation) ids
//   - copy-the-world per tick → step() touches only tenants with pending
//     telemetry; fleet counters mirror per-tenant activity as deltas.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fleet/ingest_queue.h"
#include "fleet/subscriber.h"
#include "fleet/tenant.h"
#include "serve/model_registry.h"
#include "telemetry/metrics.h"

namespace graf::fleet {

struct FleetConfig {
  /// Ingest ring capacity (rounded up to a power of two).
  std::size_t ingest_capacity = 1024;
  /// Checkpoint directory for the shared ModelRegistry ("" = in-memory).
  std::string store_dir;
};

class FleetServer {
 public:
  explicit FleetServer(FleetConfig cfg = {});
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  // ---- tenant lifecycle (coordinator thread) -------------------------------

  /// Admit a tenant: publishes spec.model as v1 under (application, slo_ms)
  /// and wires the full per-tenant pipeline. Throws std::invalid_argument
  /// on a duplicate (application, SLO) pair or a malformed spec.
  TenantId add_tenant(const TenantSpec& spec);

  /// Evict a tenant; its slot is recycled under a new generation, so every
  /// outstanding copy of `id` goes inert. Returns false for a stale id.
  bool remove_tenant(TenantId id);

  /// Resolve a tenant id (nullptr when stale or removed — never dangling).
  Tenant* tenant(TenantId id);
  const Tenant* tenant(TenantId id) const;

  std::optional<TenantId> find(const std::string& application, double slo_ms) const;
  std::size_t tenant_count() const { return live_tenants_; }

  /// Attach the drift → fine-tune → promote loop to `id`'s tenant; samples
  /// carried by TelemetryUpdate::samples feed it during step(). Returns
  /// false for a stale id.
  bool enable_online_training(TenantId id, const serve::OnlineTrainerConfig& cfg);

  // ---- telemetry ingest (any thread) ---------------------------------------

  /// Enqueue a telemetry push. Never blocks; returns false (and counts
  /// fleet.ingest.dropped) when the ring is full. A stale tenant id is
  /// accepted here and discarded at drain time (fleet.ingest.stale); so is
  /// an update carrying a NaN, infinite or negative rate
  /// (fleet.ingest.rejected{cause}), whose tenant then holds its last plan
  /// as on signal loss.
  bool push(TelemetryUpdate update);

  // ---- the control cycle (coordinator thread) ------------------------------

  struct StepStats {
    std::size_t drained = 0;   ///< updates consumed from the ring
    std::size_t planned = 0;   ///< tenants that ran a fresh solve
    std::size_t coasted = 0;   ///< tenants held inside the hysteresis band
    std::size_t failures = 0;  ///< tenants whose solve threw (degraded alone)
    std::size_t notified = 0;  ///< tenants whose plan changed (subscribers told)
  };

  /// One cycle: drain + coalesce, fan plan computation over the global
  /// thread pool, then commit/train/notify sequentially in slot order.
  /// The fan-out prepares every pending tenant, the coordinator groups
  /// still-owed solves by (model fingerprint, node count, solver config),
  /// and each group, whatever its size, descends as rows of one frozen pass
  /// — bit-identical to each tenant solving alone (§3.13).
  StepStats step();

  // ---- subscriptions -------------------------------------------------------

  /// Receive a PlanUpdate whenever a tenant's plan *changes* (instances or
  /// degraded flag) — not every tick. Callbacks run on the coordinator
  /// thread during step(); drop the token to unsubscribe. `filter` limits
  /// delivery to one tenant.
  SubscriptionToken subscribe(PlanCallback cb,
                              std::optional<TenantId> filter = std::nullopt);

  // ---- shared state --------------------------------------------------------

  serve::ModelRegistry& registry() { return registry_; }
  /// Fleet-level instruments (fleet.ingest.*, fleet.steps, ...).
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  /// Fleet instruments merged with every live tenant's registry, in slot
  /// order — the one-stop export surface.
  telemetry::RegistrySnapshot metrics_snapshot() const;

 private:
  struct Slot {
    std::unique_ptr<Tenant> tenant;     ///< null while free
    std::uint32_t generation = 1;       ///< bumped on every removal
  };

  Tenant* resolve(TenantId id) const;
  void commit(Tenant& t, StepStats& stats);
  /// Solve one fingerprint group, of any size, with one call: a
  /// ConfigurationSolver::solve_batch over the lead's model, or in surrogate
  /// mode one TieredPlanner::solve_items over the lead's surrogate. If a
  /// group of two or more throws, each member retries as a group of one; a
  /// group of one that throws fails its tenant. Runs on a pool worker (one
  /// worker per group; members' state is private to that worker).
  void solve_group(std::span<Tenant* const> group);

  // Registry before slots_: ~Tenant detaches its handle from registry_.
  serve::ModelRegistry registry_;
  telemetry::MetricsRegistry metrics_;
  IngestQueue queue_;
  SubscriberRegistry subscribers_;

  std::vector<Slot> slots_;             ///< stable — never rehashes/moves ids
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_tenants_ = 0;

  // Producer-side tallies (the only cross-thread state besides the ring);
  // mirrored into fleet.ingest.* counters at the top of each step.
  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::uint64_t seen_pushes_ = 0;
  std::uint64_t seen_dropped_ = 0;

  // Coordinator-only instruments.
  telemetry::Counter* tel_pushes_ = nullptr;
  telemetry::Counter* tel_dropped_ = nullptr;
  telemetry::Counter* tel_stale_ = nullptr;
  telemetry::Counter* tel_steps_ = nullptr;
  telemetry::Counter* tel_plans_ = nullptr;
  telemetry::Counter* tel_changes_ = nullptr;
  telemetry::Counter* tel_failures_ = nullptr;
  telemetry::Counter* tel_signal_losses_ = nullptr;
  telemetry::Counter* tel_notifications_ = nullptr;
  telemetry::Counter* tel_sub_failures_ = nullptr;
  telemetry::Counter* tel_cache_hits_ = nullptr;
  telemetry::Counter* tel_cache_misses_ = nullptr;
  telemetry::Counter* tel_cache_evictions_ = nullptr;
  telemetry::Counter* tel_batched_groups_ = nullptr;
  telemetry::Counter* tel_batched_tenants_ = nullptr;
  telemetry::Gauge* tel_tenants_ = nullptr;
  telemetry::Gauge* tel_degraded_tenants_ = nullptr;
};

}  // namespace graf::fleet
