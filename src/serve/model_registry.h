// Versioned latency-model store keyed by (application, SLO).
//
// The paper fine-tunes one latency model per SLO target (§5.3) and retrains
// when the workload leaves the trained region; the registry is where those
// models live. Every publish() creates a new immutable version holding a
// deep copy of the model plus its metadata; promote() selects the version
// that serves traffic (swapping every attached ServingHandle); rollback()
// restores the previously promoted version. With a store directory
// configured, every published version is also persisted as a .grafck
// checkpoint (checkpoint.h) so a restarted process can restore() it.
//
// Thread-safe: all public methods may be called concurrently (the fleet
// server makes publish/promote from trainer threads routine). Attached
// handles are swapped under the registry lock, so a reader that acquire()s
// mid-promote sees either the old or the new model, never a torn state.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/checkpoint.h"
#include "serve/serving_handle.h"

namespace graf::serve {

struct ModelKey {
  std::string application;
  double slo_ms = 0.0;

  /// Stable string form, used as map key and checkpoint file stem.
  std::string str() const;
};

class ModelRegistry {
 public:
  /// `store_dir`, when non-empty, must be an existing directory; published
  /// versions are written there as "<key>.v<version>.grafck".
  explicit ModelRegistry(std::string store_dir = "");

  /// Store a new version (deep copy of `model`). Returns its version id
  /// (monotonic per key, starting at 1). Does not change what serves.
  std::uint64_t publish(const ModelKey& key, const gnn::LatencyModel& model,
                        CheckpointMeta meta);

  /// Load a checkpoint and publish it under `key`.
  std::uint64_t restore(const ModelKey& key, const std::string& checkpoint_path);

  /// Make `version` the serving model for `key`; swaps the attached
  /// handles. Returns false if the version does not exist.
  bool promote(const ModelKey& key, std::uint64_t version);

  /// Re-promote the version that was serving before the current one.
  /// Returns false if there is no promotion history to unwind.
  bool rollback(const ModelKey& key);

  /// Currently promoted model (nullptr when nothing is promoted).
  std::shared_ptr<gnn::LatencyModel> active(const ModelKey& key) const;
  /// Currently promoted version id (0 when nothing is promoted).
  std::uint64_t active_version(const ModelKey& key) const;
  /// Metadata of the currently promoted version.
  CheckpointMeta active_meta(const ModelKey& key) const;
  /// Every published version id for `key`, oldest first.
  std::vector<std::uint64_t> versions(const ModelKey& key) const;

  /// Promotions and rollbacks keep `handle` pointing at the active model.
  /// Any number of handles may be attached per key (one per fleet tenant
  /// sharing the model); attaching the same handle twice is a no-op.
  void attach_handle(const ModelKey& key, ServingHandle* handle);

  /// Stop syncing `handle` on promote/rollback. Callers whose handle
  /// outlives them (fleet tenants) must detach before the handle dies.
  void detach_handle(const ModelKey& key, ServingHandle* handle);

  /// Path a version's checkpoint is stored at ("" without a store dir).
  std::string checkpoint_path(const ModelKey& key, std::uint64_t version) const;

 private:
  struct Version {
    std::uint64_t version = 0;
    CheckpointMeta meta;
    std::shared_ptr<gnn::LatencyModel> model;
  };
  struct Entry {
    std::vector<Version> versions;
    std::uint64_t next_version = 1;
    std::uint64_t active = 0;                    // 0 = none promoted
    std::vector<std::uint64_t> promote_history;  // promoted ids, oldest first
    /// Every attached handle swaps on promote/rollback. A single slot here
    /// once silently dropped the earlier tenant when two shared a key: its
    /// handle never swapped again, so it served a stale model forever and
    /// its plan-cache generation never bumped.
    std::vector<ServingHandle*> handles;
  };

  static const Version* find(const Entry& e, std::uint64_t version);
  const Version* find_active(const ModelKey& key) const;
  void sync_handles(Entry& e);

  std::string store_dir_;
  std::map<std::string, Entry> entries_;
  /// One coarse lock: publish/promote/rollback and the readers they race
  /// with are all map-and-vector bookkeeping (checkpoint IO aside, nothing
  /// here is hot). ServingHandle has its own mutex, so handle swaps inside
  /// sync_handles() nest safely. Fine-tuning happens *outside* the lock —
  /// the OnlineTrainer only enters the registry to publish the result.
  mutable std::mutex mu_;
};

}  // namespace graf::serve
