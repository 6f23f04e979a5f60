#include "serve/model_registry.h"

#include <algorithm>

namespace graf::serve {

std::string ModelKey::str() const {
  // Round to a tenth of a millisecond so the key survives text round-trips.
  return application + "_slo" +
         std::to_string(static_cast<long long>(slo_ms * 10.0 + 0.5));
}

ModelRegistry::ModelRegistry(std::string store_dir) : store_dir_{std::move(store_dir)} {}

std::uint64_t ModelRegistry::publish(const ModelKey& key, const gnn::LatencyModel& model,
                                     CheckpointMeta meta) {
  // Deep-copy before taking the lock: copying a model is the expensive part
  // of publish and needs no registry state. A version serves; nothing trains
  // it in place, so it keeps no gradient buffers.
  auto copy = std::make_shared<gnn::LatencyModel>(model);
  copy->release_grads();
  meta.application = key.application;
  meta.slo_ms = key.slo_ms;
  std::lock_guard lock{mu_};
  Entry& e = entries_[key.str()];
  const std::uint64_t version = e.next_version++;
  const std::string path = checkpoint_path(key, version);
  if (!path.empty()) save_checkpoint_file(path, *copy, meta);
  e.versions.push_back({version, std::move(meta), std::move(copy)});
  return version;
}

std::uint64_t ModelRegistry::restore(const ModelKey& key,
                                     const std::string& checkpoint_path) {
  // File IO stays outside the lock; publish() locks on its own.
  LoadedCheckpoint loaded = load_checkpoint_file(checkpoint_path);
  return publish(key, loaded.model, std::move(loaded.meta));
}

bool ModelRegistry::promote(const ModelKey& key, std::uint64_t version) {
  std::lock_guard lock{mu_};
  auto it = entries_.find(key.str());
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  if (find(e, version) == nullptr) return false;
  if (e.active == version) return true;
  e.active = version;
  e.promote_history.push_back(version);
  sync_handles(e);
  return true;
}

bool ModelRegistry::rollback(const ModelKey& key) {
  std::lock_guard lock{mu_};
  auto it = entries_.find(key.str());
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  if (e.promote_history.size() < 2) return false;
  e.promote_history.pop_back();
  e.active = e.promote_history.back();
  sync_handles(e);
  return true;
}

std::shared_ptr<gnn::LatencyModel> ModelRegistry::active(const ModelKey& key) const {
  std::lock_guard lock{mu_};
  const Version* v = find_active(key);
  return v != nullptr ? v->model : nullptr;
}

std::uint64_t ModelRegistry::active_version(const ModelKey& key) const {
  std::lock_guard lock{mu_};
  auto it = entries_.find(key.str());
  return it == entries_.end() ? 0 : it->second.active;
}

CheckpointMeta ModelRegistry::active_meta(const ModelKey& key) const {
  std::lock_guard lock{mu_};
  const Version* v = find_active(key);
  return v != nullptr ? v->meta : CheckpointMeta{};
}

std::vector<std::uint64_t> ModelRegistry::versions(const ModelKey& key) const {
  std::vector<std::uint64_t> out;
  std::lock_guard lock{mu_};
  auto it = entries_.find(key.str());
  if (it == entries_.end()) return out;
  for (const Version& v : it->second.versions) out.push_back(v.version);
  return out;
}

void ModelRegistry::attach_handle(const ModelKey& key, ServingHandle* handle) {
  if (handle == nullptr) return;
  std::lock_guard lock{mu_};
  Entry& e = entries_[key.str()];
  if (std::find(e.handles.begin(), e.handles.end(), handle) == e.handles.end())
    e.handles.push_back(handle);
  const Version* v = find(e, e.active);
  handle->swap(v != nullptr ? v->model : nullptr);
}

void ModelRegistry::detach_handle(const ModelKey& key, ServingHandle* handle) {
  std::lock_guard lock{mu_};
  auto it = entries_.find(key.str());
  if (it == entries_.end()) return;
  std::erase(it->second.handles, handle);
}

std::string ModelRegistry::checkpoint_path(const ModelKey& key,
                                           std::uint64_t version) const {
  if (store_dir_.empty()) return "";
  return store_dir_ + "/" + key.str() + ".v" + std::to_string(version) + ".grafck";
}

const ModelRegistry::Version* ModelRegistry::find(const Entry& e, std::uint64_t version) {
  for (const Version& v : e.versions)
    if (v.version == version) return &v;
  return nullptr;
}

const ModelRegistry::Version* ModelRegistry::find_active(const ModelKey& key) const {
  auto it = entries_.find(key.str());
  return it == entries_.end() ? nullptr : find(it->second, it->second.active);
}

void ModelRegistry::sync_handles(Entry& e) {
  const Version* v = find(e, e.active);
  for (ServingHandle* handle : e.handles) handle->swap(v != nullptr ? v->model : nullptr);
}

}  // namespace graf::serve
