#include "serve/registry.h"

#include <algorithm>

#include "serve/forecast_store.h"
#include "serve/model_registry.h"
#include "serve/surrogate_store.h"

namespace graf::serve {

std::string ModelKey::str() const {
  // Round to a tenth of a millisecond so the key survives text round-trips.
  return application + "_slo" +
         std::to_string(static_cast<long long>(slo_ms * 10.0 + 0.5));
}

template <typename T>
Registry<T>::Registry(std::string store_dir) : store_dir_{std::move(store_dir)} {}

template <typename T>
std::uint64_t Registry<T>::publish(const ModelKey& key, const T& model, Meta meta) {
  // Deep-copy before taking the lock: copying a model is the expensive part
  // of publish and needs no registry state.
  auto copy = std::make_shared<T>(model);
  meta.application = key.application;
  meta.slo_ms = key.slo_ms;
  Traits::stamp(meta, *copy);
  std::lock_guard lock{mu_};
  Entry& e = entries_[key.str()];
  const std::uint64_t version = e.next_version++;
  const std::string path = checkpoint_path(key, version);
  if (!path.empty()) Traits::save(path, *copy, meta);
  e.versions.push_back({version, std::move(meta), std::move(copy)});
  return version;
}

template <typename T>
std::uint64_t Registry<T>::restore(const ModelKey& key,
                                   const std::string& checkpoint_path) {
  // File IO stays outside the lock; publish() locks on its own.
  auto loaded = Traits::load(checkpoint_path);
  return publish(key, loaded.model, std::move(loaded.meta));
}

template <typename T>
bool Registry<T>::promote(const ModelKey& key, std::uint64_t version) {
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

template <typename T>
bool Registry<T>::rollback(const ModelKey& key) {
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

template <typename T>
std::shared_ptr<T> Registry<T>::active(const ModelKey& key) const {
  std::lock_guard lock{mu_};
  const Version* v = find_active(key);
  return v != nullptr ? v->model : nullptr;
}

template <typename T>
std::uint64_t Registry<T>::active_version(const ModelKey& key) const {
  std::lock_guard lock{mu_};
  auto it = entries_.find(key.str());
  return it == entries_.end() ? 0 : it->second.active;
}

template <typename T>
typename Registry<T>::Meta Registry<T>::active_meta(const ModelKey& key) const {
  std::lock_guard lock{mu_};
  const Version* v = find_active(key);
  return v != nullptr ? v->meta : Meta{};
}

template <typename T>
std::vector<std::uint64_t> Registry<T>::versions(const ModelKey& key) const {
  std::vector<std::uint64_t> out;
  std::lock_guard lock{mu_};
  auto it = entries_.find(key.str());
  if (it == entries_.end()) return out;
  for (const Version& v : it->second.versions) out.push_back(v.version);
  return out;
}

template <typename T>
void Registry<T>::attach_handle(const ModelKey& key, HandleType* handle) {
  if (handle == nullptr) return;
  std::lock_guard lock{mu_};
  Entry& e = entries_[key.str()];
  if (std::find(e.handles.begin(), e.handles.end(), handle) == e.handles.end())
    e.handles.push_back(handle);
  const Version* v = find(e, e.active);
  handle->swap(v != nullptr ? v->model : nullptr);
}

template <typename T>
void Registry<T>::detach_handle(const ModelKey& key, HandleType* handle) {
  std::lock_guard lock{mu_};
  auto it = entries_.find(key.str());
  if (it == entries_.end()) return;
  std::erase(it->second.handles, handle);
}

template <typename T>
std::string Registry<T>::checkpoint_path(const ModelKey& key,
                                         std::uint64_t version) const {
  if (store_dir_.empty()) return "";
  return store_dir_ + "/" + key.str() + ".v" + std::to_string(version) +
         Traits::kExtension;
}

template <typename T>
const typename Registry<T>::Version* Registry<T>::find(const Entry& e,
                                                       std::uint64_t version) {
  for (const Version& v : e.versions)
    if (v.version == version) return &v;
  return nullptr;
}

template <typename T>
const typename Registry<T>::Version* Registry<T>::find_active(const ModelKey& key) const {
  auto it = entries_.find(key.str());
  return it == entries_.end() ? nullptr : find(it->second, it->second.active);
}

template <typename T>
void Registry<T>::sync_handles(Entry& e) {
  const Version* v = find(e, e.active);
  for (HandleType* handle : e.handles) handle->swap(v != nullptr ? v->model : nullptr);
}

template class Registry<gnn::LatencyModel>;
template class Registry<forecast::ArForecaster>;
template class Registry<gnn::SurrogateModel>;

}  // namespace graf::serve
