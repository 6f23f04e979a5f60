// Hot-swappable handle to the latency model currently in service.
//
// The control plane (ResourceController) acquires the active model at the
// start of every decision. A ModelRegistry (model_registry.h) swaps a newly
// promoted version in between decisions. Shared ownership keeps a model
// alive for the duration of any plan computed against it even if it is
// demoted mid-flight, so swapping never pauses allocation.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

namespace graf::gnn {
class LatencyModel;
}

namespace graf::serve {

class ServingHandle {
 public:
  using Ptr = std::shared_ptr<gnn::LatencyModel>;

  ServingHandle() = default;
  explicit ServingHandle(Ptr initial) : active_{std::move(initial)} {}

  /// The model currently in service (may be null before the first swap).
  Ptr acquire() const {
    std::lock_guard lock{mu_};
    return active_;
  }

  /// Atomically replace the active model; returns the previous one.
  Ptr swap(Ptr next) {
    std::lock_guard lock{mu_};
    active_.swap(next);
    ++swaps_;
    return next;
  }

  bool empty() const {
    std::lock_guard lock{mu_};
    return active_ == nullptr;
  }

  std::uint64_t swap_count() const {
    std::lock_guard lock{mu_};
    return swaps_;
  }

 private:
  mutable std::mutex mu_;
  Ptr active_;
  std::uint64_t swaps_ = 0;
};

}  // namespace graf::serve
