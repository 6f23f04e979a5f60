#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

namespace graf {

ThreadPool::ThreadPool(std::size_t threads)
    : threads_{threads == 0 ? configured_threads() : threads} {
  // The calling thread is worker 0 (parallel_for participates), so a pool
  // of size N spawns N-1 background workers.
  for (std::size_t i = 1; i < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock{mu_};
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> task) {
  if (workers_.empty()) {
    task();  // size-1 pool: run inline
    return;
  }
  {
    std::lock_guard<std::mutex> lock{mu_};
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock{mu_};
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    // First exception by *index*, so a failing run reports deterministically.
    std::mutex err_mu;
    std::size_t err_index = 0;
    std::exception_ptr error;
    std::promise<void> all_done;
  };
  auto shared = std::make_shared<Shared>();
  const std::function<void(std::size_t)>* f = &fn;

  auto drain = [shared, f, n] {
    for (;;) {
      const std::size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*f)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock{shared->err_mu};
        if (!shared->error || i < shared->err_index) {
          shared->error = std::current_exception();
          shared->err_index = i;
        }
      }
      if (shared->done.fetch_add(1, std::memory_order_acq_rel) + 1 == n)
        shared->all_done.set_value();
    }
  };

  // Enough helpers to saturate the pool, but no more than the work items.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  for (std::size_t i = 0; i < helpers; ++i) post(drain);
  drain();  // caller participates
  shared->all_done.get_future().wait();
  // The caller owns what it rethrows: a worker may still hold `shared` and
  // destroy it last, and that must not free the exception being handled.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock{shared->err_mu};
    error = std::move(shared->error);
  }
  if (error) std::rethrow_exception(error);
}

std::size_t configured_threads() {
  if (const char* env = std::getenv("GRAF_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {
std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
}  // namespace

ThreadPool& global_pool() {
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void set_global_threads(std::size_t threads) {
  global_slot() = std::make_unique<ThreadPool>(threads);
}

}  // namespace graf
