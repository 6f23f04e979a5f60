#include "sim/event_queue.h"

#include <utility>

#include "telemetry/profiler.h"

namespace graf::sim {

void EventQueue::sift_up(std::size_t i) {
  Event ev = std::move(heap_[i]);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(ev, heap_[parent])) break;
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(ev);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Event ev = std::move(heap_[i]);
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], ev)) break;
    heap_[i] = std::move(heap_[best]);
    i = best;
  }
  heap_[i] = std::move(ev);
}

void EventQueue::schedule_at(Seconds t, EventFn fn) {
  if (t < now_) t = now_;
  heap_.push_back(Event{t, seq_++, std::move(fn)});
  sift_up(heap_.size() - 1);
}

void EventQueue::schedule_in(Seconds dt, EventFn fn) {
  schedule_at(now_ + (dt > 0.0 ? dt : 0.0), std::move(fn));
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  telemetry::ScopedTimer timer{pop_timer_};
  // Move the event out of the root before running it: handlers may schedule
  // new events (or re-enter step()), so the heap must be consistent first.
  Event ev = std::move(heap_.front());
  if (heap_.size() > 1) {
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
  now_ = ev.time;
  ++processed_;
  ev.fn();
  return true;
}

void EventQueue::run_until(Seconds t) {
  while (!heap_.empty() && heap_.front().time <= t) step();
  if (now_ < t) now_ = t;
}

void EventQueue::run_all() {
  while (step()) {
  }
}

}  // namespace graf::sim
