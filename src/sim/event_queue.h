// Discrete-event engine: a time-ordered queue of callbacks.
//
// Everything in the cluster simulator (request arrivals, processor-sharing
// completions, instance readiness, autoscaler control ticks) is an event.
// Ordering is (time, insertion sequence), so ties break by insertion order
// and runs are deterministic.
//
// The heap is a hand-rolled 4-ary implicit heap rather than
// std::priority_queue: the shallower tree halves the sift-down depth per
// pop, the event is *moved* out of the root (priority_queue::top is const,
// forcing a std::function copy — an allocation — per pop), and storage is
// reserved up front so steady-state scheduling never reallocates.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"

namespace graf::telemetry {
class LogHistogram;
}

namespace graf::sim {

using EventFn = std::function<void()>;

class EventQueue {
 public:
  EventQueue() { heap_.reserve(kInitialCapacity); }

  Seconds now() const { return now_; }

  /// Schedule at absolute time t (>= now, clamped up to now otherwise).
  void schedule_at(Seconds t, EventFn fn);

  /// Schedule `dt` seconds from now (dt < 0 is clamped to 0).
  void schedule_in(Seconds dt, EventFn fn);

  /// Pop and run the earliest event. Returns false if the queue is empty.
  bool step();

  /// Run all events with time <= t, then advance the clock to t.
  void run_until(Seconds t);

  /// Run until the queue is empty (use with care; generators that
  /// perpetually reschedule themselves never drain).
  void run_all();

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t processed() const { return processed_; }

  /// Profile each step() — heap pop + handler dispatch — into `h`
  /// (microseconds of wall time). nullptr (the default) disables the two
  /// clock reads entirely; this is the simulator's hottest loop.
  void set_pop_timer(telemetry::LogHistogram* h) { pop_timer_ = h; }

 private:
  static constexpr std::size_t kInitialCapacity = 1024;

  struct Event {
    Seconds time;
    std::uint64_t seq;
    EventFn fn;
  };

  /// a fires before b: time, then insertion order.
  static bool before(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Event> heap_;  // 4-ary: children of i are 4i+1 .. 4i+4
  telemetry::LogHistogram* pop_timer_ = nullptr;
  Seconds now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace graf::sim
