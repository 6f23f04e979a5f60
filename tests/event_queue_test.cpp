#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace graf::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule_at(1.0, [&, i] { order.push_back(i); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInPastClampsToNow) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run_all();
  bool ran = false;
  q.schedule_at(1.0, [&] { ran = true; });  // in the past
  q.run_all();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int count = 0;
  q.schedule_at(1.0, [&] { ++count; });
  q.schedule_at(2.0, [&] { ++count; });
  q.schedule_at(3.0, [&] { ++count; });
  q.run_until(2.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  q.run_until(10.0);
  EXPECT_EQ(count, 3);
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, HandlersMayScheduleMore) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) q.schedule_in(1.0, chain);
  };
  q.schedule_in(1.0, chain);
  q.run_all();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, ScheduleInNegativeClamped) {
  EventQueue q;
  bool ran = false;
  q.schedule_in(-5.0, [&] { ran = true; });
  q.step();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(EventQueue, ProcessedCounter) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(static_cast<double>(i), [] {});
  q.run_all();
  EXPECT_EQ(q.processed(), 7u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StepOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.step());
}

// Stress the 4-ary heap (PR-5): random times with heavy duplication, mixed
// with pops, must still come out in nondecreasing time order with FIFO ties
// — every sift path (root replacement, partial child groups, tail nodes)
// gets exercised well past the reserved capacity.
TEST(EventQueue, RandomizedStressKeepsHeapOrder) {
  EventQueue q;
  Rng rng{12345};
  struct Seen {
    double time;
    int seq;
  };
  std::vector<Seen> seen;
  int seq = 0;
  // Interleave bursts of schedules with bursts of pops.
  for (int round = 0; round < 40; ++round) {
    const int pushes = 1 + static_cast<int>(rng.uniform(0.0, 200.0));
    for (int i = 0; i < pushes; ++i) {
      // Quantized times force many exact ties.
      const double when =
          q.now() + std::floor(rng.uniform(0.0, 32.0)) * 0.125;
      const int id = seq++;
      q.schedule_at(when, [&, id] { seen.push_back({q.now(), id}); });
    }
    const int pops = static_cast<int>(rng.uniform(0.0, 150.0));
    for (int i = 0; i < pops && q.step(); ++i) {
    }
  }
  q.run_all();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(seq));
  for (std::size_t i = 1; i < seen.size(); ++i) {
    ASSERT_LE(seen[i - 1].time, seen[i].time) << "event " << i;
    if (seen[i - 1].time == seen[i].time) {
      ASSERT_LT(seen[i - 1].seq, seen[i].seq) << "tie at event " << i;
    }
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.processed(), static_cast<std::uint64_t>(seq));
}

}  // namespace
}  // namespace graf::sim
