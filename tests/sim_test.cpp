#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace splice::sim {
namespace {

TEST(SimTime, Arithmetic) {
  const SimTime a(100), b(40);
  EXPECT_EQ((a + b).ticks(), 140);
  EXPECT_EQ((a - b).ticks(), 60);
  EXPECT_EQ((a * 3).ticks(), 300);
  EXPECT_LT(b, a);
  EXPECT_EQ(SimTime::zero().ticks(), 0);
  EXPECT_NEAR(SimTime(2000000).seconds(), 2.0, 1e-12);
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime(30), [&] { order.push_back(3); });
  q.schedule(SimTime(10), [&] { order.push_back(1); });
  q.schedule(SimTime(20), [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PendingCountsLiveEvents) {
  EventQueue q;
  q.schedule(SimTime(1), [] {});
  q.schedule(SimTime(2), [] {});
  EXPECT_EQ(q.pending(), 2U);
  q.run_next();
  EXPECT_EQ(q.pending(), 1U);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<std::int64_t> seen;
  sim.after(SimTime(50), [&] { seen.push_back(sim.now().ticks()); });
  sim.after(SimTime(10), [&] { seen.push_back(sim.now().ticks()); });
  EXPECT_TRUE(sim.run_until());
  EXPECT_EQ(seen, (std::vector<std::int64_t>{10, 50}));
  EXPECT_EQ(sim.events_executed(), 2U);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) sim.after(SimTime(10), step);
  };
  sim.after(SimTime(10), step);
  EXPECT_TRUE(sim.run_until());
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.now().ticks(), 50);
}

TEST(Simulator, DeadlineStopsEarly) {
  Simulator sim;
  bool late_fired = false;
  sim.after(SimTime(10), [] {});
  sim.after(SimTime(1000), [&] { late_fired = true; });
  EXPECT_FALSE(sim.run_until(SimTime(100)));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.now().ticks(), 10);
}

}  // namespace
}  // namespace splice::sim
