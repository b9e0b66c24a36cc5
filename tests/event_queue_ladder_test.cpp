// Ladder-queue equivalence and stress tests.
//
// The EventQueue rewrite (two-tier ladder + slot recycling) must be
// *observationally identical* to the binary-heap queue it replaced: pop
// order is exactly lexicographic (time, schedule-sequence). These tests
// drive the ladder against an embedded reference implementation — the old
// heap, reproduced verbatim modulo the callback table — on randomized
// schedule/pop workloads, and assert replay-identical traces. A
// property-test storm then schedules and pops against the same model from
// window bases that are not a multiple of 64, so the occupancy-bitmap scan
// crosses word and array edges; it checks the announced head time and the
// pending count after every step, and slot recycling at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace splice::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference queue: the pre-ladder implementation (std::priority_queue over
// (when, id) + callback side table), kept as the golden model for the
// determinism A/B.
// ---------------------------------------------------------------------------
class ReferenceQueue {
 public:
  void schedule(SimTime when, std::function<void()> fn) {
    const std::uint64_t id = next_id_++;
    if (callbacks_.size() <= id) callbacks_.resize(id + 1);
    callbacks_[id] = std::move(fn);
    heap_.push(Entry{when, id});
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  SimTime run_next() {
    if (heap_.empty()) {
      ADD_FAILURE() << "reference run_next on empty queue";
      return SimTime::zero();
    }
    const Entry top = heap_.top();
    heap_.pop();
    auto fn = std::move(callbacks_[top.id]);
    callbacks_[top.id] = nullptr;
    fn();
    return top.when;
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t id = 0;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<std::function<void()>> callbacks_;
  std::uint64_t next_id_ = 1;
};

// One trace event: which tagged callback fired, at what time.
struct Fired {
  std::int64_t when;
  std::uint32_t tag;
  bool operator==(const Fired&) const = default;
};

// ---------------------------------------------------------------------------
// Determinism A/B: identical randomized workloads driven through both
// queues must produce identical fire traces.
// ---------------------------------------------------------------------------

void drive_ab(std::uint64_t seed, bool far_future) {
  util::Xoshiro256 rng_a(seed);
  util::Xoshiro256 rng_b(seed);

  std::vector<Fired> trace_a;
  std::vector<Fired> trace_b;

  // The workload interleaves schedules and pops; callbacks schedule
  // follow-ups, which is where tie-breaking subtleties live.
  auto drive = [&](auto& queue, auto& rng, std::vector<Fired>& trace) {
    std::int64_t now = 0;
    std::uint32_t tag = 0;
    std::function<void(std::uint32_t, std::int64_t)> fire =
        [&](std::uint32_t t, std::int64_t when) {
          trace.push_back(Fired{when, t});
          // Every third callback schedules a follow-up, sometimes at the
          // *same* tick (FIFO-within-timestamp must hold).
          if (t % 3 == 0) {
            const std::uint32_t follow = 100000 + t;
            const std::int64_t delay =
                (t % 9 == 0) ? 0
                             : static_cast<std::int64_t>(rng.next_below(97));
            queue.schedule(SimTime(when + delay),
                           [&, follow, when, delay] {
                             trace.push_back(Fired{when + delay, follow});
                           });
          }
        };
    for (int round = 0; round < 400; ++round) {
      const auto dice = rng.next_below(10);
      if (dice < 5) {
        const std::uint32_t t = tag++;
        const std::int64_t horizon = far_future ? 100000 : 700;
        const std::int64_t when =
            now + static_cast<std::int64_t>(
                      rng.next_below(static_cast<std::uint64_t>(horizon)));
        queue.schedule(SimTime(when), [&, t, when] { fire(t, when); });
      } else if (!queue.empty()) {
        now = queue.run_next().ticks();
      }
    }
    while (!queue.empty()) now = queue.run_next().ticks();
  };

  EventQueue ladder;
  ReferenceQueue reference;
  drive(ladder, rng_a, trace_a);
  drive(reference, rng_b, trace_b);

  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (std::size_t i = 0; i < trace_a.size(); ++i) {
    ASSERT_EQ(trace_a[i], trace_b[i]) << "traces diverge at event " << i;
  }
}

TEST(LadderDeterminismAB, NearFutureWindowOnly) {
  constexpr std::uint64_t kSeeds[] = {1,  2,  3,  4,  5,  6,  7,  8,
                                      11, 12, 13, 14, 15, 16, 17, 18};
  for (const std::uint64_t seed : kSeeds) {
    drive_ab(seed, /*far_future=*/false);
  }
}

TEST(LadderDeterminismAB, OverflowTierAndRotation) {
  // Horizons far beyond kWindowSize force overflow migration + rotation.
  for (std::uint64_t seed = 21; seed <= 28; ++seed) {
    drive_ab(seed, /*far_future=*/true);
  }
}

// ---------------------------------------------------------------------------
// Ladder-specific structure tests
// ---------------------------------------------------------------------------

TEST(LadderQueue, FarFutureEventsMigrateInOrder) {
  EventQueue q;
  std::vector<int> order;
  // All far beyond the window: overflow tier, then rotation on first pop.
  q.schedule(SimTime(3 * EventQueue::kWindowSize), [&] { order.push_back(2); });
  q.schedule(SimTime(2 * EventQueue::kWindowSize), [&] { order.push_back(1); });
  q.schedule(SimTime(9 * EventQueue::kWindowSize), [&] { order.push_back(3); });
  q.schedule(SimTime(9 * EventQueue::kWindowSize), [&] { order.push_back(4); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(LadderQueue, SameTickFollowUpRunsBeforeLaterEvents) {
  EventQueue q;
  std::vector<int> order;
  SimTime clock;
  q.schedule(SimTime(10), [&] {
    order.push_back(1);
    q.schedule(SimTime(10), [&] { order.push_back(2); });  // same tick
  });
  q.schedule(SimTime(11), [&] { order.push_back(3); });
  while (!q.empty()) q.run_next(&clock);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(LadderQueue, ScheduleBelowAnchoredWindowStillOrdersCorrectly) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime(5000), [&] { order.push_back(2); });
  q.schedule(SimTime(100), [&] { order.push_back(1); });  // below the anchor
  q.schedule(SimTime(9000), [&] { order.push_back(3); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(LadderQueue, WideSpanBelowWindowDemotesAndStaysOrdered) {
  EventQueue q;
  std::vector<int> order;
  // Span wider than the window forces the demote-and-remigrate path.
  q.schedule(SimTime(10 * EventQueue::kWindowSize), [&] { order.push_back(3); });
  q.schedule(SimTime(EventQueue::kWindowSize / 2), [&] { order.push_back(2); });
  q.schedule(SimTime(1), [&] { order.push_back(1); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(LadderQueue, SlotTableBoundedByLiveEventsNotTotalScheduled) {
  EventQueue q;
  // Sequentially schedule + run 10k events while never holding more than
  // two: the callback table must stay tiny (the old queue grew it to 10k).
  std::int64_t t = 0;
  q.schedule(SimTime(1), [] {});
  for (int i = 0; i < 10000; ++i) {
    q.schedule(SimTime(t + 2), [] {});
    t = q.run_next().ticks();
  }
  EXPECT_EQ(q.total_scheduled(), 10001U);
  EXPECT_LE(q.slot_capacity(), 4U);
}

// ---------------------------------------------------------------------------
// Property storm: randomized schedule/pop against the model
// ---------------------------------------------------------------------------

TEST(LadderPropertyStorm, SchedulePopAgainstModel) {
  for (std::uint64_t seed = 101; seed <= 112; ++seed) {
    util::Xoshiro256 rng(seed);
    EventQueue q;
    ReferenceQueue model;
    std::vector<Fired> fired_q;
    std::vector<Fired> fired_m;
    std::uint32_t tag = 0;
    auto schedule = [&](std::int64_t when) {
      const std::uint32_t t = tag++;
      q.schedule(SimTime(when), [&fired_q, t, when] {
        fired_q.push_back(Fired{when, t});
      });
      model.schedule(SimTime(when), [&fired_m, t, when] {
        fired_m.push_back(Fired{when, t});
      });
    };
    auto pop = [&] {
      const std::int64_t announced = q.next_time().ticks();
      EXPECT_EQ(announced, q.run_next().ticks());
      return model.run_next().ticks();
    };
    // The first event anchors the window at a base that is not a multiple
    // of 64, so the bitmap scan's last word wraps onto the window's start.
    std::int64_t now =
        64 * static_cast<std::int64_t>(rng.next_below(1000)) + 1 +
        static_cast<std::int64_t>(rng.next_below(63));
    schedule(now);
    std::size_t peak_pending = q.pending();
    for (int round = 0; round < 3000; ++round) {
      if (rng.next_below(100) < 50) {
        schedule(now + static_cast<std::int64_t>(rng.next_below(20000)));
      } else if (!q.empty()) {
        ASSERT_FALSE(model.empty());
        now = pop();
      }
      ASSERT_EQ(q.pending(), model.pending());
      peak_pending = std::max(peak_pending, q.pending());
    }
    while (!q.empty()) pop();
    EXPECT_TRUE(model.empty());
    // A slot is allocated only when every existing one holds a pending
    // event, so the table never outgrows the peak pending count.
    EXPECT_EQ(q.slot_capacity(), peak_pending);
    ASSERT_EQ(fired_q.size(), fired_m.size());
    for (std::size_t i = 0; i < fired_q.size(); ++i) {
      ASSERT_EQ(fired_q[i], fired_m[i]) << "storm diverges at " << i;
    }
  }
}

}  // namespace
}  // namespace splice::sim
