// util/slab.h's SlabPool, the pool a shard's tasks live in; Runtime's
// choice of pool per processor; and runtime/task_index.h's TaskIndex, the
// uid index each processor keeps over its tasks in that pool.
#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "lang/programs.h"
#include "net/network.h"
#include "runtime/pdes_engine.h"
#include "runtime/runtime.h"
#include "runtime/task_index.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "util/slab.h"

namespace splice::util {
namespace {

struct Probe {
  static int live;
  int value;
  explicit Probe(int v) : value(v) { ++live; }
  ~Probe() { --live; }
};
int Probe::live = 0;

TEST(SlabPool, AcquireConstructsReleaseDestroys) {
  SlabPool<Probe> pool;
  EXPECT_EQ(pool.live(), 0u);
  Probe* p = pool.acquire(41);
  EXPECT_EQ(p->value, 41);
  EXPECT_EQ(Probe::live, 1);
  EXPECT_EQ(pool.live(), 1u);
  pool.release(p);
  EXPECT_EQ(Probe::live, 0);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(SlabPool, RecyclesSlotsWithoutGrowingCapacity) {
  SlabPool<Probe, 8> pool;
  Probe* first = pool.acquire(1);
  pool.release(first);
  Probe* second = pool.acquire(2);
  // The freed slot comes straight back off the free list.
  EXPECT_EQ(first, second);
  EXPECT_EQ(second->value, 2);
  pool.release(second);
  EXPECT_EQ(pool.capacity(), 8u);
}

TEST(SlabPool, PointersStayStableAcrossChunkGrowth) {
  SlabPool<Probe, 4> pool;
  std::vector<Probe*> held;
  for (int i = 0; i < 64; ++i) held.push_back(pool.acquire(i));
  EXPECT_GE(pool.capacity(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(held[i]->value, i);
  for (Probe* p : held) pool.release(p);
  EXPECT_EQ(Probe::live, 0);
}

}  // namespace
}  // namespace splice::util

namespace splice::runtime {
namespace {

using util::SlabPool;

Task& place(TaskIndex& index, TaskUid uid) {
  return index.emplace(uid, TaskPacket{}, sim::SimTime(0));
}

/// Uids whose hash has its top 10 bits set: at every capacity up to 1024
/// cells they all start probing from the last cell, so their run wraps.
std::vector<TaskUid> last_cell_uids(std::size_t count) {
  std::vector<TaskUid> uids;
  for (TaskUid uid = 1; uids.size() < count; ++uid) {
    if ((TaskIndex::hash(uid) >> 54) == 1023) uids.push_back(uid);
  }
  return uids;
}

// The index against std::unordered_map on one random sequence of inserts,
// finds, erases and clears, over keys that mostly share the last cell as
// home (long wrapped runs, so backward-shift erase moves cells across the
// end) mixed with ordinary ones, through several rounds of growth.
TEST(TaskIndex, MatchesUnorderedMapOnRandomOperations) {
  SlabPool<Task> pool;
  TaskIndex index(pool);
  std::unordered_map<TaskUid, Task*> model;
  std::vector<TaskUid> keys = last_cell_uids(200);
  for (TaskUid uid = 1; keys.size() < 400; ++uid) keys.push_back(uid);
  std::mt19937_64 rng(1986);
  std::size_t peak = 0;
  std::size_t clears = 0;
  for (int step = 0; step < 60000; ++step) {
    const TaskUid uid = keys[rng() % keys.size()];
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
        if (!model.contains(uid)) {
          Task& task = place(index, uid);
          ASSERT_EQ(task.uid(), uid);
          model.emplace(uid, &task);
        }
        break;
      case 3:
      case 4: {
        const bool erased = index.erase(uid);
        ASSERT_EQ(erased, model.erase(uid) == 1) << "uid " << uid;
        break;
      }
      case 5:
        if (rng() % 500 == 0) {
          index.clear();
          model.clear();
          ++clears;
        }
        break;
      default:
        break;
    }
    const auto it = model.find(uid);
    ASSERT_EQ(index.find(uid), it == model.end() ? nullptr : it->second)
        << "uid " << uid << " at step " << step;
    ASSERT_EQ(index.size(), model.size());
    ASSERT_EQ(pool.live(), model.size());
    ASSERT_LE(2 * index.size(), index.capacity());
    peak = std::max(peak, index.size());
    if (step % 1000 == 0) {
      for (const TaskUid key : keys) {
        const auto found = model.find(key);
        ASSERT_EQ(index.find(key),
                  found == model.end() ? nullptr : found->second);
      }
      std::vector<TaskUid> visited;
      for (const Task& task : index.resident()) visited.push_back(task.uid());
      std::vector<TaskUid> expected;
      for (const auto& [key, task] : model) expected.push_back(key);
      std::sort(visited.begin(), visited.end());
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(visited, expected);
    }
  }
  EXPECT_GT(peak, 64U);   // grew past 128 cells
  EXPECT_GT(clears, 0U);  // cleared at least once, then refilled
}

TEST(TaskIndex, WrappedRunSurvivesEraseOfItsHead) {
  SlabPool<Task> pool;
  TaskIndex index(pool);
  const std::vector<TaskUid> uids = last_cell_uids(7);
  for (const TaskUid uid : uids) place(index, uid);
  ASSERT_EQ(index.capacity(), 16U);  // 7 of 16 cells: no growth yet
  // The first uid sits in the last cell; the rest wrapped to cells 0..5.
  EXPECT_TRUE(index.erase(uids[0]));
  EXPECT_TRUE(index.erase(uids[3]));
  EXPECT_FALSE(index.erase(uids[3]));
  for (std::size_t i = 0; i < uids.size(); ++i) {
    const bool kept = i != 0 && i != 3;
    EXPECT_EQ(index.find(uids[i]) != nullptr, kept) << "uid " << uids[i];
  }
  EXPECT_EQ(index.size(), 5U);
  EXPECT_EQ(pool.live(), 5U);
}

TEST(TaskIndex, ReturnsEveryTaskToThePool) {
  SlabPool<Task> pool;
  {
    TaskIndex index(pool);
    for (TaskUid uid = 2; uid < 100; ++uid) place(index, uid);
    EXPECT_EQ(pool.live(), 98U);
    EXPECT_TRUE(index.erase(50));
    EXPECT_EQ(pool.live(), 97U);
    index.clear();
    EXPECT_EQ(pool.live(), 0U);
    EXPECT_EQ(index.find(50), nullptr);
    for (TaskUid uid = 2; uid < 40; ++uid) place(index, uid);
    EXPECT_EQ(pool.live(), 38U);
  }
  EXPECT_EQ(pool.live(), 0U);  // the destructor released the rest
}

// Processor p draws its tasks from the pool of the shard whose thread runs
// it, so two processors share a pool exactly when the engine puts them on
// one shard (clamped to one shard per processor).
TEST(ShardTaskPools, FollowTheEngineShards) {
  const lang::Program program = lang::programs::fib(3);
  for (const std::uint32_t shards : {1U, 2U, 3U, 8U}) {
    core::SystemConfig cfg = splice::testing::base_config(5, 1);
    cfg.topology = net::TopologyKind::kComplete;
    cfg.parallel.shards = shards;
    sim::Simulator simulator;
    net::Network network(simulator,
                         net::Topology(cfg.topology, cfg.processors),
                         cfg.latency, net::Network::RouterMode{shards});
    runtime::Runtime rt(simulator, network, cfg, program);
    const runtime::PdesEngine engine(rt, network, cfg);
    EXPECT_EQ(engine.shard_count(), std::min(shards, cfg.processors));
    for (net::ProcId p = 0; p < cfg.processors; ++p) {
      for (net::ProcId q = 0; q < cfg.processors; ++q) {
        EXPECT_EQ(&rt.task_pool(p) == &rt.task_pool(q),
                  engine.shard_of(p) == engine.shard_of(q))
            << shards << " shards, processors " << p << " and " << q;
      }
    }
  }
}

}  // namespace
}  // namespace splice::runtime
