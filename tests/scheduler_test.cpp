#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "lang/programs.h"
#include "sched/gradient.h"
#include "sched/scheduler.h"

namespace splice::sched {
namespace {

struct FakeSystem {
  net::Topology topology;
  lang::Program program;
  std::vector<bool> alive;
  std::vector<std::uint32_t> load;

  explicit FakeSystem(net::ProcId n,
                      net::TopologyKind kind = net::TopologyKind::kComplete)
      : topology(kind, n),
        program(lang::programs::figure1_tree()),
        alive(n, true),
        load(n, 0) {}

  SchedulerEnv env(std::uint64_t seed = 1) {
    SchedulerEnv e;
    e.topology = &topology;
    e.program = &program;
    e.alive = [this](net::ProcId p) { return alive[p]; };
    e.queue_length = [this](net::ProcId p) { return load[p]; };
    e.seed = seed;
    return e;
  }
};

runtime::TaskPacket packet_for(const lang::Program& program,
                               const std::string& name) {
  runtime::TaskPacket packet;
  packet.fn = *program.find(name);
  packet.stamp = runtime::LevelStamp::root().child(1);
  return packet;
}

TEST(RandomScheduler, OnlyReturnsAliveProcessors) {
  FakeSystem sys(6);
  sys.alive[0] = sys.alive[3] = false;
  RandomScheduler sched;
  sched.attach(sys.env());
  auto packet = packet_for(sys.program, "A1");
  for (int i = 0; i < 500; ++i) {
    const net::ProcId p = sched.choose(1, packet);
    ASSERT_NE(p, net::kNoProc);
    EXPECT_TRUE(sys.alive[p]);
  }
}

TEST(RandomScheduler, EventuallyUsesAllAliveProcessors) {
  FakeSystem sys(5);
  RandomScheduler sched;
  sched.attach(sys.env());
  auto packet = packet_for(sys.program, "A1");
  std::set<net::ProcId> seen;
  for (int i = 0; i < 500; ++i) seen.insert(sched.choose(0, packet));
  EXPECT_EQ(seen.size(), 5U);
}

TEST(RandomScheduler, NoAliveReturnsNoProc) {
  FakeSystem sys(3);
  sys.alive.assign(3, false);
  RandomScheduler sched;
  sched.attach(sys.env());
  auto packet = packet_for(sys.program, "A1");
  EXPECT_EQ(sched.choose(0, packet), net::kNoProc);
}

TEST(RoundRobinScheduler, CyclesThroughAlive) {
  FakeSystem sys(4);
  sys.alive[2] = false;
  RoundRobinScheduler sched;
  sched.attach(sys.env());
  auto packet = packet_for(sys.program, "A1");
  std::vector<net::ProcId> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(sched.choose(0, packet));
  EXPECT_EQ(picks, (std::vector<net::ProcId>{0, 1, 3, 0, 1, 3}));
}

TEST(LocalFirstScheduler, KeepsLocalUntilThreshold) {
  FakeSystem sys(4);
  LocalFirstScheduler sched;  // local while the queue is below 2
  sched.attach(sys.env());
  auto packet = packet_for(sys.program, "A1");
  sys.load[1] = 0;
  EXPECT_EQ(sched.choose(1, packet), 1U);
  sys.load[1] = 5;  // overloaded: pushes to least-loaded neighbour
  const net::ProcId p = sched.choose(1, packet);
  EXPECT_NE(p, 1U);
  EXPECT_TRUE(sys.alive[p]);
}

TEST(LocalFirstScheduler, DeadOriginStillFindsHost) {
  FakeSystem sys(4);
  sys.alive[1] = false;
  LocalFirstScheduler sched;
  sched.attach(sys.env());
  auto packet = packet_for(sys.program, "A1");
  const net::ProcId p = sched.choose(1, packet);
  ASSERT_NE(p, net::kNoProc);
  EXPECT_TRUE(sys.alive[p]);
}

TEST(PinnedScheduler, HonoursFunctionPins) {
  FakeSystem sys(4);
  PinnedScheduler sched;
  sched.attach(sys.env());
  // figure1 pins: A1 -> 0, B2 -> 1, C4 -> 2, D5 -> 3.
  EXPECT_EQ(sched.choose(2, packet_for(sys.program, "A1")), 0U);
  EXPECT_EQ(sched.choose(2, packet_for(sys.program, "B2")), 1U);
  EXPECT_EQ(sched.choose(0, packet_for(sys.program, "C4")), 2U);
  EXPECT_EQ(sched.choose(0, packet_for(sys.program, "D5")), 3U);
}

TEST(PinnedScheduler, DeadPinFallsBackToAlive) {
  FakeSystem sys(4);
  sys.alive[1] = false;  // processor B dead
  PinnedScheduler sched;
  sched.attach(sys.env());
  for (int i = 0; i < 100; ++i) {
    const net::ProcId p = sched.choose(2, packet_for(sys.program, "B2"));
    ASSERT_NE(p, net::kNoProc);
    EXPECT_TRUE(sys.alive[p]);
  }
}

TEST(ChooseReplicas, DistinctDestinationsWhenPossible) {
  FakeSystem sys(8);
  RandomScheduler sched;
  sched.attach(sys.env());
  auto packet = packet_for(sys.program, "A1");
  const auto dests = sched.choose_replicas(0, packet, 3);
  ASSERT_EQ(dests.size(), 3U);
  EXPECT_EQ(std::set<net::ProcId>(dests.begin(), dests.end()).size(), 3U);
}

TEST(ChooseReplicas, FewerAliveThanReplicasDuplicates) {
  FakeSystem sys(2);
  RandomScheduler sched;
  sched.attach(sys.env());
  auto packet = packet_for(sys.program, "A1");
  const auto dests = sched.choose_replicas(0, packet, 5);
  EXPECT_EQ(dests.size(), 5U);
  for (const net::ProcId p : dests) EXPECT_LT(p, 2U);
}

TEST(GradientScheduler, ProximityZeroAtIdleNodes) {
  FakeSystem sys(8, net::TopologyKind::kRing);
  GradientScheduler sched(/*refresh=*/100);
  sched.attach(sys.env());
  sys.load = {5, 5, 5, 0, 5, 5, 5, 5};  // node 3 is the only sink
  sched.refresh_now();
  const auto& prox = sched.proximities();
  EXPECT_EQ(prox[3], 0U);
  EXPECT_EQ(prox[2], 1U);
  EXPECT_EQ(prox[4], 1U);
  EXPECT_EQ(prox[0], 3U);
  EXPECT_EQ(prox[7], 4U);  // ring distance to 3
}

TEST(GradientScheduler, TasksFlowDownTheGradient) {
  FakeSystem sys(8, net::TopologyKind::kRing);
  GradientScheduler sched(100);
  sched.attach(sys.env());
  sys.load = {5, 5, 5, 0, 5, 5, 5, 5};
  sched.refresh_now();
  auto packet = packet_for(sys.program, "A1");
  // Overloaded node 1 must push toward node 2 (its neighbour closest to 3).
  EXPECT_EQ(sched.choose(1, packet), 2U);
  // Node 4 pushes to 3 directly.
  EXPECT_EQ(sched.choose(4, packet), 3U);
}

TEST(GradientScheduler, IdleOriginKeepsTask) {
  FakeSystem sys(8, net::TopologyKind::kRing);
  GradientScheduler sched(100);
  sched.attach(sys.env());
  sys.load.assign(8, 0);
  sched.refresh_now();
  auto packet = packet_for(sys.program, "A1");
  EXPECT_EQ(sched.choose(5, packet), 5U);
}

TEST(GradientScheduler, IgnoresDeadRegions) {
  FakeSystem sys(8, net::TopologyKind::kRing);
  GradientScheduler sched(100);
  sched.attach(sys.env());
  sys.load = {5, 5, 5, 0, 5, 5, 5, 5};
  sys.alive[3] = false;  // the sink dies
  sys.load[6] = 0;       // a new sink elsewhere
  sched.refresh_now();
  auto packet = packet_for(sys.program, "A1");
  const net::ProcId p = sched.choose(4, packet);
  EXPECT_NE(p, 3U);
  EXPECT_TRUE(sys.alive[p]);
}

TEST(GradientScheduler, OnTickReportsTrafficOncePerPeriod) {
  FakeSystem sys(4, net::TopologyKind::kRing);
  GradientScheduler sched(/*refresh=*/100);
  sched.attach(sys.env());
  EXPECT_GT(sched.on_tick(sim::SimTime(0)), 0U);     // first refresh
  EXPECT_EQ(sched.on_tick(sim::SimTime(50)), 0U);    // too soon
  EXPECT_GT(sched.on_tick(sim::SimTime(120)), 0U);   // period elapsed
}

TEST(NeighborScheduler, SpawnsOnlyWithinNeighborhood) {
  FakeSystem sys(8, net::TopologyKind::kRing);
  NeighborScheduler sched;
  sched.attach(sys.env());
  auto packet = packet_for(sys.program, "A1");
  for (int i = 0; i < 50; ++i) {
    const net::ProcId p = sched.choose(3, packet);
    // Ring neighbourhood of 3 is {2, 3, 4}.
    EXPECT_TRUE(p == 2 || p == 3 || p == 4) << p;
  }
}

TEST(NeighborScheduler, PicksLeastLoadedNeighbor) {
  FakeSystem sys(8, net::TopologyKind::kRing);
  NeighborScheduler sched;
  sched.attach(sys.env());
  sys.load = {9, 9, 5, 9, 2, 9, 9, 9};
  auto packet = packet_for(sys.program, "A1");
  EXPECT_EQ(sched.choose(3, packet), 4U);  // load 2 beats self 9 and 2's 5
}

TEST(NeighborScheduler, DeadNeighborhoodFallsBackGlobally) {
  FakeSystem sys(8, net::TopologyKind::kRing);
  NeighborScheduler sched;
  sched.attach(sys.env());
  sys.alive[2] = sys.alive[3] = sys.alive[4] = false;
  auto packet = packet_for(sys.program, "A1");
  const net::ProcId p = sched.choose(3, packet);
  ASSERT_NE(p, net::kNoProc);
  EXPECT_TRUE(sys.alive[p]);
}

TEST(MakeScheduler, FactoryProducesRequestedKind) {
  core::SchedulerConfig cfg;
  for (auto kind : {core::SchedulerKind::kRandom, core::SchedulerKind::kRoundRobin,
                    core::SchedulerKind::kLocalFirst, core::SchedulerKind::kPinned,
                    core::SchedulerKind::kGradient, core::SchedulerKind::kNeighbor}) {
    cfg.kind = kind;
    EXPECT_EQ(make_scheduler(cfg)->kind(), kind);
  }
}

}  // namespace
}  // namespace splice::sched
