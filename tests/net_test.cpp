#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "net/fault_injector.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace splice::net {
namespace {

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

TEST(Topology, CompleteGraphAllPairsOneHop) {
  Topology t(TopologyKind::kComplete, 6);
  for (ProcId a = 0; a < 6; ++a) {
    for (ProcId b = 0; b < 6; ++b) {
      EXPECT_EQ(t.hops(a, b), a == b ? 0U : 1U);
    }
    EXPECT_EQ(t.neighbors(a).size(), 5U);
  }
  EXPECT_EQ(t.diameter(), 1U);
}

TEST(Topology, RingDistancesWrap) {
  Topology t(TopologyKind::kRing, 8);
  EXPECT_EQ(t.hops(0, 1), 1U);
  EXPECT_EQ(t.hops(0, 4), 4U);
  EXPECT_EQ(t.hops(0, 7), 1U);  // wraps
  EXPECT_EQ(t.hops(1, 6), 3U);
  EXPECT_EQ(t.diameter(), 4U);
  EXPECT_EQ(t.neighbors(3).size(), 2U);
}

TEST(Topology, StarHubAndSpokes) {
  Topology t(TopologyKind::kStar, 5);
  EXPECT_EQ(t.hops(0, 3), 1U);
  EXPECT_EQ(t.hops(2, 4), 2U);
  EXPECT_EQ(t.diameter(), 2U);
  EXPECT_EQ(t.neighbors(0).size(), 4U);
  EXPECT_EQ(t.neighbors(1).size(), 1U);
}

TEST(Topology, MeshManhattanDistance) {
  Topology t(TopologyKind::kMesh2D, 12);  // 3x4
  const auto [rows, cols] = t.grid();
  EXPECT_EQ(rows * cols, 12U);
  // corner to opposite corner
  EXPECT_EQ(t.hops(0, 11), (rows - 1) + (cols - 1));
  // no wrap: 0 and end of row are cols-1 apart
  EXPECT_EQ(t.hops(0, cols - 1), cols - 1);
}

TEST(Topology, TorusWrapsBothAxes) {
  Topology t(TopologyKind::kTorus2D, 16);  // 4x4
  EXPECT_EQ(t.hops(0, 3), 1U);   // row wrap
  EXPECT_EQ(t.hops(0, 12), 1U);  // column wrap
  EXPECT_EQ(t.diameter(), 4U);
}

TEST(Topology, HypercubeHammingDistance) {
  Topology t(TopologyKind::kHypercube, 16);
  EXPECT_EQ(t.hops(0b0000, 0b1111), 4U);
  EXPECT_EQ(t.hops(0b0101, 0b0100), 1U);
  EXPECT_EQ(t.diameter(), 4U);
  EXPECT_EQ(t.neighbors(0).size(), 4U);
}

TEST(Topology, HypercubeRejectsNonPowerOfTwo) {
  EXPECT_THROW(Topology(TopologyKind::kHypercube, 12), std::invalid_argument);
}

TEST(Topology, RejectsZeroNodes) {
  EXPECT_THROW(Topology(TopologyKind::kRing, 0), std::invalid_argument);
}

TEST(Topology, ParseRoundTrip) {
  for (auto kind :
       {TopologyKind::kComplete, TopologyKind::kRing, TopologyKind::kStar,
        TopologyKind::kMesh2D, TopologyKind::kTorus2D,
        TopologyKind::kHypercube}) {
    EXPECT_EQ(parse_topology(to_string(kind)), kind);
  }
  EXPECT_THROW(static_cast<void>(parse_topology("blob")), std::invalid_argument);
}

class TopologySymmetryTest
    : public ::testing::TestWithParam<std::tuple<TopologyKind, ProcId>> {};

TEST_P(TopologySymmetryTest, HopsSymmetricAndNeighborsAtDistanceOne) {
  const auto [kind, n] = GetParam();
  Topology t(kind, n);
  for (ProcId a = 0; a < n; ++a) {
    EXPECT_EQ(t.hops(a, a), 0U);
    for (ProcId b = 0; b < n; ++b) {
      EXPECT_EQ(t.hops(a, b), t.hops(b, a));
      if (a != b) {
        EXPECT_GE(t.hops(a, b), 1U);
      }
      EXPECT_LE(t.hops(a, b), t.diameter());
    }
    for (ProcId q : t.neighbors(a)) {
      EXPECT_EQ(t.hops(a, q), 1U) << to_string(kind) << " " << a << "-" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TopologySymmetryTest,
    ::testing::Values(std::tuple{TopologyKind::kComplete, ProcId{7}},
                      std::tuple{TopologyKind::kRing, ProcId{9}},
                      std::tuple{TopologyKind::kStar, ProcId{6}},
                      std::tuple{TopologyKind::kMesh2D, ProcId{12}},
                      std::tuple{TopologyKind::kTorus2D, ProcId{12}},
                      std::tuple{TopologyKind::kHypercube, ProcId{8}},
                      std::tuple{TopologyKind::kRing, ProcId{2}},
                      std::tuple{TopologyKind::kMesh2D, ProcId{1}}));

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

struct NetFixture {
  sim::Simulator sim;
  Network net;
  std::vector<Envelope> received;

  explicit NetFixture(ProcId n = 4,
                      TopologyKind kind = TopologyKind::kComplete)
      : net(sim, Topology(kind, n), LatencyModel{}) {
    for (ProcId p = 0; p < n; ++p) {
      net.set_receiver(
          p, [this](Envelope env) { received.push_back(std::move(env)); });
    }
  }

  Envelope make(MsgKind kind, ProcId from, ProcId to,
                std::uint32_t size = 1) {
    Envelope env;
    env.kind = kind;
    env.from = from;
    env.to = to;
    env.size_units = size;
    return env;
  }
};

TEST(Network, DeliversWithHopAndSizeLatency) {
  NetFixture f(4, TopologyKind::kRing);
  f.net.send(f.make(MsgKind::kControl, 0, 2, 5));  // 2 hops, 5 units
  EXPECT_TRUE(f.sim.run_until());
  ASSERT_EQ(f.received.size(), 1U);
  const LatencyModel lm;
  EXPECT_EQ(f.sim.now().ticks(), lm.base + 2 * lm.per_hop + 5 * lm.per_unit);
}

TEST(Network, LocalDeliveryIsCheap) {
  NetFixture f;
  f.net.send(f.make(MsgKind::kControl, 1, 1));
  EXPECT_TRUE(f.sim.run_until());
  EXPECT_EQ(f.sim.now().ticks(), LatencyModel{}.local);
  ASSERT_EQ(f.received.size(), 1U);
}

TEST(Network, SendToDeadYieldsDeliveryFailureToSender) {
  NetFixture f;
  f.net.kill(2);
  f.net.send(f.make(MsgKind::kTaskPacket, 0, 2));
  EXPECT_TRUE(f.sim.run_until());
  ASSERT_EQ(f.received.size(), 1U);
  const Envelope& notice = f.received[0];
  EXPECT_EQ(notice.kind, MsgKind::kDeliveryFailure);
  EXPECT_EQ(notice.to, 0U);
  const Envelope& original = *std::get<EnvelopeBox>(notice.payload);
  EXPECT_EQ(original.kind, MsgKind::kTaskPacket);
  EXPECT_EQ(original.to, 2U);
  EXPECT_EQ(f.net.stats().dropped_dead_dest, 1U);
  EXPECT_EQ(f.net.stats().failure_notices, 1U);
}

TEST(Network, KilledMidFlightAlsoBounces) {
  NetFixture f;
  f.net.send(f.make(MsgKind::kControl, 0, 3));
  f.sim.after(sim::SimTime(1), [&] { f.net.kill(3); });  // before arrival
  EXPECT_TRUE(f.sim.run_until());
  ASSERT_EQ(f.received.size(), 1U);
  EXPECT_EQ(f.received[0].kind, MsgKind::kDeliveryFailure);
}

TEST(Network, DeadSenderTransmitsNothing) {
  NetFixture f;
  f.net.kill(1);
  f.net.send(f.make(MsgKind::kControl, 1, 0));
  EXPECT_TRUE(f.sim.run_until());
  EXPECT_TRUE(f.received.empty());
  EXPECT_EQ(f.net.stats().dropped_dead_sender, 1U);
}

TEST(Network, InFlightFromFreshlyDeadStillArrives) {
  // Fail-silent semantics: messages transmitted before the crash arrive.
  NetFixture f;
  f.net.send(f.make(MsgKind::kControl, 1, 0));
  f.sim.after(sim::SimTime(1), [&] { f.net.kill(1); });
  EXPECT_TRUE(f.sim.run_until());
  ASSERT_EQ(f.received.size(), 1U);
  EXPECT_EQ(f.received[0].kind, MsgKind::kControl);
}

TEST(Network, NoFailureNoticeWhenSenderDiedToo) {
  NetFixture f;
  f.net.kill(2);
  f.net.send(f.make(MsgKind::kControl, 0, 2));
  f.sim.after(sim::SimTime(1), [&] { f.net.kill(0); });
  EXPECT_TRUE(f.sim.run_until());
  EXPECT_TRUE(f.received.empty());
}

TEST(Network, StatsCountByKind) {
  NetFixture f;
  f.net.send(f.make(MsgKind::kHeartbeat, 0, 1));
  f.net.send(f.make(MsgKind::kHeartbeat, 0, 2));
  f.net.send(f.make(MsgKind::kForwardResult, 1, 0, 3));
  EXPECT_TRUE(f.sim.run_until());
  const NetworkStats& s = f.net.stats();
  EXPECT_EQ(s.sent[static_cast<std::size_t>(MsgKind::kHeartbeat)], 2U);
  EXPECT_EQ(s.delivered[static_cast<std::size_t>(MsgKind::kForwardResult)],
            1U);
  EXPECT_EQ(s.total_sent(), 3U);
  EXPECT_EQ(s.total_units, 5U);
}

TEST(Network, AliveCountTracksKills) {
  NetFixture f;
  EXPECT_EQ(f.net.alive_count(), 4U);
  f.net.kill(0);
  f.net.kill(0);  // idempotent
  EXPECT_EQ(f.net.alive_count(), 3U);
  EXPECT_FALSE(f.net.alive(0));
  EXPECT_TRUE(f.net.alive(1));
}

// ---------------------------------------------------------------------------
// Boxed payloads
// ---------------------------------------------------------------------------

static_assert(sizeof(Boxed<runtime::TaskPacket>) == sizeof(void*));

TEST(Boxed, ClonedEnvelopeOwnsAnIndependentPayload) {
  runtime::TaskPacket packet;
  packet.stamp = runtime::LevelStamp::root().child(3).child(1);
  packet.args = {lang::Value::integer(42)};
  Envelope env;
  env.kind = MsgKind::kTaskPacket;
  env.from = 0;
  env.to = 1;
  env.payload = packet;

  Envelope dup = Network::clone_envelope(env);
  EXPECT_EQ(dup.kind, env.kind);
  EXPECT_EQ(dup.to, env.to);
  auto& original = std::get<Boxed<runtime::TaskPacket>>(env.payload);
  auto& copy = std::get<Boxed<runtime::TaskPacket>>(dup.payload);
  EXPECT_NE(&*original, &*copy);
  EXPECT_EQ(copy->stamp, packet.stamp);

  copy->stamp = copy->stamp.child(9);
  copy->args.push_back(lang::Value::integer(7));
  EXPECT_EQ(original->stamp, packet.stamp);
  EXPECT_EQ(original->args.size(), 1U);

  env = Envelope{};  // freeing the original leaves the duplicate intact
  EXPECT_EQ(copy->stamp.depth(), 3U);
  EXPECT_EQ(copy->args[0], lang::Value::integer(42));
}

TEST(Boxed, MovedFromBoxIsSafeToDestroyAndReassign) {
  runtime::AckMsg ack;
  ack.replica = 3;
  Boxed<runtime::AckMsg> box(ack);
  Boxed<runtime::AckMsg> taken(std::move(box));
  // NOLINTBEGIN(bugprone-use-after-move): moved-from state is the contract
  EXPECT_FALSE(box.has_value());
  EXPECT_EQ(taken->replica, 3U);
  const Boxed<runtime::AckMsg> empty_copy(box);
  EXPECT_FALSE(empty_copy.has_value());

  box = taken;  // copy-assign into a moved-from box: a fresh deep copy
  ASSERT_TRUE(box.has_value());
  EXPECT_NE(&*box, &*taken);
  EXPECT_EQ(box->replica, 3U);

  ack.replica = 5;
  box = Boxed<runtime::AckMsg>(ack);  // move-assign over a live value
  EXPECT_EQ(box->replica, 5U);
  taken = std::move(box);
  EXPECT_FALSE(box.has_value());
  EXPECT_EQ(taken->replica, 5U);
  box = std::move(taken);
  EXPECT_EQ(box->replica, 5U);

  // A moved-from envelope destroys a moved-from box.
  Envelope env;
  env.kind = MsgKind::kCancel;
  env.payload = runtime::CancelMsg{};
  Envelope moved(std::move(env));
  EXPECT_FALSE(std::get<Boxed<runtime::CancelMsg>>(env.payload).has_value());
  EXPECT_TRUE(std::get<Boxed<runtime::CancelMsg>>(moved.payload).has_value());
  env.payload = runtime::ErrorMsg{1, 2};  // and reuses the slot
  EXPECT_EQ(std::get<runtime::ErrorMsg>(env.payload).dead, 1U);
  // NOLINTEND(bugprone-use-after-move)
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, TimedKillFiresAtRequestedTick) {
  sim::Simulator sim;
  Network net(sim, Topology(TopologyKind::kComplete, 3), LatencyModel{});
  for (ProcId p = 0; p < 3; ++p) net.set_receiver(p, [](Envelope) {});
  std::vector<std::pair<std::int64_t, ProcId>> kills;
  FaultInjector injector(sim, net, FaultPlan::single(1, sim::SimTime(500)),
                         [&](ProcId p) { kills.push_back({sim.now().ticks(), p}); });
  injector.arm();
  EXPECT_TRUE(sim.run_until());
  ASSERT_EQ(kills.size(), 1U);
  EXPECT_EQ(kills[0], (std::pair<std::int64_t, ProcId>{500, 1}));
  EXPECT_FALSE(net.alive(1));
  EXPECT_EQ(injector.kills_executed(), 1U);
}

TEST(FaultInjector, TriggeredKillWaitsForTrigger) {
  sim::Simulator sim;
  Network net(sim, Topology(TopologyKind::kComplete, 3), LatencyModel{});
  for (ProcId p = 0; p < 3; ++p) net.set_receiver(p, [](Envelope) {});
  FaultPlan plan;
  plan.triggered.push_back({2, "checkpoint-reached", sim::SimTime(10)});
  FaultInjector injector(sim, net, plan, nullptr);
  injector.arm();
  sim.after(sim::SimTime(100), [&] { injector.fire_trigger("wrong-name"); });
  sim.after(sim::SimTime(200),
            [&] { injector.fire_trigger("checkpoint-reached"); });
  sim.after(sim::SimTime(200),
            [&] { injector.fire_trigger("checkpoint-reached"); });  // once only
  EXPECT_TRUE(sim.run_until());
  EXPECT_FALSE(net.alive(2));
  EXPECT_EQ(injector.kills_executed(), 1U);
  EXPECT_EQ(sim.now().ticks(), 210);
}

TEST(FaultInjector, MultiFaultPlan) {
  sim::Simulator sim;
  Network net(sim, Topology(TopologyKind::kComplete, 4), LatencyModel{});
  for (ProcId p = 0; p < 4; ++p) net.set_receiver(p, [](Envelope) {});
  FaultPlan plan;
  plan.timed.push_back({0, sim::SimTime(100)});
  plan.timed.push_back({3, sim::SimTime(300)});
  EXPECT_EQ(plan.fault_count(), 2U);
  FaultInjector injector(sim, net, plan, nullptr);
  injector.arm();
  EXPECT_TRUE(sim.run_until());
  EXPECT_EQ(net.alive_count(), 2U);
}

TEST(FaultInjector, KillNowIsIdempotent) {
  sim::Simulator sim;
  Network net(sim, Topology(TopologyKind::kComplete, 2), LatencyModel{});
  int callbacks = 0;
  FaultInjector injector(sim, net, {}, [&](ProcId) { ++callbacks; });
  injector.kill_now(1);
  injector.kill_now(1);
  EXPECT_EQ(callbacks, 1);
}

TEST(FaultInjector, KillNowOnExternallyDeadNodeIsIgnored) {
  sim::Simulator sim;
  Network net(sim, Topology(TopologyKind::kComplete, 2), LatencyModel{});
  int callbacks = 0;
  FaultInjector injector(sim, net, {}, [&](ProcId) { ++callbacks; });
  net.kill(1);  // died outside the injector (e.g. a test harness)
  injector.kill_now(1);
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(injector.kills_executed(), 0U);
  EXPECT_EQ(injector.first_kill_ticks(), -1);
}

TEST(FaultInjector, SharedTriggerNameFiresEveryMatchingFault) {
  sim::Simulator sim;
  Network net(sim, Topology(TopologyKind::kComplete, 4), LatencyModel{});
  for (ProcId p = 0; p < 4; ++p) net.set_receiver(p, [](Envelope) {});
  FaultPlan plan;
  plan.triggered.push_back({1, "wave", sim::SimTime(0)});
  plan.triggered.push_back({2, "wave", sim::SimTime(30)});
  FaultInjector injector(sim, net, plan, nullptr);
  injector.arm();
  sim.after(sim::SimTime(100), [&] { injector.fire_trigger("wave"); });
  EXPECT_TRUE(sim.run_until());
  EXPECT_FALSE(net.alive(1));  // immediate
  EXPECT_FALSE(net.alive(2));  // 30 ticks later
  EXPECT_EQ(injector.kills_executed(), 2U);
  EXPECT_EQ(sim.now().ticks(), 130);
}

TEST(FaultInjector, RefiringATriggerDoesNotDoubleScheduleDelayedKills) {
  sim::Simulator sim;
  Network net(sim, Topology(TopologyKind::kComplete, 3), LatencyModel{});
  for (ProcId p = 0; p < 3; ++p) net.set_receiver(p, [](Envelope) {});
  FaultPlan plan;
  plan.triggered.push_back({2, "go", sim::SimTime(50)});
  std::vector<std::int64_t> kill_times;
  FaultInjector injector(sim, net, plan,
                         [&](ProcId) { kill_times.push_back(sim.now().ticks()); });
  injector.arm();
  sim.after(sim::SimTime(100), [&] { injector.fire_trigger("go"); });
  sim.after(sim::SimTime(120), [&] { injector.fire_trigger("go"); });
  EXPECT_TRUE(sim.run_until());
  // One kill at 150, no second scheduling from the refire at 120.
  EXPECT_EQ(kill_times, (std::vector<std::int64_t>{150}));
  EXPECT_EQ(injector.kills_executed(), 1U);
}

}  // namespace
}  // namespace splice::net
