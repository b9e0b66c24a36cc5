// Protocol-level tests: the §4.2 loop's edge behaviour observed through
// small end-to-end simulations — freeze/unfreeze, unknown-packet tolerance,
// detection broadcast, zone eligibility, trace narratives, and a crash at
// every Fig. 6/7 residue state.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "lang/programs.h"
#include "net/network.h"
#include "recovery/recovery_oracle.h"
#include "runtime/processor.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace splice {
namespace {

using core::RecoveryKind;
using core::RunResult;
using core::SystemConfig;
using splice::testing::base_config;

TEST(Protocol, ErrorDetectionBroadcastReachesEveryProcessor) {
  SystemConfig cfg = base_config(8, 3);
  cfg.topology = net::TopologyKind::kComplete;
  cfg.obs.recorder = true;
  const auto program = lang::programs::tree_sum(4, 2, 400, 50);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(net::FaultPlan::single(2, sim::SimTime(makespan / 2)));
  const RunResult r = sim.run();
  ASSERT_TRUE(r.completed);
  // Every surviving processor must have learned of P2's death (detect
  // events from 7 processors: the victim can't detect itself).
  std::set<net::ProcId> learned;
  for (const obs::Event& e :
       splice::testing::events_of(sim, obs::EventKind::kDetect)) {
    learned.insert(e.proc);
  }
  EXPECT_EQ(learned.size(), 7U);
}

// The Figs. 6/7 residue experiment (bench/fig67_residue_states) under the
// oracle: the G -> P -> C chain pinned to processors 0, 1, 2 and a crash
// fired by each protocol trigger, at the trigger's own instant and 40
// ticks later. The victim is P's host, as in the bench, and also the host
// of the task that fires the trigger. Every run must finish with the
// reference answer and balance the oracle's ledgers: a task that finished
// as its trigger killed the host counts as completed, not also as lost.
TEST(Protocol, ResidueStatesRecoverFromEveryTriggeredCrash) {
  const lang::Program chain = lang::programs::scripted_tree({
      {"G", {"P"}, 800, 0},
      {"P", {"C"}, 800, 1},
      {"C", {}, 800, 2},
  });
  constexpr net::ProcId kPHost = 1;
  struct Case {
    const char* trigger;
    net::ProcId firing_host;  // host of the task whose step fires it
  };
  const Case cases[] = {
      {"spawn:P", 0},          // b: G sends P's packet
      {"ack:P", 0},            // c: G records the pointer to P
      {"exec:P", kPHost},      // d: P starts running
      {"spawn:C", kPHost},     // d': P sends C's packet
      {"ack:C", kPHost},       // e: P records the pointer to C
      {"complete:C", 2},       // f: C returns to P
      {"complete:P", kPHost},  // g: P returns to G
  };
  for (const RecoveryKind policy :
       {RecoveryKind::kRollback, RecoveryKind::kSplice}) {
    for (const Case& c : cases) {
      std::vector<net::ProcId> victims = {kPHost};
      if (c.firing_host != kPHost) victims.push_back(c.firing_host);
      for (const net::ProcId victim : victims) {
        for (const std::int64_t delay : {0, 40}) {
          const std::string label =
              std::string(core::to_string(policy)) + " " + c.trigger +
              " victim=p" + std::to_string(victim) +
              " delay=" + std::to_string(delay);
          SystemConfig cfg;
          cfg.processors = 4;
          cfg.topology = net::TopologyKind::kComplete;
          cfg.scheduler.kind = core::SchedulerKind::kPinned;
          cfg.recovery.kind = policy;
          cfg.heartbeat_interval = 500;
          core::Simulation sim(cfg, chain);
          net::FaultPlan plan;
          plan.triggered.push_back({victim, c.trigger, sim::SimTime(delay)});
          sim.set_fault_plan(plan);
          const RunResult r = sim.run();
          EXPECT_EQ(r.faults_injected, 1U) << label;
          EXPECT_TRUE(r.completed && r.answer_correct)
              << label << ": " << r.summary();
          const recovery::OracleReport report =
              recovery::RecoveryOracle::check(r);
          EXPECT_TRUE(report.ok()) << label << ": " << report.to_string();
        }
      }
    }
  }
}

TEST(Protocol, DetectionWorksWithoutHeartbeatsIfTrafficFlows) {
  // The paper's minimum detector: a failed send. With heartbeats off,
  // detection rides on ordinary traffic (returns to the dead node).
  SystemConfig cfg = base_config(4, 7);
  cfg.topology = net::TopologyKind::kComplete;
  cfg.heartbeat_interval = 0;
  const auto program = lang::programs::tree_sum(4, 2, 400, 50);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const RunResult r = core::run_once(
      cfg, program, net::FaultPlan::single(1, sim::SimTime(makespan / 2)));
  // Liveness is not guaranteed without heartbeats (a silent waiting parent
  // may never touch the dead node), but for this busy tree traffic exists;
  // the run must either complete correctly or time out — never complete
  // wrongly.
  if (r.completed) {
    EXPECT_TRUE(r.answer_correct);
    EXPECT_GE(r.detection_ticks, r.first_failure_ticks);
  }
}

TEST(Protocol, StrandedOrphanCountsWhenSuperRootDisabled) {
  // Level-1 orphans of a dead root have only the super-root to turn to;
  // with it disabled they are stranded (and counted).
  SystemConfig cfg = base_config(4, 1);
  cfg.topology = net::TopologyKind::kComplete;
  cfg.scheduler.kind = core::SchedulerKind::kPinned;
  cfg.super_root = false;
  using lang::programs::ScriptedNode;
  const std::vector<ScriptedNode> nodes = {
      {"root", {"a"}, 50, 0},
      {"a", {}, 3000, 1},
  };
  const auto program = lang::programs::scripted_tree(nodes);
  cfg.deadline_ticks = 200000;
  const RunResult r =
      core::run_once(cfg, program, net::FaultPlan::single(0, sim::SimTime(500)));
  EXPECT_FALSE(r.completed);
  EXPECT_GT(r.counters.orphans_stranded, 0U);
}

TEST(Protocol, ZoneEligibilityConfinesReplicaLanes) {
  SystemConfig cfg = base_config(6, 3);
  cfg.topology = net::TopologyKind::kComplete;
  cfg.recovery.kind = RecoveryKind::kNone;
  cfg.replication.factor = 3;
  cfg.replication.max_depth = 1;
  cfg.replication.majority = false;
  cfg.replication.zoned = true;
  cfg.obs.recorder = true;
  const auto program = lang::programs::tree_sum(3, 2, 100, 20);
  core::Simulation sim(cfg, program);
  const RunResult r = sim.run();
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  // Every placement of a non-root task must satisfy proc % 3 == zone of
  // its lane. Zones are identified by the root replicas' hosts.
  // Weaker, robust check: tasks never migrate across p % 3 classes within
  // one lane — count distinct residue classes used per root replica host.
  // The run completing with first-vote quorum already proves lanes exist;
  // here we check placements span all three zones.
  std::set<net::ProcId> zones_used;
  for (const obs::Event& e :
       splice::testing::events_of(sim, obs::EventKind::kPlace)) {
    zones_used.insert(e.proc % 3);
  }
  EXPECT_EQ(zones_used.size(), 3U);
}

TEST(Protocol, PeriodicFreezeStopsProgressDuringSnapshot) {
  SystemConfig fast = base_config(8, 9);
  fast.recovery.kind = RecoveryKind::kPeriodicGlobal;
  fast.recovery.checkpoint_interval = 1000;
  fast.recovery.freeze_base = 400;  // exaggerated freeze
  fast.recovery.freeze_per_unit = 1.0;
  SystemConfig cheap = fast;
  cheap.recovery.freeze_base = 10;
  cheap.recovery.freeze_per_unit = 0.01;
  const auto program = lang::programs::tree_sum(4, 3, 200, 30);
  const RunResult expensive_r = core::run_once(fast, program);
  const RunResult cheap_r = core::run_once(cheap, program);
  ASSERT_TRUE(expensive_r.completed && cheap_r.completed);
  EXPECT_GT(expensive_r.makespan_ticks, cheap_r.makespan_ticks);
  EXPECT_GT(expensive_r.counters.freeze_ticks,
            cheap_r.counters.freeze_ticks);
}

TEST(Protocol, ReplicationOfEveryTaskAtDepthTwoStillCorrect) {
  // Nested replication (lanes within lanes): instances multiply but
  // determinacy holds.
  SystemConfig cfg = base_config(9, 11);
  cfg.topology = net::TopologyKind::kComplete;
  cfg.replication.factor = 3;
  cfg.replication.max_depth = 2;
  const auto program = lang::programs::tree_sum(3, 2, 100, 20);
  const RunResult r = core::run_once(cfg, program);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
}

TEST(Protocol, TraceDisabledCollectsNothing) {
  SystemConfig cfg = base_config(4, 1);
  cfg.obs.recorder = false;
  core::Simulation sim(cfg, lang::programs::fib(6));
  const RunResult r = sim.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sim.recorder().total_recorded(), 0U);
  EXPECT_TRUE(sim.recorder().snapshot().events.empty());
}

// ---------------------------------------------------------------------------
// The rebuilt child packet: a call slot keeps the callee, the arguments and
// the lineage, and its owner rebuilds the rest (Task::child_packet)
// ---------------------------------------------------------------------------

/// A run stepped by hand, `victim` killed at `kill_at` when one is given.
/// At every step each live child whose spawning slot is still current is
/// checked: the packet it arrived with, and the one its owner rebuilds now,
/// both equal the packet built by the reference rule
/// (testing::reference_child_packet), and the owner's state units are the
/// reference count.
struct PacketCheck {
  std::uint64_t checked = 0;      // children compared
  std::uint64_t respawned = 0;    // of which from a respawned slot
  std::uint64_t replicas = 0;     // of which a replica other than 0
};

PacketCheck check_packets_while_running(
    const SystemConfig& cfg, const lang::Program& program,
    std::optional<net::ProcId> victim = {}, std::int64_t kill_at = 0) {
  sim::Simulator simulator;
  net::Network network(simulator, net::Topology(cfg.topology, cfg.processors),
                       cfg.latency);
  runtime::Runtime rt(simulator, network, cfg, program);
  const std::uint32_t depth = cfg.recovery.ancestor_depth;
  if (victim.has_value()) {
    simulator.at(sim::SimTime(kill_at), [&] {
      network.kill(*victim);
      rt.on_kill(*victim);
    });
  }
  rt.start();
  PacketCheck out;
  for (std::int64_t t = 50; !rt.done() && t < 400000; t += 50) {
    simulator.run_until(sim::SimTime(t));
    for (net::ProcId p = 0; p < cfg.processors; ++p) {
      if (rt.processor(p).crashed()) continue;
      rt.processor(p).for_each_task([&](runtime::Task& child) {
        const runtime::TaskRef parent = child.packet().parent();
        if (parent.proc >= cfg.processors ||
            rt.processor(parent.proc).crashed()) {
          return;
        }
        runtime::Task* owner = rt.processor(parent.proc).find_task(parent.uid);
        const runtime::CallSlot* slot =
            owner == nullptr ? nullptr
                             : owner->find_slot(child.packet().call_site);
        if (slot == nullptr || !slot->spawned || slot->resolved() ||
            slot->lineage != child.packet().lineage) {
          return;  // a superseded instance, or its slot already resolved
        }
        const std::uint32_t replica = child.packet().replica;
        const bool zoned = cfg.replication.enabled() &&
                           cfg.replication.zoned &&
                           rt.replication_for(child.stamp().depth()) > 1;
        const runtime::TaskPacket want = testing::reference_child_packet(
            *owner, *slot, parent.proc, depth, replica, zoned);
        testing::expect_same_packet(want, child.packet());
        runtime::TaskPacket rebuilt =
            owner->child_packet(*slot, parent.proc, depth);
        rebuilt.replica = replica;
        if (zoned) rebuilt.zone = static_cast<std::int32_t>(replica);
        testing::expect_same_packet(want, rebuilt);
        EXPECT_EQ(owner->state_units(depth),
                  testing::reference_state_units(*owner, parent.proc, depth));
        ++out.checked;
        if (slot->respawns > 0) ++out.respawned;
        if (replica > 0) ++out.replicas;
      });
    }
  }
  EXPECT_TRUE(rt.done());
  return out;
}

TEST(Protocol, RebuiltChildPacketMatchesTheSentOneAtEveryDepth) {
  const auto program = lang::programs::fib(11);
  for (const std::uint32_t depth : {1U, 2U, 4U}) {
    SCOPED_TRACE("ancestor_depth=" + std::to_string(depth));
    SystemConfig cfg = base_config(8, 5);
    cfg.recovery.ancestor_depth = depth;
    const std::int64_t makespan =
        core::Simulation::fault_free_makespan(cfg, program);
    const PacketCheck c =
        check_packets_while_running(cfg, program, 3, makespan / 2);
    EXPECT_GT(c.checked, 100U);
    EXPECT_GT(c.respawned, 0U);  // the crash's twins were checked too
  }
}

TEST(Protocol, RebuiltChildPacketMatchesZonedReplicas) {
  SystemConfig cfg = base_config(9, 11);
  cfg.topology = net::TopologyKind::kComplete;
  cfg.recovery.kind = RecoveryKind::kNone;
  cfg.replication.factor = 3;
  cfg.replication.max_depth = 3;
  cfg.replication.zoned = true;
  const auto program = lang::programs::tree_sum(4, 2, 200, 20);
  const PacketCheck c = check_packets_while_running(cfg, program);
  EXPECT_GT(c.replicas, 0U);
}

TEST(Protocol, ConfigDescribeMentionsEveryAxis) {
  SystemConfig cfg = base_config(8, 42);
  cfg.recovery.kind = RecoveryKind::kSplice;
  cfg.recovery.ancestor_depth = 3;
  cfg.replication.factor = 3;
  const std::string desc = cfg.describe();
  EXPECT_NE(desc.find("procs=8"), std::string::npos);
  EXPECT_NE(desc.find("splice"), std::string::npos);
  EXPECT_NE(desc.find("depth=3"), std::string::npos);
  EXPECT_NE(desc.find("repl=3"), std::string::npos);
  EXPECT_NE(desc.find("seed=42"), std::string::npos);
}

TEST(Protocol, RunResultSummaryIsInformative) {
  const RunResult r = core::run_once(base_config(4, 1),
                                     lang::programs::fib(6));
  const std::string s = r.summary();
  EXPECT_NE(s.find("completed"), std::string::npos);
  EXPECT_NE(s.find("answer=8"), std::string::npos);
  EXPECT_NE(s.find("(correct)"), std::string::npos);
}

}  // namespace
}  // namespace splice
