// Node rejoin (crash-recovery model): a killed processor is repaired after
// the plan's repair delay, revives blank, announces itself, and re-enters
// scheduling — under every recovery policy, repeatedly, deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/config.h"
#include "core/simulation.h"
#include "lang/programs.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace splice {
namespace {

// ---------------------------------------------------------------------------
// Network-level revive semantics
// ---------------------------------------------------------------------------

TEST(NetworkRevive, RevivedNodeReceivesAgain) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology(net::TopologyKind::kComplete, 4),
                       net::LatencyModel{});
  std::vector<net::MsgKind> at2;
  for (net::ProcId p = 0; p < 4; ++p) {
    network.set_receiver(p, [&, p](net::Envelope env) {
      if (p == 2) at2.push_back(env.kind);
    });
  }
  network.kill(2);
  auto make_env = [] {
    net::Envelope env;
    env.kind = net::MsgKind::kControl;
    env.from = 0;
    env.to = 2;
    return env;
  };
  network.send(make_env());  // lost: 2 is down
  EXPECT_TRUE(sim.run_until());
  EXPECT_TRUE(at2.empty());

  network.revive(2);
  EXPECT_TRUE(network.alive(2));
  EXPECT_EQ(network.alive_count(), 4U);
  EXPECT_EQ(network.stats().revives, 1U);
  network.revive(2);  // idempotent
  EXPECT_EQ(network.stats().revives, 1U);

  network.send(make_env());
  EXPECT_TRUE(sim.run_until());
  ASSERT_EQ(at2.size(), 1U);
  EXPECT_EQ(at2[0], net::MsgKind::kControl);
}

// ---------------------------------------------------------------------------
// Injector-level repair scheduling
// ---------------------------------------------------------------------------

TEST(RejoinInjector, ReviveFiresRepairDelayAfterEachKill) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology(net::TopologyKind::kComplete, 4),
                       net::LatencyModel{});
  for (net::ProcId p = 0; p < 4; ++p) network.set_receiver(p, [](auto) {});
  std::vector<std::pair<std::int64_t, net::ProcId>> kills, revives;
  net::FaultPlan plan;
  plan.timed.push_back({1, sim::SimTime(500)});
  plan.timed.push_back({1, sim::SimTime(2000)});  // killed again after repair
  plan.with_rejoin(sim::SimTime(300));
  net::FaultInjector injector(
      sim, network, plan,
      [&](net::ProcId p) { kills.push_back({sim.now().ticks(), p}); },
      [&](net::ProcId p) { revives.push_back({sim.now().ticks(), p}); });
  injector.arm();
  EXPECT_TRUE(sim.run_until());
  ASSERT_EQ(kills.size(), 2U);
  ASSERT_EQ(revives.size(), 2U);
  EXPECT_EQ(kills[0], (std::pair<std::int64_t, net::ProcId>{500, 1}));
  EXPECT_EQ(revives[0], (std::pair<std::int64_t, net::ProcId>{800, 1}));
  EXPECT_EQ(kills[1], (std::pair<std::int64_t, net::ProcId>{2000, 1}));
  EXPECT_EQ(revives[1], (std::pair<std::int64_t, net::ProcId>{2300, 1}));
  EXPECT_EQ(injector.kills_executed(), 2U);
  EXPECT_EQ(injector.revives_executed(), 2U);
  EXPECT_TRUE(network.alive(1));
}

TEST(RejoinInjector, ReviveNowOnAliveNodeIsNoop) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology(net::TopologyKind::kComplete, 2),
                       net::LatencyModel{});
  int revive_calls = 0;
  net::FaultInjector injector(sim, network, {}, nullptr,
                              [&](net::ProcId) { ++revive_calls; });
  injector.revive_now(1);  // alive: nothing to repair
  EXPECT_EQ(revive_calls, 0);
  injector.kill_now(1);
  injector.revive_now(1);
  injector.revive_now(1);
  EXPECT_EQ(revive_calls, 1);
  EXPECT_EQ(injector.revives_executed(), 1U);
}

// ---------------------------------------------------------------------------
// Whole-system crash-recovery runs
// ---------------------------------------------------------------------------

core::SystemConfig base_config(core::RecoveryKind kind) {
  core::SystemConfig cfg;
  cfg.processors = 8;
  cfg.topology = net::TopologyKind::kMesh2D;
  cfg.recovery.kind = kind;
  cfg.heartbeat_interval = 1000;
  cfg.seed = 7;
  return cfg;
}

TEST(Rejoin, SpliceCompletesWithKillAndRejoin) {
  const auto program = lang::programs::tree_sum(4, 3, 250, 40);
  core::SystemConfig cfg = base_config(core::RecoveryKind::kSplice);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(makespan / 4));
  const core::RunResult r = core::run_once(cfg, program, plan);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.faults_injected, 1U);
  EXPECT_EQ(r.nodes_revived, 1U);
  EXPECT_EQ(r.counters.rejoins, 1U);
  // The repaired node is back in the machine at the end.
  EXPECT_EQ(r.processors_alive_at_end, 8U);
}

TEST(Rejoin, RevivedNodeAnnouncesAndPeersForgetItsDeath) {
  const auto program = lang::programs::tree_sum(4, 3, 300, 40);
  core::SystemConfig cfg = base_config(core::RecoveryKind::kSplice);
  cfg.obs.recorder = true;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::FaultPlan plan = net::FaultPlan::single(2, sim::SimTime(makespan / 3));
  plan.with_rejoin(sim::SimTime(1000));
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(plan);
  const core::RunResult r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  // P2 was repaired and rejoined blank: nothing restored, no catch-up.
  using obs::EventKind;
  using splice::testing::events_of;
  using splice::testing::has_event;
  EXPECT_TRUE(has_event(sim, EventKind::kRevive,
                        [](const obs::Event& e) { return e.proc == 2; }));
  EXPECT_TRUE(has_event(sim, EventKind::kRejoin, [](const obs::Event& e) {
    return e.proc == 2 && e.arg == 0;
  }));
  EXPECT_TRUE(events_of(sim, EventKind::kCatchUp).empty());
  // At least one live peer had detected the death and processed the
  // rejoin notice.
  const auto detects = events_of(sim, EventKind::kDetect);
  EXPECT_TRUE(has_event(sim, EventKind::kPeerRejoin, [&](const obs::Event& back) {
    return back.peer == 2 &&
           std::any_of(detects.begin(), detects.end(),
                       [&](const obs::Event& d) {
                         return d.proc == back.proc && d.peer == 2 &&
                                d.id < back.id;
                       });
  }));
}

TEST(Rejoin, SecondDeathOfRejoinedNodeIsDetectedAndRecovered) {
  const auto program = lang::programs::tree_sum(4, 3, 300, 40);
  core::SystemConfig cfg = base_config(core::RecoveryKind::kSplice);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::FaultPlan plan;
  plan.timed.push_back({4, sim::SimTime(makespan / 4)});
  plan.timed.push_back({4, sim::SimTime(makespan / 4 + 3000)});
  plan.with_rejoin(sim::SimTime(1000));
  const core::RunResult r = core::run_once(cfg, program, plan);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.faults_injected, 2U);  // the same node died twice
  EXPECT_EQ(r.nodes_revived, 2U);
  EXPECT_EQ(r.counters.rejoins, 2U);
}

class RejoinPolicyMatrixTest
    : public ::testing::TestWithParam<core::RecoveryKind> {};

TEST_P(RejoinPolicyMatrixTest, PolicyCompletesWithRejoiningNode) {
  const auto program = lang::programs::tree_sum(4, 3, 250, 40);
  core::SystemConfig cfg = base_config(GetParam());
  if (GetParam() == core::RecoveryKind::kPeriodicGlobal) {
    cfg.recovery.checkpoint_interval = 8000;
  }
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::FaultPlan plan = net::FaultPlan::single(5, sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(2000));
  const core::RunResult r = core::run_once(cfg, program, plan);
  EXPECT_TRUE(r.completed) << core::to_string(GetParam());
  EXPECT_TRUE(r.answer_correct) << core::to_string(GetParam());
  EXPECT_EQ(r.nodes_revived, 1U);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, RejoinPolicyMatrixTest,
                         ::testing::Values(core::RecoveryKind::kRollback,
                                           core::RecoveryKind::kSplice,
                                           core::RecoveryKind::kRestart,
                                           core::RecoveryKind::kPeriodicGlobal),
                         [](const auto& param_info) {
                           std::string name(core::to_string(param_info.param));
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(Rejoin, ReplicatedTasksWithRejoiningNode) {
  const auto program = lang::programs::tree_sum(3, 3, 250, 40);
  core::SystemConfig cfg = base_config(core::RecoveryKind::kSplice);
  cfg.processors = 9;
  cfg.replication.factor = 3;
  cfg.replication.max_depth = 2;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::FaultPlan plan = net::FaultPlan::single(4, sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(2000));
  const core::RunResult r = core::run_once(cfg, program, plan);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.nodes_revived, 1U);
}

TEST(Rejoin, RegionalQuadrantKillWithRepairCompletes) {
  const auto program = lang::programs::tree_sum(4, 3, 300, 40);
  core::SystemConfig cfg = base_config(core::RecoveryKind::kSplice);
  cfg.processors = 16;  // 4x4 mesh
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::FaultPlan plan = net::FaultPlan::region(
      net::RegionSpec::grid_rect(0, 0, 2, 2), sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(makespan / 4));
  const core::RunResult r = core::run_once(cfg, program, plan);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.faults_injected, 4U);  // the whole quadrant went down at once
  EXPECT_EQ(r.nodes_revived, 4U);
  EXPECT_EQ(r.processors_alive_at_end, 16U);
}

TEST(Rejoin, CascadeWithRepairCompletes) {
  const auto program = lang::programs::tree_sum(4, 3, 300, 40);
  core::SystemConfig cfg = base_config(core::RecoveryKind::kSplice);
  cfg.processors = 16;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::CascadeFault wave;
  wave.seed = 5;
  wave.when = sim::SimTime(makespan / 2);
  wave.probability = 1.0;  // the whole 1-hop neighbourhood dies
  wave.max_hops = 1;
  wave.stagger = sim::SimTime(500);
  net::FaultPlan plan = net::FaultPlan::cascade(wave);
  plan.with_rejoin(sim::SimTime(makespan / 4));
  const core::RunResult r = core::run_once(cfg, program, plan);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_GE(r.faults_injected, 5U);  // seed + its four mesh neighbours
  EXPECT_EQ(r.nodes_revived, r.faults_injected);
}

class FastRepairTest : public ::testing::TestWithParam<core::RecoveryKind> {};

TEST_P(FastRepairTest, RepairFasterThanDetectionStillRecovers) {
  // Repair delay far below the network failure timeout (400): every bounce
  // notice lands after the node is already back. The stale notices must
  // not re-mark the live node dead, and the subtree the node hosted must
  // still be regrown — the undetected-death obligations ride the rejoin
  // notice and the revive hook instead of the detection path.
  const auto program = lang::programs::tree_sum(4, 3, 300, 40);
  core::SystemConfig cfg = base_config(GetParam());
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(100));
  const core::RunResult r = core::run_once(cfg, program, plan);
  EXPECT_TRUE(r.completed) << core::to_string(GetParam());
  EXPECT_TRUE(r.answer_correct) << core::to_string(GetParam());
  EXPECT_EQ(r.nodes_revived, 1U);
  EXPECT_EQ(r.processors_alive_at_end, 8U);
}

INSTANTIATE_TEST_SUITE_P(SpliceAndRollback, FastRepairTest,
                         ::testing::Values(core::RecoveryKind::kSplice,
                                           core::RecoveryKind::kRollback),
                         [](const auto& param_info) {
                           return std::string(
                               core::to_string(param_info.param));
                         });

TEST(Rejoin, IdenticalSeededRunsAreBitIdentical) {
  const auto program = lang::programs::tree_sum(4, 3, 250, 40);
  auto run = [&] {
    core::SystemConfig cfg = base_config(core::RecoveryKind::kSplice);
    cfg.processors = 16;
    net::CascadeFault wave;
    wave.seed = 9;
    wave.when = sim::SimTime(15000);
    wave.probability = 0.7;
    wave.max_hops = 2;
    net::RecurringFault arrivals;
    arrivals.start = sim::SimTime(5000);
    arrivals.stop = sim::SimTime(60000);
    arrivals.mean_interval = 9000;
    arrivals.max_faults = 4;
    net::FaultPlan plan = net::FaultPlan::cascade(wave);
    plan.merge(net::FaultPlan::poisson(arrivals));
    plan.with_rejoin(sim::SimTime(6000)).with_seed(21);
    return core::run_once(cfg, program, plan);
  };
  const core::RunResult a = run();
  const core::RunResult b = run();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.nodes_revived, b.nodes_revived);
  EXPECT_EQ(a.counters.tasks_created, b.counters.tasks_created);
  EXPECT_EQ(a.counters.tasks_respawned, b.counters.tasks_respawned);
  EXPECT_EQ(a.net.total_sent(), b.net.total_sent());
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(Rejoin, RejoinedNodeReentersScheduling) {
  // Kill early with a short repair; by completion the revived node must
  // have accepted fresh work (tasks created after its rejoin).
  const auto program = lang::programs::tree_sum(5, 3, 300, 40);
  core::SystemConfig cfg = base_config(core::RecoveryKind::kSplice);
  cfg.processors = 4;  // small machine: the scheduler cannot avoid it
  net::FaultPlan plan = net::FaultPlan::single(2, sim::SimTime(2000));
  plan.with_rejoin(sim::SimTime(1500));
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(plan);
  const core::RunResult r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  auto& revived = sim.runtime_for_test().processor(2);
  EXPECT_EQ(revived.counters().rejoins, 1U);
  EXPECT_FALSE(revived.crashed());
  // tasks_created counts intake over the node's whole life; everything
  // before the crash was nuked, so any completion implies post-rejoin work
  // only when the count exceeds what it had absorbed pre-crash. Weaker but
  // robust: the node completed at least one task after rejoining.
  EXPECT_GT(revived.counters().tasks_completed, 0U);
}

}  // namespace
}  // namespace splice
