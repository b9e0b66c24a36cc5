// The super-root (§4.3.1): root-failure recovery and the "user must
// restart" regime when it is disabled.
#include <gtest/gtest.h>

#include "core/simulation.h"
#include "lang/programs.h"
#include "test_util.h"

namespace splice {
namespace {

using core::RecoveryKind;
using core::RunResult;
using core::SystemConfig;
using splice::testing::base_config;

// Pin the root to processor 0 so "kill the root's host" is deterministic.
lang::Program rooted_program() {
  using lang::programs::ScriptedNode;
  const std::vector<ScriptedNode> nodes = {
      {"root", {"left", "right"}, 100, 0},
      {"left", {"ll"}, 1500, 1},
      {"right", {"rr"}, 1500, 2},
      {"ll", {}, 4000, 1},
      {"rr", {}, 4000, 2},
  };
  return lang::programs::scripted_tree(nodes);
}

SystemConfig pinned_config(std::uint64_t seed = 1) {
  SystemConfig cfg = base_config(4, seed);
  cfg.topology = net::TopologyKind::kComplete;
  cfg.scheduler.kind = core::SchedulerKind::kPinned;
  return cfg;
}

TEST(SuperRoot, RootHostFailureIsRecovered) {
  SystemConfig cfg = pinned_config();
  cfg.super_root = true;
  const auto program = rooted_program();
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const RunResult r = core::run_once(cfg, program,
                                     net::FaultPlan::single(0, sim::SimTime(makespan / 2)));
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
}

TEST(SuperRoot, DisabledMeansRootFailureIsFatal) {
  // "If the failed processor contains the root of a task tree, the
  //  regeneration of the root does not come naturally ... The user must
  //  restart the program."
  SystemConfig cfg = pinned_config();
  cfg.super_root = false;
  const auto program = rooted_program();
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  cfg.deadline_ticks = makespan * 20;
  const RunResult r = core::run_once(cfg, program,
                                     net::FaultPlan::single(0, sim::SimTime(makespan / 2)));
  EXPECT_FALSE(r.completed) << r.summary();
}

TEST(SuperRoot, RootFailureBeforeAnySpawn) {
  // Kill the root's host immediately: the super-root's preevaluation
  // checkpoint is the only copy of the program.
  SystemConfig cfg = pinned_config();
  const auto program = rooted_program();
  const RunResult r =
      core::run_once(cfg, program, net::FaultPlan::single(0, sim::SimTime(30)));
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
}

TEST(SuperRoot, OrphanedLevelOneTasksRelayThroughSuperRoot) {
  // Root dies while its children still run: their returns divert to the
  // super-root (the grandparent of level-1 tasks) and must be salvaged
  // into the respawned root.
  SystemConfig cfg = pinned_config();
  cfg.obs.recorder = true;
  const auto program = rooted_program();
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(net::FaultPlan::single(0, sim::SimTime(makespan / 2)));
  const RunResult r = sim.run();
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
  // Either the orphans were salvaged into the new root, or (if they
  // completed before the respawn scan) the new root recomputed them; the
  // salvage path is exercised with this pinned timing.
  EXPECT_GT(r.counters.orphan_results_salvaged +
                r.counters.tasks_respawned,
            0U);
}

TEST(SuperRoot, RestartPolicyRestartsWholeProgram) {
  SystemConfig cfg = pinned_config();
  cfg.recovery.kind = RecoveryKind::kRestart;
  const auto program = rooted_program();
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const RunResult r = core::run_once(cfg, program,
                                     net::FaultPlan::single(1, sim::SimTime(makespan / 2)));
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
  // A restart re-creates at least the root task a second time.
  EXPECT_GT(r.counters.tasks_created,
            lang::reference_stats(program).calls);
}

TEST(SuperRoot, RepeatedRootFailures) {
  SystemConfig cfg = pinned_config(7);
  const auto program = rooted_program();
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::FaultPlan plan;
  // Root respawns land via the (pinned-with-fallback) scheduler on random
  // alive processors; kill three hosts in sequence.
  plan.timed.push_back({0, sim::SimTime(makespan / 4)});
  plan.timed.push_back({1, sim::SimTime(makespan / 2)});
  plan.timed.push_back({2, sim::SimTime(makespan)});
  const RunResult r = core::run_once(cfg, program, plan);
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
}

}  // namespace
}  // namespace splice
