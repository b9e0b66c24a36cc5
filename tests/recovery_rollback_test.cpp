// Rollback recovery (§3): reissue topmost checkpoints, abandon orphans.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/simulation.h"
#include "lang/programs.h"
#include "test_util.h"

namespace splice {
namespace {

using core::RecoveryKind;
using core::RunResult;
using core::SystemConfig;
using splice::testing::base_config;

SystemConfig rollback_config(std::uint32_t procs = 8, std::uint64_t seed = 1) {
  SystemConfig cfg = base_config(procs, seed);
  cfg.recovery.kind = RecoveryKind::kRollback;
  return cfg;
}

TEST(Rollback, SurvivesSingleFaultMidRun) {
  SystemConfig cfg = rollback_config();
  const auto program = lang::programs::tree_sum(4, 3, 200, 40);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  ASSERT_GT(makespan, 0);
  const RunResult r = core::run_once(
      cfg, program, net::FaultPlan::single(/*target=*/3, sim::SimTime(makespan / 2)));
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.faults_injected, 1U);
  EXPECT_GT(r.counters.tasks_respawned, 0U);
  // Rollback creates no splice twins and salvages nothing.
  EXPECT_EQ(r.counters.twins_created, 0U);
  EXPECT_EQ(r.counters.orphan_results_salvaged, 0U);
}

TEST(Rollback, RecoveryCostsTime) {
  SystemConfig cfg = rollback_config();
  const auto program = lang::programs::tree_sum(4, 3, 200, 40);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const RunResult faulted = core::run_once(
      cfg, program, net::FaultPlan::single(3, sim::SimTime(makespan / 2)));
  ASSERT_TRUE(faulted.completed);
  EXPECT_GT(faulted.makespan_ticks, makespan);
}

TEST(Rollback, RedoneWorkExceedsFaultFreeWork) {
  SystemConfig cfg = rollback_config(8, 3);
  const auto program = lang::programs::tree_sum(5, 2, 400, 50);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const RunResult clean = core::run_once(cfg, program);
  const RunResult late = core::run_once(
      cfg, program, net::FaultPlan::single(2, sim::SimTime(makespan * 7 / 10)));
  ASSERT_TRUE(late.completed);
  EXPECT_TRUE(late.answer_correct);
  EXPECT_GT(late.counters.busy_ticks, clean.counters.busy_ticks);
}

TEST(Rollback, AbortsOrphansOfDeadParent) {
  // Pinned figure-1 layout: killing B orphans D4 (child of B2) and the
  // {A2, D1, D2, C4} piece.
  SystemConfig cfg = rollback_config(4, 1);
  cfg.topology = net::TopologyKind::kComplete;
  cfg.scheduler.kind = core::SchedulerKind::kPinned;
  cfg.obs.recorder = true;
  const auto program = lang::programs::figure1_tree(400);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  core::Simulation simulation(cfg, program);
  simulation.set_fault_plan(net::FaultPlan::single(1, sim::SimTime(makespan / 3)));
  const RunResult r = simulation.run();
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
  // Rollback reissued a checkpoint its holder kept against the dead B.
  const auto checkpoints =
      splice::testing::events_of(simulation, obs::EventKind::kCheckpoint);
  EXPECT_TRUE(splice::testing::has_event(
      simulation, obs::EventKind::kReissue, [&](const obs::Event& reissue) {
        return std::any_of(checkpoints.begin(), checkpoints.end(),
                           [&](const obs::Event& c) {
                             return c.proc == reissue.proc && c.peer == 1 &&
                                    c.stamp == reissue.stamp;
                           });
      }));
}

TEST(Rollback, DetectionHappensAfterFault) {
  SystemConfig cfg = rollback_config();
  const auto program = lang::programs::tree_sum(4, 3, 200, 40);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const RunResult r = core::run_once(
      cfg, program, net::FaultPlan::single(5, sim::SimTime(makespan / 2)));
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.detection_ticks, r.first_failure_ticks);
}

TEST(Rollback, SurvivesFaultAtEveryTenthOfMakespan) {
  SystemConfig cfg = rollback_config(8, 7);
  const auto program = lang::programs::fib(11, 120);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  for (int tenth = 1; tenth <= 9; ++tenth) {
    const RunResult r = core::run_once(
        cfg, program,
        net::FaultPlan::single(2, sim::SimTime(makespan * tenth / 10)));
    EXPECT_TRUE(r.completed) << "fault at " << tenth << "/10: " << r.summary();
    EXPECT_TRUE(r.answer_correct) << "fault at " << tenth << "/10";
  }
}

TEST(Rollback, SurvivesFaultOnEveryProcessor) {
  SystemConfig cfg = rollback_config(6, 11);
  cfg.topology = net::TopologyKind::kComplete;
  const auto program = lang::programs::tree_sum(4, 2, 250, 30);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  for (net::ProcId target = 0; target < 6; ++target) {
    const RunResult r = core::run_once(
        cfg, program, net::FaultPlan::single(target, sim::SimTime(makespan / 2)));
    EXPECT_TRUE(r.completed) << "killing P" << target << ": " << r.summary();
    EXPECT_TRUE(r.answer_correct) << "killing P" << target;
  }
}

TEST(Rollback, FaultBeforeStartIsNearlyHarmless) {
  // Processor dies at t=1, before meaningful placement: the scheduler
  // simply routes around it.
  SystemConfig cfg = rollback_config();
  const RunResult r = core::run_once(cfg, lang::programs::fib(9, 50),
                                     net::FaultPlan::single(6, sim::SimTime(1)));
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
}

TEST(Rollback, FaultAfterCompletionIsHarmless) {
  SystemConfig cfg = rollback_config();
  const auto program = lang::programs::fib(8, 20);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const RunResult r = core::run_once(cfg, program,
                                     net::FaultPlan::single(2, sim::SimTime(makespan * 10)));
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.makespan_ticks, makespan);
  EXPECT_EQ(r.counters.tasks_respawned, 0U);
}

}  // namespace
}  // namespace splice
