// Splice recovery (§4): step-parents, grandparent relays, orphan salvage,
// and the eight completion orderings of §4.1.
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

SystemConfig splice_config(std::uint32_t procs = 8, std::uint64_t seed = 1) {
  SystemConfig cfg = base_config(procs, seed);
  cfg.recovery.kind = RecoveryKind::kSplice;
  return cfg;
}

TEST(Splice, SurvivesSingleFaultMidRun) {
  SystemConfig cfg = splice_config();
  const auto program = lang::programs::tree_sum(4, 3, 200, 40);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const RunResult r = core::run_once(
      cfg, program, net::FaultPlan::single(3, sim::SimTime(makespan / 2)));
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
  EXPECT_GT(r.counters.tasks_respawned, 0U);
  EXPECT_GT(r.counters.twins_created, 0U);
}

TEST(Splice, SalvagesOrphanResultsInOrphanHeavyScenario) {
  // Deep chains below the victim produce orphans whose results complete
  // after the fault; splice must relay at least some of them to twins.
  SystemConfig cfg = splice_config(8, 5);
  const auto program = lang::programs::tree_sum(6, 2, 700, 30);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  RunResult salvaged;
  bool found = false;
  // The victim and fault time interact with placement; scan a few victims
  // until salvage is observed (determinism makes this a fixed outcome per
  // seed, not flakiness).
  for (net::ProcId victim = 0; victim < 8 && !found; ++victim) {
    const RunResult r = core::run_once(
        cfg, program, net::FaultPlan::single(victim, sim::SimTime(makespan / 2)));
    ASSERT_TRUE(r.completed) << r.summary();
    ASSERT_TRUE(r.answer_correct);
    if (r.counters.orphan_results_salvaged > 0) {
      salvaged = r;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no victim produced salvage — relay path dead?";
  EXPECT_GT(salvaged.counters.results_relayed, 0U);
}

TEST(Splice, SalvageReducesRedoneWorkVersusRollback) {
  // The whole point of §4: salvage ≥ rollback never redoes less work.
  // Compare the *paper's* schemes: with the cancellation protocol on,
  // rollback additionally reclaims doomed orphan subtrees mid-flight
  // (work splice deliberately lets run for salvage), which breaks the
  // busy-ticks theorem this test encodes.
  SystemConfig splice_cfg = splice_config(8, 5);
  splice_cfg.reclaim.cancellation = false;
  SystemConfig rollback_cfg = splice_cfg;
  rollback_cfg.recovery.kind = RecoveryKind::kRollback;
  const auto program = lang::programs::tree_sum(6, 2, 700, 30);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(splice_cfg, program);

  std::int64_t splice_busy_total = 0;
  std::int64_t rollback_busy_total = 0;
  for (net::ProcId victim = 0; victim < 8; ++victim) {
    const auto plan = net::FaultPlan::single(victim, sim::SimTime(makespan / 2));
    const RunResult s = core::run_once(splice_cfg, program, plan);
    const RunResult b = core::run_once(rollback_cfg, program, plan);
    ASSERT_TRUE(s.completed && b.completed);
    splice_busy_total += s.counters.busy_ticks;
    rollback_busy_total += b.counters.busy_ticks;
  }
  EXPECT_LE(splice_busy_total, rollback_busy_total);
}

TEST(Splice, TwinsInheritViaGrandparentRelay) {
  SystemConfig cfg = splice_config(4, 1);
  cfg.topology = net::TopologyKind::kComplete;
  cfg.scheduler.kind = core::SchedulerKind::kPinned;
  cfg.obs.recorder = true;
  // Figure-1 scenario with heavy node work so B dies while D4's subtree is
  // still computing: D4's result must be relayed via C1 into B2'.
  const auto program = lang::programs::figure1_tree(2500);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  core::Simulation simulation(cfg, program);
  simulation.set_fault_plan(net::FaultPlan::single(1, sim::SimTime(makespan / 2)));
  const RunResult r = simulation.run();
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
  // A step-parent (twin) was spliced in for the dead B2.
  EXPECT_FALSE(
      splice::testing::events_of(simulation, obs::EventKind::kTwin).empty());
}

TEST(Splice, NoAbortsUnderSplice) {
  SystemConfig cfg = splice_config();
  const auto program = lang::programs::tree_sum(4, 3, 200, 40);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const RunResult r = core::run_once(
      cfg, program, net::FaultPlan::single(3, sim::SimTime(makespan / 2)));
  ASSERT_TRUE(r.completed);
  // Splice never aborts orphans (their results are salvage material); the
  // only aborts allowed are duplicate-lineage reclaims by the cancellation
  // protocol, which each count in tasks_cancelled too.
  EXPECT_EQ(r.counters.tasks_aborted, r.counters.tasks_cancelled);
}

TEST(Splice, DuplicateResultsAreIgnoredNotDoubleCounted) {
  // Case 6/7: twin and original both complete; determinacy makes the copies
  // identical and the second is dropped. The final answer must stay right.
  SystemConfig cfg = splice_config(8, 5);
  const auto program = lang::programs::tree_sum(6, 2, 700, 30);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  std::uint64_t dup_total = 0;
  for (net::ProcId victim = 0; victim < 8; ++victim) {
    const RunResult r = core::run_once(
        cfg, program, net::FaultPlan::single(victim, sim::SimTime(makespan / 2)));
    ASSERT_TRUE(r.completed);
    ASSERT_TRUE(r.answer_correct) << "victim " << victim;
    dup_total += r.counters.duplicate_results_ignored +
                 r.counters.late_results_discarded;
  }
  // At least one victim must have produced a duplicate/late arrival, or
  // cases 6-8 are untested by this workload.
  EXPECT_GT(dup_total, 0U);
}

TEST(Splice, EagerRespawnVariantAlsoCorrect) {
  SystemConfig cfg = splice_config(8, 9);
  cfg.recovery.eager_respawn = true;
  const auto program = lang::programs::tree_sum(5, 2, 300, 30);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  for (net::ProcId victim = 0; victim < 4; ++victim) {
    const RunResult r = core::run_once(
        cfg, program, net::FaultPlan::single(victim, sim::SimTime(makespan / 2)));
    EXPECT_TRUE(r.completed) << r.summary();
    EXPECT_TRUE(r.answer_correct);
  }
}

TEST(Splice, SurvivesFaultAtEveryTenthOfMakespan) {
  SystemConfig cfg = splice_config(8, 7);
  const auto program = lang::programs::fib(11, 120);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  for (int tenth = 1; tenth <= 9; ++tenth) {
    const RunResult r = core::run_once(
        cfg, program, net::FaultPlan::single(2, sim::SimTime(makespan * tenth / 10)));
    EXPECT_TRUE(r.completed) << "fault at " << tenth << "/10: " << r.summary();
    EXPECT_TRUE(r.answer_correct) << "fault at " << tenth << "/10";
  }
}

TEST(Splice, SurvivesFaultOnEveryProcessor) {
  SystemConfig cfg = splice_config(6, 11);
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

TEST(Splice, WorksAcrossTopologies) {
  const auto program = lang::programs::tree_sum(4, 2, 250, 30);
  for (auto topo : {net::TopologyKind::kRing, net::TopologyKind::kTorus2D,
                    net::TopologyKind::kHypercube}) {
    SystemConfig cfg = splice_config(8, 13);
    cfg.topology = topo;
    const std::int64_t makespan =
        core::Simulation::fault_free_makespan(cfg, program);
    const RunResult r = core::run_once(
        cfg, program, net::FaultPlan::single(3, sim::SimTime(makespan / 2)));
    EXPECT_TRUE(r.completed) << net::to_string(topo) << ": " << r.summary();
    EXPECT_TRUE(r.answer_correct) << net::to_string(topo);
  }
}

TEST(Splice, GradientSchedulerWithFaults) {
  SystemConfig cfg = splice_config(9, 17);
  cfg.topology = net::TopologyKind::kTorus2D;
  cfg.scheduler.kind = core::SchedulerKind::kGradient;
  const auto program = lang::programs::tree_sum(4, 3, 200, 40);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const RunResult r = core::run_once(
      cfg, program, net::FaultPlan::single(4, sim::SimTime(makespan / 2)));
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
}

}  // namespace
}  // namespace splice
