// The paper's Figure 1/2/3 walkthrough, end to end:
//   * the call tree maps onto processors A-D exactly as printed;
//   * checkpoint distribution matches §3's narrative (A holds B1; C holds
//     B2 and B3 topmost with B5 subsumed under B2; D holds B7);
//   * killing B fragments the tree into the three pieces of §3;
//   * splice recovery creates B2' on C and relays D4's orphan result.
#include <gtest/gtest.h>

#include "core/simulation.h"
#include "lang/programs.h"
#include "runtime/runtime.h"
#include "test_util.h"

namespace splice {
namespace {

using core::RunResult;
using core::SystemConfig;
using obs::EventKind;
using splice::testing::events_of;
using splice::testing::function_of;
using splice::testing::has_event;

constexpr net::ProcId kA = 0, kB = 1, kC = 2, kD = 3;

SystemConfig figure1_config(core::RecoveryKind recovery, std::int64_t hb = 800) {
  SystemConfig cfg;
  cfg.processors = 4;
  cfg.topology = net::TopologyKind::kComplete;
  cfg.scheduler.kind = core::SchedulerKind::kPinned;
  cfg.recovery.kind = recovery;
  cfg.heartbeat_interval = hb;
  cfg.obs.recorder = true;
  cfg.seed = 1;
  return cfg;
}

// Stamps are path digits (call-site ExprIds), so identify tasks by the
// function names their stamps lead to instead of raw stamps.
bool placed_on(const core::Simulation& sim, const std::string& fn,
               net::ProcId proc) {
  return has_event(sim, EventKind::kPlace, [&](const obs::Event& e) {
    return e.proc == proc && function_of(sim, e) == fn;
  });
}

TEST(Figure1, FaultFreePlacementFollowsThePaper) {
  core::Simulation sim(figure1_config(core::RecoveryKind::kSplice),
                       lang::programs::figure1_tree(300));
  const RunResult r = sim.run();
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  for (const auto& node : lang::programs::figure1_nodes()) {
    EXPECT_TRUE(placed_on(sim, node.name,
                          static_cast<net::ProcId>(node.name[0] - 'A')))
        << node.name << " not on processor " << node.name[0];
  }
}

TEST(Figure1, CheckpointDistributionMatchesSection3) {
  // Run fault-free but freeze the world before any child returns, then
  // inspect the live checkpoint tables: use heavy leaves so every spawn
  // has happened while nothing has completed.
  SystemConfig cfg = figure1_config(core::RecoveryKind::kSplice);
  core::Simulation sim(cfg, lang::programs::figure1_tree(50000));
  // Kill nobody; instead inspect the table state mid-run via the journal:
  // every checkpoint event records who checkpointed onto whom (proc ->
  // peer), and arg 1 marks one an ancestor's checkpoint subsumes.
  const RunResult r = sim.run();
  ASSERT_TRUE(r.completed);

  // Count checkpoint records toward processor B by owner processor.
  int from_a = 0, from_c = 0, from_d = 0;
  int subsumed_to_b = 0;
  for (const obs::Event& e : events_of(sim, EventKind::kCheckpoint)) {
    if (e.peer != kB) continue;
    if (e.arg == 1) {
      ++subsumed_to_b;
      continue;
    }
    if (e.proc == kA) ++from_a;
    if (e.proc == kC) ++from_c;
    if (e.proc == kD) ++from_d;
  }
  // "Processor A contains the functional checkpoint for B1" (B1 spawned
  // A->B).
  EXPECT_EQ(from_a, 1);
  // "processor C contains checkpoints for B2, B3" as topmost; B5 (also
  // spawned C->B, by C4) is a descendant of B2 and must be subsumed.
  EXPECT_EQ(from_c, 2);
  EXPECT_EQ(subsumed_to_b, 1);
  EXPECT_TRUE(has_event(sim, EventKind::kCheckpoint, [&](const obs::Event& e) {
    return e.proc == kC && e.peer == kB && e.arg == 1 &&
           function_of(sim, e) == "B5";
  }));
  // "and processor D contains checkpoints for B7" (spawned D2->B).
  EXPECT_EQ(from_d, 1);
}

// Figure-1 tree with fast spawn chains and long-running B tasks, so that a
// kill at t=2000 catches B1, B2, B3 all resident on processor B (the
// paper's static snapshot of the mapping).
lang::Program slow_b_figure1() {
  auto nodes = lang::programs::figure1_nodes();
  for (auto& node : nodes) {
    node.work = node.name[0] == 'B' && node.name != "B2" ? 30000 : 100;
  }
  return lang::programs::scripted_tree(nodes);
}

TEST(Figure1, KillingBFragmentsAndRollbackRegrows) {
  SystemConfig cfg = figure1_config(core::RecoveryKind::kRollback);
  const auto program = slow_b_figure1();
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(net::FaultPlan::single(kB, sim::SimTime(2000)));
  const RunResult r = sim.run();
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
  const auto reissued = [&](const std::string& fn) {
    return has_event(sim, EventKind::kReissue, [&](const obs::Event& e) {
      return function_of(sim, e) == fn;
    });
  };
  // The reissue set is exactly the paper's: "the system needs to command
  // processor A to respawn B1, and command processor C to regenerate B2
  // and B3."
  EXPECT_TRUE(reissued("B1"));
  EXPECT_TRUE(reissued("B2"));
  EXPECT_TRUE(reissued("B3"));
  // B5/B7 had not spawned yet; nothing else is reissued at detection time
  // from the dead processor's entries.
  EXPECT_FALSE(reissued("B5"));
  EXPECT_FALSE(reissued("B7"));
}

TEST(Figure1, SpliceCreatesStepParentAndSalvagesD4) {
  SystemConfig cfg = figure1_config(core::RecoveryKind::kSplice);
  // Node work tuned so that when B dies, D4's subtree (D4-D5-A5) is still
  // running and later returns an orphan result that must be salvaged.
  const auto program = lang::programs::figure1_tree(2500);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(net::FaultPlan::single(kB, sim::SimTime(makespan / 2)));
  const RunResult r = sim.run();
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
  // B2' (a twin of B2) must be created by processor C (B2's checkpoint
  // owner C1 lives there).
  EXPECT_TRUE(has_event(sim, EventKind::kTwin, [&](const obs::Event& e) {
    return e.proc == kC && function_of(sim, e) == "B2";
  })) << "no B2 step-parent created on processor C";
  EXPECT_GT(r.counters.results_relayed + r.counters.orphan_results_salvaged,
            0U)
      << "no orphan result travelled the grandparent path";
}

TEST(Figure1, SpliceSalvagesWhereRollbackDiscards) {
  // Same fault, two policies: splice must salvage orphan results (relay
  // traffic > 0), rollback must discard them (salvage == 0, late results
  // dropped). Wall-clock/busy comparisons are aggregate properties and are
  // benchmarked, not asserted per-scenario (a twin racing an orphan can
  // legitimately burn extra duplicate work — cases 6/7).
  const auto program = lang::programs::figure1_tree(2500);
  SystemConfig scfg = figure1_config(core::RecoveryKind::kSplice);
  SystemConfig rcfg = figure1_config(core::RecoveryKind::kRollback);
  scfg.obs.recorder = rcfg.obs.recorder = false;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(scfg, program);
  const RunResult s = core::run_once(scfg, program,
                                     net::FaultPlan::single(kB, sim::SimTime(makespan / 2)));
  const RunResult b = core::run_once(rcfg, program,
                                     net::FaultPlan::single(kB, sim::SimTime(makespan / 2)));
  ASSERT_TRUE(s.completed && b.completed);
  EXPECT_TRUE(s.answer_correct && b.answer_correct);
  EXPECT_GT(s.counters.results_relayed + s.counters.orphan_results_salvaged,
            0U);
  EXPECT_EQ(b.counters.orphan_results_salvaged, 0U);
  // Rollback never consumes an orphan's work: either the result limps home
  // late and is dropped (pre-cancellation behaviour), or — with the
  // cancellation protocol on — the doomed subtree is reclaimed by kCancel
  // before it ever completes.
  EXPECT_GT(b.counters.late_results_discarded + b.counters.tasks_cancelled,
            0U);
}

}  // namespace
}  // namespace splice
