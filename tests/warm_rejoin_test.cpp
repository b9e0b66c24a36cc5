// Warm rejoin (store/ subsystem), whole-system: a killed processor revives
// with its durable checkpoint log replayed and catches up from survivors
// via chunked state transfer — reissuing strictly less than a blank rejoin,
// deterministically, and safely across re-crashes mid-transfer.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/config.h"
#include "core/simulation.h"
#include "lang/programs.h"
#include "net/fault_plan.h"
#include "net/network.h"
#include "recovery/recovery_oracle.h"
#include "runtime/processor.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace splice {
namespace {

core::SystemConfig base_config(core::RecoveryKind kind,
                               store::Persistency model) {
  core::SystemConfig cfg;
  cfg.processors = 8;
  cfg.topology = net::TopologyKind::kMesh2D;
  cfg.recovery.kind = kind;
  cfg.heartbeat_interval = 1000;
  cfg.seed = 7;
  cfg.store.model = model;
  return cfg;
}

struct Pair {
  core::RunResult cold;
  core::RunResult warm;
};

/// Run the same (program, seed, kill schedule) twice: blank rejoin vs warm
/// rejoin with the given persistency.
Pair cold_vs_warm(core::RecoveryKind kind, store::Persistency model) {
  const auto program = lang::programs::tree_sum(5, 3, 300, 40);
  Pair out;
  for (const bool warm : {false, true}) {
    core::SystemConfig cfg =
        base_config(kind, warm ? model : store::Persistency::kNone);
    const std::int64_t makespan =
        core::Simulation::fault_free_makespan(cfg, program);
    cfg.store.warm_grace = makespan;  // the repair always beats the grace
    net::FaultPlan plan =
        net::FaultPlan::single(3, sim::SimTime(makespan / 2));
    plan.with_rejoin(sim::SimTime(makespan / 8),
                     warm ? net::RejoinMode::kWarm : net::RejoinMode::kCold);
    (warm ? out.warm : out.cold) = core::run_once(cfg, program, plan);
  }
  return out;
}

TEST(WarmRejoin, SpliceWarmReissuesStrictlyFewerThanBlank) {
  const Pair r = cold_vs_warm(core::RecoveryKind::kSplice,
                              store::Persistency::kLocal);
  ASSERT_TRUE(r.cold.completed && r.cold.answer_correct);
  ASSERT_TRUE(r.warm.completed && r.warm.answer_correct);
  EXPECT_EQ(r.warm.nodes_revived, 1U);
  // The deferred obligations travelled as state chunks instead of respawns.
  EXPECT_GT(r.warm.counters.state_packets_transferred, 0U);
  EXPECT_GT(r.warm.counters.state_chunks_sent, 0U);
  EXPECT_GT(r.warm.counters.reissues_deferred, 0U);
  EXPECT_GT(r.warm.counters.reissues_avoided, 0U);
  EXPECT_LT(r.warm.counters.tasks_respawned, r.cold.counters.tasks_respawned);
  // Durable log: mutations were journaled and replayed on the revive.
  EXPECT_GT(r.warm.counters.store_entries_logged, 0U);
  EXPECT_EQ(r.cold.counters.store_entries_logged, 0U);
}

TEST(WarmRejoin, RollbackWarmAlsoCompletesWithFewerReissues) {
  const Pair r = cold_vs_warm(core::RecoveryKind::kRollback,
                              store::Persistency::kLocal);
  ASSERT_TRUE(r.cold.completed && r.cold.answer_correct);
  ASSERT_TRUE(r.warm.completed && r.warm.answer_correct);
  EXPECT_LE(r.warm.counters.tasks_respawned, r.cold.counters.tasks_respawned);
  EXPECT_GT(r.warm.counters.state_packets_transferred, 0U);
}

TEST(WarmRejoin, CatchUpCompletesAndIsTraced) {
  const auto program = lang::programs::tree_sum(5, 3, 300, 40);
  core::SystemConfig cfg =
      base_config(core::RecoveryKind::kSplice, store::Persistency::kLocal);
  cfg.obs.recorder = true;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  cfg.store.warm_grace = makespan;
  net::FaultPlan plan = net::FaultPlan::single(2, sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(makespan / 8), net::RejoinMode::kWarm);
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(plan);
  const core::RunResult r = sim.run();
  ASSERT_TRUE(r.completed && r.answer_correct);
  // P2 was repaired and rejoined; a survivor deferred its reissue against
  // P2 for the warm rejoin, and P2's state transfer completed — only a warm
  // rejoin catches up.
  using obs::EventKind;
  using splice::testing::has_event;
  const auto on_p2 = [](const obs::Event& e) { return e.proc == 2; };
  EXPECT_TRUE(has_event(sim, EventKind::kRevive, on_p2));
  EXPECT_TRUE(has_event(sim, EventKind::kRejoin, on_p2));
  EXPECT_TRUE(has_event(sim, EventKind::kDefer,
                        [](const obs::Event& e) { return e.peer == 2; }));
  EXPECT_TRUE(has_event(sim, EventKind::kCatchUp, on_p2));
  EXPECT_GT(r.counters.catch_up_ticks, 0);
  EXPECT_GT(r.counters.state_units_transferred, 0U);
}

// A warm rejoiner with no live peer has nobody to stream state from: its
// catch-up completes at the revive itself, with no state request sent.
TEST(WarmRejoin, NoLivePeerCompletesCatchUpAtOnce) {
  core::SystemConfig cfg =
      base_config(core::RecoveryKind::kSplice, store::Persistency::kLocal);
  cfg.processors = 2;
  sim::Simulator simulator;
  net::Network network(simulator, net::Topology(cfg.topology, cfg.processors),
                       cfg.latency);
  runtime::Runtime rt(simulator, network, cfg, lang::programs::fib(3));
  rt.set_warm_rejoin(true);
  rt.recorder().configure(true, 1024);
  for (const net::ProcId p : {1U, 0U}) {
    network.kill(p);
    rt.on_kill(p);
  }
  constexpr std::int64_t kRevive = 1000;
  runtime::Processor& rejoiner = rt.processor(0);
  simulator.at(sim::SimTime(kRevive), [&] {
    network.revive(0);
    rejoiner.revive();
  });
  simulator.run_until(sim::SimTime(kRevive));

  EXPECT_TRUE(rejoiner.warm_rejoined());
  EXPECT_EQ(network.stats().sent[static_cast<std::size_t>(
                net::MsgKind::kStateRequest)],
            0U);
  EXPECT_EQ(rejoiner.counters().catch_up_ticks, 0);
  std::vector<obs::Event> catch_ups;
  rt.recorder().for_each([&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kCatchUp) catch_ups.push_back(e);
  });
  ASSERT_EQ(catch_ups.size(), 1U);
  EXPECT_EQ(catch_ups[0].proc, 0U);
  EXPECT_EQ(catch_ups[0].ticks, kRevive);
  // The completed catch-up armed the pre-link guard, which ends the warm
  // window after its grace.
  simulator.run_until(sim::SimTime(kRevive + cfg.store.prelink_grace + 1));
  EXPECT_FALSE(rejoiner.warm_rejoined());
}

// A warm rejoiner re-hosts a parent from a survivor's state chunk and
// pre-links its slots from the replayed child records (rebinding each
// record to the re-hosted owner). A pre-linked slot keeps the record's
// callee, arguments and lineage; the packet the owner rebuilds from it is
// the record's packet, field by field.
TEST(WarmRejoin, PreLinkedSlotRebuildsItsRecordsPacket) {
  const auto program = lang::programs::tree_sum(5, 3, 300, 40);
  core::SystemConfig cfg =
      base_config(core::RecoveryKind::kSplice, store::Persistency::kLocal);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  cfg.store.warm_grace = makespan;  // the repair always beats the grace
  sim::Simulator simulator;
  net::Network network(simulator, net::Topology(cfg.topology, cfg.processors),
                       cfg.latency);
  runtime::Runtime rt(simulator, network, cfg, program);
  rt.set_warm_rejoin(true);
  constexpr net::ProcId kVictim = 3;
  const std::int64_t revive_at = makespan / 2 + makespan / 8;
  simulator.at(sim::SimTime(makespan / 2), [&] {
    network.kill(kVictim);
    rt.on_kill(kVictim);
  });
  simulator.at(sim::SimTime(revive_at), [&] {
    network.revive(kVictim);
    rt.on_revive(kVictim);
  });
  rt.start();
  runtime::Processor& rejoiner = rt.processor(kVictim);
  std::uint64_t checked = 0;
  for (std::int64_t t = revive_at; !rt.done() && t < 20 * makespan; t += 10) {
    simulator.run_until(sim::SimTime(t));
    if (rejoiner.crashed()) continue;
    rejoiner.for_each_task([&](runtime::Task& owner) {
      const auto records = rejoiner.table().restored_children_of(owner.stamp());
      for (const runtime::CallSlot& slot : owner.slots()) {
        if (!slot.prelinked || slot.resolved) continue;
        for (const auto& [dest, record] : records) {
          if (record->site != slot.site || record->owner != owner.uid()) {
            continue;
          }
          testing::expect_same_packet(
              *record->packet,
              owner.child_packet(slot, kVictim, cfg.recovery.ancestor_depth));
          ++checked;
        }
      }
    });
  }
  EXPECT_TRUE(rt.done());
  EXPECT_GT(rejoiner.counters().reissues_avoided, 0U);
  EXPECT_GT(checked, 0U);
}

// perfbench's crash-rejoin workload (perfbench/src/workloads.cpp) at run
// seed 1264939189, over the in-process transport with the recorder off. It
// is the one known run that regrows a branch from a replayed checkpoint
// record whose owner was never re-hosted (Processor::respawn_from_record,
// three times near t=33500): clean makespan 26220, makespan 33546. 23 of
// its 24 crashes land before the answer; the last, at t=33691, is no fault
// of the run. The CI coverage job fails if that path stops running.
TEST(WarmRejoin, ChurnRegrowsABranchFromAReplayedRecord) {
  constexpr std::uint64_t kRunSeed = 1264939189;
  const auto program = lang::programs::tree_sum(12, 2, 400, 30);
  core::SystemConfig cfg;
  cfg.processors = 128;
  cfg.topology = net::TopologyKind::kTorus2D;
  cfg.scheduler.kind = core::SchedulerKind::kRandom;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.seed = kRunSeed;
  cfg.store.model = store::Persistency::kLocal;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::RecurringFault arrivals;
  arrivals.start = sim::SimTime(makespan / 6);
  arrivals.mean_interval = static_cast<double>(makespan) / 16;
  arrivals.max_faults = 24;
  net::LinkQuality lossy;
  lossy.drop_p = 0.01;
  lossy.reorder_p = 0.02;
  lossy.jitter = 10;
  net::FaultPlan plan = net::FaultPlan::poisson(arrivals);
  plan.merge(net::FaultPlan::link(lossy));
  plan.with_rejoin(sim::SimTime(makespan / 10), net::RejoinMode::kWarm);
  plan.with_seed(kRunSeed * 31 + 7);

  const core::RunResult r = core::run_once(cfg, program, plan);
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.makespan_ticks, 33546);
  EXPECT_EQ(r.faults_injected, 23U);
  const recovery::OracleReport report = recovery::RecoveryOracle::check(r);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(WarmRejoin, SeededRunsAreBitIdentical) {
  const auto program = lang::programs::tree_sum(4, 3, 250, 40);
  auto run = [&] {
    core::SystemConfig cfg =
        base_config(core::RecoveryKind::kSplice, store::Persistency::kLocal);
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
    plan.with_rejoin(sim::SimTime(6000), net::RejoinMode::kWarm).with_seed(21);
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
  EXPECT_EQ(a.counters.state_packets_transferred,
            b.counters.state_packets_transferred);
  EXPECT_EQ(a.counters.state_chunks_sent, b.counters.state_chunks_sent);
  EXPECT_EQ(a.counters.store_entries_logged, b.counters.store_entries_logged);
  EXPECT_EQ(a.net.total_sent(), b.net.total_sent());
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(WarmRejoin, ReCrashDuringTransferIsIncarnationSafe) {
  // The second kill lands right after the revive, while chunks are still
  // streaming (large chunk interval stretches the transfer); the third life
  // must re-request cleanly and the run must still finish correctly.
  const auto program = lang::programs::tree_sum(5, 3, 300, 40);
  core::SystemConfig cfg =
      base_config(core::RecoveryKind::kSplice, store::Persistency::kLocal);
  cfg.store.chunk_records = 1;     // many chunks ...
  cfg.store.chunk_interval = 100;  // ... in quick succession ...
  cfg.latency.base = 1500;         // ... each in flight longer than a repair,
                                   // so chunks provably straddle incarnations
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  cfg.store.warm_grace = makespan;
  // Second kill lands 2000 ticks into the revived life, while the first
  // life's transfer is still streaming; chunks sent before the re-crash
  // (flight 1500 > repair 1000) arrive at the third life and must drop.
  net::FaultPlan plan;
  plan.timed.push_back({4, sim::SimTime(makespan / 3)});
  plan.timed.push_back({4, sim::SimTime(makespan / 3 + 3000)});
  plan.with_rejoin(sim::SimTime(1000), net::RejoinMode::kWarm);
  const core::RunResult r = core::run_once(cfg, program, plan);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.faults_injected, 2U);
  EXPECT_EQ(r.nodes_revived, 2U);
  // Chunks addressed to the first revived incarnation died with it.
  EXPECT_GT(r.counters.stale_chunks_dropped, 0U);
}

class WarmPersistencyTest
    : public ::testing::TestWithParam<store::Persistency> {};

TEST_P(WarmPersistencyTest, CompletesCorrectlyUnderEveryModel) {
  // Warm transfer works even when nothing (kNone) or only part (kLossy) of
  // the local log survives — replay restores less, survivors still re-host
  // the node's tasks, and the grace fallback covers the rest.
  const auto program = lang::programs::tree_sum(4, 3, 250, 40);
  core::SystemConfig cfg =
      base_config(core::RecoveryKind::kSplice, GetParam());
  cfg.store.survive_p = 0.5;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  cfg.store.warm_grace = makespan / 2;
  net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(makespan / 8), net::RejoinMode::kWarm);
  const core::RunResult r = core::run_once(cfg, program, plan);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.nodes_revived, 1U);
}

INSTANTIATE_TEST_SUITE_P(AllModels, WarmPersistencyTest,
                         ::testing::Values(store::Persistency::kNone,
                                           store::Persistency::kLocal,
                                           store::Persistency::kLossy),
                         [](const auto& param_info) {
                           return std::string(
                               store::to_string(param_info.param));
                         });

TEST(WarmRejoin, FastRepairBeatsDetectionAndStillCompletes) {
  // Repair far below the failure timeout (400): peers mostly learn of the
  // death from the rejoin notice / state request, obligations defer, and
  // the transferred state re-hosts the lost tasks.
  const auto program = lang::programs::tree_sum(4, 3, 300, 40);
  core::SystemConfig cfg =
      base_config(core::RecoveryKind::kSplice, store::Persistency::kLocal);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  cfg.store.warm_grace = makespan / 2;
  net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(100), net::RejoinMode::kWarm);
  const core::RunResult r = core::run_once(cfg, program, plan);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.nodes_revived, 1U);
  EXPECT_EQ(r.processors_alive_at_end, 8U);
}

TEST(WarmRejoin, GraceExpiryFallsBackToColdReissue) {
  // Repair delay far beyond the grace: the deferral must expire and the
  // survivors' cold reissue must regrow the branch without the rejoiner.
  const auto program = lang::programs::tree_sum(4, 3, 250, 40);
  core::SystemConfig cfg =
      base_config(core::RecoveryKind::kSplice, store::Persistency::kLocal);
  cfg.obs.recorder = true;
  cfg.store.warm_grace = 1500;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(makespan * 4), net::RejoinMode::kWarm);
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(plan);
  const core::RunResult r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  // A survivor's grace against P3 ran out and it reissued cold.
  EXPECT_TRUE(splice::testing::has_event(
      sim, obs::EventKind::kGraceExpired,
      [](const obs::Event& e) { return e.peer == 3; }));
  EXPECT_GT(r.counters.tasks_respawned, 0U);
}

TEST(WarmRejoin, PeriodicGlobalWarmUnparksForTheRejoiner) {
  // The baseline comparison partner for E15/E18: under crash-recovery the
  // periodic-global scheme now parks the dead node's snapshot slice for
  // its repaired self instead of scattering it round-robin — so warm-vs-
  // cold comparisons measure the same recovery model on both stacks.
  const auto program = lang::programs::tree_sum(5, 3, 300, 40);
  core::SystemConfig cfg = base_config(core::RecoveryKind::kPeriodicGlobal,
                                       store::Persistency::kLocal);
  cfg.obs.recorder = true;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  // A snapshot must exist before the kill, and the repair must beat the
  // park grace, or there is nothing to hand back to the rejoiner.
  cfg.recovery.checkpoint_interval = makespan / 8;
  cfg.store.warm_grace = makespan;
  net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(makespan / 8), net::RejoinMode::kWarm);
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(plan);
  const core::RunResult r = sim.run();
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.nodes_revived, 1U);
  EXPECT_GE(r.counters.restores, 1U);
  // P3's parked snapshot slice was handed back to it.
  EXPECT_TRUE(splice::testing::has_event(
      sim, obs::EventKind::kUnpark,
      [](const obs::Event& e) { return e.proc == 3 && e.arg > 0; }));
  EXPECT_GT(r.counters.reissues_avoided, 0U);
}

TEST(WarmRejoin, PeriodicGlobalParkExpiryRedistributesCold) {
  // Repair far beyond the grace: the parked slice must not wedge the run —
  // the timer expires and the survivors adopt the tasks round-robin, same
  // fallback shape as the splice stack's grace-expired cold reissue.
  const auto program = lang::programs::tree_sum(4, 3, 250, 40);
  core::SystemConfig cfg = base_config(core::RecoveryKind::kPeriodicGlobal,
                                       store::Persistency::kLocal);
  cfg.obs.recorder = true;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  cfg.recovery.checkpoint_interval = makespan / 8;
  cfg.store.warm_grace = 1500;
  net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(makespan * 4), net::RejoinMode::kWarm);
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(plan);
  const core::RunResult r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  // P3's park grace ran out and its slice was redistributed cold.
  EXPECT_TRUE(splice::testing::has_event(
      sim, obs::EventKind::kParkExpired,
      [](const obs::Event& e) { return e.proc == 3; }));
}

}  // namespace
}  // namespace splice
