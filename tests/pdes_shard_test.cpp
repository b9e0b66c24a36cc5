// Sharded-engine determinism suite (PR9 tentpole oracle).
//
// The load-bearing property mirrors transport_test.cpp's A/B discipline one
// level up: a seeded run on the parallel engine with K shards — processors
// partitioned across K worker threads, each with a private event queue,
// synchronized on the conservative time-window barrier — must be
// *bit-identical* to the same engine run with one shard. Results, protocol
// counters, per-kind message totals, and the serialized flight-recorder
// journal all participate. Any divergence means an op key leaked thread
// interleaving into protocol state.
//
// The oracle is engine(1), not the classic path: the engine quantizes
// coordinator actions (fault kills, super-root traffic) to window barriers,
// which reorders same-tick interleavings relative to the classic single
// ladder queue — deterministically, but differently. engine(1) exercises
// the full machinery (routing, op heaps, journal merge, one worker thread)
// while sharing the engine's event order.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "obs/journal.h"
#include "test_util.h"

namespace splice {
namespace {

struct EngineRun {
  core::RunResult result;
  std::vector<std::uint8_t> journal;
};

EngineRun run_sharded(std::uint32_t shards, const lang::Program& program,
                      std::uint64_t seed, const net::FaultPlan& plan,
                      core::SchedulerKind scheduler = core::SchedulerKind::kRandom,
                      bool recorder = true) {
  core::SystemConfig cfg = testing::base_config(8, seed);
  cfg.scheduler.kind = scheduler;
  cfg.parallel.shards = shards;
  if (recorder) {
    cfg.obs.recorder = true;
    // Ample capacity: ring drops are window-layout dependent (each shard
    // ring fills at its own rate), so the A/B contract only covers runs
    // whose merged journal retained every event.
    cfg.obs.journal_capacity = 1u << 18;
  }
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(plan);
  EngineRun run;
  run.result = sim.run();
  if (recorder) {
    run.journal = obs::serialize(sim.recorder().snapshot());
  }
  return run;
}

/// Bit-identical across shard counts: every observable must match.
void expect_identical(const EngineRun& a, const EngineRun& b) {
  EXPECT_EQ(a.result.completed, b.result.completed);
  EXPECT_EQ(a.result.answer, b.result.answer);
  EXPECT_EQ(a.result.answer_correct, b.result.answer_correct);
  EXPECT_EQ(a.result.makespan_ticks, b.result.makespan_ticks);
  EXPECT_EQ(a.result.detection_ticks, b.result.detection_ticks);
  EXPECT_EQ(a.result.faults_injected, b.result.faults_injected);
  EXPECT_EQ(a.result.sim_events, b.result.sim_events);
  EXPECT_EQ(a.result.stranded_tasks, b.result.stranded_tasks);

  EXPECT_EQ(a.result.counters.tasks_created, b.result.counters.tasks_created);
  EXPECT_EQ(a.result.counters.tasks_completed,
            b.result.counters.tasks_completed);
  EXPECT_EQ(a.result.counters.tasks_respawned,
            b.result.counters.tasks_respawned);
  EXPECT_EQ(a.result.counters.twins_created, b.result.counters.twins_created);
  EXPECT_EQ(a.result.counters.orphan_results_salvaged,
            b.result.counters.orphan_results_salvaged);
  EXPECT_EQ(a.result.counters.cancels_sent, b.result.counters.cancels_sent);
  EXPECT_EQ(a.result.counters.tasks_cancelled,
            b.result.counters.tasks_cancelled);
  EXPECT_EQ(a.result.counters.checkpoint_records,
            b.result.counters.checkpoint_records);
  EXPECT_EQ(a.result.counters.busy_ticks, b.result.counters.busy_ticks);
  EXPECT_EQ(a.result.counters.held_released, b.result.counters.held_released);

  for (std::size_t k = 0; k < net::kMsgKindCount; ++k) {
    EXPECT_EQ(a.result.net.sent[k], b.result.net.sent[k]) << "sent kind " << k;
    EXPECT_EQ(a.result.net.delivered[k], b.result.net.delivered[k])
        << "delivered kind " << k;
  }
  EXPECT_EQ(a.result.net.dropped_dead_dest, b.result.net.dropped_dead_dest);
  EXPECT_EQ(a.result.net.dropped_dead_sender,
            b.result.net.dropped_dead_sender);
  EXPECT_EQ(a.result.net.failure_notices, b.result.net.failure_notices);
  EXPECT_EQ(a.result.net.total_units, b.result.net.total_units);
  EXPECT_EQ(a.result.net.total_hop_units, b.result.net.total_hop_units);
  EXPECT_EQ(a.result.net.partition_cut, b.result.net.partition_cut);
  EXPECT_EQ(a.result.net.link_dropped, b.result.net.link_dropped);
  EXPECT_EQ(a.result.net.gray_dropped, b.result.net.gray_dropped);
  EXPECT_EQ(a.result.net.link_duplicated, b.result.net.link_duplicated);
  EXPECT_EQ(a.result.net.link_reordered, b.result.net.link_reordered);
  EXPECT_EQ(a.result.net.link_delay_ticks, b.result.net.link_delay_ticks);

  // The strongest check: the merged flight-recorder journals byte-match.
  EXPECT_EQ(a.journal, b.journal);
}

/// Returns the one-shard oracle run, for tests that also check what the
/// run exercised.
EngineRun expect_shard_invariant(const lang::Program& program,
                                 std::uint64_t seed, const net::FaultPlan& plan,
                                 core::SchedulerKind scheduler =
                                     core::SchedulerKind::kRandom) {
  EngineRun oracle = run_sharded(1, program, seed, plan, scheduler);
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " seed=" + std::to_string(seed));
    const EngineRun run = run_sharded(shards, program, seed, plan, scheduler);
    expect_identical(oracle, run);
  }
  return oracle;
}

TEST(PdesShard, FaultFreeBitIdentical) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    expect_shard_invariant(lang::programs::fib(12, 40), seed,
                           net::FaultPlan::none());
  }
}

TEST(PdesShard, FaultFreeCompletesCorrectly) {
  const EngineRun run =
      run_sharded(4, lang::programs::fib(12, 40), 1, net::FaultPlan::none());
  ASSERT_TRUE(run.result.completed);
  EXPECT_TRUE(run.result.answer_correct);
}

TEST(PdesShard, SingleCrashBitIdentical) {
  const net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(3000));
  for (const std::uint64_t seed : {1u, 5u}) {
    expect_shard_invariant(lang::programs::nqueens(5), seed, plan);
  }
}

TEST(PdesShard, ListProgramsWithCrashBitIdentical) {
  // The sorting programs pass list values, which share their cells by
  // reference count: a list built on one shard's thread is copied, sent and
  // released on others. fib and nqueens pass only integers, so this is the
  // case that puts those counts in front of ThreadSanitizer.
  // mergesort(96) finishes near t = 1600, quicksort(96) later.
  const lang::Program mergesort = lang::programs::mergesort(96, 11);
  const lang::Program quicksort = lang::programs::quicksort(96, 11);
  const struct {
    const lang::Program& program;
    std::int64_t crash_at;
  } cases[] = {{mergesort, 800}, {quicksort, 800}, {quicksort, 2000}};
  for (const auto& [program, crash_at] : cases) {
    const net::FaultPlan plan =
        net::FaultPlan::single(3, sim::SimTime(crash_at));
    for (const std::uint64_t seed : {1u, 5u}) {
      SCOPED_TRACE(program.name() + " crash at " + std::to_string(crash_at));
      const EngineRun oracle = expect_shard_invariant(program, seed, plan);
      ASSERT_TRUE(oracle.result.completed);
      EXPECT_TRUE(oracle.result.answer_correct);
      EXPECT_TRUE(oracle.result.answer.is_list());
      // The crash lands inside the run.
      EXPECT_EQ(oracle.result.faults_injected, 1U);
      EXPECT_GT(oracle.result.makespan_ticks, crash_at);
    }
  }
}

TEST(PdesShard, KillAfterTheAnswerIsNoFault) {
  // mergesort(96) answers near t = 1600; the event queue drains on after
  // that, so a kill at t = 5000 still executes, but it is no fault of the
  // run, on the classic loop (0 shards) or on the engine.
  const lang::Program program = lang::programs::mergesort(96, 11);
  const net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(5000));
  for (const std::uint32_t shards : {0u, 1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const core::RunResult result =
        run_sharded(shards, program, 1, plan).result;
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.answer_correct);
    EXPECT_LT(result.makespan_ticks, 5000);
    EXPECT_EQ(result.faults_injected, 0U);
    EXPECT_EQ(result.first_failure_ticks, -1);
    EXPECT_EQ(result.nodes_revived, 0U);
  }
}

TEST(PdesShard, AliveCountIsTakenAtTheAnswer) {
  // The same run: processor 3 dies at t = 5000, after the answer, so all 8
  // were alive when the answer arrived, as the kill is no fault of the run.
  const lang::Program program = lang::programs::mergesort(96, 11);
  const net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(5000));
  for (const std::uint32_t shards : {0u, 1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const core::RunResult result =
        run_sharded(shards, program, 1, plan).result;
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.processors_alive_at_end, 8U);
  }
}

TEST(PdesShard, KillOnWindowGridBitIdentical) {
  // A kill scheduled exactly at a window boundary (t = k * latency.base)
  // exercises the inclusive coordinator barrier bound: the crash must land
  // before the window that starts at the same tick, for every shard count.
  const net::FaultPlan plan = net::FaultPlan::single(2, sim::SimTime(3000));
  expect_shard_invariant(lang::programs::fib(13, 40), 11, plan);
}

TEST(PdesShard, CascadeWithRejoinBitIdentical) {
  net::FaultPlan plan = core::parse_fault_plan("kill:3@4000;rejoin:6000");
  expect_shard_invariant(lang::programs::nqueens(5), 3, plan);
}

TEST(PdesShard, PartitionWithHealBitIdentical) {
  // Chaos matrix, partition leg: a cut isolates a mesh corner, both halves
  // declare each other dead, then the heal reconciles the mutual suspicion
  // through coordinator-posted learn_alive ops and releases what bounced
  // off the cut through release ops posted after them. Both the cut and
  // the heal land mid-run (these runs finish near t = 4000).
  net::FaultPlan plan =
      core::parse_fault_plan("partition:rect(0,0,1x2)@1000,heal=2000");
  for (const std::uint64_t seed : {1u, 9u}) {
    const EngineRun oracle =
        expect_shard_invariant(lang::programs::nqueens(5), seed, plan);
    EXPECT_GT(oracle.result.net.partition_cut, 0U) << "seed " << seed;
    EXPECT_GT(oracle.result.counters.held_released, 0U) << "seed " << seed;
  }
}

TEST(PdesShard, GrayFailureBitIdentical) {
  // Chaos matrix, gray leg: node 2 stays "alive" (control traffic flows)
  // while its payload traffic starves — per-link verdict draws are keyed by
  // (seed, link, seq) with the sender's shard as single writer.
  net::FaultPlan plan =
      core::parse_fault_plan("gray:2@1500,drop=0.4,slow=2,until=9000");
  expect_shard_invariant(lang::programs::fib(12, 40), 5, plan);
}

TEST(PdesShard, LossyDuplicatingLinksBitIdentical) {
  // Chaos matrix, link-quality leg: drops force payload retransmission and
  // bounce notices (the two-lane seq streams), duplicates exercise clone
  // routing, reordering exercises hold-back delays.
  net::FaultPlan plan = core::parse_fault_plan(
      "link:*-*@1000,drop=0.05,dup=0.03,reorder=0.05,delay=7,jitter=9");
  expect_shard_invariant(lang::programs::fib(12, 40), 13, plan);
}

TEST(PdesShard, CrashDuringPartitionBitIdentical) {
  // Compound chaos: a crash inside an unhealed cut plus lossy links — the
  // full recovery stack (detection, twins, salvage, cancels) under every
  // perturbation class at once.
  net::FaultPlan plan = core::parse_fault_plan(
      "kill:5@3000;partition:rect(0,0,1x2)@2000,heal=5000;link:*-*@0,drop=0.02");
  for (const std::uint64_t seed : {1u, 17u}) {
    expect_shard_invariant(lang::programs::nqueens(5), seed, plan);
  }
}

TEST(PdesShard, SchedulersBitIdentical) {
  // Per-origin RNG / cursor streams: every scheduler that draws randomness
  // or carries a cursor must key it by the spawning processor in engine
  // mode, or shard layout would leak into placement.
  const net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(3000));
  for (const core::SchedulerKind kind :
       {core::SchedulerKind::kRandom, core::SchedulerKind::kRoundRobin,
        core::SchedulerKind::kLocalFirst, core::SchedulerKind::kGradient,
        core::SchedulerKind::kNeighbor}) {
    SCOPED_TRACE(std::string(core::to_string(kind)));
    expect_shard_invariant(lang::programs::fib(12, 40), 1, plan, kind);
  }
}

TEST(PdesShard, RecorderOffMatchesRecorderOnCounters) {
  // The flight recorder must stay read-only on the engine path too: the
  // same seeded run with and without journaling produces identical results.
  const net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(3000));
  const lang::Program program = lang::programs::nqueens(5);
  const EngineRun on = run_sharded(4, program, 1, plan,
                                   core::SchedulerKind::kRandom, true);
  const EngineRun off = run_sharded(4, program, 1, plan,
                                    core::SchedulerKind::kRandom, false);
  EXPECT_EQ(on.result.completed, off.result.completed);
  EXPECT_EQ(on.result.answer, off.result.answer);
  EXPECT_EQ(on.result.makespan_ticks, off.result.makespan_ticks);
  EXPECT_EQ(on.result.counters.tasks_created,
            off.result.counters.tasks_created);
  EXPECT_EQ(on.result.counters.tasks_completed,
            off.result.counters.tasks_completed);
  EXPECT_EQ(on.result.net.total_sent(), off.result.net.total_sent());
}

TEST(PdesShard, RollbackPolicyBitIdentical) {
  core::SystemConfig cfg = testing::base_config(8, 1);
  cfg.recovery.kind = core::RecoveryKind::kRollback;
  cfg.parallel.shards = 1;
  const net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(3000));
  const lang::Program program = lang::programs::nqueens(5);
  core::Simulation a(cfg, program);
  a.set_fault_plan(plan);
  const core::RunResult ra = a.run();
  cfg.parallel.shards = 4;
  core::Simulation b(cfg, program);
  b.set_fault_plan(plan);
  const core::RunResult rb = b.run();
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.answer, rb.answer);
  EXPECT_EQ(ra.makespan_ticks, rb.makespan_ticks);
  EXPECT_EQ(ra.counters.tasks_respawned, rb.counters.tasks_respawned);
  EXPECT_EQ(ra.net.total_sent(), rb.net.total_sent());
}

TEST(PdesShard, MoreShardsThanProcessorsClamps) {
  // shards > processors clamps to one processor per shard; results still
  // match the oracle (the shard map is a pure function of the proc id).
  const EngineRun oracle = run_sharded(1, lang::programs::fib(11, 40), 1,
                                       net::FaultPlan::none());
  const EngineRun wide = run_sharded(32, lang::programs::fib(11, 40), 1,
                                     net::FaultPlan::none());
  expect_identical(oracle, wide);
}

TEST(PdesShard, EngineRejectsUnsupportedConfigs) {
  const lang::Program program = lang::programs::fib(8, 20);
  // Only the in-process transport: the wire backends own their delivery.
  // The engine itself refuses them (the classic loop's own tcp refusal has
  // another message).
  for (const net::TransportKind wire :
       {net::TransportKind::kShmRing, net::TransportKind::kTcp}) {
    core::SystemConfig cfg = testing::base_config(8, 1);
    cfg.parallel.shards = 2;
    cfg.transport.backend = wire;
    try {
      core::Simulation(cfg, program).run();
      ADD_FAILURE() << net::to_string(wire) << " ran on the engine";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("parallel engine"),
                std::string::npos)
          << error.what();
    }
  }
  {
    core::SystemConfig cfg = testing::base_config(8, 1);
    cfg.parallel.shards = 2;
    cfg.recovery.kind = core::RecoveryKind::kPeriodicGlobal;
    EXPECT_THROW(core::Simulation(cfg, program).run(), std::invalid_argument);
  }
  {
    core::SystemConfig cfg = testing::base_config(8, 1);
    cfg.parallel.shards = 2;
    cfg.recovery.kind = core::RecoveryKind::kRestart;
    EXPECT_THROW(core::Simulation(cfg, program).run(), std::invalid_argument);
  }
  {
    core::SystemConfig cfg = testing::base_config(8, 1);
    cfg.parallel.shards = 2;
    core::Simulation sim(cfg, program);
    sim.set_fault_plan(core::parse_fault_plan("trigger:3@residue"));
    EXPECT_THROW(sim.run(), std::invalid_argument);
  }
  {
    // The read-only gc oracle is allowed and stays shard-invariant.
    core::SystemConfig cfg = testing::base_config(8, 1);
    cfg.parallel.shards = 2;
    cfg.reclaim.gc_interval = 5000;
    core::Simulation sim(cfg, program);
    const core::RunResult result = sim.run();
    EXPECT_TRUE(result.completed);
  }
}

}  // namespace
}  // namespace splice
