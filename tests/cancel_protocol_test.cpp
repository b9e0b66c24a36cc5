// The distributed task-cancellation protocol (kCancel).
//
// The paper's recovery scheme never assumes global knowledge: every
// corrective action travels as a message. These suites lock in the discard
// case — duplicate-lineage reclaim by cancel propagation, the only
// mechanism that reclaims duplicates — validated by the read-only gc
// oracle:
//
//   * a 90-run chaos matrix (three duplicate-generating scenario families
//     x victims x seeds) with the oracle armed: every run must complete
//     correctly with zero oracle leaks, and the matrix as a whole must
//     actually exercise the protocol (cancels sent, duplicates reclaimed);
//   * rollback under warm rejoin: orphans of the dead parent are reclaimed
//     at detection, not left to race the re-hosted parent's respawns;
//   * the oracle itself is read-only: arming it changes no simulated count;
//   * a property suite for cancels racing kStateChunk state transfer: a
//     released checkpoint must never resurrect as a re-hosted task, and
//     re-crashes mid-transfer must neither strand nor duplicate work;
//   * determinism A/B (replay identity of the full cancel traffic);
//   * regression guards for the cancel/ack races: stale-lineage acks and
//     double releases of a checkpoint entry;
//   * checkpoint ownership: a result releases the record its own slot
//     filed, and state transfer re-hosts no record whose owner is gone;
//   * a direct return cancels no instance but the ones still computing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checkpoint/checkpoint_table.h"
#include "core/simulation.h"
#include "lang/programs.h"
#include "net/network.h"
#include "recovery/recovery_oracle.h"
#include "runtime/processor.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "store/persistency.h"

namespace splice {
namespace {

using core::RunResult;
using core::SystemConfig;

/// Cancellation on, oracle armed: the chaos matrix must reclaim every
/// duplicate by message.
SystemConfig cancel_config(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.processors = 8;
  cfg.topology = net::TopologyKind::kMesh2D;
  cfg.scheduler.kind = core::SchedulerKind::kRandom;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 500;
  cfg.reclaim.cancellation = true;
  cfg.reclaim.gc_interval = 400;  // oracle cadence
  cfg.seed = seed;
  return cfg;
}

/// The duplicate generator: warm rejoin with an immediately-expiring
/// pre-link grace, so re-hosted parents respawn surviving orphan subtrees
/// as twins while the originals keep computing on their peers.
SystemConfig prelink_race_config(std::uint64_t seed) {
  SystemConfig cfg = cancel_config(seed);
  cfg.store.model = store::Persistency::kLocal;
  cfg.store.warm_grace = 40000;
  cfg.store.prelink_grace = 1;
  return cfg;
}

struct ChaosTotals {
  std::uint64_t runs = 0;
  std::uint64_t cancels_sent = 0;
  std::uint64_t tasks_cancelled = 0;
  std::uint64_t oracle_orphans = 0;
};

void run_chaos(const SystemConfig& cfg, const lang::Program& program,
               const net::FaultPlan& plan, ChaosTotals& totals,
               const std::string& label) {
  const RunResult r = core::run_once(cfg, program, plan);
  EXPECT_TRUE(r.completed) << label << ": " << r.summary();
  EXPECT_TRUE(r.answer_correct) << label << ": " << r.summary();
  EXPECT_EQ(r.counters.gc_oracle_orphans, 0U)
      << label << ": a duplicate with a live parent outlived the protocol";
  ++totals.runs;
  totals.cancels_sent += r.counters.cancels_sent;
  totals.tasks_cancelled += r.counters.tasks_cancelled;
  totals.oracle_orphans += r.counters.gc_oracle_orphans;
}

// 90 runs: 15 seeds x 6 fault injections across 3 scenario families,
// oracle on.
TEST(CancelProtocol, ChaosMatrixReclaimsEveryDuplicate) {
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  ChaosTotals totals;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    // Family A: the pre-link race (warm rejoin, grace expires instantly).
    {
      SystemConfig cfg = prelink_race_config(seed);
      const std::int64_t makespan =
          core::Simulation::fault_free_makespan(cfg, program);
      for (const net::ProcId victim : {1U, 3U, 5U}) {
        net::FaultPlan plan =
            net::FaultPlan::single(victim, sim::SimTime(makespan / 2));
        plan.with_rejoin(sim::SimTime(makespan / 10), net::RejoinMode::kWarm);
        run_chaos(cfg, program, plan, totals,
                  "prelink seed=" + std::to_string(seed) + " victim=" +
                      std::to_string(victim));
      }
    }
    // Family B: regional outage + cascade + cold rejoin under splice (twin
    // recompute vs. surviving orphan races).
    {
      SystemConfig cfg = cancel_config(seed);
      const std::int64_t makespan =
          core::Simulation::fault_free_makespan(cfg, program);
      for (const char* spec :
           {"rect:0,0,2x1@T2;rejoin:T10", "cascade:5@T2,p=0.8,hops=1;rejoin:T10"}) {
        std::string s(spec);
        const auto sub = [&](const std::string& from, std::int64_t value) {
          for (std::size_t at = s.find(from); at != std::string::npos;
               at = s.find(from)) {
            s.replace(at, from.size(), std::to_string(value));
          }
        };
        sub("T10", makespan / 10);
        sub("T2", makespan / 2);
        net::FaultPlan plan = core::parse_fault_plan(s);
        plan.with_seed(seed * 31 + 7);
        run_chaos(cfg, program, plan, totals,
                  std::string("regional seed=") + std::to_string(seed) +
                      " spec=" + s);
      }
    }
    // Family C: rollback with a mid-run crash — doomed orphan subtrees must
    // cascade-cancel instead of computing to run end (the oracle runs with
    // no salvage exclusion under a non-salvaging policy).
    {
      SystemConfig cfg = cancel_config(seed);
      cfg.recovery.kind = core::RecoveryKind::kRollback;
      const std::int64_t makespan =
          core::Simulation::fault_free_makespan(cfg, program);
      const net::ProcId victim = static_cast<net::ProcId>((seed * 13) % 8);
      run_chaos(cfg, program,
                net::FaultPlan::single(victim, sim::SimTime(makespan / 2)),
                totals, "rollback seed=" + std::to_string(seed));
    }
  }
  // 15 seeds x (3 prelink victims + 2 regional specs + 1 rollback) = 90.
  EXPECT_EQ(totals.runs, 90U);
  EXPECT_EQ(totals.oracle_orphans, 0U);
  // The matrix must exercise the protocol, not vacuously pass.
  EXPECT_GT(totals.cancels_sent, 0U) << "no scenario emitted a cancel";
  EXPECT_GT(totals.tasks_cancelled, 0U) << "no duplicate was reclaimed";
}

TEST(CancelProtocol, ReclaimsPrelinkRaceDuplicates) {
  // The flagship duplicate generator: the oracle only watches, so every
  // reclaim must come from cancels.
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  std::uint64_t reclaimed = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SystemConfig cfg = prelink_race_config(seed);
    const std::int64_t makespan =
        core::Simulation::fault_free_makespan(cfg, program);
    net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
    plan.with_rejoin(sim::SimTime(makespan / 10), net::RejoinMode::kWarm);
    const RunResult r = core::run_once(cfg, program, plan);
    EXPECT_TRUE(r.completed && r.answer_correct) << "seed " << seed;
    EXPECT_EQ(r.counters.orphans_gced, 0U) << "the gc tick must not abort";
    EXPECT_EQ(r.counters.gc_oracle_orphans, 0U) << "seed " << seed;
    reclaimed += r.counters.tasks_cancelled;
  }
  EXPECT_GT(reclaimed, 0U)
      << "no seed produced a duplicate for the protocol to reclaim";
}

TEST(CancelProtocol, RollbackWarmRejoinReclaimsOrphansAtDetection) {
  // Rollback never pre-links: a parent re-hosted by a warm rejoin respawns
  // its children, so the orphans the dead parent left on survivors can
  // only be duplicates. Warm rejoin defers the reissue until the grace
  // expires; the orphans must still go at detection, or they compute
  // alongside the respawned children and the oracle flags a task leak.
  // 36 runs: seeds x victims x (default graces | instant pre-link grace).
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  std::uint64_t cancelled = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool instant_prelink : {false, true}) {
      SystemConfig cfg = cancel_config(seed);
      cfg.recovery.kind = core::RecoveryKind::kRollback;
      cfg.store.model = store::Persistency::kLocal;
      if (instant_prelink) cfg.store.prelink_grace = 1;
      const std::int64_t makespan =
          core::Simulation::fault_free_makespan(cfg, program);
      for (const net::ProcId victim : {1U, 3U, 5U}) {
        net::FaultPlan plan =
            net::FaultPlan::single(victim, sim::SimTime(makespan / 2));
        plan.with_rejoin(sim::SimTime(makespan / 10), net::RejoinMode::kWarm);
        const RunResult r = core::run_once(cfg, program, plan);
        const auto report = recovery::RecoveryOracle::check(r);
        EXPECT_TRUE(report.ok())
            << "seed=" << seed << " victim=" << victim
            << " instant_prelink=" << instant_prelink << ": "
            << report.to_string();
        cancelled += r.counters.tasks_cancelled;
      }
    }
  }
  EXPECT_GT(cancelled, 0U) << "no run left an orphan to reclaim";
}

TEST(CancelProtocol, GcOracleIsReadOnly) {
  // Arming the oracle must not move a single simulated count: it reads
  // global state at its ticks and aborts nothing. Only sim_events may
  // differ, by the oracle's own tick events.
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  int pairs = 0;
  for (const auto policy :
       {core::RecoveryKind::kSplice, core::RecoveryKind::kRollback}) {
    for (const bool cancellation : {true, false}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SystemConfig armed = prelink_race_config(seed);
        armed.recovery.kind = policy;
        armed.reclaim.cancellation = cancellation;
        armed.reclaim.gc_interval = 400;
        SystemConfig quiet = armed;
        quiet.reclaim.gc_interval = 0;
        const std::int64_t makespan =
            core::Simulation::fault_free_makespan(quiet, program);
        net::FaultPlan plan =
            net::FaultPlan::single(3, sim::SimTime(makespan / 2));
        plan.with_rejoin(sim::SimTime(makespan / 10), net::RejoinMode::kWarm);
        const RunResult a = core::run_once(armed, program, plan);
        const RunResult b = core::run_once(quiet, program, plan);
        const std::string label =
            std::string(core::to_string(policy)) +
            " cancellation=" + std::to_string(cancellation) +
            " seed=" + std::to_string(seed);
        EXPECT_EQ(a.makespan_ticks, b.makespan_ticks) << label;
        EXPECT_EQ(a.counters.scans, b.counters.scans) << label;
        EXPECT_EQ(a.counters.busy_ticks, b.counters.busy_ticks) << label;
        EXPECT_EQ(a.counters.tasks_created, b.counters.tasks_created) << label;
        EXPECT_EQ(a.counters.tasks_aborted, b.counters.tasks_aborted) << label;
        EXPECT_EQ(a.counters.tasks_cancelled, b.counters.tasks_cancelled)
            << label;
        EXPECT_EQ(a.counters.cancels_sent, b.counters.cancels_sent) << label;
        EXPECT_EQ(a.net.total_sent(), b.net.total_sent()) << label;
        ++pairs;
      }
    }
  }
  EXPECT_EQ(pairs, 24);
}

TEST(CancelProtocol, DeterministicReplay) {
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  SystemConfig cfg = prelink_race_config(7);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(makespan / 10), net::RejoinMode::kWarm);
  const RunResult a = core::run_once(cfg, program, plan);
  const RunResult b = core::run_once(cfg, program, plan);
  EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.counters.cancels_sent, b.counters.cancels_sent);
  EXPECT_EQ(a.counters.tasks_cancelled, b.counters.tasks_cancelled);
  EXPECT_EQ(a.counters.cancels_ignored, b.counters.cancels_ignored);
  EXPECT_EQ(a.counters.scans, b.counters.scans);
  EXPECT_EQ(a.net.sent[static_cast<std::size_t>(net::MsgKind::kCancel)],
            b.net.sent[static_cast<std::size_t>(net::MsgKind::kCancel)]);
}

TEST(CancelProtocol, ProtocolReclaimDoesNotIncreaseTotalWork) {
  // Reclaiming duplicates by message must not cost more scans than letting
  // them run (and should usually cost fewer).
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  std::uint64_t scans_with = 0;
  std::uint64_t scans_without = 0;
  int reclaimed_runs = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SystemConfig cfg_on = prelink_race_config(seed);
    SystemConfig cfg_off = prelink_race_config(seed);
    cfg_off.reclaim.cancellation = false;
    cfg_off.reclaim.gc_interval = 0;  // nothing reclaims
    const std::int64_t makespan =
        core::Simulation::fault_free_makespan(cfg_off, program);
    net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
    plan.with_rejoin(sim::SimTime(makespan / 10), net::RejoinMode::kWarm);
    const RunResult on = core::run_once(cfg_on, program, plan);
    const RunResult off = core::run_once(cfg_off, program, plan);
    EXPECT_TRUE(on.answer_correct && off.answer_correct) << "seed " << seed;
    if (on.counters.tasks_cancelled > 0) ++reclaimed_runs;
    scans_with += on.counters.scans;
    scans_without += off.counters.scans;
  }
  ASSERT_GT(reclaimed_runs, 0);
  EXPECT_LE(scans_with, scans_without + scans_without / 20);
}

// ---------------------------------------------------------------------------
// Cancels racing kStateChunk transfers (property suite)
// ---------------------------------------------------------------------------

TEST(CancelProtocol, CancelsRacingStateTransferNeverStrandOrDuplicate) {
  // Warm rejoin with one-record chunks and a long pacing interval keeps the
  // transfer window open across many protocol events; a second fault mid
  // stream (and a second rejoin) exercises the incarnation guards. Any
  // released checkpoint that resurrected as a re-hosted task would show up
  // as a persistent duplicate (oracle) or a wrong answer; any stranding as
  // an incomplete run.
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  int exercised = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SystemConfig cfg = prelink_race_config(seed);
    cfg.store.chunk_records = 1;   // maximal number of chunk round-trips
    cfg.store.chunk_interval = 120;
    const std::int64_t makespan =
        core::Simulation::fault_free_makespan(cfg, program);
    // Victim A rejoins warm; while its catch-up streams, victim B (one of
    // the streaming survivors) crashes and also rejoins warm.
    net::FaultPlan plan =
        net::FaultPlan::single(3, sim::SimTime(makespan / 3));
    plan.with_rejoin(sim::SimTime(makespan / 12), net::RejoinMode::kWarm);
    net::FaultPlan second = net::FaultPlan::single(
        static_cast<net::ProcId>(1 + (seed % 2) * 4),
        sim::SimTime(makespan / 3 + makespan / 12 + 60));
    second.with_rejoin(sim::SimTime(makespan / 12), net::RejoinMode::kWarm);
    plan.merge(std::move(second));
    const RunResult r = core::run_once(cfg, program, plan);
    EXPECT_TRUE(r.completed) << "seed " << seed << ": " << r.summary();
    EXPECT_TRUE(r.answer_correct) << "seed " << seed;
    EXPECT_EQ(r.counters.gc_oracle_orphans, 0U) << "seed " << seed;
    if (r.counters.state_chunks_sent > 0 && r.counters.cancels_sent > 0) {
      ++exercised;
    }
  }
  EXPECT_GT(exercised, 0)
      << "no seed raced a cancel against a state transfer";
}

// ---------------------------------------------------------------------------
// Cancel/ack race guards (regression: double checkpoint releases)
// ---------------------------------------------------------------------------

TEST(CancelProtocol, ReleaseAnywhereIsIdempotent) {
  // A cancel arriving between a child's result send and the parent's ack
  // must not double-release the checkpoint entry: the second release of
  // the same stamp finds nothing, counts nothing, and the totals stay sane.
  checkpoint::CheckpointTable table(/*self=*/0, /*processors=*/16);
  runtime::TaskPacket packet;
  packet.stamp = runtime::LevelStamp::root().child(3);
  checkpoint::CheckpointRecord record;
  record.owner = 42;
  record.site = 3;
  ASSERT_EQ(table.record(/*dest=*/9, record, packet),
            checkpoint::RecordOutcome::kRecorded);
  record = table.entry(9)[0];
  EXPECT_EQ(record.stamp, packet.stamp);
  EXPECT_EQ(record.units, packet.size_units());
  ASSERT_TRUE(table.contains(9, record.stamp));
  EXPECT_EQ(table.total_records(), 1U);

  EXPECT_TRUE(table.release_anywhere(record.stamp));   // result path
  EXPECT_FALSE(table.release_anywhere(record.stamp));  // cancel path
  EXPECT_FALSE(table.contains(9, record.stamp));
  EXPECT_EQ(table.total_records(), 0U);
  EXPECT_EQ(table.released(), 1U);  // the no-op release is not counted
}

TEST(CancelProtocol, ContainsTracksRecordAndRelease) {
  checkpoint::CheckpointTable table(/*self=*/2, /*processors=*/32);
  const auto stamp = runtime::LevelStamp::root().child(5).child(1);
  EXPECT_FALSE(table.contains(17, stamp));
  runtime::TaskPacket packet;
  packet.stamp = stamp;
  checkpoint::CheckpointRecord record;
  record.owner = 7;
  record.site = 1;
  table.record(17, record, packet);
  EXPECT_TRUE(table.contains(17, stamp));
  EXPECT_FALSE(table.contains(18, stamp));  // held against 17, not 18
  table.release(17, stamp);
  EXPECT_FALSE(table.contains(17, stamp));
}

// ---------------------------------------------------------------------------
// Checkpoint ownership: a record indexes the call slot that retains it
// ---------------------------------------------------------------------------

/// A runtime nobody starts, its processor 0 frozen: the tests place tasks
/// and checkpoints there by hand and call its handlers directly, so no
/// scan runs and the table holds exactly what the test filed.
struct HandMachine {
  explicit HandMachine(SystemConfig config = cancel_config(1))
      : cfg(std::move(config)),
        network(simulator, net::Topology(cfg.topology, cfg.processors),
                cfg.latency),
        rt(simulator, network, cfg, program) {
    proc().freeze();
  }

  runtime::Processor& proc() { return rt.processor(0); }
  checkpoint::CheckpointTable& table() { return proc().table(); }

  /// Accept a task with `stamp`, spawned by `parent`, on processor 0.
  runtime::Task& host(const runtime::LevelStamp& stamp,
                      runtime::TaskRef parent) {
    runtime::TaskPacket packet;
    packet.stamp = stamp;
    packet.ancestors.push_back(parent);
    return *proc().find_task(proc().accept_packet(std::move(packet)));
  }

  /// File `owner`'s spawn of the child at `site` onto `dest` the way a
  /// send does: the slot keeps the callee and arguments, the owner rebuilds
  /// the packet, the table indexes the slot.
  runtime::TaskPacket spawn(runtime::Task& owner, runtime::StampDigit site,
                            net::ProcId dest) {
    runtime::CallSlot& slot =
        owner.note_spawned(site, /*fn=*/0, {lang::Value::integer(site)});
    slot.sent_to = {dest};
    const runtime::TaskPacket child =
        owner.child_packet(slot, 0, cfg.recovery.ancestor_depth);
    checkpoint::CheckpointRecord record;
    record.owner = owner.uid();
    record.site = site;
    table().record(dest, record, child);
    return child;
  }

  core::SystemConfig cfg;
  lang::Program program = lang::programs::fib(3);
  sim::Simulator simulator;
  net::Network network;
  runtime::Runtime rt;
};

TEST(CancelProtocol, ResultReleasesItsOwnSlotsCheckpoint) {
  // Two live instances of one task on a processor (a duplicate lineage
  // racing its replacement) each file the same child stamp against a
  // different destination. A result must release the record its own slot
  // filed: releasing the other owner's would silently drop that owner's
  // reissue obligation toward its destination. Both delivery orders run,
  // so no lookup order can pass by luck.
  for (const bool first_delivers : {true, false}) {
    SCOPED_TRACE(first_delivers ? "first owner delivers"
                                : "second owner delivers");
    HandMachine m;
    const runtime::LevelStamp stamp = runtime::LevelStamp::root().child(1);
    runtime::Task& first = m.host(stamp, runtime::TaskRef{1, 100});
    runtime::Task& second = m.host(stamp, runtime::TaskRef{2, 200});
    const runtime::TaskPacket child = m.spawn(first, /*site=*/3, /*dest=*/5);
    ASSERT_EQ(m.spawn(second, 3, 6).stamp, child.stamp);
    ASSERT_TRUE(m.table().contains(5, child.stamp));
    ASSERT_TRUE(m.table().contains(6, child.stamp));

    runtime::Task& delivering = first_delivers ? first : second;
    const net::ProcId own = first_delivers ? 5 : 6;
    const net::ProcId other = first_delivers ? 6 : 5;
    runtime::ResultMsg result;
    result.stamp = child.stamp;
    result.call_site = 3;
    result.value = lang::Value::integer(2);
    result.target = runtime::TaskRef{0, delivering.uid()};
    m.proc().deliver_parent_result(delivering, result);

    EXPECT_TRUE(delivering.slot(3).resolved());
    EXPECT_FALSE(m.table().contains(own, child.stamp));
    EXPECT_TRUE(m.table().contains(other, child.stamp));
    ASSERT_EQ(m.table().total_records(), 1U);
  }
}

TEST(CancelProtocol, DirectReturnSparesItsProducer) {
  // A twin's slot resolves on a direct return and cancels every instance it
  // still points at — but not the one that returned: it has completed, so
  // a cancel could only be ignored. The superseded original returning
  // first is no such instance and must still cancel the live twin. Both
  // return orders run.
  for (const bool twin_first : {true, false}) {
    SCOPED_TRACE(twin_first ? "twin returns first" : "original returns first");
    HandMachine m;
    runtime::Task& owner =
        m.host(runtime::LevelStamp::root().child(1), runtime::TaskRef{1, 100});
    const runtime::TaskPacket original = m.spawn(owner, /*site=*/3, /*dest=*/5);
    runtime::CallSlot& slot = owner.slot(3);
    m.proc().respawn_slot(owner, slot, /*as_twin=*/true);
    ASSERT_TRUE(slot.twin_active);
    ASSERT_EQ(slot.lineage, 1U);
    ASSERT_EQ(slot.sent_to.size(), 1U);
    const std::uint64_t before = m.proc().counters().cancels_sent;

    runtime::ResultMsg result;
    result.stamp = original.stamp;
    result.call_site = 3;
    result.value = lang::Value::integer(2);
    result.target = runtime::TaskRef{0, owner.uid()};
    result.lineage = twin_first ? slot.lineage : original.lineage;
    m.proc().deliver_parent_result(owner, result);

    EXPECT_TRUE(slot.resolved());
    EXPECT_EQ(m.proc().counters().cancels_sent - before, twin_first ? 0U : 1U);
  }
}

TEST(CancelProtocol, StateTransferShipsNoRecordWhoseOwnerIsGone) {
  // Rollback with cancellation off aborts an orphan without releasing the
  // records it retained. Such a record guards work whose result nobody
  // would consume, so state transfer must not re-host it. A replayed
  // record's owner died with the node too, but the record carries its own
  // packet and re-hosts from that.
  SystemConfig cfg = cancel_config(1);
  cfg.reclaim.cancellation = false;
  HandMachine m(cfg);
  runtime::Task& owner =
      m.host(runtime::LevelStamp::root().child(1), runtime::TaskRef{1, 100});
  const runtime::TaskPacket live = m.spawn(owner, /*site=*/2, /*dest=*/4);

  runtime::Task& orphan =
      m.host(runtime::LevelStamp::root().child(2), runtime::TaskRef{1, 100});
  const runtime::TaskPacket stranded = m.spawn(orphan, 2, 4);
  const runtime::TaskUid orphan_uid = orphan.uid();
  ASSERT_EQ(m.proc().reclaim_tasks_if([&](const runtime::Task& task) {
              return task.uid() == orphan_uid;
            }),
            1U);
  ASSERT_TRUE(m.table().contains(4, stranded.stamp));  // outlived its owner

  runtime::TaskPacket replayed;
  replayed.stamp = runtime::LevelStamp::root().child(3).child(0);
  replayed.args.push_back(lang::Value::integer(9));
  replayed.ancestors.push_back(runtime::TaskRef{0, 999});
  checkpoint::CheckpointRecord record;
  record.owner = 999;  // a task of the previous incarnation
  record.site = 0;
  record.packet = replayed;
  m.table().record(4, record, replayed);
  ASSERT_EQ(m.table().entry(4).size(), 3U);

  const std::vector<runtime::TaskPacket> shipped = m.proc().packets_against(4);
  ASSERT_EQ(shipped.size(), 2U);
  for (const runtime::TaskPacket& packet : shipped) {
    EXPECT_NE(packet.stamp, stranded.stamp);
  }
  // The live record ships the packet its owner's slot retains.
  EXPECT_EQ(shipped[0].stamp, live.stamp);
  EXPECT_EQ(shipped[0].args[0], live.args[0]);
  EXPECT_EQ(shipped[0].parent(), (runtime::TaskRef{0, owner.uid()}));
  // The replayed record ships its own.
  EXPECT_EQ(shipped[1].stamp, replayed.stamp);
  EXPECT_EQ(shipped[1].args[0], lang::Value::integer(9));
  EXPECT_EQ(shipped[1].parent(), (runtime::TaskRef{0, 999}));
}

}  // namespace
}  // namespace splice
