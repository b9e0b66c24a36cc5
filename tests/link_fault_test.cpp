// Link-level chaos engine: seeded determinism of every perturbation
// (drop/dup/reorder/delay), the partition-and-heal lifecycle, and the gray
// failure's defining property — the node is never detected dead even while
// its payload traffic starves.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/simulation.h"
#include "net/link_faults.h"
#include "test_util.h"

namespace splice {
namespace {

using core::RunResult;
using core::SystemConfig;
using net::GraySpec;
using net::LinkFaultModel;
using net::LinkQuality;
using net::MsgKind;

// ---------------------------------------------------------------------------
// LinkFaultModel unit: the verdict stream is a pure function of
// (seed, directed link, sequence number)
// ---------------------------------------------------------------------------

LinkQuality noisy_link() {
  LinkQuality q;
  q.drop_p = 0.25;
  q.dup_p = 0.2;
  q.reorder_p = 0.2;
  q.delay = 10;
  q.jitter = 30;
  return q;
}

using Fingerprint = std::vector<
    std::tuple<bool, bool, bool, bool, bool, std::int64_t, std::int64_t>>;

Fingerprint verdict_stream(std::uint64_t seed, int draws) {
  LinkFaultModel model(seed, 4);
  model.add_link(noisy_link());
  GraySpec g;
  g.node = 2;
  g.payload_drop_p = 0.4;
  model.add_gray(g);
  Fingerprint out;
  for (int i = 0; i < draws; ++i) {
    // Alternate links and kinds so per-link counters and the gray path all
    // participate in the stream.
    const net::ProcId from = static_cast<net::ProcId>(i % 3);
    const net::ProcId to = static_cast<net::ProcId>((i % 3) + 1);
    const MsgKind kind = (i % 2) == 0 ? MsgKind::kTaskPacket
                                      : MsgKind::kForwardResult;
    const auto v = model.shape(kind, from, to, sim::SimTime(i * 7),
                               sim::SimTime(100));
    out.push_back({v.cut, v.drop, v.gray_drop, v.duplicate, v.reordered,
                   v.extra.ticks(), v.dup_extra.ticks()});
  }
  return out;
}

TEST(LinkFaultModel, VerdictStreamReplaysBitIdenticallyPerSeed) {
  const Fingerprint a = verdict_stream(42, 400);
  const Fingerprint b = verdict_stream(42, 400);
  const Fingerprint c = verdict_stream(43, 400);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // 400 draws: astronomically unlikely to collide
}

TEST(LinkFaultModel, GrayNeverDropsControlTraffic) {
  LinkFaultModel model(7, 4);
  GraySpec g;
  g.node = 1;
  g.payload_drop_p = 1.0;  // every payload message dies...
  g.slow_factor = 4;
  model.add_gray(g);
  for (int i = 0; i < 50; ++i) {
    const auto control = model.shape(MsgKind::kHeartbeat, 0, 1,
                                     sim::SimTime(i), sim::SimTime(100));
    EXPECT_FALSE(control.gray_drop);  // ...but control always gets through
    EXPECT_FALSE(control.drop);
    EXPECT_GT(control.extra.ticks(), 0);  // slowed, though
    const auto payload = model.shape(MsgKind::kTaskPacket, 0, 1,
                                     sim::SimTime(i), sim::SimTime(100));
    EXPECT_TRUE(payload.gray_drop);
  }
  // Traffic not touching the gray node is unshaped.
  const auto clean = model.shape(MsgKind::kTaskPacket, 2, 3, sim::SimTime(0),
                                 sim::SimTime(100));
  EXPECT_FALSE(clean.gray_drop);
  EXPECT_EQ(clean.extra.ticks(), 0);
}

TEST(LinkFaultModel, PartitionWindowGovernsReachability) {
  LinkFaultModel model(1, 4);
  model.add_partition({0, 1}, sim::SimTime(100), sim::SimTime(200));
  // Before the cut: everyone reaches everyone.
  EXPECT_TRUE(model.reachable(0, 2, sim::SimTime(50)));
  // During: cross-cut pairs are severed, intra-side pairs untouched.
  EXPECT_FALSE(model.reachable(0, 2, sim::SimTime(150)));
  EXPECT_FALSE(model.reachable(3, 1, sim::SimTime(150)));
  EXPECT_TRUE(model.reachable(0, 1, sim::SimTime(150)));
  EXPECT_TRUE(model.reachable(2, 3, sim::SimTime(150)));
  // After the heal: reconnected.
  EXPECT_TRUE(model.reachable(0, 2, sim::SimTime(200)));
  // And shape() reports the cut verdict inside the window only.
  EXPECT_TRUE(model
                  .shape(MsgKind::kTaskPacket, 0, 2, sim::SimTime(150),
                         sim::SimTime(100))
                  .cut);
  EXPECT_FALSE(model
                   .shape(MsgKind::kTaskPacket, 0, 2, sim::SimTime(250),
                          sim::SimTime(100))
                   .cut);
}

TEST(LinkFaultModel, DirectedSpecShapesOneDirectionOnly) {
  LinkFaultModel model(1, 4);
  LinkQuality q;
  q.src = 0;
  q.dst = 1;
  q.symmetric = false;
  q.drop_p = 1.0;
  model.add_link(q);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(model
                    .shape(MsgKind::kTaskPacket, 0, 1, sim::SimTime(i),
                           sim::SimTime(100))
                    .drop);
    EXPECT_FALSE(model
                     .shape(MsgKind::kTaskPacket, 1, 0, sim::SimTime(i),
                            sim::SimTime(100))
                     .drop);
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: a seeded chaotic run replays bit-identically
// ---------------------------------------------------------------------------

/// Every observable of the run must match, from the answer through protocol
/// counters to the per-kind wire totals and the link-fault tallies.
void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.answer, b.answer);
  EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
  EXPECT_EQ(a.detection_ticks, b.detection_ticks);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.stranded_tasks, b.stranded_tasks);
  EXPECT_EQ(a.counters.tasks_created, b.counters.tasks_created);
  EXPECT_EQ(a.counters.tasks_completed, b.counters.tasks_completed);
  EXPECT_EQ(a.counters.tasks_respawned, b.counters.tasks_respawned);
  EXPECT_EQ(a.counters.cancels_sent, b.counters.cancels_sent);
  EXPECT_EQ(a.counters.wire_dups_discarded, b.counters.wire_dups_discarded);
  EXPECT_EQ(a.counters.busy_ticks, b.counters.busy_ticks);
  for (std::size_t k = 0; k < net::kMsgKindCount; ++k) {
    EXPECT_EQ(a.net.sent[k], b.net.sent[k]) << "sent kind " << k;
    EXPECT_EQ(a.net.delivered[k], b.net.delivered[k]) << "delivered " << k;
  }
  EXPECT_EQ(a.net.partition_cut, b.net.partition_cut);
  EXPECT_EQ(a.net.link_dropped, b.net.link_dropped);
  EXPECT_EQ(a.net.gray_dropped, b.net.gray_dropped);
  EXPECT_EQ(a.net.link_duplicated, b.net.link_duplicated);
  EXPECT_EQ(a.net.link_reordered, b.net.link_reordered);
  EXPECT_EQ(a.net.link_delay_ticks, b.net.link_delay_ticks);
  EXPECT_EQ(a.net.failure_notices, b.net.failure_notices);
}

SystemConfig chaos_config(std::uint64_t seed) {
  SystemConfig cfg = testing::base_config(8, seed);
  cfg.reclaim.cancellation = true;
  cfg.reclaim.gc_interval = 400;
  return cfg;
}

TEST(LinkChaosAB, SeededLossyRunReplaysBitIdentically) {
  net::FaultPlan plan = net::FaultPlan::link(noisy_link());
  plan.with_seed(11);
  const lang::Program program = lang::programs::fib(12, 40);
  const SystemConfig cfg = chaos_config(3);
  const RunResult a = core::run_once(cfg, program, plan);
  const RunResult b = core::run_once(cfg, program, plan);
  ASSERT_TRUE(a.completed) << a.summary();
  EXPECT_TRUE(a.answer_correct) << a.summary();
  expect_same_run(a, b);
  // Every perturbation class actually fired — the determinism assertion
  // above would be vacuous over an unperturbed run.
  EXPECT_GT(a.net.link_dropped, 0U);
  EXPECT_GT(a.net.link_duplicated, 0U);
  EXPECT_GT(a.net.link_reordered, 0U);
  EXPECT_GT(a.net.link_delay_ticks, 0U);
  // Lossy links never condemn a live node (§1 applies to *unreachable*
  // nodes): detection must not have fired.
  EXPECT_EQ(a.detection_ticks, -1);
  EXPECT_EQ(a.counters.gc_oracle_orphans, 0U);
}

TEST(LinkChaosAB, DistinctSeedsDrawDistinctPerturbations) {
  const lang::Program program = lang::programs::fib(12, 40);
  const SystemConfig cfg = chaos_config(3);
  net::FaultPlan plan_a = net::FaultPlan::link(noisy_link());
  plan_a.with_seed(101);
  net::FaultPlan plan_b = net::FaultPlan::link(noisy_link());
  plan_b.with_seed(202);
  const RunResult a = core::run_once(cfg, program, plan_a);
  const RunResult b = core::run_once(cfg, program, plan_b);
  ASSERT_TRUE(a.completed && b.completed);
  // Hundreds of independent draws: the streams cannot coincide.
  EXPECT_NE(std::make_tuple(a.net.link_dropped, a.net.link_delay_ticks,
                            a.sim_events),
            std::make_tuple(b.net.link_dropped, b.net.link_delay_ticks,
                            b.sim_events));
}

// ---------------------------------------------------------------------------
// Partitions: cut, detect, recover, heal, reconcile
// ---------------------------------------------------------------------------

TEST(Partition, ScheduledHealConvergesWithNothingLeaked) {
  // Cut the bottom half of the 4x4 mesh off for a while mid-run. Survivors
  // treat the far side as faulty (§1), respawn its work, and cancel the
  // duplicates once the heal reconciles the mutual suspicion.
  for (const std::uint64_t seed : {1u, 5u, 9u}) {
    SystemConfig cfg = chaos_config(seed);
    cfg.processors = 16;
    net::FaultPlan plan = net::FaultPlan::partition(
        net::RegionSpec::grid_rect(2, 0, 2, 4), sim::SimTime(2000),
        sim::SimTime(6000));
    plan.with_seed(seed);
    const RunResult r =
        core::run_once(cfg, lang::programs::fib(13, 40), plan);
    ASSERT_TRUE(r.completed) << r.summary();
    EXPECT_TRUE(r.answer_correct) << r.summary();
    EXPECT_GT(r.net.partition_cut, 0U) << "the cut never bit";
    EXPECT_GE(r.detection_ticks, 0) << "no one noticed the partition";
    EXPECT_EQ(r.counters.gc_oracle_orphans, 0U) << r.summary();
  }
}

TEST(Partition, NeverHealingMinorityCutStillCompletes) {
  // The bottom row (4 of 16) is cut off forever. The majority side holds
  // the root: it must finish without the minority, exactly as if that row
  // had crashed — weak recovery does not wait for a heal that never comes.
  SystemConfig cfg = chaos_config(2);
  cfg.processors = 16;
  net::FaultPlan plan = net::FaultPlan::partition(
      net::RegionSpec::grid_rect(3, 0, 1, 4), sim::SimTime(1500));
  plan.with_seed(2);
  const RunResult r = core::run_once(cfg, lang::programs::fib(13, 40), plan);
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct) << r.summary();
  EXPECT_GT(r.net.partition_cut, 0U);
}

TEST(Partition, ProbabilisticHealIsSeedDeterministic) {
  // A heal drawn from an exponential still replays bit-identically: the
  // delay is a pure function of the plan seed.
  SystemConfig cfg = chaos_config(4);
  cfg.processors = 16;
  auto run = [&cfg](std::uint64_t plan_seed) {
    net::FaultPlan plan;
    net::PartitionSpec cut;
    cut.side = net::RegionSpec::grid_rect(2, 0, 2, 4);
    cut.at = sim::SimTime(2000);
    cut.heal_mean = 4000.0;
    plan.partitions.push_back(cut);
    plan.with_seed(plan_seed);
    return core::run_once(cfg, lang::programs::fib(13, 40), plan);
  };
  const RunResult a = run(7);
  const RunResult b = run(7);
  ASSERT_TRUE(a.completed) << a.summary();
  expect_same_run(a, b);
}

// ---------------------------------------------------------------------------
// Gray failures: alive, slow, starving — and never detected
// ---------------------------------------------------------------------------

TEST(Gray, NoDetectionYetThroughputDegrades) {
  const lang::Program program = lang::programs::fib(13, 40);
  const SystemConfig cfg = chaos_config(6);
  const RunResult clean =
      core::run_once(cfg, program, net::FaultPlan::none());
  GraySpec g;
  g.node = 5;
  g.start = sim::SimTime(1000);
  net::FaultPlan plan = net::FaultPlan::gray(g);
  plan.with_seed(6);
  const RunResult gray = core::run_once(cfg, program, plan);
  ASSERT_TRUE(clean.completed && gray.completed) << gray.summary();
  EXPECT_TRUE(gray.answer_correct) << gray.summary();
  // The defining property: the node was sick the whole run and nobody
  // declared it dead — heartbeats and bounce notices kept flowing.
  EXPECT_EQ(gray.detection_ticks, -1) << gray.summary();
  EXPECT_GT(gray.net.gray_dropped, 0U);
  // But the sickness cost real time: payload retries and 4x slowdown.
  EXPECT_GT(gray.makespan_ticks, clean.makespan_ticks);
  EXPECT_EQ(gray.counters.gc_oracle_orphans, 0U);
}

TEST(Gray, FamilyAcrossNodesAndSeverityNeverTriggersDetection) {
  for (const net::ProcId node : {1u, 3u, 6u}) {
    for (const double drop : {0.3, 0.7}) {
      SystemConfig cfg = chaos_config(10 + node);
      GraySpec g;
      g.node = node;
      g.start = sim::SimTime(500);
      g.payload_drop_p = drop;
      net::FaultPlan plan = net::FaultPlan::gray(g);
      plan.with_seed(10 + node);
      const RunResult r =
          core::run_once(cfg, lang::programs::fib(12, 40), plan);
      ASSERT_TRUE(r.completed)
          << "node=" << node << " drop=" << drop << ": " << r.summary();
      EXPECT_TRUE(r.answer_correct) << r.summary();
      EXPECT_EQ(r.detection_ticks, -1)
          << "gray node " << node << " was falsely detected dead";
    }
  }
}

// ---------------------------------------------------------------------------
// Composition: link chaos on top of real crashes and rejoin
// ---------------------------------------------------------------------------

TEST(LinkChaos, LossyLinksPlusCrashAndRejoinConverge) {
  // Drop/dup/reorder everywhere, crash a node mid-run, repair it cold.
  // The cancel protocol and the wire-duplicate dedup must keep the ledger
  // clean: correct answer, no leaked duplicate lineages.
  for (const std::uint64_t seed : {3u, 8u}) {
    SystemConfig cfg = chaos_config(seed);
    LinkQuality q;
    q.drop_p = 0.05;
    q.dup_p = 0.05;
    q.reorder_p = 0.1;
    q.jitter = 20;
    net::FaultPlan plan = net::FaultPlan::link(q);
    plan.merge(net::FaultPlan::single(5, sim::SimTime(3000)));
    plan.with_rejoin(sim::SimTime(4000)).with_seed(seed);
    const RunResult r =
        core::run_once(cfg, lang::programs::nqueens(5), plan);
    ASSERT_TRUE(r.completed) << r.summary();
    EXPECT_TRUE(r.answer_correct) << r.summary();
    EXPECT_EQ(r.counters.gc_oracle_orphans, 0U) << r.summary();
    EXPECT_GT(r.net.link_duplicated, 0U);
  }
}

}  // namespace
}  // namespace splice
