// Fault-free distributed evaluation: every (program x topology x scheduler)
// combination must reproduce the reference interpreter's answer — the
// determinacy property (§2.1) the whole paper builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/simulation.h"
#include "lang/interpreter.h"
#include "lang/programs.h"
#include "net/link_faults.h"
#include "net/network.h"
#include "runtime/processor.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace splice {
namespace {

using core::RecoveryKind;
using core::RunResult;
using core::SchedulerKind;
using core::SystemConfig;
using splice::testing::base_config;
using splice::testing::fib_value;

TEST(RuntimeBasic, SingleProcessorSingleTask) {
  SystemConfig cfg = testing::base_config(1);
  cfg.topology = net::TopologyKind::kComplete;
  const RunResult r = core::run_once(cfg, lang::programs::fib(1));
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.counters.tasks_created, 1U);
  EXPECT_EQ(r.counters.tasks_completed, 1U);
}

TEST(RuntimeBasic, FibOnEightProcessors) {
  const RunResult r = core::run_once(base_config(), lang::programs::fib(12));
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.answer.as_int(), fib_value(12));
  // Task count equals the reference call-tree size.
  const auto stats = lang::reference_stats(lang::programs::fib(12));
  EXPECT_EQ(r.counters.tasks_created, stats.calls);
  EXPECT_EQ(r.counters.tasks_completed, stats.calls);
  EXPECT_EQ(r.counters.tasks_aborted, 0U);
  EXPECT_EQ(r.counters.tasks_respawned, 0U);
  EXPECT_EQ(r.stranded_tasks, 0U);
}

TEST(RuntimeBasic, MakespanBenefitsFromParallelism) {
  SystemConfig one = base_config(1);
  one.topology = net::TopologyKind::kComplete;
  SystemConfig many = base_config(16);
  many.topology = net::TopologyKind::kComplete;
  const auto program = lang::programs::tree_sum(5, 2, /*leaf_work=*/400);
  const RunResult serial = core::run_once(one, program);
  const RunResult parallel = core::run_once(many, program);
  ASSERT_TRUE(serial.completed);
  ASSERT_TRUE(parallel.completed);
  EXPECT_TRUE(serial.answer_correct);
  EXPECT_TRUE(parallel.answer_correct);
  EXPECT_LT(parallel.makespan_ticks, serial.makespan_ticks);
}

TEST(RuntimeBasic, ChecksReleasedMatchRecords) {
  const RunResult r = core::run_once(base_config(), lang::programs::fib(10));
  ASSERT_TRUE(r.completed);
  // Fault-free: every checkpoint that was recorded is eventually released
  // (its child returned), and recorded + subsumed covers every spawn.
  EXPECT_EQ(r.counters.checkpoint_records, r.counters.checkpoint_released);
  EXPECT_GT(r.counters.checkpoint_records, 0U);
  const auto stats = lang::reference_stats(lang::programs::fib(10));
  EXPECT_EQ(r.counters.checkpoint_records + r.counters.checkpoint_subsumed,
            stats.calls - 1);  // every non-root spawn hit the table
}

TEST(RuntimeBasic, DeterministicForSameSeed) {
  const RunResult a = core::run_once(base_config(8, 5), lang::programs::fib(11));
  const RunResult b = core::run_once(base_config(8, 5), lang::programs::fib(11));
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
  EXPECT_EQ(a.net.total_sent(), b.net.total_sent());
  EXPECT_EQ(a.counters.scans, b.counters.scans);
}

TEST(RuntimeBasic, DifferentSeedsDifferentSchedules) {
  const RunResult a = core::run_once(base_config(8, 1), lang::programs::fib(11));
  const RunResult b = core::run_once(base_config(8, 2), lang::programs::fib(11));
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_TRUE(a.answer_correct && b.answer_correct);
  // Makespans will almost surely differ (different placements).
  EXPECT_NE(a.makespan_ticks, b.makespan_ticks);
}

TEST(RuntimeBasic, NoHeartbeatsWhenDisabled) {
  SystemConfig cfg = base_config();
  cfg.heartbeat_interval = 0;
  const RunResult r = core::run_once(cfg, lang::programs::fib(8));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.net.sent[static_cast<std::size_t>(net::MsgKind::kHeartbeat)],
            0U);
}

TEST(RuntimeBasic, HeartbeatsFlowWhenEnabled) {
  SystemConfig cfg = base_config();
  cfg.heartbeat_interval = 500;
  const RunResult r =
      core::run_once(cfg, lang::programs::tree_sum(4, 2, 2000));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.net.sent[static_cast<std::size_t>(net::MsgKind::kHeartbeat)],
            0U);
}

TEST(RuntimeBasic, TraceRecordsLifecycle) {
  SystemConfig cfg = base_config(4);
  cfg.obs.recorder = true;
  core::Simulation simulation(cfg, lang::programs::fib(5));
  const RunResult r = simulation.run();
  ASSERT_TRUE(r.completed);
  using obs::EventKind;
  using splice::testing::events_of;
  EXPECT_FALSE(events_of(simulation, EventKind::kPlace).empty());
  EXPECT_FALSE(events_of(simulation, EventKind::kSpawn).empty());
  EXPECT_FALSE(events_of(simulation, EventKind::kComplete).empty());
  EXPECT_FALSE(events_of(simulation, EventKind::kCheckpoint).empty());
  // The run is done exactly once, with the right answer.
  EXPECT_EQ(events_of(simulation, EventKind::kDone).size(), 1U);
  EXPECT_EQ(r.answer.as_int(), fib_value(5));
}

TEST(RuntimeBasic, BusyTicksAccountedAndPositive) {
  const RunResult r =
      core::run_once(base_config(), lang::programs::tree_sum(3, 3, 100));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.counters.busy_ticks, 0);
  EXPECT_GT(r.counters.scans, r.counters.tasks_created);  // spawn + resume
}

// ---------------------------------------------------------------------------
// The determinacy matrix: programs x topologies x schedulers.
// ---------------------------------------------------------------------------

struct MatrixCase {
  std::string program_name;
  net::TopologyKind topology;
  SchedulerKind scheduler;
  std::uint32_t processors;
};

class DeterminacyMatrix : public ::testing::TestWithParam<MatrixCase> {};

lang::Program program_by_name(const std::string& name) {
  if (name == "fib") return lang::programs::fib(10, 25);
  if (name == "binomial") return lang::programs::binomial(8, 4, 25);
  if (name == "tree") return lang::programs::tree_sum(3, 3, 60, 15);
  if (name == "mergesort") return lang::programs::mergesort(48);
  if (name == "quicksort") return lang::programs::quicksort(48);
  if (name == "nqueens") return lang::programs::nqueens(5);
  if (name == "figure1") return lang::programs::figure1_tree();
  if (name == "tak") return lang::programs::tak(7, 4, 1);
  if (name == "mapreduce") return lang::programs::map_reduce(200, 12, 3);
  throw std::invalid_argument(name);
}

TEST_P(DeterminacyMatrix, DistributedAnswerEqualsReference) {
  const MatrixCase& c = GetParam();
  SystemConfig cfg = base_config(c.processors);
  cfg.topology = c.topology;
  cfg.scheduler.kind = c.scheduler;
  const lang::Program program = program_by_name(c.program_name);
  const RunResult r = core::run_once(cfg, program);
  ASSERT_TRUE(r.completed) << c.program_name;
  EXPECT_TRUE(r.answer_correct)
      << c.program_name << " on " << net::to_string(c.topology) << "/"
      << core::to_string(c.scheduler) << ": got " << r.answer.to_string();
}

std::string matrix_name(
    const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& c = info.param;
  std::string name = c.program_name + "_" +
                     std::string(net::to_string(c.topology)) + "_" +
                     std::string(core::to_string(c.scheduler)) + "_p" +
                     std::to_string(c.processors);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Programs, DeterminacyMatrix,
    ::testing::Values(
        MatrixCase{"fib", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"binomial", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"tree", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"mergesort", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"quicksort", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"nqueens", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"tak", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"mapreduce", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"figure1", net::TopologyKind::kComplete, SchedulerKind::kPinned, 4}),
    matrix_name);

INSTANTIATE_TEST_SUITE_P(
    Topologies, DeterminacyMatrix,
    ::testing::Values(
        MatrixCase{"fib", net::TopologyKind::kComplete, SchedulerKind::kRandom, 8},
        MatrixCase{"fib", net::TopologyKind::kRing, SchedulerKind::kRandom, 8},
        MatrixCase{"fib", net::TopologyKind::kStar, SchedulerKind::kRandom, 8},
        MatrixCase{"fib", net::TopologyKind::kTorus2D, SchedulerKind::kRandom, 8},
        MatrixCase{"fib", net::TopologyKind::kHypercube, SchedulerKind::kRandom, 8},
        MatrixCase{"fib", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 1},
        MatrixCase{"fib", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 2},
        MatrixCase{"fib", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 32}),
    matrix_name);

INSTANTIATE_TEST_SUITE_P(
    Schedulers, DeterminacyMatrix,
    ::testing::Values(
        MatrixCase{"tree", net::TopologyKind::kTorus2D, SchedulerKind::kRoundRobin, 9},
        MatrixCase{"tree", net::TopologyKind::kTorus2D, SchedulerKind::kLocalFirst, 9},
        MatrixCase{"tree", net::TopologyKind::kTorus2D, SchedulerKind::kGradient, 9},
        MatrixCase{"tree", net::TopologyKind::kTorus2D, SchedulerKind::kPinned, 9},
        MatrixCase{"tree", net::TopologyKind::kTorus2D, SchedulerKind::kNeighbor, 9},
        MatrixCase{"fib", net::TopologyKind::kRing, SchedulerKind::kGradient, 6},
        MatrixCase{"fib", net::TopologyKind::kHypercube, SchedulerKind::kNeighbor, 16}),
    matrix_name);

// A message lost to a live, reachable peer is re-sent after a backoff from
// a recycled per-processor slot. The slot belongs to the incarnation that
// parked it: if the sender crashes and revives before the backoff fires,
// the revived node must not send its previous life's message, and the slot
// must come back for reuse.
TEST(RuntimeBasic, ParkedRetransmitDiesWithItsIncarnation) {
  SystemConfig cfg = base_config(2);
  cfg.heartbeat_interval = 0;
  const lang::Program program = lang::programs::fib(3);
  sim::Simulator simulator;
  net::Network network(simulator, net::Topology(cfg.topology, 2),
                       cfg.latency);
  runtime::Runtime rt(simulator, network, cfg, program);
  runtime::Processor& sender = rt.processor(0);
  runtime::Processor& peer = rt.processor(1);
  const std::int64_t timeout = cfg.latency.failure_timeout;
  const auto control_sent = [&] {
    return network.stats()
        .sent[static_cast<std::size_t>(net::MsgKind::kControl)];
  };

  // Lose one kControl to a peer that is down at delivery but repaired
  // before the bounce notice reaches the sender: a wire loss, so the
  // sender parks the message for a retransmit.
  const auto lose_one_message = [&](std::int64_t at) {
    simulator.at(sim::SimTime(at), [&] {
      network.kill(1);
      peer.nuke();
      net::Envelope env;
      env.kind = net::MsgKind::kControl;
      env.from = 0;
      env.to = 1;
      env.payload = runtime::ControlMsg{runtime::ControlKind::kStartRoot};
      network.send(std::move(env));
    });
    simulator.at(sim::SimTime(at + 100), [&] {
      network.revive(1);
      peer.revive();
    });
  };

  lose_one_message(0);
  simulator.run_until(sim::SimTime(timeout + 200));
  ASSERT_EQ(sender.parked_retransmits(), 1U);
  EXPECT_EQ(sender.parked_slots(), 1U);

  // Crash and revive the sender inside the backoff window.
  network.kill(0);
  sender.nuke();
  simulator.run_until(sim::SimTime(timeout + 300));
  network.revive(0);
  sender.revive();
  simulator.run_until(sim::SimTime(10 * timeout));
  EXPECT_EQ(sender.parked_retransmits(), 0U);  // the event freed its slot
  EXPECT_EQ(sender.counters().bounce_retransmits, 0U);
  EXPECT_EQ(control_sent(), 1U);  // only the original send

  // The revived incarnation's own loss reuses the slot and is re-sent.
  lose_one_message(20 * timeout);
  simulator.run_until(sim::SimTime(21 * timeout + 200));
  EXPECT_EQ(sender.parked_retransmits(), 1U);
  EXPECT_EQ(sender.parked_slots(), 1U);
  simulator.run_until(sim::SimTime(30 * timeout));
  EXPECT_EQ(sender.parked_retransmits(), 0U);
  EXPECT_EQ(sender.counters().bounce_retransmits, 1U);
  EXPECT_EQ(control_sent(), 3U);
}

// A machine whose `side` is cut off from the other processors from t = 0
// until kHeal, when the runtime reconciles the cut as the fault injector
// would. Protocol messages are sent by hand, so every bounce is one the
// test put there.
struct CutMachine {
  static constexpr std::int64_t kHeal = 20000;

  CutMachine(std::uint32_t procs, std::vector<net::ProcId> cut_side,
             RecoveryKind recovery = RecoveryKind::kSplice)
      : cfg(config(procs, recovery)),
        network(simulator, net::Topology(cfg.topology, procs), cfg.latency),
        rt(simulator, network, cfg, program),
        side(std::move(cut_side)) {
    auto faults = std::make_unique<net::LinkFaultModel>(cfg.seed, procs);
    cuts = faults.get();
    network.set_link_faults(std::move(faults));
    add_cut(side, kHeal);
  }

  static SystemConfig config(std::uint32_t procs, RecoveryKind recovery) {
    SystemConfig out = base_config(procs);
    out.recovery.kind = recovery;
    return out;
  }

  /// Cut `cut_side` off from t = 0 until `heal`, then reconcile it.
  void add_cut(std::vector<net::ProcId> cut_side, std::int64_t heal) {
    cuts->add_partition(cut_side, sim::SimTime(0), sim::SimTime(heal));
    simulator.at(sim::SimTime(heal), [this, cut_side = std::move(cut_side)] {
      rt.on_partition_heal(cut_side);
    });
  }

  void send(net::MsgKind kind, net::ProcId from, net::ProcId to,
            net::Payload payload) {
    net::Envelope env;
    env.kind = kind;
    env.from = from;
    env.to = to;
    env.payload = std::move(payload);
    network.send(std::move(env));
  }
  void kill(net::ProcId p) {
    network.kill(p);
    rt.on_kill(p);
  }
  [[nodiscard]] std::uint64_t sent(net::MsgKind kind) const {
    return network.stats().sent[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t delivered(net::MsgKind kind) const {
    return network.stats().delivered[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t units(net::MsgKind kind) const {
    return network.stats().units[static_cast<std::size_t>(kind)];
  }

  SystemConfig cfg;
  lang::Program program = lang::programs::fib(3);
  sim::Simulator simulator;
  net::Network network;
  runtime::Runtime rt;
  std::vector<net::ProcId> side;
  net::LinkFaultModel* cuts = nullptr;  // owned by `network`
};

// §1: an unreachable node is considered faulty, and re-sending into the cut
// would only bounce again. A bounced cancel or control message stays with
// its sender while the cut stands and goes out exactly once at the heal.
TEST(RuntimeBasic, MessageBouncedByACutIsHeldUntilTheHeal) {
  CutMachine m(2, {1});
  runtime::Processor& sender = m.rt.processor(0);
  runtime::CancelMsg cancel;
  cancel.stamp = runtime::LevelStamp::root().child(1);
  const runtime::LevelStamp stamp = cancel.stamp;
  m.send(net::MsgKind::kCancel, 0, 1, std::move(cancel));
  m.send(net::MsgKind::kControl, 0, 1,
         runtime::ControlMsg{runtime::ControlKind::kStartRoot});

  m.simulator.run_until(sim::SimTime(CutMachine::kHeal - 1));
  EXPECT_TRUE(sender.knows_dead(1));  // the cut was detected as a fault
  EXPECT_EQ(sender.held_messages(), 2U);
  EXPECT_EQ(sender.counters().cancel_retries, 0U);
  EXPECT_EQ(sender.counters().bounce_retransmits, 0U);
  EXPECT_EQ(m.network.stats().partition_cut, 2U);  // only the originals
  // The gc oracle excuses a duplicate whose cancel waits at the cut.
  EXPECT_TRUE(sender.cancel_backoff_pending(stamp));
  EXPECT_TRUE(m.rt.cancel_backoff_pending(stamp));

  m.simulator.run_until(sim::SimTime(2 * CutMachine::kHeal));
  EXPECT_FALSE(sender.knows_dead(1));  // the heal reconciled the verdict
  EXPECT_EQ(sender.held_messages(), 0U);
  EXPECT_FALSE(m.rt.cancel_backoff_pending(stamp));
  EXPECT_EQ(sender.counters().cancel_retries, 1U);
  EXPECT_EQ(sender.counters().bounce_retransmits, 1U);
  EXPECT_EQ(sender.counters().held_released, 2U);
  EXPECT_EQ(m.sent(net::MsgKind::kCancel), 2U);
  EXPECT_EQ(m.sent(net::MsgKind::kControl), 2U);
  EXPECT_EQ(m.delivered(net::MsgKind::kCancel), 1U);
  EXPECT_EQ(m.delivered(net::MsgKind::kControl), 1U);
  EXPECT_EQ(m.network.stats().partition_cut, 2U);
}

// Two cuts overlap: {1, 2} heals first, {2} later. At the first heal the
// message held for P1 goes out, while the one held for P2 stays held because
// the second cut still separates P0 from P2; it goes out once at that heal.
TEST(RuntimeBasic, HeldMessageWaitsForTheLastCutBetweenItsEnds) {
  CutMachine m(3, {1, 2});
  m.add_cut({2}, 2 * CutMachine::kHeal);
  runtime::Processor& sender = m.rt.processor(0);
  for (const net::ProcId to : {1U, 2U}) {
    m.send(net::MsgKind::kControl, 0, to,
           runtime::ControlMsg{runtime::ControlKind::kStartRoot});
  }
  m.simulator.run_until(sim::SimTime(CutMachine::kHeal - 1));
  EXPECT_EQ(m.sent(net::MsgKind::kControl), 2U);
  EXPECT_EQ(m.delivered(net::MsgKind::kControl), 0U);

  m.simulator.run_until(sim::SimTime(2 * CutMachine::kHeal - 1));
  EXPECT_EQ(m.sent(net::MsgKind::kControl), 3U);
  EXPECT_EQ(m.delivered(net::MsgKind::kControl), 1U);
  // Still held for P2: the control and P0's first notice to P2.
  EXPECT_EQ(sender.held_messages(), 2U);

  m.simulator.run_until(sim::SimTime(3 * CutMachine::kHeal));
  EXPECT_EQ(m.sent(net::MsgKind::kControl), 4U);
  EXPECT_EQ(m.delivered(net::MsgKind::kControl), 2U);
  EXPECT_EQ(sender.held_messages(), 0U);
}

// The same two cuts: the first heal reconciles P0's suspicion of P1, but
// P2 is still behind the second cut, so P0 keeps believing it dead (§1:
// unreachable is faulty) until that cut heals too.
TEST(RuntimeBasic, HealKeepsASuspicionAnotherCutStillJustifies) {
  CutMachine m(3, {1, 2});
  m.add_cut({2}, 2 * CutMachine::kHeal);
  runtime::Processor& p0 = m.rt.processor(0);
  for (const net::ProcId to : {1U, 2U}) {
    m.send(net::MsgKind::kControl, 0, to,
           runtime::ControlMsg{runtime::ControlKind::kStartRoot});
  }
  m.simulator.run_until(sim::SimTime(CutMachine::kHeal - 1));
  ASSERT_TRUE(p0.knows_dead(1));
  ASSERT_TRUE(p0.knows_dead(2));

  m.simulator.run_until(sim::SimTime(CutMachine::kHeal));
  EXPECT_FALSE(p0.knows_dead(1));
  EXPECT_TRUE(p0.knows_dead(2));
  m.simulator.run_until(sim::SimTime(2 * CutMachine::kHeal - 1));
  EXPECT_TRUE(p0.knows_dead(2));

  m.simulator.run_until(sim::SimTime(2 * CutMachine::kHeal));
  EXPECT_FALSE(p0.knows_dead(1));
  EXPECT_FALSE(p0.knows_dead(2));
}

// The same two cuts, with P2's send to P1 bounced by the second one: the
// first heal clears P0's suspicion of P1 but not P2's, so the heal leaves
// P1's once-per-death detection spent. A real death of P1 before the second
// heal still fires the global-failure hook once, because the crash itself
// re-arms it; so does a death after the second heal, which clears P2's
// suspicion. Periodic-global recovery makes the hook visible, as one restore
// per firing.
TEST(RuntimeBasic, HealReArmsDetectionOnceNoLivePeerSuspects) {
  const auto restores = [](runtime::Runtime& rt) {
    core::Counters counters;
    rt.policy().contribute(counters);
    return counters.restores;
  };
  const auto restores_after_death_at = [&](std::int64_t death) {
    CutMachine m(3, {1, 2}, RecoveryKind::kPeriodicGlobal);
    m.add_cut({2}, 2 * CutMachine::kHeal);
    for (const net::ProcId from : {0U, 2U}) {
      m.send(net::MsgKind::kControl, from, 1,
             runtime::ControlMsg{runtime::ControlKind::kStartRoot});
    }
    m.simulator.run_until(sim::SimTime(CutMachine::kHeal));
    EXPECT_FALSE(m.rt.processor(0).knows_dead(1));
    EXPECT_TRUE(m.rt.processor(2).knows_dead(1));

    m.simulator.run_until(sim::SimTime(death));
    const std::uint64_t before = restores(m.rt);
    m.kill(1);
    m.send(net::MsgKind::kControl, 0, 1,
           runtime::ControlMsg{runtime::ControlKind::kStartRoot});
    m.simulator.run_until(sim::SimTime(death + CutMachine::kHeal / 4));
    EXPECT_TRUE(m.rt.processor(0).knows_dead(1));
    return restores(m.rt) - before;
  };
  EXPECT_EQ(restores_after_death_at(CutMachine::kHeal * 5 / 4), 1U);
  EXPECT_EQ(restores_after_death_at(CutMachine::kHeal * 9 / 4), 1U);
}

// Reissue sweeps (the warm-rejoin pre-link grace, eager splice) visit a
// processor's tasks through for_each_task, so its order decides the order
// of their respawns. It is ascending uid, whatever the task map's bucket
// order: the visit must equal the acceptance order exactly, and survive a
// task leaving the map in the middle.
TEST(RuntimeBasic, ForEachTaskVisitsTasksInUidOrder) {
  SystemConfig cfg = base_config(2);
  const lang::Program program = lang::programs::fib(3);
  sim::Simulator simulator;
  net::Network network(simulator, net::Topology(cfg.topology, cfg.processors),
                       cfg.latency);
  runtime::Runtime rt(simulator, network, cfg, program);
  runtime::Processor& proc = rt.processor(0);
  proc.freeze();  // no scan runs: the tasks stay exactly as accepted
  std::vector<runtime::TaskUid> accepted;
  for (runtime::StampDigit site = 1; site <= 64; ++site) {
    runtime::TaskPacket packet;
    packet.stamp = runtime::LevelStamp::root().child(site);
    packet.ancestors.push_back(runtime::TaskRef{1, 100});
    accepted.push_back(proc.accept_packet(std::move(packet)));
  }
  ASSERT_TRUE(std::is_sorted(accepted.begin(), accepted.end()));
  std::vector<runtime::TaskUid> visited;
  proc.for_each_task(
      [&](runtime::Task& task) { visited.push_back(task.uid()); });
  EXPECT_EQ(visited, accepted);

  // A task cancelled by the visit of an earlier one is skipped.
  visited.clear();
  proc.for_each_task([&](runtime::Task& task) {
    visited.push_back(task.uid());
    if (task.uid() == accepted[10]) proc.cancel_task(accepted[20]);
  });
  std::vector<runtime::TaskUid> expected = accepted;
  expected.erase(expected.begin() + 20);
  EXPECT_EQ(visited, expected);
}

// Periodic-global restores queue first scans in snapshot order, so the
// snapshot must list tasks by uid, not in the task map's layout.
TEST(RuntimeBasic, SnapshotListsTasksInUidOrder) {
  SystemConfig cfg = base_config(2);
  const lang::Program program = lang::programs::fib(3);
  sim::Simulator simulator;
  net::Network network(simulator, net::Topology(cfg.topology, cfg.processors),
                       cfg.latency);
  runtime::Runtime rt(simulator, network, cfg, program);
  runtime::Processor& proc = rt.processor(0);
  proc.freeze();
  std::vector<runtime::TaskUid> accepted;
  for (runtime::StampDigit site = 1; site <= 64; ++site) {
    runtime::TaskPacket packet;
    packet.stamp = runtime::LevelStamp::root().child(site);
    packet.ancestors.push_back(runtime::TaskRef{1, 100});
    accepted.push_back(proc.accept_packet(std::move(packet)));
  }
  std::vector<runtime::TaskUid> snapshotted;
  for (const runtime::Task& task : proc.snapshot_tasks()) {
    snapshotted.push_back(task.uid());
  }
  EXPECT_EQ(snapshotted, accepted);
}

// The processors of one shard draw their tasks from one pool (the classic
// loop is one shard): a slot freed on one processor is the next another
// takes, and a crash returns exactly the crashed processor's tasks while
// the others' stay resident.
TEST(RuntimeBasic, ProcessorsOfAShardShareOneTaskPool) {
  SystemConfig cfg = base_config(4);
  const lang::Program program = lang::programs::fib(3);
  sim::Simulator simulator;
  net::Network network(simulator, net::Topology(cfg.topology, cfg.processors),
                       cfg.latency);
  runtime::Runtime rt(simulator, network, cfg, program);
  util::SlabPool<runtime::Task>& pool = rt.task_pool(0);
  for (net::ProcId p = 0; p < cfg.processors; ++p) {
    EXPECT_EQ(&rt.task_pool(p), &pool);
    rt.processor(p).freeze();
  }
  const auto accept = [&](net::ProcId p, runtime::StampDigit site) {
    runtime::TaskPacket packet;
    packet.stamp = runtime::LevelStamp::root().child(site);
    packet.ancestors.push_back(runtime::TaskRef{1, 100});
    return rt.processor(p).accept_packet(std::move(packet));
  };

  const runtime::TaskUid first = accept(0, 1);
  const runtime::Task* slot = rt.processor(0).find_task(first);
  ASSERT_NE(slot, nullptr);
  rt.processor(0).cancel_task(first);
  EXPECT_EQ(pool.live(), 0U);
  const runtime::TaskUid reused = accept(2, 1);
  EXPECT_EQ(rt.processor(2).find_task(reused), slot);

  std::vector<runtime::TaskUid> survivors;
  for (runtime::StampDigit site = 2; site <= 31; ++site) accept(0, site);
  for (runtime::StampDigit site = 2; site <= 21; ++site) {
    survivors.push_back(accept(1, site));
  }
  ASSERT_EQ(pool.live(), 51U);
  const std::uint64_t crashed = rt.processor(0).live_task_count();
  ASSERT_EQ(crashed, 30U);
  rt.processor(0).nuke();
  EXPECT_EQ(pool.live(), 51U - crashed);
  EXPECT_EQ(rt.processor(0).live_task_count(), 0U);
  EXPECT_EQ(rt.processor(1).live_task_count(), 20U);
  EXPECT_EQ(rt.processor(2).live_task_count(), 1U);
  for (const runtime::TaskUid uid : survivors) {
    EXPECT_NE(rt.processor(1).find_task(uid), nullptr) << "uid " << uid;
  }
}

TEST(RuntimeBasic, HeldMessageToAPeerThatCrashedIsDropped) {
  CutMachine m(2, {1});
  runtime::Processor& sender = m.rt.processor(0);
  m.send(net::MsgKind::kControl, 0, 1,
         runtime::ControlMsg{runtime::ControlKind::kStartRoot});
  m.simulator.run_until(sim::SimTime(CutMachine::kHeal / 2));
  ASSERT_EQ(sender.held_messages(), 1U);

  m.kill(1);
  m.simulator.run_until(sim::SimTime(2 * CutMachine::kHeal));
  EXPECT_EQ(sender.held_messages(), 0U);
  EXPECT_EQ(sender.counters().held_released, 0U);
  EXPECT_EQ(sender.counters().bounce_retransmits, 0U);
  EXPECT_EQ(m.sent(net::MsgKind::kControl), 1U);
}

// What a node held belongs to its incarnation: a sender that crashes and is
// repaired before the heal must not send its previous life's messages.
TEST(RuntimeBasic, HeldMessagesDieWithTheSender) {
  CutMachine m(2, {1});
  runtime::Processor& sender = m.rt.processor(0);
  m.send(net::MsgKind::kControl, 0, 1,
         runtime::ControlMsg{runtime::ControlKind::kStartRoot});
  m.simulator.run_until(sim::SimTime(CutMachine::kHeal / 2));
  ASSERT_EQ(sender.held_messages(), 1U);

  m.kill(0);
  EXPECT_EQ(sender.held_messages(), 0U);
  m.network.revive(0);
  sender.revive();
  m.simulator.run_until(sim::SimTime(2 * CutMachine::kHeal));
  EXPECT_EQ(m.sent(net::MsgKind::kControl), 1U);
  EXPECT_EQ(m.delivered(net::MsgKind::kControl), 0U);
  // The revived node's own rejoin notice bounced off the cut too; it is
  // this life's message, held and sent at the heal.
  EXPECT_EQ(m.delivered(net::MsgKind::kRejoinNotice), 1U);
}

// P1 crashes; P0 detects it and broadcasts the death to P2 and P3 across a
// cut. Those notices bounce at one tick, so P0 accuses P2 and P3 together
// in one round, whose copies (P2 hears of P3, P3 of P2) bounce in turn. At
// the heal P0 relearns P2 and P3 alive: its accusations of them are
// dropped, while the news of P1's real death still reaches both.
TEST(RuntimeBasic, HeldAccusationWithdrawnAtTheHealIsDropped) {
  CutMachine m(4, {2, 3});
  runtime::Processor& detector = m.rt.processor(0);
  m.kill(1);
  m.send(net::MsgKind::kControl, 0, 1,
         runtime::ControlMsg{runtime::ControlKind::kStartRoot});
  m.simulator.run_until(sim::SimTime(CutMachine::kHeal - 1));
  EXPECT_TRUE(detector.knows_dead(1));
  EXPECT_TRUE(detector.knows_dead(2));
  EXPECT_TRUE(detector.knows_dead(3));
  EXPECT_EQ(detector.counters().error_broadcasts, 2U);
  ASSERT_EQ(detector.held_messages(), 4U);
  EXPECT_EQ(m.sent(net::MsgKind::kErrorDetection), 4U);

  m.simulator.run_until(sim::SimTime(2 * CutMachine::kHeal));
  EXPECT_EQ(detector.held_messages(), 0U);
  EXPECT_EQ(detector.counters().held_released, 2U);
  EXPECT_EQ(m.sent(net::MsgKind::kErrorDetection), 6U);
  EXPECT_EQ(m.delivered(net::MsgKind::kErrorDetection), 2U);
  for (const net::ProcId p : {2U, 3U}) {
    EXPECT_FALSE(detector.knows_dead(p));
    EXPECT_TRUE(m.rt.processor(p).knows_dead(1));
    EXPECT_FALSE(m.rt.processor(p).knows_dead(5 - p));
  }
}

// P1 crashes. P0's notice of it reaches P2 and P3 and crosses a cut to the
// side {4, 5, 6}, which crashes while the notice is on its way: all three
// copies bounce at one tick. P0 then announces the three deaths in one
// notice per live peer, in detection order, instead of one per death.
TEST(RuntimeBasic, DeathsDetectedAtOneTickShareOneNotice) {
  CutMachine m(7, {4, 5, 6});
  m.rt.recorder().configure(true, 1024);
  runtime::Processor& detector = m.rt.processor(0);
  m.kill(1);
  m.send(net::MsgKind::kControl, 0, 1,
         runtime::ControlMsg{runtime::ControlKind::kStartRoot});
  const std::int64_t timeout = m.cfg.latency.failure_timeout;
  m.simulator.run_until(sim::SimTime(timeout + timeout / 2));
  ASSERT_TRUE(detector.knows_dead(1));
  ASSERT_EQ(m.sent(net::MsgKind::kErrorDetection), 5U);  // P2..P6
  for (const net::ProcId p : {4U, 5U, 6U}) m.kill(p);

  m.simulator.run_until(sim::SimTime(CutMachine::kHeal - 1));
  EXPECT_EQ(detector.counters().error_broadcasts, 2U);
  EXPECT_EQ(m.sent(net::MsgKind::kErrorDetection), 7U);  // + one each P2, P3
  EXPECT_EQ(m.units(net::MsgKind::kErrorDetection), 5U + 2U * 3U);
  EXPECT_EQ(m.delivered(net::MsgKind::kErrorDetection), 4U);
  for (const net::ProcId peer : {2U, 3U}) {
    std::vector<net::ProcId> learned;
    m.rt.recorder().for_each([&](const obs::Event& event) {
      if (event.kind == obs::EventKind::kDetect && event.proc == peer) {
        learned.push_back(event.peer);
      }
    });
    EXPECT_EQ(learned, (std::vector<net::ProcId>{1, 4, 5, 6}));
  }
}

// P1 has crashed and P3 sits behind a cut with P2. P0 learns both P1's
// death and (falsely) P2's at one tick; the round's copies, {1, 2} for P3
// and {1} for P2, bounce off the cut. At the heal P0 relearns P2 and P3
// alive, so P3's copy goes out as {1}, P2's as it was, and the accusation
// of P3 that P0 made meanwhile, held for P2, is dropped. Both learn of P1.
TEST(RuntimeBasic, HeldNoticeKeepsOnlyTheDeathsStillBelieved) {
  CutMachine m(4, {2, 3});
  runtime::Processor& detector = m.rt.processor(0);
  m.kill(1);
  const auto start_root = [&m](net::ProcId to) {
    m.send(net::MsgKind::kControl, 0, to,
           runtime::ControlMsg{runtime::ControlKind::kStartRoot});
  };
  // A message to a dead node bounces a timeout after it arrives; one into
  // the cut, a timeout after it is sent. Send the second when the first
  // arrives, so both bounce at one tick.
  start_root(1);
  const sim::SimTime arrival =
      m.cfg.latency.latency(m.network.topology().hops(0, 1), 1);
  m.simulator.at(arrival, [&start_root] { start_root(2); });
  m.simulator.run_until(sim::SimTime(CutMachine::kHeal - 1));
  EXPECT_TRUE(detector.knows_dead(3));
  EXPECT_EQ(detector.counters().error_broadcasts, 2U);  // {1, 2} then {3}
  ASSERT_EQ(detector.held_messages(), 4U);  // control to P2, three copies
  EXPECT_EQ(m.sent(net::MsgKind::kErrorDetection), 3U);
  EXPECT_EQ(m.units(net::MsgKind::kErrorDetection), 4U);

  m.simulator.run_until(sim::SimTime(2 * CutMachine::kHeal));
  EXPECT_EQ(detector.held_messages(), 0U);
  EXPECT_EQ(detector.counters().held_released, 3U);
  EXPECT_EQ(m.sent(net::MsgKind::kErrorDetection), 5U);
  EXPECT_EQ(m.units(net::MsgKind::kErrorDetection), 6U);  // each lists 1
  EXPECT_EQ(m.delivered(net::MsgKind::kErrorDetection), 2U);
  for (const net::ProcId p : {2U, 3U}) {
    EXPECT_TRUE(m.rt.processor(p).knows_dead(1));
    EXPECT_FALSE(m.rt.processor(p).knows_dead(5 - p));
  }
}

// The notice leaves in a round at the end of the detection tick, after the
// detector's own recovery ran. A detector that crashes within that tick,
// before its round, announces nothing, as if it had crashed just before it
// detected: its pending deaths end with its incarnation, and the others
// are left to detect the death themselves.
TEST(RuntimeBasic, DetectorCrashedBeforeItsRoundAnnouncesNothing) {
  CutMachine m(4, {3});
  m.rt.recorder().configure(true, 1024);
  runtime::Processor& detector = m.rt.processor(0);
  m.kill(1);
  m.send(net::MsgKind::kControl, 0, 1,
         runtime::ControlMsg{runtime::ControlKind::kStartRoot});
  // The control message bounces a timeout after it arrives. A kill posted
  // on arrival lands in the bounce's tick after the bounce, before the
  // round the detection schedules.
  const sim::SimTime arrival =
      m.cfg.latency.latency(m.network.topology().hops(0, 1), 1);
  const sim::SimTime bounce =
      arrival + sim::SimTime(m.cfg.latency.failure_timeout);
  m.simulator.at(arrival, [&m, bounce] {
    m.simulator.at(bounce, [&m] { m.kill(0); });
  });
  m.simulator.run_until(bounce + sim::SimTime(1));
  ASSERT_TRUE(detector.crashed());
  bool detected = false;
  m.rt.recorder().for_each([&](const obs::Event& event) {
    detected |= event.kind == obs::EventKind::kDetect && event.proc == 0 &&
                event.peer == 1 && event.ticks == bounce.ticks();
  });
  EXPECT_TRUE(detected);
  EXPECT_EQ(detector.counters().error_broadcasts, 0U);
  EXPECT_EQ(m.sent(net::MsgKind::kErrorDetection), 0U);
  EXPECT_FALSE(m.rt.processor(2).knows_dead(1));
}

}  // namespace
}  // namespace splice
