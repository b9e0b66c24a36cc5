// Unit tests for Task: the demand-driven scan (DEMAND_IT detection, lazy
// conditionals, suspension), call-slot mechanics (voting, prefill,
// duplicate suppression), and state accounting — §4.1's case machinery in
// isolation from the network.
#include <gtest/gtest.h>

#include <tuple>

#include "lang/program.h"
#include "lang/programs.h"
#include "runtime/task.h"

namespace splice::runtime {
namespace {

using lang::FunctionBuilder;
using lang::Program;
using lang::Value;

TaskPacket packet_for(const Program& p, std::vector<Value> args = {}) {
  TaskPacket packet;
  packet.stamp = LevelStamp::root();
  packet.fn = p.entry();
  const std::vector<Value>& chosen = args.empty() ? p.entry_args() : args;
  packet.args = TaskPacket::Args(chosen.begin(), chosen.end());
  packet.ancestors.push_back(TaskRef{net::kNoProc, 1});
  return packet;
}

// f() = 1 + 2: no calls, completes on the first scan.
TEST(TaskScan, PureBodyCompletesImmediately) {
  Program p;
  FunctionBuilder b("f", 0);
  const auto root = b.add(b.constant(1), b.constant(2));
  std::ignore = p.add_function(std::move(b).build(root));
  p.set_entry(0, {});
  Task task(10, packet_for(p), sim::SimTime(0));
  const ScanOutcome out = task.scan(p);
  ASSERT_TRUE(out.result.has_value());
  EXPECT_EQ(out.result->as_int(), 3);
  EXPECT_TRUE(out.spawns.empty());
  EXPECT_GT(out.cost, 0U);
}

// g(n) = leaf(n-1) + leaf(n-2): both calls must be demanded in ONE scan
// (maximal parallelism), then the task suspends.
Program two_call_program() {
  Program p;
  {
    FunctionBuilder leaf("leaf", 1);
    const auto root = leaf.add(leaf.arg(0), leaf.constant(100));
    std::ignore = p.add_function(std::move(leaf).build(root));
  }
  {
    FunctionBuilder g("g", 1);
    const auto c1 = g.call(0, {g.sub(g.arg(0), g.constant(1))});
    const auto c2 = g.call(0, {g.sub(g.arg(0), g.constant(2))});
    const auto root = g.add(c1, c2);
    std::ignore = p.add_function(std::move(g).build(root));
  }
  p.set_entry(1, {Value::integer(10)});
  return p;
}

TEST(TaskScan, DemandsAllReadyCallsInOneScan) {
  const Program p = two_call_program();
  Task task(11, packet_for(p), sim::SimTime(0));
  const ScanOutcome out = task.scan(p);
  EXPECT_FALSE(out.result.has_value());
  ASSERT_EQ(out.spawns.size(), 2U);
  EXPECT_EQ(out.spawns[0].args[0].as_int(), 9);
  EXPECT_EQ(out.spawns[1].args[0].as_int(), 8);
}

TEST(TaskScan, RescanDoesNotRedemandSpawnedSlots) {
  const Program p = two_call_program();
  Task task(12, packet_for(p), sim::SimTime(0));
  ScanOutcome first = task.scan(p);
  for (const SpawnRequest& req : first.spawns) {
    task.note_spawned(req.site, req.fn, req.args);
  }
  const ScanOutcome second = task.scan(p);
  EXPECT_TRUE(second.spawns.empty());
  EXPECT_FALSE(second.result.has_value());
  EXPECT_EQ(task.outstanding_children(), 2U);
}

TEST(TaskScan, CompletesWhenAllSlotsResolve) {
  const Program p = two_call_program();
  Task task(13, packet_for(p), sim::SimTime(0));
  ScanOutcome first = task.scan(p);
  for (const SpawnRequest& req : first.spawns) {
    task.note_spawned(req.site, req.fn, req.args);
    EXPECT_TRUE(
        task.deliver_result(req.site, Value::integer(50), /*quorum=*/1));
  }
  const ScanOutcome done = task.scan(p);
  ASSERT_TRUE(done.result.has_value());
  EXPECT_EQ(done.result->as_int(), 100);
  EXPECT_EQ(task.outstanding_children(), 0U);
}

// h(n) = n < 2 ? n : h(n-1): the untaken branch must not spawn.
TEST(TaskScan, LazyConditionalSpawnsOnlyTakenBranch) {
  Program p;
  FunctionBuilder b("h", 1);
  const auto cond = b.lt(b.arg(0), b.constant(2));
  const auto rec = b.call(0, {b.sub(b.arg(0), b.constant(1))});
  const auto root = b.iff(cond, b.arg(0), rec);
  std::ignore = p.add_function(std::move(b).build(root));
  p.set_entry(0, {Value::integer(0)});

  Task base_case(14, packet_for(p, {Value::integer(1)}), sim::SimTime(0));
  const ScanOutcome base = base_case.scan(p);
  ASSERT_TRUE(base.result.has_value());
  EXPECT_EQ(base.result->as_int(), 1);
  EXPECT_TRUE(base.spawns.empty());

  Task rec_case(15, packet_for(p, {Value::integer(5)}), sim::SimTime(0));
  const ScanOutcome rec_out = rec_case.scan(p);
  EXPECT_FALSE(rec_out.result.has_value());
  EXPECT_EQ(rec_out.spawns.size(), 1U);
}

// Nested calls: outer(inner(x)) — inner spawns first; outer only when
// inner's slot resolves.
TEST(TaskScan, NestedCallsSpawnInDependencyOrder) {
  Program p;
  {
    FunctionBuilder f("id", 1);
    const auto root = f.arg(0);
    std::ignore = p.add_function(std::move(f).build(root));
  }
  {
    FunctionBuilder g("outer", 1);
    const auto inner = g.call(0, {g.arg(0)});
    const auto outer = g.call(0, {inner});
    std::ignore = p.add_function(std::move(g).build(outer));
  }
  p.set_entry(1, {Value::integer(7)});
  Task task(16, packet_for(p), sim::SimTime(0));

  ScanOutcome first = task.scan(p);
  ASSERT_EQ(first.spawns.size(), 1U);  // only the inner call is ready
  const auto inner_site = first.spawns[0].site;
  task.note_spawned(inner_site, first.spawns[0].fn, first.spawns[0].args);
  EXPECT_TRUE(task.deliver_result(inner_site, Value::integer(7), 1));

  ScanOutcome second = task.scan(p);
  ASSERT_EQ(second.spawns.size(), 1U);  // now the outer call is ready
  EXPECT_NE(second.spawns[0].site, inner_site);
  EXPECT_EQ(second.spawns[0].args[0].as_int(), 7);
}

// ---------------------------------------------------------------------------
// Slot mechanics
// ---------------------------------------------------------------------------

TEST(TaskSlots, QuorumVoting) {
  const Program p = two_call_program();
  Task task(17, packet_for(p), sim::SimTime(0));
  task.note_spawned(3, /*fn=*/0, {});
  // Majority of 3: two identical votes required (§5.3).
  EXPECT_FALSE(task.deliver_result(3, Value::integer(9), /*quorum=*/2));
  EXPECT_FALSE(task.slot(3).resolved);
  EXPECT_TRUE(task.deliver_result(3, Value::integer(9), 2));
  EXPECT_TRUE(task.slot(3).resolved);
  // Third (late) replica: ignored.
  EXPECT_FALSE(task.deliver_result(3, Value::integer(9), 2));
}

TEST(TaskSlots, DuplicateResultIgnored) {
  const Program p = two_call_program();
  Task task(18, packet_for(p), sim::SimTime(0));
  task.note_spawned(5, /*fn=*/0, {});
  EXPECT_TRUE(task.deliver_result(5, Value::integer(1), 1));
  EXPECT_FALSE(task.deliver_result(5, Value::integer(1), 1));  // case 6/7
}

TEST(TaskSlots, PrefillMakesTwinSkipSpawn) {
  // Case 4 (§4.1): the orphan result arrives before the twin's first scan;
  // "P' will not spawn C' because the answer is already there."
  const Program p = two_call_program();
  Task twin(19, packet_for(p), sim::SimTime(0));
  // Site ids for g's two calls are the Call nodes' ExprIds; discover them
  // via a probe task.
  Task probe(20, packet_for(p), sim::SimTime(0));
  const ScanOutcome probe_out = probe.scan(p);
  ASSERT_EQ(probe_out.spawns.size(), 2U);
  const auto site_a = probe_out.spawns[0].site;

  twin.prefill(site_a, Value::integer(109));
  const ScanOutcome out = twin.scan(p);
  ASSERT_EQ(out.spawns.size(), 1U);  // only the unfilled slot spawns
  EXPECT_NE(out.spawns[0].site, site_a);
}

TEST(TaskSlots, PrefillDoesNotOverwrite) {
  const Program p = two_call_program();
  Task task(21, packet_for(p), sim::SimTime(0));
  task.prefill(4, Value::integer(1));
  task.prefill(4, Value::integer(2));
  EXPECT_EQ(task.slot(4).result.as_int(), 1);
}

TEST(TaskSlots, AckRecordsChildPointerPerReplica) {
  const Program p = two_call_program();
  Task task(22, packet_for(p), sim::SimTime(0));
  task.note_spawned(6, /*fn=*/0, {});
  EXPECT_TRUE(task.note_ack(6, TaskRef{3, 77}, /*replica=*/0, /*lineage=*/0));
  EXPECT_TRUE(task.note_ack(6, TaskRef{5, 78}, /*replica=*/2, /*lineage=*/0));
  const CallSlot& slot = task.slot(6);
  ASSERT_EQ(slot.children.size(), 3U);
  EXPECT_EQ(slot.children[0].proc, 3U);
  EXPECT_EQ(slot.children[1].proc, net::kNoProc);
  EXPECT_FALSE(slot.children[1].acked());
  EXPECT_EQ(slot.children[2].proc, 5U);
  EXPECT_EQ(slot.children[2].uid, 78U);
}

TEST(TaskSlots, StaleLineageAckIsDropped) {
  const Program p = two_call_program();
  Task task(24, packet_for(p), sim::SimTime(0));
  task.note_spawned(6, /*fn=*/0, {});
  // The slot was respawned once: generation-0 acks are from the superseded
  // (cancelled) instance and must not overwrite the twin's pointer.
  task.slot(6).respawns = 1;
  EXPECT_TRUE(task.note_ack(6, TaskRef{4, 90}, /*replica=*/0, /*lineage=*/1));
  EXPECT_FALSE(task.note_ack(6, TaskRef{3, 77}, /*replica=*/0, /*lineage=*/0));
  const CallSlot& slot = task.slot(6);
  EXPECT_EQ(slot.children[0].proc, 4U);
  EXPECT_EQ(slot.children[0].uid, 90U);
}

TEST(TaskSlots, StateUnitsGrowWithRetainedState) {
  const Program p = two_call_program();
  Task task(23, packet_for(p), sim::SimTime(0));
  const auto before = task.state_units(/*ancestor_depth=*/2);
  task.note_spawned(2, /*fn=*/0,
                    {Value::list(std::vector<std::int64_t>(100, 1))});
  EXPECT_GT(task.state_units(2), before);
}

TEST(TaskState, NamesAreStable) {
  EXPECT_EQ(to_string(TaskState::kQueued), "queued");
  EXPECT_EQ(to_string(TaskState::kRunning), "running");
  EXPECT_EQ(to_string(TaskState::kWaiting), "waiting");
}

TEST(TaskPacketTest, SizeUnitsCountStampArgsAncestors) {
  TaskPacket packet;
  packet.stamp = LevelStamp::root().child(1).child(2);
  packet.args = {Value::integer(1),
                 Value::list(std::vector<std::int64_t>(80, 2))};
  packet.ancestors = {TaskRef{0, 1}, TaskRef{1, 2}};
  // 1 (base) + 1 (stamp) + 1 (int) + 11 (list) + 2 (ancestors)
  EXPECT_EQ(packet.size_units(), 16U);
  EXPECT_NE(packet.describe().find("<1.2>"), std::string::npos);
}

}  // namespace
}  // namespace splice::runtime
