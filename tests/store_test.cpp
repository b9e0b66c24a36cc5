// Durable checkpoint store: mutation logging through the CheckpointTable
// listener, persistency models, replay round-trip, compaction, the chunked
// state streamer, and the rejoin-mode scenario DSL.
#include <gtest/gtest.h>

#include <vector>

#include "checkpoint/checkpoint_table.h"
#include "core/config.h"
#include "store/durable_store.h"
#include "store/state_transfer.h"

namespace splice {
namespace {

using checkpoint::CheckpointRecord;
using checkpoint::CheckpointTable;
using checkpoint::RecordPool;
using runtime::LevelStamp;
using runtime::TaskPacket;
using store::DurableStore;
using store::Persistency;

TaskPacket packet_for(const std::vector<runtime::StampDigit>& digits) {
  TaskPacket packet;
  packet.stamp = LevelStamp(digits);
  packet.fn = 0;
  packet.ancestors.push_back(runtime::TaskRef{0, 1});
  return packet;
}

CheckpointRecord record_for(const TaskPacket& packet, runtime::TaskUid owner) {
  CheckpointRecord record;
  record.owner = owner;
  record.site = packet.stamp.last();
  record.stamp = packet.stamp;
  record.units = packet.size_units();
  return record;
}

/// The records held against `dest`, oldest first.
std::vector<CheckpointRecord> records_of(const CheckpointTable& table,
                                         net::ProcId dest) {
  const checkpoint::EntryView entry = table.entry(dest);
  return {entry.begin(), entry.end()};
}

/// Record the spawn of the packet for `digits` onto `dest` by `owner`.
void record_spawn(CheckpointTable& table, net::ProcId dest,
                  const std::vector<runtime::StampDigit>& digits,
                  runtime::TaskUid owner) {
  const TaskPacket packet = packet_for(digits);
  table.record(dest, record_for(packet, owner), packet);
}

// ---------------------------------------------------------------------------
// Logging & replay
// ---------------------------------------------------------------------------

TEST(DurableStore, ReplayRoundTripEqualsLiveTable) {
  RecordPool pool;
  CheckpointTable live(0, 4, pool);
  DurableStore store(0, Persistency::kLocal, 1.0, 99);
  live.set_listener(&store);

  record_spawn(live, 1, {1}, 10);
  record_spawn(live, 1, {2}, 10);
  record_spawn(live, 2, {3}, 11);
  record_spawn(live, 3, {4}, 11);
  EXPECT_TRUE(live.release(1, LevelStamp::root().child(2)));   // child returned
  (void)live.take(3);                              // P3 died, reissued
  record_spawn(live, 2, {4}, 11);                  // ... onto P2

  store.on_crash(0);  // local: everything survives
  CheckpointTable replayed(0, 4, pool);
  const std::size_t restored = store.replay_into(replayed);

  EXPECT_EQ(restored, live.total_records());
  for (net::ProcId dest = 0; dest < 4; ++dest) {
    const std::vector<CheckpointRecord> want = records_of(live, dest);
    const std::vector<CheckpointRecord> got = records_of(replayed, dest);
    ASSERT_EQ(got.size(), want.size()) << "entry P" << dest;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].stamp, want[i].stamp);
      EXPECT_EQ(got[i].units, want[i].units);
      EXPECT_TRUE(got[i].restored());
      EXPECT_FALSE(want[i].restored());
      // The log stored the full packet, so the replayed record carries it.
      EXPECT_EQ(got[i].packet->stamp, want[i].stamp);
    }
  }
}

TEST(DurableStore, PersistencyNoneLogsNothingAndLosesAll) {
  RecordPool pool;
  CheckpointTable live(0, 2, pool);
  DurableStore store(0, Persistency::kNone, 1.0, 1);
  live.set_listener(&store);
  record_spawn(live, 1, {1}, 10);
  EXPECT_FALSE(store.enabled());
  EXPECT_TRUE(store.log().empty());  // volatile stores skip journaling
  store.on_crash(0);
  CheckpointTable replayed(0, 2, pool);
  EXPECT_EQ(store.replay_into(replayed), 0U);
  EXPECT_EQ(replayed.total_records(), 0U);
}

TEST(DurableStore, LossySurvivalIsSeededAndDeterministic) {
  auto build = [](double p, std::uint64_t seed) {
    RecordPool pool;
    CheckpointTable live(0, 8, pool);
    DurableStore store(0, Persistency::kLossy, p, seed);
    live.set_listener(&store);
    for (runtime::StampDigit d = 1; d <= 40; ++d) {
      record_spawn(live, static_cast<net::ProcId>(d % 8), {d}, d);
    }
    store.on_crash(/*dying=*/3);
    return store.log().size();
  };
  EXPECT_EQ(build(1.0, 7), 40U);  // p=1: lossless
  EXPECT_EQ(build(0.0, 7), 0U);   // p=0: total loss
  const std::size_t survivors = build(0.5, 7);
  EXPECT_GT(survivors, 0U);
  EXPECT_LT(survivors, 40U);
  EXPECT_EQ(build(0.5, 7), survivors);     // same seed: same losses
  EXPECT_NE(build(0.5, 8), survivors);     // different seed: different draw
}

TEST(DurableStore, LossyLostReleaseLeavesHarmlessStaleRecord) {
  // Hand-build a log where the release entry was lost but the record
  // survived: replay must keep the (stale) record — it only costs a
  // redundant reissue later, never a lost obligation.
  DurableStore store(0, Persistency::kLocal, 1.0, 1);
  store.set_incarnation(0);
  const TaskPacket packet = packet_for({1});
  store.on_record(1, record_for(packet, 10), packet);
  RecordPool pool;
  CheckpointTable replayed(0, 2, pool);
  EXPECT_EQ(store.replay_into(replayed), 1U);
  EXPECT_EQ(records_of(replayed, 1).size(), 1U);
}

TEST(DurableStore, CompactRewritesLogToLiveRecords) {
  RecordPool pool;
  CheckpointTable live(0, 4, pool);
  DurableStore store(0, Persistency::kLocal, 1.0, 1);
  live.set_listener(&store);
  record_spawn(live, 1, {1}, 10);
  record_spawn(live, 2, {2}, 10);
  EXPECT_TRUE(live.release(1, LevelStamp::root().child(1)));
  EXPECT_EQ(store.log().size(), 3U);  // record, record, release
  store.compact_from(live);
  EXPECT_EQ(store.log().size(), 1U);  // one live record remains
  EXPECT_EQ(store.log()[0].record.stamp, LevelStamp::root().child(2));
}

TEST(DurableStore, TakeLogsTheWholeEntryDrop) {
  RecordPool pool;
  CheckpointTable live(0, 4, pool);
  DurableStore store(0, Persistency::kLocal, 1.0, 1);
  live.set_listener(&store);
  record_spawn(live, 1, {1}, 10);
  record_spawn(live, 1, {2}, 10);
  (void)live.take(1);
  store.on_crash(0);
  CheckpointTable replayed(0, 4, pool);
  EXPECT_EQ(store.replay_into(replayed), 0U);  // taken entries stay gone
}

// ---------------------------------------------------------------------------
// State streamer (peer-side chunk pump)
// ---------------------------------------------------------------------------

struct StreamerFixture {
  std::vector<store::StateChunkMsg> sent;
  std::vector<std::function<void()>> pending;
  bool rejoiner_alive = true;
  std::vector<runtime::TaskPacket> packets;

  store::StateStreamer::Env env() {
    store::StateStreamer::Env e;
    e.chunk_records = 2;
    e.chunk_interval = sim::SimTime(10);
    e.send = [this](net::ProcId, store::StateChunkMsg chunk) {
      sent.push_back(std::move(chunk));
    };
    e.after = [this](sim::SimTime, std::function<void()> fn) {
      pending.push_back(std::move(fn));
    };
    e.alive = [this](net::ProcId) { return rejoiner_alive; };
    e.packets_against = [this](net::ProcId) { return packets; };
    e.known_dead = [] { return std::vector<net::ProcId>{3}; };
    return e;
  }

  void drain() {
    while (!pending.empty()) {
      auto fn = std::move(pending.front());
      pending.erase(pending.begin());
      fn();
    }
  }
};

TEST(StateStreamer, ChunksAreBoundedAndLivenessRidesFirstChunk) {
  StreamerFixture fx;
  for (int i = 0; i < 5; ++i) {
    fx.packets.push_back(packet_for({static_cast<runtime::StampDigit>(i + 1)}));
  }
  store::StateStreamer streamer(fx.env());
  streamer.start(2, /*incarnation=*/1);
  fx.drain();
  ASSERT_EQ(fx.sent.size(), 3U);  // 2 + 2 + 1 packets
  EXPECT_EQ(fx.sent[0].packets.size(), 2U);
  EXPECT_EQ(fx.sent[1].packets.size(), 2U);
  EXPECT_EQ(fx.sent[2].packets.size(), 1U);
  EXPECT_EQ(fx.sent[0].known_dead, std::vector<net::ProcId>{3});
  EXPECT_TRUE(fx.sent[1].known_dead.empty());  // liveness: first chunk only
  EXPECT_FALSE(fx.sent[0].last);
  EXPECT_TRUE(fx.sent[2].last);
  for (const auto& chunk : fx.sent) EXPECT_EQ(chunk.incarnation, 1U);
}

TEST(StateStreamer, EmptyEntryStillSendsOneFinalChunk) {
  StreamerFixture fx;
  store::StateStreamer streamer(fx.env());
  streamer.start(2, 1);
  fx.drain();
  ASSERT_EQ(fx.sent.size(), 1U);
  EXPECT_TRUE(fx.sent[0].last);
  EXPECT_TRUE(fx.sent[0].packets.empty());
}

TEST(StateStreamer, RestartSupersedesAndDeadRejoinerStopsPump) {
  StreamerFixture fx;
  for (int i = 0; i < 6; ++i) {
    fx.packets.push_back(packet_for({static_cast<runtime::StampDigit>(i + 1)}));
  }
  store::StateStreamer streamer(fx.env());
  streamer.start(2, 1);
  ASSERT_EQ(fx.sent.size(), 1U);  // first chunk immediate
  // Rejoiner re-crashes and revives: new incarnation supersedes.
  streamer.start(2, 2);
  fx.drain();
  // The epoch-guarded old pump chain sent nothing more; the new stream
  // resent everything under incarnation 2.
  std::size_t inc2_packets = 0;
  for (std::size_t i = 1; i < fx.sent.size(); ++i) {
    EXPECT_EQ(fx.sent[i].incarnation, 2U);
    inc2_packets += fx.sent[i].packets.size();
  }
  EXPECT_EQ(inc2_packets, 6U);

  // Now a stream into a corpse: pump stops without sending.
  fx.sent.clear();
  streamer.start(2, 3);
  ASSERT_EQ(fx.sent.size(), 1U);
  fx.rejoiner_alive = false;
  fx.drain();
  EXPECT_EQ(fx.sent.size(), 1U);  // nothing after the death
}

TEST(StateStreamer, DelayedStaleRequestCannotSupersedeNewerStream) {
  // A request from an older incarnation that arrives late (fast repair:
  // repair delay below network latency) must not restart the stream with
  // the old incarnation — its chunks would all drop as stale and the
  // rejoiner's catch-up would never complete.
  StreamerFixture fx;
  for (int i = 0; i < 4; ++i) {
    fx.packets.push_back(packet_for({static_cast<runtime::StampDigit>(i + 1)}));
  }
  store::StateStreamer streamer(fx.env());
  streamer.start(2, /*incarnation=*/5);
  streamer.start(2, /*incarnation=*/4);  // stale, delayed in the network
  fx.drain();
  for (const auto& chunk : fx.sent) EXPECT_EQ(chunk.incarnation, 5U);
  std::size_t total = 0;
  for (const auto& chunk : fx.sent) total += chunk.packets.size();
  EXPECT_EQ(total, 4U);  // the live stream ran to completion, exactly once
}

// ---------------------------------------------------------------------------
// Scenario DSL: rejoin modes
// ---------------------------------------------------------------------------

TEST(StoreDsl, RejoinModeParses) {
  const net::FaultPlan cold = core::parse_fault_plan("rejoin:4000");
  EXPECT_TRUE(cold.rejoin.enabled);
  EXPECT_EQ(cold.rejoin.mode, net::RejoinMode::kCold);

  const net::FaultPlan warm =
      core::parse_fault_plan("kill:2@500;rejoin:4000,warm");
  EXPECT_EQ(warm.rejoin.mode, net::RejoinMode::kWarm);
  EXPECT_EQ(warm.rejoin.delay, sim::SimTime(4000));

  const net::FaultPlan explicit_cold =
      core::parse_fault_plan("rejoin:100,cold");
  EXPECT_EQ(explicit_cold.rejoin.mode, net::RejoinMode::kCold);

  EXPECT_THROW((void)core::parse_fault_plan("rejoin:100,tepid"),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_fault_plan("rejoin:100,warm,extra"),
               std::invalid_argument);
}

TEST(StoreDsl, ConfigDescribesStoreModel) {
  core::SystemConfig cfg;
  EXPECT_EQ(cfg.describe().find("store="), std::string::npos);
  cfg.store.model = store::Persistency::kLocal;
  EXPECT_NE(cfg.describe().find("store=local"), std::string::npos);
  cfg.store.model = store::Persistency::kLossy;
  cfg.store.survive_p = 0.25;
  EXPECT_NE(cfg.describe().find("store=lossy(p=0.25)"), std::string::npos);
}

}  // namespace
}  // namespace splice
