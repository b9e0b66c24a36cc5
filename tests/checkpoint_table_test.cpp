#include <gtest/gtest.h>

#include <vector>

#include "checkpoint/checkpoint_table.h"
#include "util/rng.h"

namespace splice::checkpoint {
namespace {

using runtime::LevelStamp;
using runtime::TaskPacket;

TaskPacket packet_for(const LevelStamp& stamp) {
  TaskPacket packet;
  packet.stamp = stamp;
  packet.fn = 0;
  return packet;
}

/// Record the spawn of `stamp` onto `dest` by call site `site` of `owner`.
RecordOutcome record_spawn(CheckpointTable& table, net::ProcId dest,
                           const LevelStamp& stamp,
                           runtime::TaskUid owner = 10, lang::ExprId site = 1) {
  CheckpointRecord record;
  record.owner = owner;
  record.site = site;
  return table.record(dest, std::move(record), packet_for(stamp));
}

TEST(CheckpointTable, RecordsTopmostPerDestination) {
  CheckpointTable table(/*self=*/2, /*processors=*/4);
  const LevelStamp b2 = LevelStamp::root().child(1).child(0);
  EXPECT_EQ(record_spawn(table, 1, b2), RecordOutcome::kRecorded);
  EXPECT_EQ(table.entry(1).size(), 1U);
  EXPECT_EQ(table.total_records(), 1U);
}

TEST(CheckpointTable, LiveRecordIndexesItsSlotWithoutAPacketCopy) {
  // The owner's call slot keeps the only copy of a live record's packet:
  // the record takes the stamp and size from it and boxes nothing.
  CheckpointTable table(0, 4);
  const LevelStamp b2 = LevelStamp::root().child(1).child(0);
  TaskPacket packet = packet_for(b2);
  packet.args.push_back(lang::Value::integer(42));
  CheckpointRecord record;
  record.owner = 7;
  record.site = 3;
  ASSERT_EQ(table.record(1, record, packet), RecordOutcome::kRecorded);
  const CheckpointRecord& held = table.entry(1)[0];
  EXPECT_EQ(held.owner, 7U);
  EXPECT_EQ(held.site, 3U);
  EXPECT_EQ(held.stamp, b2);
  EXPECT_EQ(held.units, packet.size_units());
  EXPECT_EQ(table.total_units(), packet.size_units());
  EXPECT_FALSE(held.restored());

  // A replayed record carries its own packet.
  CheckpointRecord replayed;
  replayed.owner = 8;
  replayed.site = 2;
  replayed.packet = packet_for(LevelStamp::root().child(2));
  ASSERT_EQ(table.record(2, replayed, *replayed.packet),
            RecordOutcome::kRecorded);
  EXPECT_TRUE(table.entry(2)[0].restored());
  EXPECT_EQ(table.entry(2)[0].packet->stamp, LevelStamp::root().child(2));
}

TEST(CheckpointTable, DescendantIsSubsumed) {
  // §3.2's exact scenario: C spawned B2 to B; a descendant B5 spawned to B
  // later "C does nothing".
  CheckpointTable table(2, 4);
  const LevelStamp b2 = LevelStamp::root().child(1).child(0);
  const LevelStamp b5 = b2.child(3).child(0).child(2);  // descendant
  EXPECT_EQ(record_spawn(table, 1, b2), RecordOutcome::kRecorded);
  EXPECT_EQ(record_spawn(table, 1, b5), RecordOutcome::kSubsumed);
  EXPECT_EQ(table.entry(1).size(), 1U);
  EXPECT_EQ(table.subsumed(), 1U);
}

TEST(CheckpointTable, SubsumptionIsPerDestination) {
  CheckpointTable table(2, 4);
  const LevelStamp b2 = LevelStamp::root().child(1).child(0);
  const LevelStamp b5 = b2.child(3);
  EXPECT_EQ(record_spawn(table, 1, b2), RecordOutcome::kRecorded);
  // Same stamps toward a different destination are independent.
  EXPECT_EQ(record_spawn(table, 3, b5), RecordOutcome::kRecorded);
  EXPECT_EQ(table.entry(3).size(), 1U);
}

TEST(CheckpointTable, AncestorArrivingLateEvictsDescendants) {
  CheckpointTable table(0, 4);
  const LevelStamp parent = LevelStamp::root().child(2);
  const LevelStamp kid_a = parent.child(0);
  const LevelStamp kid_b = parent.child(1);
  EXPECT_EQ(record_spawn(table, 1, kid_a), RecordOutcome::kRecorded);
  EXPECT_EQ(record_spawn(table, 1, kid_b), RecordOutcome::kRecorded);
  EXPECT_EQ(record_spawn(table, 1, parent), RecordOutcome::kRecorded);
  ASSERT_EQ(table.entry(1).size(), 1U);
  EXPECT_EQ(table.entry(1)[0].stamp, parent);
}

TEST(CheckpointTable, SiblingsCoexist) {
  CheckpointTable table(0, 4);
  const LevelStamp a = LevelStamp::root().child(1);
  const LevelStamp b = LevelStamp::root().child(2);
  EXPECT_EQ(record_spawn(table, 1, a), RecordOutcome::kRecorded);
  EXPECT_EQ(record_spawn(table, 1, b), RecordOutcome::kRecorded);
  EXPECT_EQ(table.entry(1).size(), 2U);
}

TEST(CheckpointTable, TakeEmptiesEntryAndReturnsAll) {
  CheckpointTable table(0, 4);
  record_spawn(table, 1, LevelStamp::root().child(1));
  record_spawn(table, 1, LevelStamp::root().child(2));
  record_spawn(table, 2, LevelStamp::root().child(3));
  auto taken = table.take(1);
  EXPECT_EQ(taken.size(), 2U);
  EXPECT_TRUE(table.entry(1).empty());
  EXPECT_EQ(table.entry(2).size(), 1U);
}

TEST(CheckpointTable, ReleaseRemovesExactStamp) {
  CheckpointTable table(0, 4);
  const LevelStamp a = LevelStamp::root().child(1);
  const LevelStamp b = LevelStamp::root().child(2);
  record_spawn(table, 1, a);
  record_spawn(table, 1, b);
  EXPECT_TRUE(table.release(1, a));
  EXPECT_FALSE(table.release(1, a));  // already gone
  EXPECT_EQ(table.entry(1).size(), 1U);
  EXPECT_EQ(table.released(), 1U);
}

TEST(CheckpointTable, ReleaseAnywhereScansAllEntries) {
  CheckpointTable table(0, 4);
  const LevelStamp a = LevelStamp::root().child(7);
  record_spawn(table, 3, a);
  EXPECT_TRUE(table.release_anywhere(a));
  EXPECT_FALSE(table.release_anywhere(a));
}

TEST(CheckpointTable, PeaksAreMonotone) {
  CheckpointTable table(0, 4);
  record_spawn(table, 1, LevelStamp::root().child(1));
  record_spawn(table, 1, LevelStamp::root().child(2));
  const auto peak = table.peak_records();
  EXPECT_EQ(peak, 2U);
  table.release(1, LevelStamp::root().child(1));
  EXPECT_EQ(table.peak_records(), peak);  // peak does not decrease
  EXPECT_EQ(table.total_records(), 1U);
  EXPECT_GT(table.peak_units(), 0U);
}

// Property: after any sequence of records, every entry is an antichain —
// no stored stamp subsumes another stored stamp.
TEST(CheckpointTableProperty, EntriesAreAntichains) {
  util::Xoshiro256 rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    CheckpointTable table(0, 3);
    for (int i = 0; i < 200; ++i) {
      LevelStamp s = LevelStamp::root();
      const auto depth = 1 + rng.next_below(5);
      for (std::uint64_t d = 0; d < depth; ++d) {
        s = s.child(static_cast<runtime::StampDigit>(rng.next_below(3)));
      }
      record_spawn(table, static_cast<net::ProcId>(rng.next_below(3)), s);
    }
    for (net::ProcId dest = 0; dest < 3; ++dest) {
      const auto& entry = table.entry(dest);
      for (std::size_t i = 0; i < entry.size(); ++i) {
        for (std::size_t j = 0; j < entry.size(); ++j) {
          if (i == j) continue;
          EXPECT_FALSE(entry[i].stamp.subsumes(entry[j].stamp))
              << "entry " << dest << ": " << entry[i].stamp.to_string()
              << " subsumes " << entry[j].stamp.to_string();
        }
      }
    }
  }
}

// Property: any stamp ever recorded-or-subsumed is recoverable: either it
// is in the entry, or an ancestor of it is.
TEST(CheckpointTableProperty, EverySpawnIsCoveredByAnEntry) {
  util::Xoshiro256 rng(777);
  CheckpointTable table(0, 2);
  std::vector<LevelStamp> spawned;
  for (int i = 0; i < 300; ++i) {
    LevelStamp s = LevelStamp::root();
    const auto depth = 1 + rng.next_below(6);
    for (std::uint64_t d = 0; d < depth; ++d) {
      s = s.child(static_cast<runtime::StampDigit>(rng.next_below(2)));
    }
    record_spawn(table, 1, s);
    spawned.push_back(s);
    for (const LevelStamp& stamp : spawned) {
      bool covered = false;
      for (const auto& record : table.entry(1)) {
        if (record.stamp.subsumes(stamp)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << stamp.to_string();
    }
  }
}

}  // namespace
}  // namespace splice::checkpoint
