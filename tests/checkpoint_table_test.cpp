// CheckpointTable: §3.2's subsumption and antichain rules, the record
// lists against a vector-of-vectors model, and the node pool that keeps the
// table's memory to its live records.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <vector>

#include "checkpoint/checkpoint_table.h"
#include "util/rng.h"

namespace {
// Every global operator new in this binary, so a test can check that a
// block of code allocates nothing.
std::atomic<std::size_t> g_news{0};
}  // namespace

// Opaque bodies keep GCC from pairing the malloc inside an inlined new with
// the free inside an inlined delete (-Wmismatched-new-delete). The array
// forms are replaced too: AddressSanitizer intercepts them on its own.
__attribute__((noinline)) void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) {
  return ::operator new(n);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace splice::checkpoint {
namespace {

using runtime::LevelStamp;
using runtime::TaskPacket;

/// Heap allocations `fn` makes.
template <typename Fn>
std::size_t news_during(Fn&& fn) {
  const std::size_t before = g_news.load(std::memory_order_relaxed);
  fn();
  return g_news.load(std::memory_order_relaxed) - before;
}

/// The records held against `dest`, oldest first.
std::vector<CheckpointRecord> records_of(const CheckpointTable& table,
                                         net::ProcId dest) {
  const EntryView entry = table.entry(dest);
  return {entry.begin(), entry.end()};
}

std::size_t count_of(const CheckpointTable& table, net::ProcId dest) {
  return static_cast<std::size_t>(std::ranges::distance(table.entry(dest)));
}

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
  RecordPool pool;
  CheckpointTable table(/*self=*/2, /*processors=*/4, pool);
  const LevelStamp b2 = LevelStamp::root().child(1).child(0);
  EXPECT_EQ(record_spawn(table, 1, b2), RecordOutcome::kRecorded);
  EXPECT_EQ(count_of(table, 1), 1U);
  EXPECT_EQ(table.total_records(), 1U);
}

TEST(CheckpointTable, LiveRecordIndexesItsSlotWithoutAPacketCopy) {
  // The owner's call slot keeps the only copy of a live record's packet:
  // the record takes the stamp and size from it and boxes nothing.
  RecordPool pool;
  CheckpointTable table(0, 4, pool);
  const LevelStamp b2 = LevelStamp::root().child(1).child(0);
  TaskPacket packet = packet_for(b2);
  packet.args.push_back(lang::Value::integer(42));
  CheckpointRecord record;
  record.owner = 7;
  record.site = 3;
  ASSERT_EQ(table.record(1, record, packet), RecordOutcome::kRecorded);
  const CheckpointRecord& held = table.entry(1).front();
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
  EXPECT_TRUE(table.entry(2).front().restored());
  EXPECT_EQ(table.entry(2).front().packet->stamp, LevelStamp::root().child(2));
}

TEST(CheckpointTable, DescendantIsSubsumed) {
  // §3.2's exact scenario: C spawned B2 to B; a descendant B5 spawned to B
  // later "C does nothing".
  RecordPool pool;
  CheckpointTable table(2, 4, pool);
  const LevelStamp b2 = LevelStamp::root().child(1).child(0);
  const LevelStamp b5 = b2.child(3).child(0).child(2);  // descendant
  EXPECT_EQ(record_spawn(table, 1, b2), RecordOutcome::kRecorded);
  EXPECT_EQ(record_spawn(table, 1, b5), RecordOutcome::kSubsumed);
  EXPECT_EQ(count_of(table, 1), 1U);
  EXPECT_EQ(table.subsumed(), 1U);
}

TEST(CheckpointTable, SubsumptionIsPerDestination) {
  RecordPool pool;
  CheckpointTable table(2, 4, pool);
  const LevelStamp b2 = LevelStamp::root().child(1).child(0);
  const LevelStamp b5 = b2.child(3);
  EXPECT_EQ(record_spawn(table, 1, b2), RecordOutcome::kRecorded);
  // Same stamps toward a different destination are independent.
  EXPECT_EQ(record_spawn(table, 3, b5), RecordOutcome::kRecorded);
  EXPECT_EQ(count_of(table, 3), 1U);
}

TEST(CheckpointTable, AncestorArrivingLateEvictsDescendants) {
  RecordPool pool;
  CheckpointTable table(0, 4, pool);
  const LevelStamp parent = LevelStamp::root().child(2);
  const LevelStamp kid_a = parent.child(0);
  const LevelStamp kid_b = parent.child(1);
  EXPECT_EQ(record_spawn(table, 1, kid_a), RecordOutcome::kRecorded);
  EXPECT_EQ(record_spawn(table, 1, kid_b), RecordOutcome::kRecorded);
  EXPECT_EQ(record_spawn(table, 1, parent), RecordOutcome::kRecorded);
  ASSERT_EQ(count_of(table, 1), 1U);
  EXPECT_EQ(table.entry(1).front().stamp, parent);
}

TEST(CheckpointTable, SiblingsCoexist) {
  RecordPool pool;
  CheckpointTable table(0, 4, pool);
  const LevelStamp a = LevelStamp::root().child(1);
  const LevelStamp b = LevelStamp::root().child(2);
  EXPECT_EQ(record_spawn(table, 1, a), RecordOutcome::kRecorded);
  EXPECT_EQ(record_spawn(table, 1, b), RecordOutcome::kRecorded);
  EXPECT_EQ(count_of(table, 1), 2U);
}

TEST(CheckpointTable, TakeEmptiesEntryAndReturnsAll) {
  RecordPool pool;
  CheckpointTable table(0, 4, pool);
  record_spawn(table, 1, LevelStamp::root().child(1));
  record_spawn(table, 1, LevelStamp::root().child(2));
  record_spawn(table, 2, LevelStamp::root().child(3));
  auto taken = table.take(1);
  EXPECT_EQ(taken.size(), 2U);
  EXPECT_TRUE(table.entry(1).empty());
  EXPECT_EQ(count_of(table, 2), 1U);
}

TEST(CheckpointTable, ReleaseRemovesExactStamp) {
  RecordPool pool;
  CheckpointTable table(0, 4, pool);
  const LevelStamp a = LevelStamp::root().child(1);
  const LevelStamp b = LevelStamp::root().child(2);
  record_spawn(table, 1, a);
  record_spawn(table, 1, b);
  EXPECT_TRUE(table.release(1, a));
  EXPECT_FALSE(table.release(1, a));  // already gone
  EXPECT_EQ(count_of(table, 1), 1U);
  EXPECT_EQ(table.released(), 1U);
}

TEST(CheckpointTable, ReleaseAnywhereScansAllEntries) {
  RecordPool pool;
  CheckpointTable table(0, 4, pool);
  const LevelStamp a = LevelStamp::root().child(7);
  record_spawn(table, 3, a);
  EXPECT_TRUE(table.release_anywhere(a));
  EXPECT_FALSE(table.release_anywhere(a));
}

TEST(CheckpointTable, PeaksAreMonotone) {
  RecordPool pool;
  CheckpointTable table(0, 4, pool);
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
    RecordPool pool;
    CheckpointTable table(0, 3, pool);
    for (int i = 0; i < 200; ++i) {
      LevelStamp s = LevelStamp::root();
      const auto depth = 1 + rng.next_below(5);
      for (std::uint64_t d = 0; d < depth; ++d) {
        s = s.child(static_cast<runtime::StampDigit>(rng.next_below(3)));
      }
      record_spawn(table, static_cast<net::ProcId>(rng.next_below(3)), s);
    }
    for (net::ProcId dest = 0; dest < 3; ++dest) {
      const std::vector<CheckpointRecord> entry = records_of(table, dest);
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
  RecordPool pool;
  CheckpointTable table(0, 2, pool);
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

TEST(CheckpointTable, FreshDestinationsAllocateNothingOncePoolPeaked) {
  // Memory follows live records: once the node pool has reached its peak,
  // records against destinations never used before reuse released nodes.
  // (A vector per destination allocated on each destination's first use.)
  constexpr int kLive = 300;  // more than one pool chunk
  RecordPool pool;
  CheckpointTable table(0, 64, pool);
  std::vector<TaskPacket> packets;
  for (int i = 0; i < kLive; ++i) {
    packets.push_back(packet_for(LevelStamp::root().child(
        static_cast<runtime::StampDigit>(i))));
  }
  const auto dest_of = [](int i, net::ProcId first) {
    return static_cast<net::ProcId>(first + i % 16);
  };
  for (int i = 0; i < kLive; ++i) {
    ASSERT_EQ(table.record(dest_of(i, 0), {}, packets[i]),
              RecordOutcome::kRecorded);
  }
  for (int i = 0; i < kLive; ++i) {
    ASSERT_TRUE(table.release(dest_of(i, 0), packets[i].stamp));
  }
  const std::size_t capacity = pool.capacity();
  ASSERT_EQ(pool.live(), 0U);

  const std::size_t news = news_during([&] {
    for (int i = 0; i < kLive; ++i) {
      table.record(dest_of(i, 16), {}, packets[i]);
    }
  });
  EXPECT_EQ(news, 0U) << "records against fresh destinations allocated";
  EXPECT_EQ(pool.capacity(), capacity);
  EXPECT_EQ(pool.live(), static_cast<std::size_t>(kLive));
  EXPECT_EQ(table.total_records(), static_cast<std::size_t>(kLive));
}

TEST(CheckpointTable, RestoredRecordPointerLivesUntilItsRelease) {
  RecordPool pool;
  CheckpointTable table(0, 4, pool);
  const LevelStamp parent = LevelStamp::root().child(1);
  CheckpointRecord replayed;
  replayed.packet = packet_for(parent.child(0));
  ASSERT_EQ(table.record(2, replayed, *replayed.packet),
            RecordOutcome::kRecorded);
  const auto found = table.restored_children_of(parent);
  ASSERT_EQ(found.size(), 1U);
  CheckpointRecord* held = found[0].second;
  EXPECT_EQ(found[0].first, 2U);
  // Other records come and go around it, in its own entry too.
  for (runtime::StampDigit d = 2; d < 40; ++d) {
    record_spawn(table, 2, LevelStamp::root().child(d));
    record_spawn(table, 3, LevelStamp::root().child(d));
  }
  for (runtime::StampDigit d = 2; d < 40; d += 2) {
    table.release(2, LevelStamp::root().child(d));
  }
  held->owner = 77;  // rebind, as a warm rejoin does
  EXPECT_EQ(&table.entry(2).front(), held);
  EXPECT_EQ(table.entry(2).front().owner, 77U);
  EXPECT_TRUE(table.release(2, parent.child(0)));
  EXPECT_TRUE(table.restored_children_of(parent).empty());
}

// ---------------------------------------------------------------------------
// Model: the table against the vector-of-vectors layout it replaced
// ---------------------------------------------------------------------------

/// One vector per destination, records appended and erased in place, with
/// CheckpointTable's rules and lifetime counters.
struct ModelTable {
  explicit ModelTable(net::ProcId processors) : entries(processors) {}

  void count_in(const CheckpointRecord& record) {
    ++total_records;
    total_units += record.units;
    peak_records = std::max(peak_records, total_records);
    peak_units = std::max(peak_units, total_units);
  }
  void count_out(const CheckpointRecord& record) {
    --total_records;
    total_units -= record.units;
  }

  RecordOutcome record(net::ProcId dest, CheckpointRecord record,
                       const TaskPacket& packet) {
    auto& entry = entries[dest];
    for (const CheckpointRecord& existing : entry) {
      if (existing.stamp.subsumes(packet.stamp)) {
        ++subsumed;
        return RecordOutcome::kSubsumed;
      }
    }
    std::erase_if(entry, [&](const CheckpointRecord& existing) {
      if (!packet.stamp.is_ancestor_of(existing.stamp)) return false;
      count_out(existing);
      ++evicted;
      return true;
    });
    record.stamp = packet.stamp;
    record.units = packet.size_units();
    entry.push_back(std::move(record));
    count_in(entry.back());
    ++records_made;
    return RecordOutcome::kRecorded;
  }

  std::vector<CheckpointRecord> take(net::ProcId dead) {
    std::vector<CheckpointRecord> out = std::move(entries[dead]);
    entries[dead].clear();
    for (const CheckpointRecord& record : out) {
      count_out(record);
      ++taken;
    }
    return out;
  }

  bool release(net::ProcId dest, const LevelStamp& stamp) {
    const auto erased =
        std::erase_if(entries[dest], [&](const CheckpointRecord& existing) {
          if (existing.stamp != stamp) return false;
          count_out(existing);
          return true;
        });
    if (erased > 0) ++released;
    return erased > 0;
  }

  bool release_anywhere(const LevelStamp& stamp) {
    for (net::ProcId dest = 0; dest < entries.size(); ++dest) {
      if (release(dest, stamp)) return true;
    }
    return false;
  }

  void clear() {
    cleared += total_records;
    for (auto& entry : entries) entry.clear();
    total_records = 0;
    total_units = 0;
  }

  std::vector<std::vector<CheckpointRecord>> entries;
  std::size_t total_records = 0;
  std::uint64_t total_units = 0;
  std::size_t peak_records = 0;
  std::uint64_t peak_units = 0;
  std::uint64_t records_made = 0;
  std::uint64_t subsumed = 0;
  std::uint64_t released = 0;
  std::uint64_t taken = 0;
  std::uint64_t evicted = 0;
  std::uint64_t cleared = 0;
};

void expect_same_records(const std::vector<CheckpointRecord>& got,
                         const std::vector<CheckpointRecord>& want,
                         const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].owner, want[i].owner) << what << " #" << i;
    EXPECT_EQ(got[i].stamp, want[i].stamp) << what << " #" << i;
    EXPECT_EQ(got[i].site, want[i].site) << what << " #" << i;
    EXPECT_EQ(got[i].units, want[i].units) << what << " #" << i;
    ASSERT_EQ(got[i].restored(), want[i].restored()) << what << " #" << i;
    if (got[i].restored()) {
      EXPECT_EQ(got[i].packet->stamp, want[i].packet->stamp) << what;
    }
  }
}

void expect_same_state(const CheckpointTable& table, const ModelTable& model) {
  for (net::ProcId dest = 0; dest < model.entries.size(); ++dest) {
    expect_same_records(records_of(table, dest), model.entries[dest],
                        "entry");
  }
  EXPECT_EQ(table.total_records(), model.total_records);
  EXPECT_EQ(table.total_units(), model.total_units);
  EXPECT_EQ(table.peak_records(), model.peak_records);
  EXPECT_EQ(table.peak_units(), model.peak_units);
  EXPECT_EQ(table.records_made(), model.records_made);
  EXPECT_EQ(table.subsumed(), model.subsumed);
  EXPECT_EQ(table.released(), model.released);
  EXPECT_EQ(table.taken(), model.taken);
  EXPECT_EQ(table.evicted(), model.evicted);
  EXPECT_EQ(table.cleared(), model.cleared);
}

TEST(CheckpointTableModel, MatchesVectorOfVectorsOnRandomOperations) {
  constexpr net::ProcId kDests = 16;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Xoshiro256 rng(seed);
    RecordPool pool;
    CheckpointTable table(0, kDests, pool);
    ModelTable model(kDests);
    // Shallow stamps over three digits: spawns often subsume or evict.
    const auto random_stamp = [&] {
      LevelStamp s = LevelStamp::root();
      const auto depth = 1 + rng.next_below(4);
      for (std::uint64_t d = 0; d < depth; ++d) {
        s = s.child(static_cast<runtime::StampDigit>(rng.next_below(3)));
      }
      return s;
    };
    for (std::uint64_t op = 0; op < 4000; ++op) {
      const auto dest = static_cast<net::ProcId>(rng.next_below(kDests));
      const auto roll = rng.next_below(100);
      if (roll < 55) {
        TaskPacket packet = packet_for(random_stamp());
        for (auto n = rng.next_below(3); n > 0; --n) {
          packet.args.push_back(lang::Value::integer(1));
        }
        CheckpointRecord record;
        record.owner = op;
        record.site = static_cast<lang::ExprId>(rng.next_below(5));
        if (rng.next_below(4) == 0) record.packet = packet;  // replayed
        const CheckpointRecord copy = record;
        ASSERT_EQ(table.record(dest, record, packet),
                  model.record(dest, copy, packet));
      } else if (roll < 80) {
        // Mostly a held stamp, sometimes one that is not there.
        const auto& held = model.entries[dest];
        const LevelStamp stamp =
            !held.empty() && rng.next_below(4) != 0
                ? held[rng.next_below(held.size())].stamp
                : random_stamp();
        ASSERT_EQ(table.release(dest, stamp), model.release(dest, stamp));
      } else if (roll < 90) {
        const LevelStamp stamp = random_stamp();
        ASSERT_EQ(table.release_anywhere(stamp),
                  model.release_anywhere(stamp));
      } else if (roll < 99) {
        expect_same_records(table.take(dest), model.take(dest), "take");
      } else {
        table.clear();
        model.clear();
      }
      expect_same_state(table, model);
      ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed
                                                  << " op " << op;
      ASSERT_EQ(pool.live(), table.total_records());
    }
    // The mix reached every path.
    EXPECT_GT(model.subsumed, 0U);
    EXPECT_GT(model.evicted, 0U);
    EXPECT_GT(model.released, 0U);
    EXPECT_GT(model.taken, 0U);
    EXPECT_GT(model.cleared, 0U);
  }
}

}  // namespace
}  // namespace splice::checkpoint
