// Flight recorder (PR 8): ring discipline, histogram quantiles, causal
// inference, binary journal roundtrip + cross-transport determinism,
// exporters, and the oracle's causal-chain attachment.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "net/codec.h"
#include "obs/causal.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "recovery/recovery_oracle.h"
#include "test_util.h"

namespace splice {
namespace {

runtime::LevelStamp make_stamp(
    const std::vector<runtime::StampDigit>& digits) {
  return runtime::LevelStamp(digits);
}

TEST(Recorder, RingWrapKeepsNewestWindowAndCountsDrops) {
  obs::Recorder rec;
  rec.configure(/*enabled=*/true, /*capacity=*/8);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    rec.record(sim::SimTime(static_cast<std::int64_t>(i)),
               obs::EventKind::kPlace, {.proc = 0, .uid = i});
  }
  EXPECT_EQ(rec.total_recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);

  const obs::Journal journal = rec.snapshot();
  EXPECT_EQ(journal.header.total_recorded, 20u);
  EXPECT_EQ(journal.header.dropped, 12u);
  ASSERT_EQ(journal.events.size(), 8u);
  // The retained window is the newest one, ids consecutive and oldest
  // first — find() depends on exactly this.
  EXPECT_EQ(journal.events.front().id, 13u);
  EXPECT_EQ(journal.events.back().id, 20u);
  EXPECT_EQ(journal.find(12), nullptr);
  EXPECT_EQ(journal.find(21), nullptr);
  ASSERT_NE(journal.find(13), nullptr);
  EXPECT_EQ(journal.find(13)->uid, 13u);
  ASSERT_NE(journal.find(20), nullptr);
  EXPECT_EQ(journal.find(20)->uid, 20u);
}

TEST(Recorder, RingThatSpansChunksWrapsLikeOne) {
  // The ring grows a chunk (1,024 events) at a time; a capacity that is
  // not a multiple of it wraps at the capacity all the same, and the
  // retained window reads back oldest first across chunk edges.
  constexpr std::uint32_t kCapacity = 2500;
  obs::Recorder rec;
  rec.configure(/*enabled=*/true, kCapacity);
  for (std::uint64_t i = 1; i <= kCapacity; ++i) {
    rec.record(sim::SimTime(static_cast<std::int64_t>(i)),
               obs::EventKind::kPlace, {.proc = 0, .uid = i});
  }
  EXPECT_EQ(rec.size(), kCapacity);
  EXPECT_EQ(rec.dropped(), 0u);
  for (std::uint64_t i = kCapacity + 1; i <= 6001; ++i) {
    rec.record(sim::SimTime(static_cast<std::int64_t>(i)),
               obs::EventKind::kPlace, {.proc = 0, .uid = i});
  }
  EXPECT_EQ(rec.size(), kCapacity);
  EXPECT_EQ(rec.dropped(), 6001u - kCapacity);
  std::uint64_t expected = 6001 - kCapacity + 1;
  rec.for_each([&](const obs::Event& event) {
    EXPECT_EQ(event.id, expected);
    EXPECT_EQ(event.uid, expected);
    ++expected;
  });
  EXPECT_EQ(expected, 6002u);
}

TEST(Recorder, DisabledJournalsNothing) {
  obs::Recorder rec;
  EXPECT_EQ(rec.record(sim::SimTime(1), obs::EventKind::kPlace, {}),
            obs::kNoEvent);
  EXPECT_EQ(rec.total_recorded(), 0u);

  rec.configure(true, 8);
  EXPECT_NE(rec.record(sim::SimTime(1), obs::EventKind::kPlace, {}),
            obs::kNoEvent);
  EXPECT_EQ(rec.total_recorded(), 1u);
}

TEST(LogHistogram, PercentilesWithinBucketError) {
  obs::LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.sum(), 1000u * 1001u / 2);
  // Sub-bucket width bounds the relative error at ~2^-4.
  EXPECT_NEAR(static_cast<double>(h.percentile(0.50)), 500.0, 500.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.99)), 990.0, 990.0 * 0.07);
  EXPECT_LE(h.percentile(0.999), 1000u);
  EXPECT_EQ(h.percentile(1.0), 1000u);

  // Values below 2^kSubBits land in exact unit buckets.
  obs::LogHistogram small;
  small.add(3);
  small.add(5);
  small.add(7);
  EXPECT_EQ(small.percentile(0.0), 3u);
  EXPECT_EQ(small.percentile(0.5), 5u);
  EXPECT_EQ(small.percentile(1.0), 7u);

  obs::LogHistogram other;
  other.add(2000);
  other.merge(h);
  EXPECT_EQ(other.count(), 1001u);
  EXPECT_EQ(other.max(), 2000u);
}

TEST(Recorder, InfersTheCrashDetectTwinChain) {
  obs::Recorder rec;
  rec.configure(true, 64);
  const auto crash =
      rec.record(sim::SimTime(10), obs::EventKind::kCrash, {.proc = 3});
  const auto detect = rec.record(sim::SimTime(20), obs::EventKind::kDetect,
                                 {.proc = 1, .peer = 3});
  const auto stamp = make_stamp({4, 2});
  const auto twin = rec.record(sim::SimTime(30), obs::EventKind::kTwin,
                               {.proc = 1, .stamp = &stamp});
  // The twin's packet lands: place of the same stamp chains to the twin.
  const auto place = rec.record(
      sim::SimTime(40), obs::EventKind::kPlace,
      {.proc = 2, .uid = 77, .stamp = &stamp});
  // Reclaim of the duplicate lineage: cancel chains to the respawn, abort
  // to the cancel.
  const auto cancel = rec.record(sim::SimTime(50), obs::EventKind::kCancel,
                                 {.proc = 1, .stamp = &stamp});
  const auto abort_id = rec.record(
      sim::SimTime(60), obs::EventKind::kAbort,
      {.proc = 2, .uid = 77, .stamp = &stamp});

  const obs::Journal journal = rec.snapshot();
  EXPECT_EQ(journal.find(detect)->cause, crash);
  EXPECT_EQ(journal.find(twin)->cause, detect);
  EXPECT_EQ(journal.find(place)->cause, twin);
  EXPECT_EQ(journal.find(cancel)->cause, twin);
  EXPECT_EQ(journal.find(abort_id)->cause, cancel);

  const std::vector<obs::EventId> chain = obs::chain_of(journal, abort_id);
  const std::vector<obs::EventId> expected = {crash, detect, twin, cancel,
                                              abort_id};
  EXPECT_EQ(chain, expected);

  const std::string explained = obs::explain_task(journal, 77);
  EXPECT_NE(explained.find("crash"), std::string::npos);
  EXPECT_NE(explained.find("twin"), std::string::npos);
  EXPECT_NE(explained.find("abort"), std::string::npos);

  EXPECT_EQ(obs::first_reissued(journal), twin);
}

TEST(Recorder, WrappedRingLinksOnlyRetainedEvents) {
  obs::Recorder rec;
  rec.configure(true, /*capacity=*/4);
  rec.record(sim::SimTime(10), obs::EventKind::kCrash, {.proc = 3});
  rec.record(sim::SimTime(20), obs::EventKind::kDetect, {.proc = 1, .peer = 3});
  const auto stamp = make_stamp({4, 2});
  const auto twin = rec.record(sim::SimTime(30), obs::EventKind::kTwin,
                               {.proc = 1, .stamp = &stamp});
  const auto place = rec.record(
      sim::SimTime(40), obs::EventKind::kPlace,
      {.proc = 2, .uid = 77, .stamp = &stamp});
  const auto cancel = rec.record(sim::SimTime(50), obs::EventKind::kCancel,
                                 {.proc = 1, .stamp = &stamp});
  const auto abort_id = rec.record(
      sim::SimTime(60), obs::EventKind::kAbort,
      {.proc = 2, .uid = 77, .stamp = &stamp});

  // The ring overwrote the crash and the detect; no retained event may
  // name either of them.
  const obs::Journal journal = rec.snapshot();
  ASSERT_EQ(journal.events.size(), 4u);
  for (const obs::Event& e : journal.events) {
    EXPECT_TRUE(e.cause == obs::kNoEvent || journal.find(e.cause) != nullptr)
        << "event " << e.id << " links to dropped event " << e.cause;
  }
  EXPECT_EQ(journal.find(twin)->cause, obs::kNoEvent);
  EXPECT_EQ(journal.find(place)->cause, twin);
  EXPECT_EQ(journal.find(cancel)->cause, twin);
  EXPECT_EQ(journal.find(abort_id)->cause, cancel);

  const std::vector<obs::EventId> expected = {twin, cancel, abort_id};
  EXPECT_EQ(obs::chain_of(journal, abort_id), expected);
}

TEST(Journal, SerializeRoundtripPreservesEveryField) {
  obs::Recorder rec;
  rec.configure(true, 64);
  rec.set_rank(2);
  rec.set_processors(16);
  const auto stamp = make_stamp({1, 15, 3});
  rec.record(sim::SimTime(100), obs::EventKind::kCrash, {.proc = 5});
  rec.record(sim::SimTime(250), obs::EventKind::kDetect,
             {.proc = 1, .peer = 5, .arg = 2});
  rec.record(sim::SimTime(300), obs::EventKind::kTwin,
             {.proc = 1, .uid = 42, .stamp = &stamp});
  // Host-side event stamped before the one ahead of it: the tick delta goes
  // negative (svarint) and proc is kNoProc (the +1 bias).
  rec.record(sim::SimTime(50), obs::EventKind::kRestore, {});

  const obs::Journal journal = rec.snapshot();
  const std::vector<std::uint8_t> bytes = obs::serialize(journal);
  const obs::Journal back = obs::deserialize(bytes.data(), bytes.size());

  EXPECT_EQ(back.header.version, 2u);
  EXPECT_EQ(back.header.rank, 2u);
  EXPECT_EQ(back.header.processors, 16u);
  EXPECT_EQ(back.header.total_recorded, journal.header.total_recorded);
  EXPECT_EQ(back.header.dropped, journal.header.dropped);
  ASSERT_EQ(back.events.size(), journal.events.size());
  for (std::size_t i = 0; i < back.events.size(); ++i) {
    const obs::Event& a = journal.events[i];
    const obs::Event& b = back.events[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.proc, b.proc);
    EXPECT_EQ(a.peer, b.peer);
    EXPECT_EQ(a.uid, b.uid);
    EXPECT_EQ(a.cause, b.cause);
    EXPECT_EQ(a.arg, b.arg);
    EXPECT_EQ(a.stamp, b.stamp);
  }

  EXPECT_THROW(obs::deserialize(bytes.data(), 3), std::runtime_error);
  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[0] = 'X';
  EXPECT_THROW(obs::deserialize(corrupt.data(), corrupt.size()),
               std::runtime_error);
  // Version 2 renumbered the kinds after `done`; a dump of any other
  // version would decode them wrong, so it is refused.
  for (const std::uint8_t version : {1, 3}) {
    corrupt = bytes;
    ASSERT_EQ(corrupt[4], 2u);  // the version varint follows the magic
    corrupt[4] = version;
    EXPECT_THROW(obs::deserialize(corrupt.data(), corrupt.size()),
                 std::runtime_error);
  }

  // A 32-bit field whose varint does not fit is rejected, not truncated:
  // proc (written +1) 2^32 + 6 would load as p5, stamp digit 2^32 + 3 as 3.
  const auto one_event_dump = [](std::uint64_t proc, std::uint64_t peer,
                                 std::uint64_t digit) {
    std::vector<std::uint8_t> out;
    for (const char c : obs::kJournalMagic) {
      out.push_back(static_cast<std::uint8_t>(c));
    }
    {
      net::codec::Writer w(out);
      // version, rank, processors, total_recorded, dropped, event count
      for (const std::uint64_t header : {2, 0, 16, 1, 0, 1}) w.varint(header);
      w.varint(1);  // id delta
      w.svarint(10);
      w.u8(static_cast<std::uint8_t>(obs::EventKind::kTwin));
      w.varint(proc);
      w.varint(peer);
      // uid, cause, arg
      for (const std::uint64_t field : {42, 0, 0}) w.varint(field);
      w.varint(1);  // stamp depth
      w.varint(digit);
    }  // the Writer trims its slack off the buffer here
    return out;
  };
  constexpr std::uint64_t k2to32 = std::uint64_t{1} << 32;
  const auto fits = one_event_dump(6, 0, 3);
  const obs::Journal loaded = obs::deserialize(fits.data(), fits.size());
  ASSERT_EQ(loaded.events.size(), 1u);
  EXPECT_EQ(loaded.events[0].proc, 5u);
  EXPECT_EQ(loaded.events[0].stamp, make_stamp({3}));
  for (const auto& dump : {one_event_dump(k2to32 + 6, 0, 3),
                           one_event_dump(6, k2to32 + 6, 3),
                           one_event_dump(6, 0, k2to32 + 3)}) {
    EXPECT_THROW(obs::deserialize(dump.data(), dump.size()),
                 std::runtime_error);
  }

  // Each tick delta fits in int64 but their running sum must too: two
  // crashes of delta INT64_MAX would overflow it.
  const auto crash_dump = [](std::uint64_t crashes) {
    std::vector<std::uint8_t> out;
    for (const char c : obs::kJournalMagic) {
      out.push_back(static_cast<std::uint8_t>(c));
    }
    {
      net::codec::Writer w(out);
      // version, rank, processors, total_recorded, dropped, event count
      for (const std::uint64_t header :
           std::initializer_list<std::uint64_t>{2, 0, 16, crashes, 0, crashes}) {
        w.varint(header);
      }
      for (std::uint64_t i = 0; i < crashes; ++i) {
        w.varint(1);  // id delta
        w.svarint(INT64_MAX);
        w.u8(static_cast<std::uint8_t>(obs::EventKind::kCrash));
        // proc, peer, uid, cause, arg, stamp depth
        for (const std::uint64_t field : {1, 0, 0, 0, 0, 0}) w.varint(field);
      }
    }  // the Writer trims its slack off the buffer here
    return out;
  };
  const auto one_crash = crash_dump(1);
  const obs::Journal at_max = obs::deserialize(one_crash.data(),
                                               one_crash.size());
  ASSERT_EQ(at_max.events.size(), 1u);
  EXPECT_EQ(at_max.events[0].ticks, INT64_MAX);
  const auto two_crashes = crash_dump(2);
  EXPECT_THROW(obs::deserialize(two_crashes.data(), two_crashes.size()),
               std::runtime_error);
}

// Writing is bounded the same way: a journal whose consecutive ticks span
// more than int64 holds (as a merge of dumps from either end of the range
// yields) is refused instead of encoding a wrapped delta.
TEST(Journal, WideAndDeepStampsRoundTrip) {
  // A dump stores a stamp as its depth and then each digit's 32-bit value,
  // whether the stamp keeps 16-bit digits inline or 32-bit ones on the
  // heap: a narrow stamp of depth 15, stamps wide by a digit past 16 bits,
  // and stamps wide by depth.
  std::vector<runtime::StampDigit> deep(40);
  for (std::size_t i = 0; i < deep.size(); ++i) {
    deep[i] = static_cast<runtime::StampDigit>(i * 1000);
  }
  std::vector<runtime::StampDigit> narrow(15, 65535);
  const std::vector<std::vector<runtime::StampDigit>> stamps = {
      {}, narrow, {70000, 3}, {3, UINT32_MAX}, deep, {65536}};
  obs::Journal journal;
  journal.header.processors = 4;
  journal.header.total_recorded = stamps.size();
  std::vector<std::uint8_t> want;
  for (const char c : obs::kJournalMagic) {
    want.push_back(static_cast<std::uint8_t>(c));
  }
  {
    net::codec::Writer w(want);
    // version, rank, processors, total_recorded, dropped, event count
    for (const std::uint64_t header :
         {std::uint64_t{2}, std::uint64_t{0}, std::uint64_t{4},
          std::uint64_t{stamps.size()}, std::uint64_t{0},
          std::uint64_t{stamps.size()}}) {
      w.varint(header);
    }
    for (std::size_t i = 0; i < stamps.size(); ++i) {
      obs::Event e;
      e.id = i + 1;
      e.ticks = static_cast<std::int64_t>(10 * i);
      e.kind = obs::EventKind::kTwin;
      e.stamp = make_stamp(stamps[i]);
      journal.events.push_back(e);
      w.varint(1);                      // id delta
      w.svarint(i == 0 ? 0 : 10);       // tick delta
      w.u8(static_cast<std::uint8_t>(obs::EventKind::kTwin));
      for (int field = 0; field < 5; ++field) w.varint(0);  // proc ... arg
      w.varint(stamps[i].size());
      for (const runtime::StampDigit d : stamps[i]) w.varint(d);
    }
  }  // the Writer trims its slack off the buffer here
  const std::vector<std::uint8_t> bytes = obs::serialize(journal);
  EXPECT_EQ(bytes, want);
  const obs::Journal back = obs::deserialize(bytes.data(), bytes.size());
  ASSERT_EQ(back.events.size(), stamps.size());
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    const runtime::LevelStamp& stamp = back.events[i].stamp;
    EXPECT_EQ(stamp, journal.events[i].stamp) << i;
    EXPECT_EQ(std::vector<runtime::StampDigit>(stamp.begin(), stamp.end()),
              stamps[i]);
  }
}

TEST(Journal, SerializeRejectsATickSpanBeyondInt64) {
  obs::Journal journal;
  for (const std::int64_t ticks : {INT64_MIN, INT64_MAX}) {
    obs::Event crash;
    crash.id = journal.events.size() + 1;
    crash.ticks = ticks;
    crash.kind = obs::EventKind::kCrash;
    crash.proc = 0;
    journal.events.push_back(crash);
  }
  EXPECT_THROW((void)obs::serialize(journal), std::runtime_error);
  journal.events.pop_back();  // one event at INT64_MIN is a delta from 0
  const std::vector<std::uint8_t> bytes = obs::serialize(journal);
  const obs::Journal loaded = obs::deserialize(bytes.data(), bytes.size());
  ASSERT_EQ(loaded.events.size(), 1u);
  EXPECT_EQ(loaded.events[0].ticks, INT64_MIN);
}

TEST(Journal, MergeRenumbersAndRemapsCausalEdges) {
  obs::Recorder r0;
  r0.configure(true, 64);
  r0.set_rank(0);
  const auto crash = r0.record(sim::SimTime(10), obs::EventKind::kCrash,
                               {.proc = 3});
  r0.record(sim::SimTime(30), obs::EventKind::kDetect, {.proc = 0, .peer = 3});

  obs::Recorder r1;
  r1.configure(true, 64);
  r1.set_rank(1);
  r1.record(sim::SimTime(20), obs::EventKind::kDetect, {.proc = 1, .peer = 3});

  const std::vector<obs::Journal> parts = {r0.snapshot(), r1.snapshot()};
  const obs::Journal merged = obs::merge(parts);
  ASSERT_EQ(merged.events.size(), 3u);
  // Time-ordered, ids renumbered consecutively from 1.
  EXPECT_EQ(merged.events[0].ticks, 10);
  EXPECT_EQ(merged.events[1].ticks, 20);
  EXPECT_EQ(merged.events[2].ticks, 30);
  for (std::size_t i = 0; i < merged.events.size(); ++i) {
    EXPECT_EQ(merged.events[i].id, i + 1);
  }
  // Rank 0's detect still chains to rank 0's crash after remapping; rank
  // 1's detect had no rank-local crash to chain to (its recorder inferred
  // nothing), so its cause stays empty.
  EXPECT_EQ(merged.events[0].kind, obs::EventKind::kCrash);
  EXPECT_EQ(merged.events[2].cause, merged.events[0].id);
  EXPECT_EQ(merged.events[1].cause, obs::kNoEvent);
  (void)crash;
}

TEST(Metrics, SamplingWindowsAccumulateGoodput) {
  obs::Metrics metrics;
  metrics.on_task_spawn();
  metrics.on_task_spawn();
  metrics.on_task_complete(100);
  metrics.sample(1000, /*queue_depth=*/7, /*in_flight=*/2,
                 /*checkpoint_residency=*/5);
  metrics.on_task_complete(200);
  metrics.sample(2000, 3, 1, 4);
  ASSERT_EQ(metrics.series().size(), 2u);
  EXPECT_EQ(metrics.series()[0].window_start, 0);
  EXPECT_EQ(metrics.series()[0].spawned, 2u);
  EXPECT_EQ(metrics.series()[0].completed, 1u);
  EXPECT_EQ(metrics.series()[0].queue_depth, 7u);
  EXPECT_EQ(metrics.series()[0].in_flight, 2u);
  EXPECT_EQ(metrics.series()[0].checkpoint_residency, 5u);
  EXPECT_EQ(metrics.series()[1].window_start, 1000);
  EXPECT_EQ(metrics.series()[1].spawned, 0u);
  EXPECT_EQ(metrics.series()[1].completed, 1u);
  EXPECT_EQ(metrics.latency().count(), 2u);  // whole-run histogram keeps both
}

// The integration fixture: a seeded partition-and-heal chaos run with the
// recorder on — the E19 recipe shrunk to suite scale.
core::RunResult run_chaos(core::SystemConfig cfg, obs::Journal* journal_out,
                          std::vector<obs::TimePoint>* series_out = nullptr) {
  cfg.reclaim.cancellation = true;
  cfg.reclaim.gc_interval = 0;
  const lang::Program program = lang::programs::tree_sum(7, 2, 400, 30);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::FaultPlan plan = net::FaultPlan::partition(
      net::RegionSpec::neighborhood(
          static_cast<net::ProcId>(cfg.processors - 1), 1),
      sim::SimTime(makespan / 4), sim::SimTime(makespan / 3));
  plan.with_seed(991);
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(plan);
  const core::RunResult result = sim.run();
  if (journal_out != nullptr) *journal_out = sim.recorder().snapshot();
  if (series_out != nullptr) *series_out = sim.recorder().metrics().series();
  return result;
}

TEST(FlightRecorder, JournalIsByteIdenticalAcrossTransports) {
  core::SystemConfig cfg = testing::base_config(16, 5);
  cfg.obs.recorder = true;

  obs::Journal inproc;
  const core::RunResult r1 = run_chaos(cfg, &inproc);
  ASSERT_TRUE(r1.completed && r1.answer_correct) << r1.summary();

  cfg.transport.backend = net::TransportKind::kShmRing;
  obs::Journal shm;
  const core::RunResult r2 = run_chaos(cfg, &shm);
  ASSERT_TRUE(r2.completed && r2.answer_correct) << r2.summary();

  // The same discipline transport_test applies to counters, raised to the
  // full event stream: the journal is a pure function of (config, program,
  // plan), not of the wire.
  EXPECT_EQ(obs::serialize(inproc), obs::serialize(shm));
}

TEST(FlightRecorder, ChaosRunJournalsTheRecoveryStory) {
  core::SystemConfig cfg = testing::base_config(16, 5);
  cfg.obs.recorder = true;

  obs::Journal journal;
  std::vector<obs::TimePoint> series;
  const core::RunResult result = run_chaos(cfg, &journal, &series);
  ASSERT_TRUE(result.completed && result.answer_correct) << result.summary();

  // The cut and its heal are journaled; so is at least one recovery action
  // caused (transitively) by the partition.
  std::uint64_t partitions = 0, heals = 0;
  for (const obs::Event& e : journal.events) {
    partitions += e.kind == obs::EventKind::kPartition;
    heals += e.kind == obs::EventKind::kHeal;
  }
  EXPECT_EQ(partitions, 1u);
  EXPECT_EQ(heals, 1u);

  // Every event is stamped when it happens, so in id order time never runs
  // backwards — the end of the run included.
  for (std::size_t i = 1; i < journal.events.size(); ++i) {
    EXPECT_GE(journal.events[i].ticks, journal.events[i - 1].ticks)
        << obs::to_string(journal.events[i].kind) << " id "
        << journal.events[i].id;
  }

  // arg 1 marks a checkpoint an ancestor's subsumes (§3.2). Nothing is
  // replayed from a durable log here, so the table records only journaled
  // checkpoints, and the marks add up to its subsumption count.
  ASSERT_EQ(journal.header.dropped, 0u);
  std::uint64_t subsumed = 0;
  for (const obs::Event& e : journal.events) {
    subsumed += e.kind == obs::EventKind::kCheckpoint && e.arg == 1;
  }
  EXPECT_GT(subsumed, 0u);
  EXPECT_EQ(subsumed, result.counters.checkpoint_subsumed);

  const obs::EventId reissue = obs::first_reissued(journal);
  ASSERT_NE(reissue, obs::kNoEvent);
  const std::vector<obs::EventId> chain = obs::chain_of(journal, reissue);
  ASSERT_GE(chain.size(), 2u);
  const obs::Event* root = journal.find(chain.front());
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->kind == obs::EventKind::kPartition ||
              root->kind == obs::EventKind::kCrash);

  // Sampling series: windows are time-ordered and goodput sums to no more
  // than the completions the counters saw.
  ASSERT_FALSE(series.empty());
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    completed += series[i].completed;
    if (i > 0) {
      EXPECT_GT(series[i].window_start, series[i - 1].window_start);
    }
  }
  EXPECT_LE(completed, result.counters.tasks_completed);

  // Exporters stay well-formed (schema checked in CI by
  // scripts/check_trace_json.py; shape checked here).
  std::ostringstream perfetto;
  obs::write_perfetto(journal, series, perfetto);
  const std::string trace = perfetto.str();
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);

  std::ostringstream csv;
  obs::write_series_csv(series, csv);
  EXPECT_EQ(csv.str().rfind("window_start,", 0), 0u);

  // The JSON export carries the CSV's windows: one object per row, keyed by
  // the header's columns in order, with the same values.
  std::ostringstream json;
  obs::write_series_json(series, json);
  std::istringstream csv_in(csv.str());
  std::istringstream json_in(json.str());
  const auto fields = [](const std::string& row) {
    std::vector<std::string> out;
    std::istringstream in(row);
    for (std::string field; std::getline(in, field, ',');) {
      out.push_back(field);
    }
    return out;
  };
  std::string line;
  std::getline(csv_in, line);
  const std::vector<std::string> columns = fields(line);
  ASSERT_TRUE(std::getline(json_in, line));
  EXPECT_EQ(line, "[");
  for (std::size_t i = 0; i < series.size(); ++i) {
    ASSERT_TRUE(std::getline(csv_in, line));
    const std::vector<std::string> values = fields(line);
    ASSERT_EQ(values.size(), columns.size());
    std::string expected = "  {";
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) expected += ',';
      expected += '"' + columns[c] + "\":" + values[c];
    }
    expected += i + 1 < series.size() ? "}," : "}";
    ASSERT_TRUE(std::getline(json_in, line));
    EXPECT_EQ(line, expected) << "window " << i;
  }
  ASSERT_TRUE(std::getline(json_in, line));
  EXPECT_EQ(line, "]");
  EXPECT_FALSE(std::getline(json_in, line));

  // summary() now carries the PR5/PR7 counters when the run exercised
  // them.
  const std::string summary = result.summary();
  EXPECT_EQ(summary.find("cancels=") != std::string::npos,
            result.counters.cancels_sent > 0 ||
                result.counters.tasks_cancelled > 0);
  EXPECT_EQ(summary.find("cut=") != std::string::npos,
            result.net.partition_cut > 0);
}

TEST(FlightRecorder, RecorderOnAndOffRunIdentically) {
  // The recorder only observes: on the classic loop, over either
  // single-process transport, the same seeded chaos run with and without
  // journaling ends identically.
  for (const net::TransportKind backend :
       {net::TransportKind::kInProcess, net::TransportKind::kShmRing}) {
    core::SystemConfig cfg = testing::base_config(16, 5);
    cfg.transport.backend = backend;
    cfg.obs.recorder = true;
    obs::Journal journal;
    const core::RunResult on = run_chaos(cfg, &journal);
    ASSERT_TRUE(on.completed && on.answer_correct) << on.summary();
    ASSERT_FALSE(journal.events.empty());

    cfg.obs.recorder = false;
    const core::RunResult off = run_chaos(cfg, nullptr);
    EXPECT_EQ(on.makespan_ticks, off.makespan_ticks);
    EXPECT_EQ(on.answer, off.answer);
    EXPECT_TRUE(on.counters == off.counters);
    for (std::size_t k = 0; k < net::kMsgKindCount; ++k) {
      EXPECT_EQ(on.net.sent[k], off.net.sent[k]) << "sent kind " << k;
      EXPECT_EQ(on.net.delivered[k], off.net.delivered[k])
          << "delivered kind " << k;
    }
  }
}

TEST(RecoveryOracle, ViolationsCarryTheCausalChain) {
  obs::Recorder rec;
  rec.configure(true, 64);
  rec.record(sim::SimTime(10), obs::EventKind::kCrash, {.proc = 3});
  rec.record(sim::SimTime(20), obs::EventKind::kDetect, {.proc = 1, .peer = 3});
  const obs::Journal journal = rec.snapshot();

  core::RunResult result;  // completed=false -> completion violation
  result.answer_checked = true;
  const auto report = recovery::RecoveryOracle::check(result, journal);
  ASSERT_FALSE(report.ok());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("completion"), std::string::npos);
  EXPECT_NE(text.find("causal chain:"), std::string::npos);
  EXPECT_NE(text.find("crash"), std::string::npos);

  // task-leak prefers the leak's own chain.
  obs::Recorder rec2;
  rec2.configure(true, 64);
  rec2.record(sim::SimTime(10), obs::EventKind::kCrash, {.proc = 3});
  rec2.record(sim::SimTime(30), obs::EventKind::kPlace, {.proc = 2, .uid = 9});
  rec2.record(sim::SimTime(90), obs::EventKind::kOracleLeak,
              {.proc = 2, .uid = 9});
  core::RunResult leaked;
  leaked.completed = true;
  leaked.counters.gc_oracle_orphans = 1;
  // Balance the conservation ledgers so only task-leak fires.
  leaked.counters.tasks_created = 1;
  leaked.counters.tasks_completed = 1;
  const auto leak_report =
      recovery::RecoveryOracle::check(leaked, rec2.snapshot());
  ASSERT_FALSE(leak_report.ok());
  const std::string leak_text = leak_report.to_string();
  EXPECT_NE(leak_text.find("task-leak"), std::string::npos);
  EXPECT_NE(leak_text.find("oracle-leak"), std::string::npos);
}

}  // namespace
}  // namespace splice
