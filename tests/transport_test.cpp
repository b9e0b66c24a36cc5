// Transport backend suite: the pluggable byte surfaces under the Network.
//
// The load-bearing property is the A/B oracle: a seeded run over the
// shared-memory ring backend — every envelope serialized through the wire
// codec, shipped through an SPSC byte ring, decoded on the far side —
// must produce *bit-identical* results to the same run over the
// in-process mailbox. Any divergence means the codec or the ring dropped,
// duplicated, or reordered protocol state, exactly the class of bug that
// would silently corrupt the multi-process TCP deployment.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "net/codec.h"
#include "net/shm_ring.h"
#include "net/transport.h"
#include "test_util.h"

namespace splice {
namespace {

core::RunResult run_with_backend(net::TransportKind backend,
                                 std::uint32_t ring_bytes,
                                 const lang::Program& program,
                                 std::uint64_t seed,
                                 const net::FaultPlan& plan,
                                 net::WireStats* wire_out = nullptr) {
  core::SystemConfig cfg = testing::base_config(8, seed);
  cfg.transport.backend = backend;
  cfg.transport.shm_ring_bytes = ring_bytes;
  core::Simulation sim(cfg, program);
  sim.set_fault_plan(plan);
  core::RunResult result = sim.run();
  if (wire_out != nullptr) {
    *wire_out = sim.runtime_for_test().network().wire();
  }
  return result;
}

/// Bit-identical across backends: every observable of the run must match,
/// from the answer through protocol counters to per-kind message totals.
void expect_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.answer, b.answer);
  EXPECT_EQ(a.answer_correct, b.answer_correct);
  EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
  EXPECT_EQ(a.detection_ticks, b.detection_ticks);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.stranded_tasks, b.stranded_tasks);

  EXPECT_EQ(a.counters.tasks_created, b.counters.tasks_created);
  EXPECT_EQ(a.counters.tasks_completed, b.counters.tasks_completed);
  EXPECT_EQ(a.counters.tasks_respawned, b.counters.tasks_respawned);
  EXPECT_EQ(a.counters.twins_created, b.counters.twins_created);
  EXPECT_EQ(a.counters.orphan_results_salvaged,
            b.counters.orphan_results_salvaged);
  EXPECT_EQ(a.counters.cancels_sent, b.counters.cancels_sent);
  EXPECT_EQ(a.counters.tasks_cancelled, b.counters.tasks_cancelled);
  EXPECT_EQ(a.counters.checkpoint_records, b.counters.checkpoint_records);
  EXPECT_EQ(a.counters.busy_ticks, b.counters.busy_ticks);

  for (std::size_t k = 0; k < net::kMsgKindCount; ++k) {
    EXPECT_EQ(a.net.sent[k], b.net.sent[k]) << "sent kind " << k;
    EXPECT_EQ(a.net.delivered[k], b.net.delivered[k]) << "delivered kind "
                                                      << k;
  }
  EXPECT_EQ(a.net.dropped_dead_dest, b.net.dropped_dead_dest);
  EXPECT_EQ(a.net.failure_notices, b.net.failure_notices);
  EXPECT_EQ(a.net.total_units, b.net.total_units);
  EXPECT_EQ(a.net.total_hop_units, b.net.total_hop_units);

  // Link-fault layer: every perturbation draw must land identically.
  EXPECT_EQ(a.net.partition_cut, b.net.partition_cut);
  EXPECT_EQ(a.net.link_dropped, b.net.link_dropped);
  EXPECT_EQ(a.net.gray_dropped, b.net.gray_dropped);
  EXPECT_EQ(a.net.link_duplicated, b.net.link_duplicated);
  EXPECT_EQ(a.net.link_reordered, b.net.link_reordered);
  EXPECT_EQ(a.net.link_delay_ticks, b.net.link_delay_ticks);
}

TEST(TransportAB, ShmRingMatchesInProcessFaultFree) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const lang::Program program = lang::programs::fib(12, 40);
    const auto inproc =
        run_with_backend(net::TransportKind::kInProcess, 1u << 20, program,
                         seed, net::FaultPlan::none());
    const auto shm =
        run_with_backend(net::TransportKind::kShmRing, 1u << 20, program,
                         seed, net::FaultPlan::none());
    ASSERT_TRUE(inproc.completed);
    expect_identical(inproc, shm);
  }
}

TEST(TransportAB, ShmRingMatchesInProcessUnderFaults) {
  // Crash a processor mid-run: recovery traffic (error broadcasts, twins,
  // result relays, bounced sends) must serialize deterministically too.
  // These runs answer near t = 1900 without the crash.
  const lang::Program program = lang::programs::nqueens(5);
  const net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(1000));
  for (const std::uint64_t seed : {1u, 5u}) {
    const auto inproc = run_with_backend(net::TransportKind::kInProcess,
                                         1u << 20, program, seed, plan);
    const auto shm = run_with_backend(net::TransportKind::kShmRing, 1u << 20,
                                      program, seed, plan);
    ASSERT_TRUE(inproc.completed);
    EXPECT_EQ(inproc.faults_injected, 1u);
    EXPECT_GT(inproc.counters.twins_created, 0u);
    expect_identical(inproc, shm);
  }
}

TEST(TransportAB, ShmRingMatchesInProcessUnderLinkFaults) {
  // Link-level chaos is shaped send-side, before the transport sees the
  // envelope — so drops, duplicates, reorder hold-backs, and jittered
  // delays must replay bit-identically whether the bytes then cross a
  // pooled mailbox or the serialized SPSC ring.
  net::LinkQuality q;
  q.drop_p = 0.1;
  q.dup_p = 0.1;
  q.reorder_p = 0.15;
  q.jitter = 25;
  net::GraySpec g;
  g.node = 6;
  g.start = sim::SimTime(1000);
  net::FaultPlan plan = net::FaultPlan::link(q);
  plan.merge(net::FaultPlan::gray(g));
  const lang::Program program = lang::programs::fib(12, 40);
  for (const std::uint64_t seed : {1u, 9u}) {
    plan.with_seed(seed);
    const auto inproc = run_with_backend(net::TransportKind::kInProcess,
                                         1u << 20, program, seed, plan);
    const auto shm = run_with_backend(net::TransportKind::kShmRing, 1u << 20,
                                      program, seed, plan);
    ASSERT_TRUE(inproc.completed) << inproc.summary();
    EXPECT_GT(inproc.net.link_dropped + inproc.net.gray_dropped, 0u);
    EXPECT_GT(inproc.net.link_duplicated, 0u);
    expect_identical(inproc, shm);
  }
}

TEST(TransportAB, TinyRingSpillsYetStaysIdentical) {
  // A deliberately undersized ring (min capacity, 256 bytes) forces the
  // spill path constantly; FIFO order across ring + spill deque must keep
  // the run bit-identical to the mailbox backend anyway.
  const lang::Program program = lang::programs::mergesort(64, 3);
  net::WireStats wire;
  const auto inproc =
      run_with_backend(net::TransportKind::kInProcess, 1u << 20, program, 2,
                       net::FaultPlan::none());
  const auto shm = run_with_backend(net::TransportKind::kShmRing, 1, program,
                                    2, net::FaultPlan::none(), &wire);
  ASSERT_TRUE(inproc.completed);
  expect_identical(inproc, shm);
  EXPECT_GT(wire.ring_spills, 0u) << "256-byte ring never overflowed; the "
                                     "spill path went unexercised";
}

TEST(TransportAB, WireStatsAccumulate) {
  net::WireStats wire;
  const auto shm =
      run_with_backend(net::TransportKind::kShmRing, 1u << 20,
                       lang::programs::fib(10, 40), 1, net::FaultPlan::none(),
                       &wire);
  ASSERT_TRUE(shm.completed);
  EXPECT_GT(wire.frames, 0u);
  EXPECT_GT(wire.payload_bytes, 0u);
  // Framing overhead on the ring is exactly its record header (length +
  // sequence tag) per frame; the TCP backend instead pays the u32 prefix
  // (codec::kFrameHeaderBytes), which the smoke script exercises.
  EXPECT_EQ(wire.frame_bytes,
            wire.payload_bytes + wire.frames * net::ShmRing::record_bytes(0));
  // The in-process backend never touches the codec.
  net::WireStats mailbox;
  const auto inproc =
      run_with_backend(net::TransportKind::kInProcess, 1u << 20,
                       lang::programs::fib(10, 40), 1, net::FaultPlan::none(),
                       &mailbox);
  ASSERT_TRUE(inproc.completed);
  EXPECT_EQ(mailbox.frames, 0u);
}

TEST(TransportKindNames, ParseAndPrint) {
  EXPECT_EQ(net::parse_transport("inproc"), net::TransportKind::kInProcess);
  EXPECT_EQ(net::parse_transport("shm"), net::TransportKind::kShmRing);
  EXPECT_EQ(net::parse_transport("tcp"), net::TransportKind::kTcp);
  for (const net::TransportKind kind :
       {net::TransportKind::kInProcess, net::TransportKind::kShmRing,
        net::TransportKind::kTcp}) {
    EXPECT_EQ(net::parse_transport(net::to_string(kind)), kind);
  }
  EXPECT_THROW((void)net::parse_transport("carrier-pigeon"),
               std::invalid_argument);
}

TEST(ShmRingUnit, WrapsAcrossTheByteBoundary) {
  // Byte-granular ring: records straddle the wrap point whenever
  // (position % capacity) + record size crosses capacity. Cycle enough
  // odd-sized records through a minimum-size ring to hit many distinct
  // wrap offsets and verify payload fidelity every time.
  net::ShmRing ring(1);  // clamps up to the 256-byte minimum
  ASSERT_EQ(ring.capacity(), 256u);
  std::uint64_t seq = 0;
  net::ShmRing::Record rec;
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t len = 1 + (round * 7) % 40;
    std::vector<std::uint8_t> body(len);
    for (std::uint32_t i = 0; i < len; ++i) {
      body[i] = static_cast<std::uint8_t>(round + i);
    }
    ASSERT_TRUE(ring.push(seq, body.data(), len));
    ASSERT_TRUE(ring.pop(&rec));
    EXPECT_EQ(rec.seq, seq);
    EXPECT_EQ(rec.bytes, body);
    ++seq;
  }
  EXPECT_TRUE(ring.empty());
}

TEST(ShmRingUnit, PushFailsWhenFullThenRecovers) {
  net::ShmRing ring(1);
  const std::vector<std::uint8_t> body(100, 0xAB);
  std::uint64_t seq = 0;
  // 100-byte bodies occupy 112 ring bytes each: two fit, the third spills.
  ASSERT_TRUE(ring.push(seq++, body.data(), 100));
  ASSERT_TRUE(ring.push(seq++, body.data(), 100));
  EXPECT_FALSE(ring.push(seq, body.data(), 100));
  net::ShmRing::Record rec;
  ASSERT_TRUE(ring.pop(&rec));
  EXPECT_EQ(rec.seq, 0u);
  EXPECT_TRUE(ring.push(seq++, body.data(), 100));  // space reclaimed
  ASSERT_TRUE(ring.pop(&rec));
  ASSERT_TRUE(ring.pop(&rec));
  EXPECT_EQ(rec.seq, 2u);
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace splice
