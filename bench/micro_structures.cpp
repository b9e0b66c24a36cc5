// E12 — google-benchmark micro-benchmarks of the core data structures:
// level-stamp algebra, checkpoint-table operations, the event queue, the
// gradient proximity relaxation, and whole-simulation throughput.
#include <benchmark/benchmark.h>

#include "checkpoint/checkpoint_table.h"
#include "core/simulation.h"
#include "lang/programs.h"
#include "net/codec.h"
#include "net/transport.h"
#include "runtime/level_stamp.h"
#include "sched/gradient.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace {

using namespace splice;

runtime::LevelStamp random_stamp(util::Xoshiro256& rng, std::size_t depth) {
  runtime::LevelStamp s;
  for (std::size_t i = 0; i < depth; ++i) {
    s = s.child(static_cast<runtime::StampDigit>(rng.next_below(4)));
  }
  return s;
}

void BM_LevelStampChild(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  const runtime::LevelStamp base =
      random_stamp(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.child(7));
  }
}
BENCHMARK(BM_LevelStampChild)->Arg(4)->Arg(16)->Arg(64);

void BM_LevelStampAncestry(benchmark::State& state) {
  util::Xoshiro256 rng(2);
  const auto depth = static_cast<std::size_t>(state.range(0));
  const runtime::LevelStamp a = random_stamp(rng, depth);
  const runtime::LevelStamp b = a.child(1).child(2).child(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.is_ancestor_of(b));
  }
}
BENCHMARK(BM_LevelStampAncestry)->Arg(4)->Arg(16)->Arg(64);

/// One spawn per record: the packet its owner slot retains, filed against
/// one of 8 destinations.
struct Spawn {
  checkpoint::CheckpointRecord record;
  runtime::TaskPacket packet;
  net::ProcId dest = 0;
};

std::vector<Spawn> random_spawns(std::size_t n) {
  util::Xoshiro256 rng(3);
  std::vector<Spawn> spawns(n);
  for (std::size_t i = 0; i < n; ++i) {
    spawns[i].record.owner = i;
    spawns[i].record.site = 1;
    spawns[i].packet.stamp = random_stamp(rng, 1 + rng.next_below(6));
    spawns[i].dest = static_cast<net::ProcId>(i % 8);
  }
  return spawns;
}

void BM_CheckpointTableRecord(benchmark::State& state) {
  const std::vector<Spawn> spawns =
      random_spawns(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    checkpoint::CheckpointTable table(0, 8);
    for (const Spawn& s : spawns) {
      benchmark::DoNotOptimize(table.record(s.dest, s.record, s.packet));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spawns.size()));
}
BENCHMARK(BM_CheckpointTableRecord)->Arg(64)->Arg(512)->Arg(4096);

// The result path: every record filed, then released at the destination
// its slot names, as each child's result returns.
void BM_CheckpointTableRelease(benchmark::State& state) {
  const std::vector<Spawn> spawns =
      random_spawns(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    checkpoint::CheckpointTable table(0, 8);
    for (const Spawn& s : spawns) table.record(s.dest, s.record, s.packet);
    for (const Spawn& s : spawns) {
      benchmark::DoNotOptimize(table.release(s.dest, s.packet.stamp));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spawns.size()));
}
BENCHMARK(BM_CheckpointTableRelease)->Arg(64)->Arg(512)->Arg(4096);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(4);
  std::vector<std::int64_t> times(n);
  for (auto& t : times) t = static_cast<std::int64_t>(rng.next_below(100000));
  for (auto _ : state) {
    sim::EventQueue q;
    std::int64_t sink = 0;
    for (std::int64_t t : times) {
      q.schedule(sim::SimTime(t), [&sink] { ++sink; });
    }
    while (!q.empty()) q.run_next();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

// Steady-state ladder behaviour: a rolling horizon of pending events, pop
// one / push one — the simulator's actual access pattern (near-future
// window hits, no heap churn).
void BM_EventQueueSteadyState(benchmark::State& state) {
  const auto horizon = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(5);
  sim::EventQueue q;
  std::int64_t now = 0;
  std::int64_t sink = 0;
  for (std::size_t i = 0; i < horizon; ++i) {
    q.schedule(sim::SimTime(static_cast<std::int64_t>(rng.next_below(500))),
               [&sink] { ++sink; });
  }
  for (auto _ : state) {
    now = q.run_next().ticks();
    q.schedule(
        sim::SimTime(now + 2 + static_cast<std::int64_t>(rng.next_below(500))),
        [&sink] { ++sink; });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(256)->Arg(4096);

// Variant-payload envelope round trip: build, move through a pool slot, and
// dispatch — a task-packet send, whose one allocation is the payload's box.
// items/sec ~ envelopes/sec.
void BM_EnvelopeVariantRoundtrip(benchmark::State& state) {
  runtime::TaskPacket packet;
  packet.stamp = runtime::LevelStamp::root().child(3).child(1).child(4);
  packet.fn = 1;
  packet.args = {lang::Value::integer(42), lang::Value::integer(7)};
  packet.ancestors.push_back(runtime::TaskRef{1, 10});
  packet.ancestors.push_back(runtime::TaskRef{2, 20});
  std::vector<net::Envelope> pool(1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    net::Envelope env;
    env.kind = net::MsgKind::kTaskPacket;
    env.from = 1;
    env.to = 2;
    env.payload = packet;  // the one copy a real send performs
    pool[0] = std::move(env);               // pool_acquire
    net::Envelope delivered = std::move(pool[0]);  // pool_release
    auto got = std::move(
        *std::get<net::Boxed<runtime::TaskPacket>>(delivered.payload));
    sink += got.stamp.depth() + got.args.size();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EnvelopeVariantRoundtrip);

// Representative wire traffic for the codec benches: the kinds that
// dominate a run (task packets, returned results, spawn acks, heartbeats),
// with realistic stamp depths and ancestor chains.
std::vector<net::Envelope> sample_wire_mix() {
  std::vector<net::Envelope> mix;

  runtime::TaskPacket packet;
  packet.stamp = runtime::LevelStamp::root().child(3).child(1).child(4);
  packet.fn = 2;
  packet.args = {lang::Value::integer(42), lang::Value::integer(7)};
  packet.call_site = 3;
  packet.ancestors.push_back(runtime::TaskRef{1, 10});
  packet.ancestors.push_back(runtime::TaskRef{2, 20});
  net::Envelope spawn;
  spawn.kind = net::MsgKind::kTaskPacket;
  spawn.from = 1;
  spawn.to = 2;
  spawn.payload = std::move(packet);
  mix.push_back(std::move(spawn));

  runtime::ResultMsg result;
  result.stamp = runtime::LevelStamp::root().child(3).child(1).child(4);
  result.call_site = 3;
  result.value = lang::Value::integer(123456789);
  result.target = runtime::TaskRef{1, 10};
  result.ancestors.push_back(runtime::TaskRef{2, 20});
  net::Envelope ret;
  ret.kind = net::MsgKind::kForwardResult;
  ret.from = 2;
  ret.to = 1;
  ret.payload = std::move(result);
  mix.push_back(std::move(ret));

  runtime::AckMsg ack;
  ack.stamp = runtime::LevelStamp::root().child(3).child(1);
  ack.call_site = 1;
  ack.parent = runtime::TaskRef{1, 10};
  ack.child = runtime::TaskRef{2, 21};
  net::Envelope acked;
  acked.kind = net::MsgKind::kSpawnAck;
  acked.from = 2;
  acked.to = 1;
  acked.payload = ack;
  mix.push_back(std::move(acked));

  net::Envelope beat;
  beat.kind = net::MsgKind::kHeartbeat;
  beat.from = 3;
  beat.to = 4;
  beat.payload = runtime::HeartbeatMsg{977};
  mix.push_back(std::move(beat));
  return mix;
}

// Serialization cost per message: items/sec over the representative mix is
// messages/sec (ns/msg = 1e9 / items_per_second); bytes/sec reflects the
// encoded density. bench_json.py records both into BENCH_PR9.json.
void BM_CodecEncode(benchmark::State& state) {
  const std::vector<net::Envelope> mix = sample_wire_mix();
  std::vector<std::uint8_t> buf;
  std::size_t bytes = 0;
  for (auto _ : state) {
    buf.clear();
    for (const net::Envelope& env : mix) {
      net::codec::encode_envelope(env, buf);
    }
    bytes = buf.size();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(mix.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  std::vector<std::vector<std::uint8_t>> encoded;
  std::size_t bytes = 0;
  for (const net::Envelope& env : sample_wire_mix()) {
    encoded.push_back(net::codec::encode_envelope(env));
    bytes += encoded.back().size();
  }
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (const auto& buf : encoded) {
      const net::Envelope env =
          net::codec::decode_envelope(buf.data(), buf.size());
      sink += static_cast<std::uint64_t>(env.kind) + env.to;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(encoded.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CodecDecode);

// End-to-end wire density: a full seeded run over the shared-memory ring
// backend (every protocol message serialized through the codec) reporting
// encoded bytes per simulated event and per message, plus the measured
// encode/decode ns per message. These counters land in BENCH_PR9.json.
void BM_WireBytesPerEvent(benchmark::State& state) {
  const lang::Program program = lang::programs::tree_sum(8, 2, 60, 10);
  core::SystemConfig cfg;
  cfg.processors = 16;
  cfg.topology = net::TopologyKind::kTorus2D;
  cfg.scheduler.kind = core::SchedulerKind::kLocalFirst;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 2000;
  cfg.seed = 71;
  cfg.transport.backend = net::TransportKind::kShmRing;
  std::uint64_t frames = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    core::Simulation sim(cfg, program);
    const core::RunResult r = sim.run();
    if (!r.completed) state.SkipWithError("did not complete");
    const net::WireStats& wire = sim.runtime_for_test().network().wire();
    frames += wire.frames;
    payload_bytes += wire.payload_bytes;
    encode_ns += wire.encode_ns;
    decode_ns += wire.decode_ns;
    events += r.sim_events;
  }
  if (frames > 0 && events > 0) {
    const auto d = [](std::uint64_t num, std::uint64_t den) {
      return static_cast<double>(num) / static_cast<double>(den);
    };
    state.counters["bytes_per_event"] = d(payload_bytes, events);
    state.counters["bytes_per_msg"] = d(payload_bytes, frames);
    state.counters["encode_ns_per_msg"] = d(encode_ns, frames);
    state.counters["decode_ns_per_msg"] = d(decode_ns, frames);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_WireBytesPerEvent)->Unit(benchmark::kMillisecond);

// Whole-simulator throughput gate (bench_json.py records items/sec =
// simulated events/sec into BENCH_PR9.json alongside the tab_scalability
// sweep).
void BM_SimThroughput(benchmark::State& state) {
  const auto procs = static_cast<std::uint32_t>(state.range(0));
  const lang::Program program = lang::programs::tree_sum(10, 2, 60, 10);
  core::SystemConfig cfg;
  cfg.processors = procs;
  cfg.topology = net::TopologyKind::kTorus2D;
  cfg.scheduler.kind = core::SchedulerKind::kLocalFirst;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 2000;
  cfg.seed = 71;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const auto plan = net::FaultPlan::single(
      static_cast<net::ProcId>(procs / 3), sim::SimTime(makespan / 2));
  std::int64_t events = 0;
  for (auto _ : state) {
    const core::RunResult r = core::run_once(cfg, program, plan);
    if (!r.completed) state.SkipWithError("did not complete");
    events += static_cast<std::int64_t>(r.sim_events);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_SimThroughput)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

// Per-shard journal rings: in engine mode each worker records into its own
// ring during the window and merge_journals() splices them into the
// canonical journal afterwards, so journaling a sharded run must cost about
// what the single-ring recorder does (~12% over recorder-off is the gate
// bench_json.py tracks). Arg = shard count; 0 is the classic single-queue
// path with the recorder on, the baseline the sharded rings are held to.
void BM_JournalRecordSharded(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  const lang::Program program = lang::programs::tree_sum(8, 2, 60, 10);
  core::SystemConfig cfg;
  cfg.processors = 32;
  cfg.topology = net::TopologyKind::kTorus2D;
  cfg.scheduler.kind = core::SchedulerKind::kLocalFirst;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 2000;
  cfg.seed = 71;
  cfg.parallel.shards = shards;
  cfg.obs.recorder = true;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const auto plan = net::FaultPlan::single(
      static_cast<net::ProcId>(32 / 3), sim::SimTime(makespan / 2));
  std::int64_t events = 0;
  for (auto _ : state) {
    const core::RunResult r = core::run_once(cfg, program, plan);
    if (!r.completed) state.SkipWithError("did not complete");
    events += static_cast<std::int64_t>(r.sim_events);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_JournalRecordSharded)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_GradientRelaxation(benchmark::State& state) {
  const auto n = static_cast<net::ProcId>(state.range(0));
  net::Topology topo(net::TopologyKind::kTorus2D, n);
  lang::Program program = lang::programs::fib(3);
  std::vector<std::uint32_t> load(n, 5);
  load[n / 2] = 0;
  sched::GradientScheduler sched(100);
  sched::SchedulerEnv env;
  env.topology = &topo;
  env.program = &program;
  env.alive = [](net::ProcId) { return true; };
  env.queue_length = [&load](net::ProcId p) { return load[p]; };
  env.seed = 1;
  sched.attach(env);
  for (auto _ : state) {
    sched.refresh_now();
    benchmark::DoNotOptimize(sched.proximities().data());
  }
}
BENCHMARK(BM_GradientRelaxation)->Arg(16)->Arg(64)->Arg(256);

void BM_WholeSimulationFib(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) {
    core::SystemConfig cfg;
    cfg.processors = 8;
    cfg.topology = net::TopologyKind::kMesh2D;
    cfg.recovery.kind = core::RecoveryKind::kSplice;
    cfg.heartbeat_interval = 2000;
    const core::RunResult r =
        core::run_once(cfg, lang::programs::fib(n, 20));
    if (!r.completed) state.SkipWithError("did not complete");
    benchmark::DoNotOptimize(r.makespan_ticks);
  }
}
BENCHMARK(BM_WholeSimulationFib)->Arg(8)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_WholeSimulationWithFault(benchmark::State& state) {
  const lang::Program program = lang::programs::tree_sum(4, 3, 150, 30);
  core::SystemConfig cfg;
  cfg.processors = 8;
  cfg.topology = net::TopologyKind::kMesh2D;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 2000;
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  for (auto _ : state) {
    const core::RunResult r = core::run_once(
        cfg, program, net::FaultPlan::single(3, sim::SimTime(makespan / 2)));
    if (!r.completed) state.SkipWithError("did not complete");
    benchmark::DoNotOptimize(r.makespan_ticks);
  }
}
BENCHMARK(BM_WholeSimulationWithFault)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
