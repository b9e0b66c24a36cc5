#include "workloads.h"

#include "lang/programs.h"

namespace perfbench {

using splice::core::SchedulerKind;
using splice::core::SystemConfig;
using splice::lang::Program;
using splice::net::FaultPlan;
using splice::net::ProcId;
using splice::sim::SimTime;

namespace {

namespace programs = splice::lang::programs;

// Fault-plan RNG streams (Poisson arrivals, link draws) get their own seed,
// distinct from the machine's scheduler seed.
std::uint64_t plan_seed(std::uint64_t run_seed) {
  return run_seed * 31 + 7;
}

// Random placement in every workload: it makes nearly every spawn remote,
// so nearly every spawn records a functional checkpoint, and it keeps the
// classic loop and the sharded engine on nearly the same schedule
// (fault-free makespan 12155 vs 11994 ticks on tree_sum(14)); under
// local-first the two diverge by 37% (116190 vs 72939 ticks).
SystemConfig torus_random(std::uint32_t processors, std::uint64_t run_seed) {
  SystemConfig cfg;
  cfg.processors = processors;
  cfg.topology = splice::net::TopologyKind::kTorus2D;
  cfg.scheduler.kind = SchedulerKind::kRandom;
  cfg.recovery.kind = splice::core::RecoveryKind::kSplice;
  cfg.seed = run_seed;
  return cfg;
}

// ---- one-crash -------------------------------------------------------------
// The paper's base case at the full checkpoint rate: one crash hits live
// work on a 256-processor machine. Measured for seed 71: 67.5k checkpoint
// records, 47k peak entries, 199 twins, 0.69-0.99 s per run. The old E16
// "one mid-run fault" (local-first, tree_sum(12)) respawned nothing — 0
// tasks_respawned, 1318 records for 8191 tasks — which is why this
// workload uses random placement and a 65,535-call tree instead.
Program one_crash_program() { return programs::tree_sum(15, 2, 60, 10); }

SystemConfig one_crash_config(std::uint64_t run_seed) {
  return torus_random(256, run_seed);
}

FaultPlan one_crash_plan(const SystemConfig& cfg, std::int64_t makespan,
                         std::uint64_t run_seed) {
  return FaultPlan::single(static_cast<ProcId>(cfg.processors / 3),
                           SimTime(makespan / 2))
      .with_seed(plan_seed(run_seed));
}

// ---- one-crash-sharded -----------------------------------------------------
// one-crash's inputs on the PDES engine with 3 shard workers (plus the
// coordinating caller: 4 threads). The only workload where
// runtime/pdes_engine runs; one-crash is its bypass, and the ratio of their
// run_s_p50 is the engine-vs-classic figure. Its host time is too unsteady
// on a shared 4-vCPU host for a regression bound — 0.48-1.32 s per run, the
// per-process median seen to move 2x between two invocations (1.14 s vs
// 0.53 s), run_s_p50 0.43-0.85 s over five workload seeds — so it runs by
// name only.
SystemConfig one_crash_sharded_config(std::uint64_t run_seed) {
  SystemConfig cfg = one_crash_config(run_seed);
  cfg.parallel.shards = 3;
  return cfg;
}

// ---- warm-rejoin and crash-rejoin -----------------------------------------
// Recovery over real bytes: crashes, each followed by a warm rejoin from a
// local durable log, on lossy links, through the shm ring transport with the
// flight recorder on. recovery (twins, salvage, cancels), store (log replay,
// state transfer), the codec and transport (every message encoded and
// decoded) and obs (journal) do most of their work here and none in
// one-crash.
//
// crash-rejoin is the churn case: Poisson crashes (mean interval makespan/16
// from makespan/6, at most 24). Measured: 23-24 crashes, 108-170 twins,
// 234-411 reissues avoided, 0.15-0.25 s per run; the shm transport plus the
// recorder add about 40% over in-process with the recorder off. But about
// 1 run seed in 50 never completes (it runs to the deadline, tens of
// millions of messages), with warm or cold rejoin and with or without the
// lossy links — a liveness defect of the recovery stack under churn, e.g.
// `--workload crash-rejoin --seed 404`. So crash-rejoin stays runnable as
// its reproduction, and warm-rejoin — the same machine with one crash, which
// completed on every one of 600 seeds tried — is the workload that measures
// these layers.
Program crash_rejoin_program() { return programs::tree_sum(12, 2, 400, 30); }

SystemConfig crash_rejoin_config(std::uint64_t run_seed) {
  SystemConfig cfg = torus_random(128, run_seed);
  cfg.store.model = splice::store::Persistency::kLocal;
  cfg.transport.backend = splice::net::TransportKind::kShmRing;
  cfg.obs.recorder = true;
  return cfg;
}

FaultPlan with_lossy_warm_rejoin(FaultPlan plan, std::int64_t makespan,
                                 std::uint64_t run_seed) {
  splice::net::LinkQuality lossy;
  lossy.drop_p = 0.01;
  lossy.reorder_p = 0.02;
  lossy.jitter = 10;
  plan.merge(FaultPlan::link(lossy));
  plan.with_rejoin(SimTime(makespan / 10), splice::net::RejoinMode::kWarm);
  plan.with_seed(plan_seed(run_seed));
  return plan;
}

FaultPlan warm_rejoin_plan(const SystemConfig& cfg, std::int64_t makespan,
                           std::uint64_t run_seed) {
  return with_lossy_warm_rejoin(
      FaultPlan::single(static_cast<ProcId>(cfg.processors / 3),
                        SimTime(makespan / 2)),
      makespan, run_seed);
}

FaultPlan crash_rejoin_plan(const SystemConfig&, std::int64_t makespan,
                            std::uint64_t run_seed) {
  splice::net::RecurringFault arrivals;
  arrivals.start = SimTime(makespan / 6);
  arrivals.mean_interval = static_cast<double>(makespan) / 16;
  arrivals.max_faults = 24;
  return with_lossy_warm_rejoin(FaultPlan::poisson(arrivals), makespan,
                                run_seed);
}

// ---- partition-heal --------------------------------------------------------
// Section 1's "unreachable is faulty" path: live peers on both sides of a
// cut condemn each other, so failure detection fires without a crash.
// Measured: 1.08M of 1.13M messages are error-detection, 726k of those are
// bounce retransmits to live peers across the cut, tasks created are 3-7x
// the program's calls, and a run takes 1.1-1.3 s — over 40x the same
// program without the cut.
Program partition_heal_program() { return programs::tree_sum(11, 2, 400, 30); }

SystemConfig partition_heal_config(std::uint64_t run_seed) {
  return torus_random(128, run_seed);
}

FaultPlan partition_heal_plan(const SystemConfig& cfg, std::int64_t makespan,
                              std::uint64_t run_seed) {
  return FaultPlan::partition(splice::net::RegionSpec::neighborhood(
                                  static_cast<ProcId>(cfg.processors - 1), 2),
                              SimTime(makespan / 4), SimTime(makespan / 3))
      .with_seed(plan_seed(run_seed));
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"one-crash",
       "one crash at half makespan, 256 procs: sim, runtime, checkpoint, "
       "sched and the allocator do most of their work; store, codec, obs "
       "and pdes none",
       5, true, one_crash_program, one_crash_config, one_crash_plan},
      {"warm-rejoin",
       "one crash with warm rejoin over lossy shm-ring links, recorder on: "
       "recovery, store, codec, transport and obs",
       25, true, crash_rejoin_program, crash_rejoin_config, warm_rejoin_plan},
      {"partition-heal",
       "a healed partition between live peers: failure detection and the "
       "error-detection retransmit storm without a crash",
       21, true, partition_heal_program, partition_heal_config, partition_heal_plan},
      {"one-crash-sharded",
       "one-crash on the PDES engine with 3 shards: the only workload that "
       "runs runtime/pdes_engine; one-crash is its bypass",
       5, false, one_crash_program, one_crash_sharded_config, one_crash_plan},
      {"crash-rejoin",
       "warm-rejoin under churn, up to 24 Poisson crashes: reproduces a "
       "liveness defect on about 1 run seed in 50",
       25, false, crash_rejoin_program, crash_rejoin_config, crash_rejoin_plan},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
