// E13 — ablations of the design choices DESIGN.md §6 calls out:
//
//   A. Detection machinery: heartbeat interval vs detection latency vs
//      probe traffic (the paper assumes detection exists; this measures
//      what it costs in our model).
//   B. Ancestor-chain depth (§5.2): how long a chain is worth carrying,
//      under same-branch multi-faults.
//   C. Reissue scope: topmost-only (paper §3.2/§4.2) vs eager per-parent
//      respawn — message and work blowup vs salvage gain.
#include <cstdio>

#include "bench/harness.h"

using namespace splice;

int main(int argc, char** argv) {
  const bench::Options opt = bench::Options::parse(argc, argv);

  // ---- A. heartbeat interval ------------------------------------------
  {
    const lang::Program program = lang::programs::tree_sum(5, 2, 400, 40);
    util::Table table({"heartbeat", "detection latency", "probe msgs",
                       "recovery latency", "correct"});
    table.set_title("ablation A — failure-detection cadence (splice, 8 procs)");
    for (std::int64_t interval : {500, 1000, 2000, 4000, 8000}) {
      auto reps = bench::run_replicates(
          opt.replicates, program,
          [&](std::uint64_t s) {
            core::SystemConfig cfg;
            cfg.processors = 8;
            cfg.topology = net::TopologyKind::kMesh2D;
            cfg.recovery.kind = core::RecoveryKind::kSplice;
            cfg.heartbeat_interval = interval;
            cfg.seed = s * 19 + 3;
            return cfg;
          },
          [&](const core::SystemConfig& cfg, std::int64_t makespan,
              std::uint64_t seed) {
            return net::FaultPlan::single(
                static_cast<net::ProcId>((seed * 3 + 1) % cfg.processors), sim::SimTime(makespan / 2));
          });
      table.add_row(
          {util::Table::num(interval),
           util::Table::num(
               bench::mean_of(reps,
                              [](const bench::Replicate& r) {
                                return static_cast<double>(
                                    r.result.detection_ticks -
                                    r.result.first_failure_ticks);
                              }),
               0),
           util::Table::num(
               bench::mean_of(reps,
                              [](const bench::Replicate& r) {
                                return static_cast<double>(
                                    r.result.net.sent[static_cast<std::size_t>(
                                        net::MsgKind::kHeartbeat)]);
                              }),
               0),
           util::Table::num(bench::mean_of(reps,
                                           [](const bench::Replicate& r) {
                                             return static_cast<double>(
                                                 r.result.makespan_ticks -
                                                 r.clean_makespan);
                                           }),
                            0),
           std::to_string(bench::correct_count(reps)) + "/" +
               std::to_string(static_cast<int>(reps.size()))});
    }
    bench::emit(table, opt);
  }

  // ---- B. ancestor-chain depth ----------------------------------------
  {
    const lang::Program program = lang::programs::fib(12, 400);
    util::Table table({"chain depth", "correct", "stranded", "salvaged",
                       "packet units"});
    table.set_title(
        "ablation B — ancestor-chain depth under a 2-processor fault "
        "(splice, 8 procs)");
    for (std::uint32_t depth : {1U, 2U, 3U, 4U}) {
      auto reps = bench::run_replicates(
          opt.replicates, program,
          [&](std::uint64_t s) {
            core::SystemConfig cfg;
            cfg.processors = 8;
            cfg.topology = net::TopologyKind::kComplete;
            cfg.recovery.kind = core::RecoveryKind::kSplice;
            cfg.recovery.ancestor_depth = depth;
            cfg.heartbeat_interval = 1200;
            cfg.seed = s * 29 + 7;
            return cfg;
          },
          [&](const core::SystemConfig& cfg, std::int64_t makespan,
              std::uint64_t seed) {
            net::FaultPlan plan;
            // Two simultaneous victims: same-branch double faults occur by
            // chance across replicates.
            plan.timed.push_back(
                {static_cast<net::ProcId>(seed % cfg.processors),
                 sim::SimTime(makespan / 2)});
            plan.timed.push_back(
                {static_cast<net::ProcId>((seed + 3) % cfg.processors),
                 sim::SimTime(makespan / 2)});
            return plan;
          });
      table.add_row(
          {util::Table::num(static_cast<std::uint64_t>(depth)),
           std::to_string(bench::correct_count(reps)) + "/" +
               std::to_string(static_cast<int>(reps.size())),
           util::Table::num(
               bench::mean_of(reps,
                              [](const bench::Replicate& r) {
                                return static_cast<double>(
                                    r.result.counters.orphans_stranded);
                              }),
               2),
           util::Table::num(
               bench::mean_of(reps,
                              [](const bench::Replicate& r) {
                                return static_cast<double>(
                                    r.result.counters
                                        .orphan_results_salvaged);
                              }),
               1),
           // Wire cost of the chain: mean task-packet units sent.
           util::Table::num(
               bench::mean_of(reps,
                              [](const bench::Replicate& r) {
                                constexpr auto kPacket = static_cast<
                                    std::size_t>(net::MsgKind::kTaskPacket);
                                return static_cast<double>(
                                           r.result.net.units[kPacket]) /
                                       static_cast<double>(
                                           r.result.net.sent[kPacket]);
                              }),
               2)});
    }
    bench::emit(table, opt);
  }

  // ---- C. reissue scope -----------------------------------------------
  {
    const lang::Program program = lang::programs::tree_sum(6, 2, 500, 40);
    util::Table table({"scope", "faults", "correct", "reissued",
                       "recovery latency", "redone work"});
    table.set_title("ablation C — topmost-only vs eager reissue (splice)");
    for (std::uint32_t faults : {1U, 3U}) {
      for (bool eager : {false, true}) {
        auto reps = bench::run_replicates(
            opt.replicates, program,
            [&](std::uint64_t s) {
              core::SystemConfig cfg;
              cfg.processors = 8;
              cfg.topology = net::TopologyKind::kMesh2D;
              cfg.recovery.kind = core::RecoveryKind::kSplice;
              cfg.recovery.eager_respawn = eager;
              cfg.heartbeat_interval = 1200;
              cfg.seed = s * 47 + 1;
              return cfg;
            },
            [&](const core::SystemConfig& cfg, std::int64_t makespan,
                std::uint64_t seed) {
              net::FaultPlan plan;
              for (std::uint32_t f = 0; f < faults; ++f) {
                plan.timed.push_back(
                    {static_cast<net::ProcId>((seed + f * 2) %
                                              cfg.processors),
                     sim::SimTime(makespan / 2 +
                                  static_cast<std::int64_t>(f) * 500)});
              }
              return plan;
            });
        table.add_row(
            {eager ? "eager per-parent" : "topmost-only (paper)",
             util::Table::num(static_cast<std::uint64_t>(faults)),
             std::to_string(bench::correct_count(reps)) + "/" +
                 std::to_string(static_cast<int>(reps.size())),
             util::Table::num(
                 bench::mean_of(reps,
                                [](const bench::Replicate& r) {
                                  return static_cast<double>(
                                      r.result.counters.tasks_respawned);
                                }),
                 1),
             util::Table::num(bench::mean_of(reps,
                                             [](const bench::Replicate& r) {
                                               return static_cast<double>(
                                                   r.result.makespan_ticks -
                                                   r.clean_makespan);
                                             }),
                              0),
             util::Table::num(
                 bench::mean_of(reps,
                                [](const bench::Replicate& r) {
                                  return static_cast<double>(
                                      r.result.counters.busy_ticks);
                                }),
                 0)});
      }
    }
    bench::emit(table, opt);
  }
  std::printf(
      "reading: A — detection latency tracks the probe cadence, cost is\n"
      "linear probe traffic; B — depth 2 (the paper's grandparent) already\n"
      "catches most orphans, depth 3 removes the same-branch stranding at\n"
      "one extra packet unit; C — eager reissue respawns more and buys\n"
      "little over the paper's topmost rule.\n");
  return 0;
}
