// E11 — scalability: processors 2..256 across topologies.
// E16 — simulator throughput: the recorded perf trajectory.
// E17 — duplicate reclaim: the cancel protocol vs. no reclaim at all.
// E19 — goodput + reclaim latency under link-level chaos (partition-and-heal
//       and gray-failure churn) at 128/256 processors.
// E20 — flight-recorder cost + the recovery story as a time series: E19's
//       partition-heal at 128 processors with the recorder on, reported as
//       per-window goodput and latency quantiles, plus the recorder's
//       throughput overhead (off vs. on) on the E16 workload.
//
// The paper positions applicative systems as "promising candidates for
// achieving high performance computing through aggregation of processors"
// (§1); recovery must not destroy that scaling. Table 1: machine size x
// topology — fault-free makespan/speedup, recovery latency and
// error-broadcast traffic for a mid-run fault. Table 2: the 64- to
// 256-processor machines under recurring (Poisson) fault *rates* with
// repair, the regime large fleets actually live in. Table 3 (E16): wall-
// clock throughput of the simulator itself — events/sec, heap allocations
// per event and the row's peak live heap (global counting allocator in this
// binary) — at 32/64/128/256 processors. `--perf-json PATH` dumps table 3 as
// JSON; scripts/bench_json.py wraps it into BENCH_PR9.json and enforces the
// regression guard.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sim/inplace_function.h"

// ---------------------------------------------------------------------------
// Counting allocator: every heap allocation in this binary bumps a counter,
// so the throughput table can report allocations *per simulated event* — the
// metric the allocation-free messaging work is held to — and tracks live
// bytes (malloc_usable_size, so delete needs no size header) with a
// resettable high-water mark, so each row reports its own peak heap.
// ---------------------------------------------------------------------------
namespace {
std::atomic<unsigned long long> g_allocs{0};
std::atomic<long long> g_live_bytes{0};
std::atomic<long long> g_peak_bytes{0};

void note_alloc(void* p) noexcept {
  const auto bytes = static_cast<long long>(malloc_usable_size(p));
  const long long live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  long long peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  g_allocs.fetch_add(1, std::memory_order_relaxed);
}

void release(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}

/// Restart the high-water mark at the current live bytes; returns them.
long long reset_peak_heap() noexcept {
  const long long live = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(live, std::memory_order_relaxed);
  return live;
}
}  // namespace

// noinline: when GCC >= 12 inlines these TU-local replacements into STL
// container code it pairs the malloc in the inlined new with the free in the
// inlined delete and misreports -Wmismatched-new-delete; keeping the bodies
// opaque preserves the standard new/delete pairing the analyzer checks.
__attribute__((noinline)) void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}
__attribute__((noinline)) void* operator new(std::size_t n,
                                             std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) & ~(a - 1));
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  release(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  release(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  release(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  release(p);
}

using namespace splice;

namespace {

/// Machine-speed calibration: a fixed, pure-CPU integer loop whose rate
/// scales with single-core speed. The perf JSON stores events/sec both raw
/// and divided by this, so the regression guard compares machines fairly.
double calibration_mops() {
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto t0 = std::chrono::steady_clock::now();
  constexpr std::uint64_t kIters = 60'000'000;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sink = sink + x;
  }
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(kIters) /
         std::chrono::duration<double>(t1 - t0).count() / 1e6;
}

struct ThroughputRow {
  std::uint32_t procs = 0;
  double events_per_sec = 0;
  double allocs_per_event = 0;
  std::uint64_t events = 0;
  /// Highest live heap during the row, above what was live when it began.
  long long peak_heap_kb = 0;
  std::uint64_t checkpoint_peak = 0;
  std::uint64_t eventfn_heap_fallbacks = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::Options::parse(argc, argv);
  const char* perf_json = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--perf-json") == 0 && i + 1 < argc) {
      perf_json = argv[i + 1];
    }
  }

  const lang::Program program = lang::programs::tree_sum(6, 2, 400, 30);

  auto config_for = [&](std::uint32_t procs, net::TopologyKind topo,
                        std::uint64_t seed) {
    core::SystemConfig cfg;
    cfg.processors = procs;
    cfg.topology = topo;
    cfg.scheduler.kind = core::SchedulerKind::kLocalFirst;
    cfg.recovery.kind = core::RecoveryKind::kSplice;
    cfg.heartbeat_interval = 2000;
    cfg.seed = seed * 41 + 29;
    return cfg;
  };

  // Serial reference: one processor.
  auto serial = bench::run_replicates(
      2, program,
      [&](std::uint64_t s) {
        return config_for(1, net::TopologyKind::kComplete, s);
      });
  const double serial_makespan =
      bench::mean_of(serial, [](const bench::Replicate& r) {
        return static_cast<double>(r.result.makespan_ticks);
      });

  util::Table table({"procs", "topology", "makespan", "speedup",
                     "faulted correct", "recovery latency", "error msgs"});
  table.set_title("scalability — machine size x topology under one fault");

  for (std::uint32_t procs : {2U, 4U, 8U, 16U, 32U, 64U, 128U, 256U}) {
    for (auto topo : {net::TopologyKind::kMesh2D, net::TopologyKind::kTorus2D,
                      net::TopologyKind::kHypercube}) {
      if (topo == net::TopologyKind::kHypercube &&
          (procs & (procs - 1)) != 0) {
        continue;
      }
      auto clean = bench::run_replicates(
          opt.replicates, program,
          [&](std::uint64_t s) { return config_for(procs, topo, s); });
      auto faulted = bench::run_replicates(
          opt.replicates, program,
          [&](std::uint64_t s) { return config_for(procs, topo, s); },
          [&](const core::SystemConfig& cfg, std::int64_t makespan,
              std::uint64_t seed) {
            const auto victim =
                static_cast<net::ProcId>((seed * 17 + 3) % cfg.processors);
            return net::FaultPlan::single(victim, sim::SimTime(makespan / 2));
          });
      const double makespan =
          bench::mean_of(clean, [](const bench::Replicate& r) {
            return static_cast<double>(r.result.makespan_ticks);
          });
      table.add_row(
          {util::Table::num(static_cast<std::uint64_t>(procs)),
           std::string(net::to_string(topo)), util::Table::num(makespan, 0),
           util::Table::num(serial_makespan / makespan, 2),
           std::to_string(bench::correct_count(faulted)) + "/" +
               std::to_string(static_cast<int>(faulted.size())),
           util::Table::num(bench::mean_of(faulted,
                                           [](const bench::Replicate& r) {
                                             return static_cast<double>(
                                                 r.result.makespan_ticks -
                                                 r.clean_makespan);
                                           }),
                            0),
           util::Table::num(
               bench::mean_of(faulted,
                              [](const bench::Replicate& r) {
                                return static_cast<double>(
                                    r.result.net.sent[static_cast<std::size_t>(
                                        net::MsgKind::kErrorDetection)]);
                              }),
               0)});
    }
  }
  bench::emit(table, opt);

  // ---- 64..256 processors under Poisson fault rates with repair -----------
  // Driven by the recurring fault plans: background failures arrive at a
  // mean interval over the whole machine and every victim is repaired, so
  // the machine hovers below full strength instead of draining. The cancel
  // protocol runs here (sweeps off): recovery under churn is what leaves
  // duplicate tasks behind, and their reclaim is now protocol traffic.
  util::Table churn({"procs", "faults/run", "kills", "revived", "correct",
                     "reissued", "cancelled", "cancel msgs", "error msgs",
                     "slowdown", "alive at end"});
  churn.set_title("large machines under recurring faults + repair");
  // The Poisson mean interval is derived from the fault-free makespan so a
  // row targets a fault *rate* (expected faults per run) independent of how
  // fast the machine happens to be.
  const std::vector<double> rates =
      opt.quick ? std::vector<double>{4} : std::vector<double>{4, 8};
  for (std::uint32_t procs : {64U, 128U, 256U}) {
    for (double expected_faults : rates) {
      auto reps = bench::run_replicates(
          opt.replicates, program,
          [&](std::uint64_t s) {
            return config_for(procs, net::TopologyKind::kTorus2D, s);
          },
          [&](const core::SystemConfig&, std::int64_t makespan,
              std::uint64_t seed) {
            net::RecurringFault arrivals;
            arrivals.start = sim::SimTime(makespan / 5);
            arrivals.stop = sim::SimTime(makespan * 2);
            arrivals.mean_interval =
                static_cast<double>(makespan) / expected_faults;
            arrivals.max_faults = 24;
            net::FaultPlan plan = net::FaultPlan::poisson(arrivals);
            plan.with_rejoin(sim::SimTime(makespan / 6));
            plan.with_seed(seed * 29 + 13);
            return plan;
          });
      auto mean = [&](auto metric) { return bench::mean_of(reps, metric); };
      churn.add_row(
          {util::Table::num(static_cast<std::uint64_t>(procs)),
           util::Table::num(expected_faults, 0),
           util::Table::num(mean([](const bench::Replicate& r) {
                              return static_cast<double>(
                                  r.result.faults_injected);
                            }),
                            1),
           util::Table::num(mean([](const bench::Replicate& r) {
                              return static_cast<double>(
                                  r.result.nodes_revived);
                            }),
                            1),
           std::to_string(bench::correct_count(reps)) + "/" +
               std::to_string(static_cast<int>(reps.size())),
           util::Table::num(mean([](const bench::Replicate& r) {
                              return static_cast<double>(
                                  r.result.counters.tasks_respawned);
                            }),
                            1),
           util::Table::num(mean([](const bench::Replicate& r) {
                              return static_cast<double>(
                                  r.result.counters.tasks_cancelled);
                            }),
                            1),
           util::Table::num(mean([](const bench::Replicate& r) {
                              return static_cast<double>(
                                  r.result.counters.cancels_sent);
                            }),
                            1),
           util::Table::num(
               mean([](const bench::Replicate& r) {
                 return static_cast<double>(
                     r.result.net.sent[static_cast<std::size_t>(
                         net::MsgKind::kErrorDetection)]);
               }),
               0),
           util::Table::num(mean([](const bench::Replicate& r) {
                              return static_cast<double>(
                                         r.result.makespan_ticks) /
                                     static_cast<double>(r.clean_makespan);
                            }),
                            2),
           util::Table::num(mean([](const bench::Replicate& r) {
                              return static_cast<double>(
                                  r.result.processors_alive_at_end);
                            }),
                            1)});
    }
  }
  bench::emit(churn, opt);

  // ---- E17: duplicate reclaim — cancel protocol vs. none ------------------
  // The duplicate generator: warm rejoin under recurring faults with an
  // immediately-expiring pre-link grace, so re-hosted parents respawn
  // surviving orphan subtrees as twins while the originals keep computing.
  // Mode "none" turns cancellation off, so nothing reclaims the duplicates
  // and they compute to run end; mode "cancel" reclaims them with protocol
  // messages. Reclaim latency is mean ticks from a reclaimed duplicate's
  // creation to its abort.
  struct E17Row {
    std::uint32_t procs = 0;
    const char* mode = nullptr;
    double reclaimed = 0;
    double latency = 0;
    double cancel_msgs = 0;
    double total_msgs = 0;
    double slowdown = 0;
    int correct = 0;
    int runs = 0;
  };
  std::vector<E17Row> e17_rows;
  // Deeper trees than the scalability workload: duplicate races need
  // enough concurrent subtrees per processor for a fault to actually
  // collide, so the tree grows with the machine (~8+ tasks/processor).
  const auto reclaim_program_for = [](std::uint32_t procs) {
    return lang::programs::tree_sum(procs >= 256 ? 11 : procs >= 128 ? 10 : 9,
                                    2, 400, 30);
  };
  util::Table reclaim({"procs", "mode", "correct", "reclaimed",
                       "reclaim latency", "cancel msgs", "total msgs",
                       "slowdown"});
  reclaim.set_title(
      "E17 duplicate reclaim — cancel protocol vs. none "
      "(warm rejoin churn, pre-link race)");
  const std::vector<std::uint32_t> e17_sizes =
      opt.quick ? std::vector<std::uint32_t>{64U}
                : std::vector<std::uint32_t>{64U, 128U, 256U};
  for (std::uint32_t procs : e17_sizes) {
    const lang::Program reclaim_program = reclaim_program_for(procs);
    for (const bool cancel_mode : {false, true}) {
      auto reps = bench::run_replicates(
          opt.replicates, reclaim_program,
          [&](std::uint64_t s) {
            core::SystemConfig cfg =
                config_for(procs, net::TopologyKind::kTorus2D, s);
            cfg.store.model = store::Persistency::kLocal;
            cfg.store.warm_grace = 40000;
            cfg.store.prelink_grace = 1;  // guaranteed respawn race
            cfg.reclaim.cancellation = cancel_mode;
            return cfg;
          },
          [&](const core::SystemConfig&, std::int64_t makespan,
              std::uint64_t seed) {
            net::RecurringFault arrivals;
            arrivals.start = sim::SimTime(makespan / 6);
            arrivals.stop = sim::SimTime(makespan * 2);
            arrivals.mean_interval = static_cast<double>(makespan) / 12;
            arrivals.max_faults = 24;
            net::FaultPlan plan = net::FaultPlan::poisson(arrivals);
            plan.with_rejoin(sim::SimTime(makespan / 16),
                             net::RejoinMode::kWarm);
            plan.with_seed(seed * 29 + 13);
            return plan;
          });
      auto mean = [&](auto metric) { return bench::mean_of(reps, metric); };
      E17Row row;
      row.procs = procs;
      row.mode = cancel_mode ? "cancel" : "none";
      row.reclaimed = mean([](const bench::Replicate& r) {
        return static_cast<double>(r.result.counters.tasks_cancelled);
      });
      row.latency = mean([](const bench::Replicate& r) {
        const auto n = r.result.counters.tasks_cancelled;
        return n == 0 ? 0.0
                      : static_cast<double>(
                            r.result.counters.reclaim_latency_ticks) /
                            static_cast<double>(n);
      });
      row.cancel_msgs = mean([](const bench::Replicate& r) {
        return static_cast<double>(r.result.net.sent[static_cast<std::size_t>(
            net::MsgKind::kCancel)]);
      });
      row.total_msgs = mean([](const bench::Replicate& r) {
        return static_cast<double>(r.result.net.total_sent());
      });
      row.slowdown = mean([](const bench::Replicate& r) {
        return static_cast<double>(r.result.makespan_ticks) /
               static_cast<double>(r.clean_makespan);
      });
      row.correct = bench::correct_count(reps);
      row.runs = static_cast<int>(reps.size());
      e17_rows.push_back(row);
      reclaim.add_row(
          {util::Table::num(static_cast<std::uint64_t>(procs)),
           std::string(row.mode),
           std::to_string(row.correct) + "/" + std::to_string(row.runs),
           util::Table::num(row.reclaimed, 1),
           util::Table::num(row.latency, 0),
           util::Table::num(row.cancel_msgs, 1),
           util::Table::num(row.total_msgs, 0),
           util::Table::num(row.slowdown, 2)});
    }
  }
  bench::emit(reclaim, opt);

  // ---- E19: goodput + reclaim latency under link-level chaos --------------
  // No processor dies in either scenario; the wire itself misbehaves.
  // "partition-heal" cuts the far corner's 2-hop neighbourhood off for a
  // window sized off the fault-free makespan — both sides declare each
  // other dead, reissue each other's subtrees, then reconcile on the heal,
  // so the cancel protocol has real duplicates to reclaim. "gray-churn"
  // starves one node's payload traffic (heartbeats still flow: detection
  // must stay silent) on top of background lossy links. Goodput is
  // completed tasks per kilotick of makespan — the rate useful work keeps
  // landing while the links misbehave; reclaim latency is the E17 proxy.
  struct E19Row {
    std::uint32_t procs = 0;
    const char* scenario = nullptr;
    int correct = 0;
    int runs = 0;
    double goodput = 0;    // completed tasks per 1000 ticks
    double slowdown = 0;   // makespan vs. the fault-free reference
    double reclaimed = 0;  // duplicates reclaimed (cancel protocol)
    double latency = 0;    // mean ticks creation -> reclaim
    double msgs_lost = 0;  // partition_cut + link_dropped + gray_dropped
    double cancel_msgs = 0;
  };
  std::vector<E19Row> e19_rows;
  util::Table chaos({"procs", "scenario", "correct", "goodput/ktick",
                     "slowdown", "reclaimed", "reclaim latency", "msgs lost",
                     "cancel msgs"});
  chaos.set_title(
      "E19 goodput under link-level chaos — partition-and-heal vs. "
      "gray-failure churn (no crashes)");
  const std::vector<std::uint32_t> e19_sizes =
      opt.quick ? std::vector<std::uint32_t>{128U}
                : std::vector<std::uint32_t>{128U, 256U};
  for (std::uint32_t procs : e19_sizes) {
    const lang::Program chaos_program = reclaim_program_for(procs);
    for (const bool gray_mode : {false, true}) {
      auto reps = bench::run_replicates(
          opt.replicates, chaos_program,
          [&](std::uint64_t s) {
            core::SystemConfig cfg =
                config_for(procs, net::TopologyKind::kTorus2D, s);
            cfg.reclaim.cancellation = true;
            cfg.reclaim.gc_interval = 0;  // protocol reclaim only
            return cfg;
          },
          [&](const core::SystemConfig& cfg, std::int64_t makespan,
              std::uint64_t seed) {
            if (!gray_mode) {
              return net::FaultPlan::partition(
                         net::RegionSpec::neighborhood(
                             static_cast<net::ProcId>(cfg.processors - 1), 2),
                         sim::SimTime(makespan / 4),
                         sim::SimTime(makespan / 3))
                  .with_seed(seed * 31 + 7);
            }
            net::GraySpec g;
            g.node = static_cast<net::ProcId>(cfg.processors / 2);
            g.start = sim::SimTime(makespan / 6);
            net::LinkQuality q;  // background lossy wire under the gray node
            q.drop_p = 0.02;
            q.reorder_p = 0.04;
            q.jitter = 10;
            net::FaultPlan plan = net::FaultPlan::gray(g);
            plan.merge(net::FaultPlan::link(q));
            plan.with_seed(seed * 31 + 7);
            return plan;
          });
      auto mean = [&](auto metric) { return bench::mean_of(reps, metric); };
      E19Row row;
      row.procs = procs;
      row.scenario = gray_mode ? "gray-churn" : "partition-heal";
      row.correct = bench::correct_count(reps);
      row.runs = static_cast<int>(reps.size());
      row.goodput = mean([](const bench::Replicate& r) {
        return r.result.makespan_ticks == 0
                   ? 0.0
                   : static_cast<double>(r.result.counters.tasks_completed) *
                         1000.0 /
                         static_cast<double>(r.result.makespan_ticks);
      });
      row.slowdown = mean([](const bench::Replicate& r) {
        return static_cast<double>(r.result.makespan_ticks) /
               static_cast<double>(r.clean_makespan);
      });
      row.reclaimed = mean([](const bench::Replicate& r) {
        return static_cast<double>(r.result.counters.tasks_cancelled);
      });
      row.latency = mean([](const bench::Replicate& r) {
        const auto n = r.result.counters.tasks_cancelled;
        return n == 0 ? 0.0
                      : static_cast<double>(
                            r.result.counters.reclaim_latency_ticks) /
                            static_cast<double>(n);
      });
      row.msgs_lost = mean([](const bench::Replicate& r) {
        return static_cast<double>(r.result.net.partition_cut +
                                   r.result.net.link_dropped +
                                   r.result.net.gray_dropped);
      });
      row.cancel_msgs = mean([](const bench::Replicate& r) {
        return static_cast<double>(r.result.net.sent[static_cast<std::size_t>(
            net::MsgKind::kCancel)]);
      });
      e19_rows.push_back(row);
      chaos.add_row(
          {util::Table::num(static_cast<std::uint64_t>(procs)),
           std::string(row.scenario),
           std::to_string(row.correct) + "/" + std::to_string(row.runs),
           util::Table::num(row.goodput, 2),
           util::Table::num(row.slowdown, 2),
           util::Table::num(row.reclaimed, 1),
           util::Table::num(row.latency, 0),
           util::Table::num(row.msgs_lost, 0),
           util::Table::num(row.cancel_msgs, 1)});
    }
  }
  bench::emit(chaos, opt);

  // ---- E20: the recovery story as a time series ---------------------------
  // One seeded partition-heal run at 128 processors with the flight
  // recorder on: the per-window series shows goodput dipping when the cut
  // opens, reissue work landing, and the post-heal cancel wave — the HEAL
  // framing (goodput *during* recovery) instead of a recovery-latency
  // scalar. Quantiles are spawn→complete latency within each window.
  const std::uint32_t e20_procs = 128;
  const lang::Program e20_program = reclaim_program_for(e20_procs);
  core::SystemConfig e20_cfg =
      config_for(e20_procs, net::TopologyKind::kTorus2D, 7);
  e20_cfg.reclaim.cancellation = true;
  e20_cfg.reclaim.gc_interval = 0;
  e20_cfg.obs.recorder = true;
  const std::int64_t e20_makespan =
      core::Simulation::fault_free_makespan(e20_cfg, e20_program);
  net::FaultPlan e20_plan = net::FaultPlan::partition(
      net::RegionSpec::neighborhood(static_cast<net::ProcId>(e20_procs - 1),
                                    2),
      sim::SimTime(e20_makespan / 4), sim::SimTime(e20_makespan / 3));
  e20_plan.with_seed(7 * 31 + 7);
  core::Simulation e20_sim(e20_cfg, e20_program);
  e20_sim.set_fault_plan(e20_plan);
  const core::RunResult e20_result = e20_sim.run();
  if (!e20_result.completed || !e20_result.answer_correct) {
    std::fprintf(stderr, "E20 partition-heal run failed\n");
    return 1;
  }
  const std::vector<obs::TimePoint> e20_series =
      e20_sim.recorder().metrics().series();
  const obs::LogHistogram& e20_lat = e20_sim.recorder().metrics().latency();

  util::Table e20({"window start", "spawned", "completed", "queue depth",
                   "in flight", "ckpt resident", "p50", "p99", "p999"});
  e20.set_title(
      "E20 partition-heal at 128 procs, recorder on — per-window goodput "
      "and spawn->complete latency quantiles (cut at makespan/4, heal "
      "+makespan/3)");
  // The table strides to ~16 rows; the perf JSON carries every window.
  const std::size_t stride = std::max<std::size_t>(1, e20_series.size() / 16);
  for (std::size_t i = 0; i < e20_series.size(); i += stride) {
    const obs::TimePoint& w = e20_series[i];
    e20.add_row({util::Table::num(static_cast<std::uint64_t>(w.window_start)),
                 util::Table::num(w.spawned), util::Table::num(w.completed),
                 util::Table::num(w.queue_depth),
                 util::Table::num(w.in_flight),
                 util::Table::num(w.checkpoint_residency),
                 util::Table::num(w.latency_p50),
                 util::Table::num(w.latency_p99),
                 util::Table::num(w.latency_p999)});
  }
  bench::emit(e20, opt);
  std::printf(
      "E20 whole-run spawn->complete latency: p50=%llu p99=%llu p999=%llu "
      "ticks over %llu completions\n\n",
      static_cast<unsigned long long>(e20_lat.percentile(0.5)),
      static_cast<unsigned long long>(e20_lat.percentile(0.99)),
      static_cast<unsigned long long>(e20_lat.percentile(0.999)),
      static_cast<unsigned long long>(e20_lat.count()));

  // ---- E20b: recorder overhead on the E16 workload ------------------------
  // Same 128-processor throughput measurement with the recorder off (the
  // default every other bench runs under) and on (journal + metrics). Both
  // sides warm up first, then their timed batches alternate off/on, on/off,
  // ... so host drift lands on both sides alike; each side reports the
  // median of its batches. The delta is the observability tax.
  double recorder_eps[2] = {0, 0};  // [0]=off, [1]=on
  {
    const lang::Program ov_program = lang::programs::tree_sum(12, 2, 60, 10);
    // Batches of eight runs (about 0.2 s): with three, a burst of load from
    // another process could still decide a side's median.
    const int ov_reps = opt.quick ? 2 : 8;
    const int ov_batches = opt.quick ? 3 : 7;
    core::SystemConfig cfgs[2];
    net::FaultPlan plans[2];
    for (const int side : {0, 1}) {
      cfgs[side] = config_for(128, net::TopologyKind::kTorus2D, 71);
      cfgs[side].obs.recorder = side == 1;
      const std::int64_t makespan =
          core::Simulation::fault_free_makespan(cfgs[side], ov_program);
      plans[side] = net::FaultPlan::single(static_cast<net::ProcId>(128 / 3),
                                           sim::SimTime(makespan / 2));
      (void)core::run_once(cfgs[side], ov_program, plans[side]);  // warm-up
    }
    std::vector<double> batch_eps[2];
    for (int batch = 0; batch < ov_batches; ++batch) {
      for (const int turn : {0, 1}) {
        const int side = (batch + turn) % 2;
        core::SystemConfig cfg = cfgs[side];
        std::uint64_t events = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < ov_reps; ++i) {
          cfg.seed = 71 + static_cast<std::uint64_t>(i);
          const core::RunResult r = core::run_once(cfg, ov_program,
                                                   plans[side]);
          events += r.sim_events;
          if (!r.completed || !r.answer_correct) {
            std::fprintf(stderr, "E20 overhead run failed\n");
            return 1;
          }
        }
        const auto t1 = std::chrono::steady_clock::now();
        batch_eps[side].push_back(
            static_cast<double>(events) /
            std::chrono::duration<double>(t1 - t0).count());
      }
    }
    for (const int side : {0, 1}) {
      std::vector<double>& eps = batch_eps[side];
      std::sort(eps.begin(), eps.end());
      recorder_eps[side] = eps[eps.size() / 2];
    }
    std::printf(
        "E20 recorder overhead at 128 procs: %.0f events/sec off, %.0f "
        "events/sec on (%.1f%% tax; medians of %d alternating batches "
        "each)\n\n",
        recorder_eps[0], recorder_eps[1],
        recorder_eps[0] > 0
            ? (1.0 - recorder_eps[1] / recorder_eps[0]) * 100.0
            : 0.0,
        ov_batches);
  }

  // ---- E16: simulator throughput (the recorded perf trajectory) -----------
  // Sequential, wall-clock timed, with one mid-run fault so recovery code is
  // on the measured path. The workload (8191-task balanced tree) is sized to
  // keep even the 256-processor machine busy.
  const lang::Program perf_program = lang::programs::tree_sum(12, 2, 60, 10);
  const int perf_reps = opt.quick ? 3 : 5;
  util::Table perf({"procs", "events/sec", "allocs/event", "events/run",
                    "peak heap (KB)", "ckpt peak", "EventFn spills"});
  perf.set_title(
      "simulator throughput — tree_sum(12,2) + one fault, sequential runs");
  std::vector<ThroughputRow> rows;
  for (std::uint32_t procs : {32U, 64U, 128U, 256U}) {
    const long long heap_at_start = reset_peak_heap();
    core::SystemConfig cfg =
        config_for(procs, net::TopologyKind::kTorus2D, 71);
    const std::int64_t makespan =
        core::Simulation::fault_free_makespan(cfg, perf_program);
    const auto plan = net::FaultPlan::single(
        static_cast<net::ProcId>(procs / 3), sim::SimTime(makespan / 2));
    (void)core::run_once(cfg, perf_program, plan);  // warm-up
    ThroughputRow row;
    row.procs = procs;
    const std::uint64_t spills0 = sim::EventFn::heap_fallbacks();
    const unsigned long long allocs0 = g_allocs.load();
    // Best of three timed batches: a short batch is one scheduler hiccup
    // away from a 25% misreading, and the trajectory guard needs stability.
    double best_events_per_sec = 0;
    for (int batch = 0; batch < 3; ++batch) {
      std::uint64_t batch_events = 0;
      row.events = 0;
      row.checkpoint_peak = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < perf_reps; ++i) {
        cfg.seed = 71 + static_cast<std::uint64_t>(i);
        const core::RunResult r = core::run_once(cfg, perf_program, plan);
        batch_events += r.sim_events;
        row.events += r.sim_events;
        row.checkpoint_peak += r.counters.checkpoint_peak_entries;
        if (!r.completed || !r.answer_correct) {
          std::fprintf(stderr, "throughput run failed at %u procs\n", procs);
          return 1;
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      best_events_per_sec =
          std::max(best_events_per_sec,
                   static_cast<double>(batch_events) / secs);
    }
    const unsigned long long allocs = g_allocs.load() - allocs0;
    row.events_per_sec = best_events_per_sec;
    row.allocs_per_event = static_cast<double>(allocs) /
                           static_cast<double>(3 * row.events);
    row.events /= static_cast<std::uint64_t>(perf_reps);
    row.checkpoint_peak /= static_cast<std::uint64_t>(perf_reps);
    row.peak_heap_kb =
        (g_peak_bytes.load(std::memory_order_relaxed) - heap_at_start) / 1024;
    row.eventfn_heap_fallbacks = sim::EventFn::heap_fallbacks() - spills0;
    rows.push_back(row);
    perf.add_row({util::Table::num(static_cast<std::uint64_t>(procs)),
                  util::Table::num(row.events_per_sec, 0),
                  util::Table::num(row.allocs_per_event, 2),
                  util::Table::num(row.events),
                  util::Table::num(
                      static_cast<std::uint64_t>(row.peak_heap_kb)),
                  util::Table::num(row.checkpoint_peak),
                  util::Table::num(row.eventfn_heap_fallbacks)});
  }
  bench::emit(perf, opt);

  // ---- E21: sharded-engine scaling + scheduler x workload matrix ----------
  // The PDES engine runs the same seeded computation at every shard count,
  // so this sweep is pure wall-clock: events/sec at 1/2/4/8 worker threads
  // (the scaling curve), and the E16 workload matrix re-run across
  // schedulers at 1 and 8 shards (the "does any scheduler break the
  // parallel path" gate — every cell must stay answer-correct, and the
  // events/sec/thread aggregate feeds the bench_json.py regression guard).
  // On a single-core host the curve is honest overhead measurement: shards
  // > 1 pay barrier + context-switch cost with no parallel speedup.
  struct E21Row {
    const char* workload = nullptr;
    const char* scheduler = nullptr;
    std::uint32_t shards = 0;
    double events_per_sec = 0;
    std::uint64_t events = 0;
    int correct = 0;
    int runs = 0;
  };
  std::vector<E21Row> e21_rows;
  {
    const struct {
      const char* name;
      lang::Program program;
    } workloads[] = {
        {"tree_sum(10,2)", lang::programs::tree_sum(10, 2, 60, 10)},
        {"nqueens(6)", lang::programs::nqueens(6)},
    };
    const struct {
      const char* name;
      core::SchedulerKind kind;
    } scheds[] = {
        {"random", core::SchedulerKind::kRandom},
        {"local-first", core::SchedulerKind::kLocalFirst},
        {"gradient", core::SchedulerKind::kGradient},
    };
    const int e21_reps = opt.quick ? 1 : 2;
    auto run_cell = [&](const lang::Program& wl_program, const char* wl_name,
                        const char* sc_name, core::SchedulerKind kind,
                        std::uint32_t shards) {
      core::SystemConfig cfg =
          config_for(64, net::TopologyKind::kTorus2D, 71);
      cfg.scheduler.kind = kind;
      cfg.parallel.shards = shards;
      const std::int64_t makespan =
          core::Simulation::fault_free_makespan(cfg, wl_program);
      const auto plan = net::FaultPlan::single(
          static_cast<net::ProcId>(64 / 3), sim::SimTime(makespan / 2));
      E21Row row;
      row.workload = wl_name;
      row.scheduler = sc_name;
      row.shards = shards;
      double best = 0;
      for (int batch = 0; batch < 2; ++batch) {
        std::uint64_t batch_events = 0;
        row.events = 0;
        row.correct = 0;
        row.runs = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < e21_reps; ++i) {
          cfg.seed = 71 + static_cast<std::uint64_t>(i);
          const core::RunResult r = core::run_once(cfg, wl_program, plan);
          batch_events += r.sim_events;
          row.events += r.sim_events;
          ++row.runs;
          if (r.completed && r.answer_correct) ++row.correct;
        }
        const auto t1 = std::chrono::steady_clock::now();
        best = std::max(best,
                        static_cast<double>(batch_events) /
                            std::chrono::duration<double>(t1 - t0).count());
      }
      row.events_per_sec = best;
      row.events /= static_cast<std::uint64_t>(e21_reps);
      e21_rows.push_back(row);
    };
    // Scaling curve: one workload/scheduler across the full thread sweep.
    for (std::uint32_t shards : {1U, 2U, 4U, 8U}) {
      run_cell(workloads[0].program, workloads[0].name, scheds[1].name,
               scheds[1].kind, shards);
    }
    // Matrix: every workload x scheduler at the endpoints (1 and 8 shards),
    // skipping the curve's own cells.
    for (const auto& wl : workloads) {
      for (const auto& sc : scheds) {
        for (std::uint32_t shards : {1U, 8U}) {
          if (wl.name == workloads[0].name && sc.name == scheds[1].name) {
            continue;
          }
          run_cell(wl.program, wl.name, sc.name, sc.kind, shards);
        }
      }
    }
    util::Table e21({"workload", "scheduler", "shards", "events/sec",
                     "events/sec/thread", "correct"});
    e21.set_title(
        "E21 sharded engine — scaling curve + scheduler x workload matrix "
        "(engine(K) vs engine(1), same seeded computation)");
    for (const E21Row& r : e21_rows) {
      e21.add_row({std::string(r.workload), std::string(r.scheduler),
                   util::Table::num(static_cast<std::uint64_t>(r.shards)),
                   util::Table::num(r.events_per_sec, 0),
                   util::Table::num(r.events_per_sec / r.shards, 0),
                   std::to_string(r.correct) + "/" +
                       std::to_string(r.runs)});
    }
    bench::emit(e21, opt);
  }

  if (perf_json != nullptr) {
    const double calib = calibration_mops();
    std::FILE* out = std::fopen(perf_json, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", perf_json);
      return 1;
    }
    std::fprintf(out, "{\n  \"schema_version\": 1,\n");
    std::fprintf(out,
                 "  \"workload\": \"tree_sum(12,2,60,10) torus2d splice, one "
                 "mid-run fault, %d sequential runs\",\n",
                 perf_reps);
    std::fprintf(out, "  \"calibration_mops\": %.1f,\n", calib);
    std::fprintf(out, "  \"throughput\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ThroughputRow& r = rows[i];
      std::fprintf(out,
                   "    {\"procs\": %u, \"events_per_sec\": %.0f, "
                   "\"normalized_events_per_mop\": %.1f, "
                   "\"allocs_per_event\": %.2f, \"events_per_run\": %llu, "
                   "\"peak_heap_kb\": %lld, \"checkpoint_peak_records\": %llu, "
                   "\"eventfn_heap_fallbacks\": %llu}%s\n",
                   r.procs, r.events_per_sec,
                   r.events_per_sec / calib,
                   r.allocs_per_event,
                   static_cast<unsigned long long>(r.events), r.peak_heap_kb,
                   static_cast<unsigned long long>(r.checkpoint_peak),
                   static_cast<unsigned long long>(r.eventfn_heap_fallbacks),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"e17_reclaim\": [\n");
    for (std::size_t i = 0; i < e17_rows.size(); ++i) {
      const E17Row& r = e17_rows[i];
      std::fprintf(out,
                   "    {\"procs\": %u, \"mode\": \"%s\", "
                   "\"correct\": %d, \"runs\": %d, "
                   "\"reclaimed_mean\": %.1f, "
                   "\"reclaim_latency_ticks_mean\": %.0f, "
                   "\"cancel_msgs_mean\": %.1f, \"total_msgs_mean\": %.0f, "
                   "\"slowdown_mean\": %.2f}%s\n",
                   r.procs, r.mode, r.correct, r.runs, r.reclaimed, r.latency,
                   r.cancel_msgs, r.total_msgs, r.slowdown,
                   i + 1 < e17_rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"e19_chaos\": [\n");
    for (std::size_t i = 0; i < e19_rows.size(); ++i) {
      const E19Row& r = e19_rows[i];
      std::fprintf(out,
                   "    {\"procs\": %u, \"scenario\": \"%s\", "
                   "\"correct\": %d, \"runs\": %d, "
                   "\"goodput_tasks_per_ktick_mean\": %.2f, "
                   "\"slowdown_mean\": %.2f, \"reclaimed_mean\": %.1f, "
                   "\"reclaim_latency_ticks_mean\": %.0f, "
                   "\"msgs_lost_mean\": %.0f, \"cancel_msgs_mean\": %.1f}%s\n",
                   r.procs, r.scenario, r.correct, r.runs, r.goodput,
                   r.slowdown, r.reclaimed, r.latency, r.msgs_lost,
                   r.cancel_msgs, i + 1 < e19_rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"e21_pdes\": [\n");
    for (std::size_t i = 0; i < e21_rows.size(); ++i) {
      const E21Row& r = e21_rows[i];
      std::fprintf(out,
                   "    {\"workload\": \"%s\", \"scheduler\": \"%s\", "
                   "\"shards\": %u, \"events_per_sec\": %.0f, "
                   "\"normalized_events_per_mop\": %.1f, "
                   "\"events_per_sec_per_thread\": %.0f, "
                   "\"events_per_run\": %llu, \"correct\": %d, "
                   "\"runs\": %d}%s\n",
                   r.workload, r.scheduler, r.shards, r.events_per_sec,
                   r.events_per_sec / calib,
                   r.events_per_sec / r.shards,
                   static_cast<unsigned long long>(r.events), r.correct,
                   r.runs, i + 1 < e21_rows.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n  \"recorder_overhead\": {\"procs\": 128, "
                 "\"events_per_sec_off\": %.0f, \"events_per_sec_on\": %.0f, "
                 "\"overhead_pct\": %.1f},\n",
                 recorder_eps[0], recorder_eps[1],
                 recorder_eps[0] > 0
                     ? (1.0 - recorder_eps[1] / recorder_eps[0]) * 100.0
                     : 0.0);
    std::fprintf(out,
                 "  \"e20_partition_heal_series\": {\"procs\": %u, "
                 "\"makespan_ticks\": %lld, \"latency_p50\": %llu, "
                 "\"latency_p99\": %llu, \"latency_p999\": %llu, "
                 "\"windows\": [\n",
                 e20_procs, static_cast<long long>(e20_result.makespan_ticks),
                 static_cast<unsigned long long>(e20_lat.percentile(0.5)),
                 static_cast<unsigned long long>(e20_lat.percentile(0.99)),
                 static_cast<unsigned long long>(e20_lat.percentile(0.999)));
    for (std::size_t i = 0; i < e20_series.size(); ++i) {
      const obs::TimePoint& w = e20_series[i];
      std::fprintf(out,
                   "    {\"t\": %lld, \"spawned\": %llu, \"completed\": %llu, "
                   "\"queue_depth\": %llu, \"in_flight\": %llu, "
                   "\"ckpt_resident\": %llu, \"p50\": %llu, \"p99\": %llu, "
                   "\"p999\": %llu}%s\n",
                   static_cast<long long>(w.window_start),
                   static_cast<unsigned long long>(w.spawned),
                   static_cast<unsigned long long>(w.completed),
                   static_cast<unsigned long long>(w.queue_depth),
                   static_cast<unsigned long long>(w.in_flight),
                   static_cast<unsigned long long>(w.checkpoint_residency),
                   static_cast<unsigned long long>(w.latency_p50),
                   static_cast<unsigned long long>(w.latency_p99),
                   static_cast<unsigned long long>(w.latency_p999),
                   i + 1 < e20_series.size() ? "," : "");
    }
    std::fprintf(out, "  ]}\n}\n");
    std::fclose(out);
    std::printf("perf json written to %s\n", perf_json);
  }

  std::printf(
      "expected shape: speedup grows with processors until the tree's\n"
      "parallelism saturates; recovery latency stays roughly flat (only\n"
      "the dead node's resident subtree is redone) while error-broadcast\n"
      "traffic grows linearly with machine size. Under recurring faults\n"
      "with repair, large machines stay correct and near full strength at\n"
      "the end of the run; reissues scale with the fault rate, not the\n"
      "machine size. E17: the cancel protocol reclaims duplicates with a\n"
      "latency bounded by message propagation, at the cost of explicit\n"
      "cancel traffic; with it off nothing reclaims them. E19: with only\n"
      "the wire misbehaving — a partition that heals, or a gray node\n"
      "under lossy links — every run stays correct, goodput degrades\n"
      "smoothly with the loss volume, and cross-cut duplicates are\n"
      "reclaimed at protocol latency after the heal. Simulator throughput\n"
      "(E16) should stay flat-to-rising across machine sizes — per-event\n"
      "cost must not grow with the processor count — and allocs/event\n"
      "should stay near zero.\n");
  return 0;
}
