// splice_perfbench — the repository benchmark.
//
//   splice_perfbench [--workload NAME|all] [--seed N] [--seconds S]
//                    [--trace 0|1] [--trace-dir DIR]
//
// For one workload (or every benchmarked one, in turn, in this process) it
// sets up the workload's seeded runs, each with its own program, fault-free
// twin and fault plan, then runs them in turn for --seconds, one Simulation
// at a time. Every run must complete with the reference answer and pass
// recovery::RecoveryOracle::check; an exception counts as a failed run.
// Every simulated statistic of a seeded run must repeat exactly each time
// that run is repeated. Any failure or drift makes the exit code 1.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced runs and prints the per-layer metrics, each span's self time
// and the tracing overhead, and writes the spans to DIR. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
// The library is called only through the layer APIs being measured, so the
// small statistics and seed helpers below are local rather than util's.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.h"
#include "heap_counter.h"
#include "lang/interpreter.h"
#include "net/message.h"
#include "recovery/recovery_oracle.h"
#include "runtime/pdes_engine.h"
#include "sim/inplace_function.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace splice;
using Clock = std::chrono::steady_clock;

/// The seed used while the benchmark and its workloads were written.
constexpr std::uint64_t kDefaultSeed = 71;
/// A seed kept out of all tuning, to recheck a claim made on other seeds.
constexpr std::uint64_t kHeldOutSeed = 1986;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of run `r` of a workload seed (kept below 2^32 so logs stay short).
std::uint64_t run_seed(std::uint64_t workload_seed, int r) {
  return splitmix64(splitmix64(workload_seed) +
                    static_cast<std::uint64_t>(r)) >>
         32;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Options {
  std::string workload = "all";
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
};

/// Every simulated statistic a run exposes. All are exact functions of the
/// run seed, so a repeat of the run must reproduce them bit for bit.
struct Counts {
  std::int64_t makespan = 0;
  std::uint64_t events = 0;
  std::uint64_t tasks_created = 0;
  std::uint64_t scans = 0;
  std::uint64_t stranded = 0;
  std::uint64_t pdes_windows = 0;
  std::uint64_t eventfn_spills = 0;
  std::uint64_t hop_units = 0;
  std::uint64_t units = 0;
  std::uint64_t ckpt_records = 0;
  std::uint64_t ckpt_peak_entries = 0;
  std::uint64_t ckpt_taken = 0;
  std::array<std::uint64_t, net::kMsgKindCount> sent{};
  std::uint64_t delivered = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t partition_cut = 0;
  std::uint64_t link_dropped = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t ring_spills = 0;
  std::uint64_t kills = 0;
  std::uint64_t respawned = 0;
  std::uint64_t twins = 0;
  std::uint64_t salvaged = 0;
  std::uint64_t error_broadcasts = 0;
  std::uint64_t cancels_sent = 0;
  std::uint64_t tasks_cancelled = 0;
  std::uint64_t reclaimed = 0;
  std::int64_t reclaim_latency_ticks = 0;
  /// First error detection minus first fault; -1 when nothing was detected.
  std::int64_t detection_ticks = -1;
  std::uint64_t records_replayed = 0;
  std::uint64_t state_chunks = 0;
  std::uint64_t reissues_avoided = 0;
  std::uint64_t rejoins = 0;
  std::int64_t catch_up_ticks = 0;
  std::uint64_t obs_recorded = 0;
  std::uint64_t obs_dropped = 0;

  bool operator==(const Counts&) const = default;

  [[nodiscard]] std::uint64_t total_sent() const {
    std::uint64_t n = 0;
    for (std::uint64_t v : sent) n += v;
    return n;
  }
};

/// Host-side measurements of one run; these vary from run to run.
struct HostSample {
  double run_s = 0;
  double peak_heap_mb = 0;
  double allocs_per_event = 0;
  double events_per_s = 0;
  double encode_s = 0;
  double decode_s = 0;
};

/// One seeded run, set up once and then run repeatedly.
struct Replicate {
  std::uint64_t seed = 0;
  core::SystemConfig config;
  lang::Program program;
  net::FaultPlan plan;
  std::uint64_t calls = 0;
  std::int64_t clean_makespan = 0;
  double setup_s = 0;
  double reference_s = 0;
  double twin_s = 0;
  /// Counts of the first successful run; every later run must equal them.
  std::optional<Counts> counts;
};

Replicate set_up(const Workload& w, std::uint64_t seed, Tracer& tracer) {
  ScopedSpan root(tracer, "bench.setup", seed);
  Replicate rep;
  rep.seed = seed;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "lang.build", seed, root.index());
    rep.program = w.program();
    rep.config = w.config(seed);
  }
  {
    ScopedSpan span(tracer, "lang.reference", seed, root.index());
    const Clock::time_point t = Clock::now();
    rep.calls = lang::cached_reference(rep.program).stats.calls;
    rep.reference_s = seconds_since(t);
  }
  {
    ScopedSpan span(tracer, "core.twin", seed, root.index());
    const Clock::time_point t = Clock::now();
    rep.clean_makespan =
        core::Simulation::fault_free_makespan(rep.config, rep.program);
    rep.twin_s = seconds_since(t);
  }
  {
    ScopedSpan span(tracer, "net.plan", seed, root.index());
    rep.plan = w.plan(rep.config, rep.clean_makespan, seed);
  }
  rep.setup_s = seconds_since(t0);
  return rep;
}

Counts observe(core::Simulation& simulation, const core::RunResult& result,
               const Replicate& rep, std::uint64_t spills_before) {
  const core::Counters& c = result.counters;
  const net::NetworkStats& ns = result.net;
  runtime::Runtime& rt = simulation.runtime_for_test();
  const net::WireStats& wire = rt.network().wire();
  Counts k;
  k.makespan = result.makespan_ticks;
  k.events = result.sim_events;
  k.tasks_created = c.tasks_created;
  k.scans = c.scans;
  k.stranded = result.stranded_tasks;
  if (const auto* engine =
          dynamic_cast<const runtime::PdesEngine*>(rt.engine())) {
    k.pdes_windows = engine->windows_run();
  }
  k.eventfn_spills = sim::EventFn::heap_fallbacks() - spills_before;
  k.hop_units = ns.total_hop_units;
  k.units = ns.total_units;
  k.ckpt_records = c.checkpoint_records;
  k.ckpt_peak_entries = c.checkpoint_peak_entries;
  k.ckpt_taken = c.checkpoint_taken;
  std::copy(std::begin(ns.sent), std::end(ns.sent), k.sent.begin());
  k.delivered = ns.total_delivered();
  k.retransmits = c.bounce_retransmits + c.cancel_retries;
  k.partition_cut = ns.partition_cut;
  k.link_dropped = ns.link_dropped;
  k.wire_frames = wire.frames;
  k.wire_bytes = wire.frame_bytes;
  k.ring_spills = wire.ring_spills;
  k.kills = result.faults_injected;
  k.respawned = c.tasks_respawned;
  k.twins = c.twins_created;
  k.salvaged = c.orphan_results_salvaged;
  k.error_broadcasts = c.error_broadcasts;
  k.cancels_sent = c.cancels_sent;
  k.tasks_cancelled = c.tasks_cancelled;
  k.reclaimed = c.tasks_cancelled + c.orphans_gced;
  k.reclaim_latency_ticks = c.reclaim_latency_ticks;
  // A partition kills nobody, so its fault starts when the cut opens.
  std::int64_t fault_at = result.first_failure_ticks;
  if (fault_at < 0 && !rep.plan.partitions.empty()) {
    fault_at = rep.plan.partitions.front().at.ticks();
  }
  if (result.detection_ticks >= 0 && fault_at >= 0) {
    k.detection_ticks = result.detection_ticks - fault_at;
  }
  k.records_replayed = c.store_records_replayed;
  k.state_chunks = c.state_chunks_sent;
  k.reissues_avoided = c.reissues_avoided;
  k.rejoins = c.rejoins;
  k.catch_up_ticks = c.catch_up_ticks;
  k.obs_recorded = simulation.recorder().total_recorded();
  k.obs_dropped = simulation.recorder().dropped();
  return k;
}

struct RunOutcome {
  std::string error;  // empty: the run passed every check
  Counts counts;
  HostSample host;
};

RunOutcome run_one(const Replicate& rep, Tracer& tracer) {
  ScopedSpan root(tracer, "bench.run", rep.seed);
  RunOutcome out;
  try {
    core::RunResult result;
    {
      ScopedSpan span(tracer, "core.run", rep.seed, root.index());
      const std::uint64_t spills_before = sim::EventFn::heap_fallbacks();
      const heap::Window window = heap::begin_window();
      const Clock::time_point t0 = Clock::now();
      {
        core::Simulation simulation(rep.config, rep.program);
        simulation.set_fault_plan(rep.plan);
        result = simulation.run();
        const double run_only_s = seconds_since(t0);
        out.host.peak_heap_mb =
            static_cast<double>(heap::peak_bytes_since(window)) / 1e6;
        out.host.allocs_per_event =
            ratio(static_cast<double>(heap::allocs_since(window)),
                  static_cast<double>(result.sim_events));
        out.host.events_per_s =
            ratio(static_cast<double>(result.sim_events), run_only_s);
        const net::WireStats& wire =
            simulation.runtime_for_test().network().wire();
        out.host.encode_s = static_cast<double>(wire.encode_ns) / 1e9;
        out.host.decode_s = static_cast<double>(wire.decode_ns) / 1e9;
        out.counts = observe(simulation, result, rep, spills_before);
      }
      out.host.run_s = seconds_since(t0);
    }
    ScopedSpan span(tracer, "recovery.verify", rep.seed, root.index());
    if (!result.completed) {
      out.error = "did not complete";
    } else if (!result.answer_correct) {
      out.error = "wrong answer " + result.answer.to_string();
    } else if (const recovery::OracleReport report =
                   recovery::RecoveryOracle::check(result);
               !report.ok()) {
      out.error = "oracle: " + report.to_string();
    }
  } catch (const std::exception& e) {
    out.error = std::string("threw: ") + e.what();
  }
  return out;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

struct WorkloadReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void print_table(const std::vector<Metric>& metrics) {
  std::printf("  %-32s %18s  %-12s %s\n", "metric", "value", "unit", "n");
  for (const Metric& m : metrics) {
    std::printf("  %-32s %18.6f  %-12s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

template <typename Fn>
double mean_over(const std::vector<const Counts*>& counts, Fn field) {
  double sum = 0;
  for (const Counts* c : counts) sum += static_cast<double>(field(*c));
  return counts.empty() ? 0 : sum / static_cast<double>(counts.size());
}

template <typename Fn>
double sum_over(const std::vector<const Counts*>& counts, Fn field) {
  double sum = 0;
  for (const Counts* c : counts) sum += static_cast<double>(field(*c));
  return sum;
}

std::vector<Metric> end_to_end(const std::vector<Replicate>& reps,
                               const std::vector<HostSample>& runs,
                               const WorkloadReport& report) {
  std::vector<double> run_s;
  std::vector<double> heap_mb;
  for (const HostSample& h : runs) {
    run_s.push_back(h.run_s);
    heap_mb.push_back(h.peak_heap_mb);
  }
  std::vector<double> setup_s;
  double makespan = 0;
  double slowdown = 0;
  double sent = 0;
  double calls = 0;
  std::size_t n = 0;
  for (const Replicate& rep : reps) {
    setup_s.push_back(rep.setup_s);
    if (!rep.counts) continue;
    ++n;
    makespan += static_cast<double>(rep.counts->makespan);
    slowdown += ratio(static_cast<double>(rep.counts->makespan),
                      static_cast<double>(rep.clean_makespan));
    sent += static_cast<double>(rep.counts->total_sent());
    calls += static_cast<double>(rep.calls);
  }
  const auto mean = [n](double sum) {
    return ratio(sum, static_cast<double>(n));
  };
  return {
      {"run_s_p50", median(run_s), "s", run_s.size()},
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"peak_heap_mb_p50", median(heap_mb), "MB", heap_mb.size()},
      {"fail_frac",
       ratio(static_cast<double>(report.failed),
             static_cast<double>(report.attempted)),
       "ratio", report.attempted},
      {"makespan_ticks_mean", mean(makespan), "ticks", n},
      {"slowdown_mean", mean(slowdown), "ratio", n},
      {"msgs_per_call", ratio(sent, calls), "msgs", n},
  };
}

constexpr std::array<std::string_view, 8> kSpanNames = {
    "bench.setup", "lang.build", "lang.reference", "core.twin",
    "net.plan",    "bench.run",  "core.run",       "recovery.verify"};

std::vector<Metric> per_layer(const std::vector<Replicate>& reps,
                              const std::vector<HostSample>& traced,
                              const std::vector<HostSample>& untraced,
                              const Tracer& tracer) {
  std::vector<const Counts*> cs;
  for (const Replicate& rep : reps) {
    if (rep.counts) cs.push_back(&*rep.counts);
  }
  const std::size_t n = cs.size();
  const std::size_t nt = traced.size();
  auto host_median = [&](double HostSample::*field) {
    std::vector<double> v;
    for (const HostSample& h : traced) v.push_back(h.*field);
    return median(v);
  };
  std::vector<double> twin_s;
  std::vector<double> reference_s;
  double calls = 0;
  for (const Replicate& rep : reps) {
    twin_s.push_back(rep.twin_s);
    reference_s.push_back(rep.reference_s);
    if (rep.counts) calls += static_cast<double>(rep.calls);
  }
  const double respawned =
      sum_over(cs, [](const Counts& c) { return c.respawned; });
  const double avoided =
      sum_over(cs, [](const Counts& c) { return c.reissues_avoided; });
  std::vector<const Counts*> detected;
  for (const Counts* c : cs) {
    if (c->detection_ticks >= 0) detected.push_back(c);
  }

  std::vector<Metric> m = {
      {"core.twin_s", median(twin_s), "s", twin_s.size()},
      {"lang.reference_s", median(reference_s), "s", reference_s.size()},
      {"lang.calls", reps.empty() ? 0 : static_cast<double>(reps[0].calls),
       "count", reps.size()},
      {"sim.events", mean_over(cs, [](const Counts& c) { return c.events; }),
       "count", n},
      {"sim.events_per_s", host_median(&HostSample::events_per_s), "1/s", nt},
      {"sim.eventfn_spills",
       mean_over(cs, [](const Counts& c) { return c.eventfn_spills; }), "count",
       n},
      {"util.allocs_per_event", host_median(&HostSample::allocs_per_event),
       "allocs/event", nt},
      {"runtime.scans", mean_over(cs, [](const Counts& c) { return c.scans; }),
       "count", n},
      {"runtime.tasks_per_call",
       ratio(sum_over(cs, [](const Counts& c) { return c.tasks_created; }),
             calls),
       "ratio", n},
      {"runtime.stranded",
       mean_over(cs, [](const Counts& c) { return c.stranded; }), "count", n},
      {"runtime.pdes.windows",
       mean_over(cs, [](const Counts& c) { return c.pdes_windows; }), "count",
       n},
      {"runtime.pdes.events_per_window",
       ratio(sum_over(cs, [](const Counts& c) { return c.events; }),
             sum_over(cs, [](const Counts& c) { return c.pdes_windows; })),
       "events/window", n},
      {"sched.mean_hops",
       ratio(sum_over(cs, [](const Counts& c) { return c.hop_units; }),
             sum_over(cs, [](const Counts& c) { return c.units; })),
       "hops", n},
      {"checkpoint.records",
       mean_over(cs, [](const Counts& c) { return c.ckpt_records; }), "count",
       n},
      {"checkpoint.peak_entries",
       mean_over(cs, [](const Counts& c) { return c.ckpt_peak_entries; }),
       "count", n},
      {"checkpoint.taken",
       mean_over(cs, [](const Counts& c) { return c.ckpt_taken; }), "count", n},
  };
  for (std::size_t kind = 0; kind < net::kMsgKindCount; ++kind) {
    m.push_back({"net.sent." +
                     std::string(net::to_string(static_cast<net::MsgKind>(kind))),
                 mean_over(cs, [kind](const Counts& c) { return c.sent[kind]; }),
                 "count", n});
  }
  const std::vector<Metric> rest = {
      {"net.retransmits",
       mean_over(cs, [](const Counts& c) { return c.retransmits; }), "count",
       n},
      {"net.partition_cut",
       mean_over(cs, [](const Counts& c) { return c.partition_cut; }), "count",
       n},
      {"net.delivered_frac",
       ratio(sum_over(cs, [](const Counts& c) { return c.delivered; }),
             sum_over(cs, [](const Counts& c) { return c.total_sent(); })),
       "ratio", n},
      {"net.link_dropped",
       mean_over(cs, [](const Counts& c) { return c.link_dropped; }), "count",
       n},
      {"net.wire.bytes_per_msg",
       ratio(sum_over(cs, [](const Counts& c) { return c.wire_bytes; }),
             sum_over(cs, [](const Counts& c) { return c.wire_frames; })),
       "B/msg", n},
      {"net.wire.encode_s", host_median(&HostSample::encode_s), "s", nt},
      {"net.wire.decode_s", host_median(&HostSample::decode_s), "s", nt},
      {"net.wire.ring_spills",
       mean_over(cs, [](const Counts& c) { return c.ring_spills; }), "count",
       n},
      {"recovery.respawned",
       mean_over(cs, [](const Counts& c) { return c.respawned; }), "count", n},
      {"recovery.twins", mean_over(cs, [](const Counts& c) { return c.twins; }),
       "count", n},
      {"recovery.salvaged",
       mean_over(cs, [](const Counts& c) { return c.salvaged; }), "count", n},
      {"recovery.error_broadcasts",
       mean_over(cs, [](const Counts& c) { return c.error_broadcasts; }),
       "count", n},
      {"recovery.cancels_sent",
       mean_over(cs, [](const Counts& c) { return c.cancels_sent; }), "count",
       n},
      {"recovery.tasks_cancelled",
       mean_over(cs, [](const Counts& c) { return c.tasks_cancelled; }),
       "count", n},
      {"recovery.reclaim_latency_ticks",
       ratio(sum_over(cs,
                      [](const Counts& c) { return c.reclaim_latency_ticks; }),
             sum_over(cs, [](const Counts& c) { return c.reclaimed; })),
       "ticks", n},
      {"recovery.detection_ticks",
       mean_over(detected, [](const Counts& c) { return c.detection_ticks; }),
       "ticks", detected.size()},
      {"store.records_replayed",
       mean_over(cs, [](const Counts& c) { return c.records_replayed; }),
       "count", n},
      {"store.state_chunks",
       mean_over(cs, [](const Counts& c) { return c.state_chunks; }), "count",
       n},
      {"store.reissues_avoided",
       mean_over(cs, [](const Counts& c) { return c.reissues_avoided; }),
       "count", n},
      {"store.catch_up_ticks",
       ratio(sum_over(cs, [](const Counts& c) { return c.catch_up_ticks; }),
             sum_over(cs, [](const Counts& c) { return c.rejoins; })),
       "ticks", n},
      {"store.transfer_yield", ratio(avoided, avoided + respawned), "ratio", n},
      {"obs.events_recorded",
       mean_over(cs, [](const Counts& c) { return c.obs_recorded; }), "count",
       n},
      {"obs.dropped", mean_over(cs, [](const Counts& c) { return c.obs_dropped; }),
       "count", n},
  };
  m.insert(m.end(), rest.begin(), rest.end());

  const std::vector<double> self = tracer.self_times();
  for (std::string_view name : kSpanNames) {
    std::vector<double> v;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      if (tracer.spans()[i].name == name) v.push_back(self[i]);
    }
    m.push_back({"span." + std::string(name) + ".self_s", median(v), "s",
                 v.size()});
  }
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  for (const HostSample& h : traced) traced_s.push_back(h.run_s);
  for (const HostSample& h : untraced) untraced_s.push_back(h.run_s);
  m.push_back({"trace.run_s_p50", median(traced_s), "s", traced_s.size()});
  m.push_back({"trace.overhead_s", median(traced_s) - median(untraced_s), "s",
               traced_s.size() + untraced_s.size()});
  return m;
}

WorkloadReport run_workload(const Workload& w, const Options& opt) {
  Tracer tracer(opt.trace);
  Tracer untraced_tracer(false);
  std::printf("== %.*s  seed %llu  %s\n   %.*s\n",
              static_cast<int>(w.name.size()), w.name.data(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced",
              static_cast<int>(w.why.size()), w.why.data());

  std::vector<Replicate> reps;
  for (int r = 0; r < w.replicates; ++r) {
    reps.push_back(set_up(w, run_seed(opt.seed, r), tracer));
  }
  WorkloadReport report;
  std::uint64_t drifted = 0;
  std::vector<HostSample> untraced;
  std::vector<HostSample> traced;
  const Clock::time_point loop_start = Clock::now();
  // Every seeded run once, then repeats in the same order while the next
  // run would still end within --seconds; at least one repeat, so drift is
  // always checked. With --trace 1 each seeded run alternates between
  // untraced and traced from one pass to the next.
  const std::size_t k = reps.size();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_since(loop_start);
    if (i > k && elapsed + elapsed / static_cast<double>(i) > opt.seconds) {
      break;
    }
    Replicate& rep = reps[i % k];
    const bool traced_run = opt.trace && (i % k + i / k) % 2 == 1;
    ++report.attempted;
    RunOutcome out = run_one(rep, traced_run ? tracer : untraced_tracer);
    if (!out.error.empty()) {
      ++report.failed;
      std::fprintf(stderr, "FAIL %.*s run seed %llu: %s\n",
                   static_cast<int>(w.name.size()), w.name.data(),
                   static_cast<unsigned long long>(rep.seed),
                   out.error.c_str());
      continue;
    }
    if (!rep.counts) {
      rep.counts = out.counts;
    } else if (*rep.counts != out.counts) {
      ++drifted;
      std::fprintf(stderr,
                   "DRIFT %.*s run seed %llu: simulated statistics differ "
                   "from the first run of this seed\n",
                   static_cast<int>(w.name.size()), w.name.data(),
                   static_cast<unsigned long long>(rep.seed));
    }
    (traced_run ? traced : untraced).push_back(out.host);
  }
  report.correct = report.failed == 0 && drifted == 0;

  const std::vector<Metric> e2e = end_to_end(reps, untraced, report);
  std::printf("  %-12s %10s %10s %9s %10s %9s\n", "run seed", "clean",
              "makespan", "slowdown", "msgs/call", "setup_s");
  for (const Replicate& rep : reps) {
    if (!rep.counts) continue;
    std::printf("  %-12llu %10lld %10lld %9.4f %10.3f %9.4f\n",
                static_cast<unsigned long long>(rep.seed),
                static_cast<long long>(rep.clean_makespan),
                static_cast<long long>(rep.counts->makespan),
                ratio(static_cast<double>(rep.counts->makespan),
                      static_cast<double>(rep.clean_makespan)),
                ratio(static_cast<double>(rep.counts->total_sent()),
                      static_cast<double>(rep.calls)),
                rep.setup_s);
  }
  std::printf("   runs %llu, failed %llu, drifted %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(drifted));
  print_table(e2e);
  if (!opt.trace) {
    // fail_frac is carried by the result's attempted/failed fields.
    for (const Metric& m : e2e) {
      if (m.name != "fail_frac") report.metrics.push_back(m);
    }
    return report;
  }
  report.metrics = per_layer(reps, traced, untraced, tracer);
  std::printf("  -- per layer (traced runs) --\n");
  print_table(report.metrics);
  const std::string path = opt.trace_dir + "/trace-" + std::string(w.name) +
                           "-" + std::to_string(opt.seed) + ".json";
  if (tracer.write_chrome_json(path)) {
    std::printf("   spans: %zu written to %s\n", tracer.spans().size(),
                path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    report.correct = false;
  }
  return report;
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: splice_perfbench [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-dir DIR]\n"
               "  default seed %llu; held-out seed %llu (recheck claims on "
               "it)\n  workloads:",
               static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  for (const Workload& w : workloads()) {
    std::fprintf(out, " %.*s%s", static_cast<int>(w.name.size()), w.name.data(),
                 w.benchmarked ? "" : " (by name only)");
  }
  std::fprintf(out, "\n");
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") return std::nullopt;
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
      if (!opt.trace && std::strcmp(value, "0") != 0) return std::nullopt;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && (*end != '\0' || end == value)) return std::nullopt;
  }
  if (opt.workload != "all" && find_workload(opt.workload) == nullptr) {
    return std::nullopt;
  }
  if (!std::isfinite(opt.seconds) || opt.seconds < 0) return std::nullopt;
  return opt;
}

int run(int argc, char** argv) {
  const std::optional<Options> opt = parse(argc, argv);
  if (!opt) {
    usage(stderr);
    return 2;
  }
  std::vector<const Workload*> selected;
  if (opt->workload == "all") {
    for (const Workload& w : workloads()) {
      if (w.benchmarked) selected.push_back(&w);
    }
  } else {
    selected.push_back(find_workload(opt->workload));
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  for (const Workload* w : selected) {
    const WorkloadReport r = run_workload(*w, *opt);
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (Metric m : r.metrics) {
      if (selected.size() > 1) m.name = std::string(w->name) + "." + m.name;
      metrics.push_back(std::move(m));
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "splice_perfbench: %s\n", e.what());
    return 1;
  }
}
