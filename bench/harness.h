// Shared experiment harness for the bench binaries.
//
// Every binary regenerates one table/figure of EXPERIMENTS.md: it sweeps a
// parameter, runs seeded replicates in parallel (simulations themselves are
// single-threaded and deterministic), and prints the aggregate rows with
// util::Table. `--quick` shrinks replicate counts for smoke runs; `--csv`
// switches output to CSV.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "lang/programs.h"
#include "obs/journal.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace splice::bench {

struct Options {
  int replicates = 10;
  bool quick = false;
  bool csv = false;

  static Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0 ||
          std::strcmp(argv[i], "--smoke") == 0) {
        opt.quick = true;
        opt.replicates = 3;
      } else if (std::strcmp(argv[i], "--csv") == 0) {
        opt.csv = true;
      } else if (std::strcmp(argv[i], "--replicates") == 0 && i + 1 < argc) {
        opt.replicates = std::atoi(argv[++i]);
      }
    }
    return opt;
  }
};

struct Replicate {
  core::RunResult result;
  std::int64_t clean_makespan = 0;
};

/// Run `n` seeded replicates of (config(seed), program, plan(cfg, clean
/// makespan, seed)) across hardware threads. Seeds are 1..n, so results are
/// reproducible regardless of thread interleaving.
inline std::vector<Replicate> run_replicates(
    int n, const lang::Program& program,
    const std::function<core::SystemConfig(std::uint64_t)>& make_config,
    const std::function<net::FaultPlan(const core::SystemConfig&, std::int64_t,
                                       std::uint64_t)>& make_plan = nullptr) {
  std::vector<Replicate> out(static_cast<std::size_t>(n));
  util::parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
    const std::uint64_t seed = i + 1;
    core::SystemConfig cfg = make_config(seed);
    const std::int64_t makespan =
        core::Simulation::fault_free_makespan(cfg, program);
    net::FaultPlan plan;
    if (make_plan) plan = make_plan(cfg, makespan, seed);
    out[i] = Replicate{core::run_once(cfg, program, plan), makespan};
  });
  return out;
}

/// Mean of a per-replicate metric.
inline double mean_of(const std::vector<Replicate>& reps,
                      const std::function<double(const Replicate&)>& metric) {
  if (reps.empty()) return 0.0;
  double sum = 0.0;
  for (const Replicate& r : reps) sum += metric(r);
  return sum / static_cast<double>(reps.size());
}

inline int completed_count(const std::vector<Replicate>& reps) {
  int n = 0;
  for (const Replicate& r : reps) n += r.result.completed ? 1 : 0;
  return n;
}

inline int correct_count(const std::vector<Replicate>& reps) {
  int n = 0;
  for (const Replicate& r : reps) {
    n += (r.result.completed && r.result.answer_correct) ? 1 : 0;
  }
  return n;
}

/// The function a journaled task event names, from its stamp; empty for
/// machine-level events (crash, detect, ...), which carry neither a stamp
/// nor a task uid.
inline std::string task_name(const lang::Program& program,
                             const obs::Event& event) {
  if (event.stamp.is_root() && event.uid == 0) return {};
  return program.function_at(event.stamp.digits()).name;
}

inline void emit(const util::Table& table, const Options& opt) {
  if (opt.csv) {
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    std::fputs(table.to_ascii().c_str(), stdout);
  }
  std::fputs("\n", stdout);
}

}  // namespace splice::bench
