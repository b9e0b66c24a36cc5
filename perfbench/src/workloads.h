// The benchmark's seeded workloads: what each simulates and why it is in
// the set. Every workload is a pure function of its run seed — the same
// seed gives the same program, configuration and fault plan — and its
// fault times are placed relative to that seed's fault-free makespan.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "lang/program.h"
#include "net/fault_plan.h"

namespace perfbench {

struct Workload {
  std::string_view name;
  /// One line: which layers do most of their work here.
  std::string_view why;
  /// Seeded runs set up per invocation; the simulated end-to-end metrics
  /// are means or totals over them.
  int replicates;
  /// False: runnable by name only, left out of `--workload all` and of
  /// BENCHMARK.json (see the workload's comment for why).
  bool benchmarked;
  splice::lang::Program (*program)();
  splice::core::SystemConfig (*config)(std::uint64_t run_seed);
  splice::net::FaultPlan (*plan)(const splice::core::SystemConfig& config,
                                 std::int64_t clean_makespan,
                                 std::uint64_t run_seed);
};

/// All workloads; `--workload all` runs the benchmarked ones in this order.
[[nodiscard]] const std::vector<Workload>& workloads();

/// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

}  // namespace perfbench
