// Shared helpers for the test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/simulation.h"
#include "lang/programs.h"
#include "net/fault_injector.h"
#include "obs/journal.h"

namespace splice::testing {

/// Baseline configuration used across the suite: small mesh, random
/// scheduler, splice recovery, heartbeats on, recorder off.
inline core::SystemConfig base_config(std::uint32_t processors = 8,
                                      std::uint64_t seed = 1) {
  core::SystemConfig cfg;
  cfg.processors = processors;
  cfg.topology = net::TopologyKind::kMesh2D;
  cfg.scheduler.kind = core::SchedulerKind::kRandom;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 1500;
  cfg.seed = seed;
  return cfg;
}

/// A run's journaled events of one kind, oldest first (needs
/// obs.recorder on).
inline std::vector<obs::Event> events_of(const core::Simulation& sim,
                                         obs::EventKind kind) {
  std::vector<obs::Event> out;
  sim.recorder().for_each([&](const obs::Event& event) {
    if (event.kind == kind) out.push_back(event);
  });
  return out;
}

/// True if the run journaled an event of `kind` matching `pred`.
template <typename Pred>
bool has_event(const core::Simulation& sim, obs::EventKind kind, Pred pred) {
  const std::vector<obs::Event> events = events_of(sim, kind);
  return std::any_of(events.begin(), events.end(), pred);
}

/// The name of the function an event's task runs, from its stamp.
inline const std::string& function_of(const core::Simulation& sim,
                                      const obs::Event& event) {
  return sim.program().function_at(event.stamp.digits()).name;
}

/// Reference fibonacci for oracle checks.
inline std::int64_t fib_value(std::int64_t n) {
  if (n < 2) return n;
  std::int64_t a = 0, b = 1;
  for (std::int64_t i = 2; i <= n; ++i) {
    const std::int64_t c = a + b;
    a = b;
    b = c;
  }
  return b;
}

/// Reference binomial coefficient.
inline std::int64_t binom_value(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n) return 0;
  std::int64_t result = 1;
  for (std::int64_t i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
  }
  return result;
}

/// Known n-queens solution counts.
inline std::int64_t nqueens_value(std::uint32_t n) {
  static const std::int64_t kCounts[] = {1, 1, 0, 0, 2, 10, 4, 40, 92, 352};
  return n < 10 ? kCounts[n] : -1;
}

}  // namespace splice::testing
