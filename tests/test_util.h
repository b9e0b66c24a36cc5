// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/simulation.h"
#include "lang/programs.h"
#include "net/fault_injector.h"
#include "obs/journal.h"
#include "runtime/task.h"

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
  const std::vector<lang::ExprId> sites(event.stamp.begin(), event.stamp.end());
  return sim.program().function_at(sites).name;
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

/// The packet a spawn of `slot` sends, built field by field the way the
/// runtime built it while each call slot kept a whole copy of its packet
/// (independently of Task::child_packet): stamp = owner's stamp + site;
/// ancestors = {host, owner} then the owner's chain while shorter than
/// max(1, depth); lineage = the slot's respawn count; zone inherited,
/// except that a zoned replica's zone is its replica ordinal.
inline runtime::TaskPacket reference_child_packet(
    const runtime::Task& owner, const runtime::CallSlot& slot,
    net::ProcId host, std::uint32_t depth, std::uint32_t replica = 0,
    bool zoned = false) {
  runtime::TaskPacket packet;
  packet.stamp = owner.stamp().child(slot.site);
  packet.fn = slot.fn;
  packet.args = slot.args;
  packet.call_site = slot.site;
  packet.ancestors.push_back(runtime::TaskRef{host, owner.uid()});
  for (const runtime::TaskRef& ref : owner.packet().ancestors) {
    if (packet.ancestors.size() >= std::max<std::uint32_t>(1, depth)) break;
    packet.ancestors.push_back(ref);
  }
  packet.replica = replica;
  packet.lineage = slot.respawns;
  packet.zone = zoned ? static_cast<std::int32_t>(replica)
                      : owner.packet().zone;
  return packet;
}

/// Task::state_units as it was counted while each spawned slot kept a whole
/// copy of its packet (its arguments dropped once the slot resolved).
inline std::uint32_t reference_state_units(const runtime::Task& task,
                                           net::ProcId host,
                                           std::uint32_t depth) {
  std::uint32_t units = task.packet().size_units();
  for (const runtime::CallSlot& slot : task.slots()) {
    units += 1;
    if (slot.resolved) units += slot.result.size_units();
    if (slot.spawned) {
      units += reference_child_packet(task, slot, host, depth).size_units();
    }
  }
  return units;
}

/// Field-by-field packet equality, so a failure names the field.
inline void expect_same_packet(const runtime::TaskPacket& want,
                               const runtime::TaskPacket& got) {
  EXPECT_EQ(got.stamp, want.stamp) << got.stamp.to_string() << " vs "
                                   << want.stamp.to_string();
  EXPECT_EQ(got.fn, want.fn);
  EXPECT_TRUE(got.args == want.args) << got.describe() << " vs "
                                     << want.describe();
  EXPECT_EQ(got.call_site, want.call_site);
  ASSERT_EQ(got.ancestors.size(), want.ancestors.size());
  for (std::size_t i = 0; i < want.ancestors.size(); ++i) {
    EXPECT_EQ(got.ancestors[i], want.ancestors[i])
        << "ancestor " << i << ": {" << got.ancestors[i].proc << ", "
        << got.ancestors[i].uid << "} vs {" << want.ancestors[i].proc << ", "
        << want.ancestors[i].uid << "}";
  }
  EXPECT_EQ(got.replica, want.replica);
  EXPECT_EQ(got.lineage, want.lineage);
  EXPECT_EQ(got.zone, want.zone);
}

}  // namespace splice::testing
