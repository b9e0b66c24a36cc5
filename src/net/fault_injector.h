// Fault injection (§1 fault model).
//
// Executes a FaultPlan against the network: timed and triggered crashes fire
// directly; regional, cascade, and recurring entries are expanded into a
// concrete kill schedule when arm() resolves them against the topology (and
// the plan's RNG seed — the expansion is deterministic). Under a rejoin
// plan every kill also schedules a revive of the same node after the repair
// delay, and the runtime reinitialises it blank (crash-recovery model).
//
// Crash faults are fail-silent whole-processor crashes, matching the paper.
// Link-level entries (partitions, per-link quality, gray failures) are
// armed into a LinkFaultModel installed on the network; partition heals —
// scheduled or drawn from the plan seed — fire the on_heal callback so the
// runtime can reconcile the mutual suspicion the cut created.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/fault_plan.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace splice::net {

class FaultInjector {
 public:
  /// on_kill runs immediately after the network marks the node dead, so the
  /// runtime can destroy the node's volatile state; on_revive runs after the
  /// network marks a repaired node alive again, so the runtime can restart
  /// it blank.
  FaultInjector(sim::Simulator& simulator, Network& network, FaultPlan plan,
                std::function<void(ProcId)> on_kill,
                std::function<void(ProcId)> on_revive = nullptr);

  /// Expand the plan (resolve regions against the topology, draw cascade
  /// and Poisson schedules from the plan seed) and schedule every timed
  /// kill. Call once before Simulator::run_until.
  void arm();

  /// The runtime calls this when a named trigger point is reached; any
  /// triggered faults matching the name are scheduled.
  void fire_trigger(const std::string& name);

  /// Kill a processor right now (used by tests and by replicated-redundancy
  /// scenarios). Schedules the rejoin when the plan repairs nodes.
  void kill_now(ProcId target);

  /// Repair a processor right now: the network marks it alive and on_revive
  /// reinitialises it. No-op when the node is already alive.
  void revive_now(ProcId target);

  /// Called when a partition heals, with the (ascending) members of the
  /// side that was cut off. Set before arm().
  void set_on_heal(std::function<void(const std::vector<ProcId>&)> on_heal) {
    on_heal_ = std::move(on_heal);
  }

  /// Kills (revives) that executed at or before `by`; every one so far by
  /// default. A completed run counts those up to its answer, since its
  /// queue drains on after it.
  [[nodiscard]] std::uint32_t kills_executed(
      sim::SimTime by = sim::SimTime::max()) const noexcept {
    return count_by(kill_times_, by);
  }
  [[nodiscard]] std::uint32_t revives_executed(
      sim::SimTime by = sim::SimTime::max()) const noexcept {
    return count_by(revive_times_, by);
  }
  /// Time of the first kill that executed at or before `by`; -1 if none.
  [[nodiscard]] std::int64_t first_kill_ticks(
      sim::SimTime by = sim::SimTime::max()) const noexcept {
    return kills_executed(by) == 0 ? -1 : kill_times_.front().ticks();
  }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// The deterministic kill schedule arm() expanded (timed + regional +
  /// cascade + recurring, in scheduling order). Triggered faults are not
  /// included — they have no time until their trigger fires.
  [[nodiscard]] const std::vector<TimedFault>& armed_schedule() const noexcept {
    return schedule_;
  }
  /// The partition windows arm() resolved: (side members, start, heal
  /// time). Heal is SimTime::max() for a cut that never heals.
  struct ArmedPartition {
    std::vector<ProcId> side;
    sim::SimTime start;
    sim::SimTime heal;
  };
  [[nodiscard]] const std::vector<ArmedPartition>& armed_partitions()
      const noexcept {
    return partitions_;
  }

 private:
  void expand_plan();
  void arm_link_faults();
  [[nodiscard]] static std::uint32_t count_by(
      const std::vector<sim::SimTime>& times, sim::SimTime by) noexcept {
    return static_cast<std::uint32_t>(
        std::upper_bound(times.begin(), times.end(), by) - times.begin());
  }

  sim::Simulator& sim_;
  Network& network_;
  FaultPlan plan_;
  std::function<void(ProcId)> on_kill_;
  std::function<void(ProcId)> on_revive_;
  std::function<void(const std::vector<ProcId>&)> on_heal_;
  std::vector<bool> triggered_done_;
  std::vector<TimedFault> schedule_;
  std::vector<ArmedPartition> partitions_;
  bool armed_ = false;
  /// When each kill and revive executed, in execution (and so time) order.
  std::vector<sim::SimTime> kill_times_;
  std::vector<sim::SimTime> revive_times_;
};

}  // namespace splice::net
