// The gradient model load balancer (Lin & Keller, reference [10] of the
// paper: "Gradient model: a demand-driven load balancing scheme", ICDCS
// 1986).
//
// Idea: lightly-loaded processors act as sinks that create "suction". Every
// node maintains a *proximity* value: its topological distance to the
// nearest sink, computed by iterating  prox(p) = 0 if p is a sink else
// 1 + min over neighbours. Overloaded nodes push excess tasks to the
// neighbour with the smallest proximity, so tasks flow down the gradient
// toward idle regions.
//
// Fidelity note (documented substitution): the published scheme propagates
// proximities with explicit neighbour messages; we recompute the field by
// relaxation every `refresh_ticks` from queue lengths sampled at that
// instant, and charge 2*|edges| kLoadUpdate messages per refresh to the
// network counters. Between refreshes the field is stale — exactly the
// imperfect-information regime the gradient model operates in.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduler.h"

namespace splice::sched {

class GradientScheduler final : public Scheduler {
 public:
  /// Queue length at or below which a processor advertises itself as a
  /// task sink (an "idle" node creating suction).
  static constexpr std::uint32_t kIdleThreshold = 0;

  explicit GradientScheduler(std::int64_t refresh_ticks)
      : refresh_ticks_(refresh_ticks) {}

  void attach(const SchedulerEnv& env) override;
  [[nodiscard]] net::ProcId choose(net::ProcId origin,
                                   const runtime::TaskPacket& packet) override;
  std::uint64_t on_tick(sim::SimTime now) override;
  [[nodiscard]] core::SchedulerKind kind() const override {
    return core::SchedulerKind::kGradient;
  }

  /// Exposed for tests: the current proximity field.
  [[nodiscard]] const std::vector<std::uint32_t>& proximities() const noexcept {
    return proximity_;
  }
  void refresh_now();

 private:
  std::int64_t refresh_ticks_;
  std::vector<std::uint32_t> proximity_;
  sim::SimTime last_refresh_ = sim::SimTime(-1);
  util::Xoshiro256 rng_{1};
  std::vector<util::Xoshiro256> origin_rng_;  // sharded mode only
};

}  // namespace splice::sched
