// Dynamic task allocation (§3.3).
//
// "The ability to recover by simply reissuing checkpointed tasks depends on
//  the availability of a dynamic allocation strategy, such as the gradient
//  model approach [10]. ... Dynamic allocation does not distinguish between
//  tasks generated for recovery and original tasks."
//
// The Scheduler decides, at DEMAND_IT time, which processor receives a task
// packet. All schedulers must avoid dead processors — that single property
// is what makes reissued recovery tasks need no linkage surgery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.h"
#include "lang/program.h"
#include "net/topology.h"
#include "runtime/task_packet.h"
#include "util/small_vec.h"
#include "sim/time.h"
#include "util/rng.h"

namespace splice::sched {

/// Environment handed to schedulers at attach time. Callbacks pull live
/// system state (liveness, queue lengths) so schedulers stay decoupled from
/// the runtime.
struct SchedulerEnv {
  const net::Topology* topology = nullptr;
  const lang::Program* program = nullptr;
  std::function<bool(net::ProcId)> alive;
  /// Does `origin` locally believe `p` has failed? Placement must respect
  /// the origin's suspicion, not just global liveness: during a network
  /// partition the far side is alive but unreachable, and spawning toward
  /// it creates checkpoint records against a destination whose reissue
  /// obligation has already been discharged — an unrecoverable slot.
  std::function<bool(net::ProcId, net::ProcId)> suspected;
  std::function<std::uint32_t(net::ProcId)> queue_length;
  /// Placement constraint beyond liveness (replication zones). Optional;
  /// schedulers treat it as a soft preference: when no eligible processor
  /// exists they fall back to any alive one rather than losing the task.
  std::function<bool(net::ProcId, const runtime::TaskPacket&)> eligible;
  std::uint64_t seed = 1;
  /// True under the sharded (PDES) engine: choose() is then called
  /// concurrently from worker threads, one per origin's shard. Stateful
  /// schedulers switch to per-origin rng/cursor streams so (a) no mutable
  /// state is shared across threads and (b) each origin's decision sequence
  /// depends only on its own spawn history — which the determinism contract
  /// makes identical across shard counts. Classic runs keep the historical
  /// single-stream behaviour bit-for-bit.
  bool sharded = false;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual void attach(const SchedulerEnv& env) { env_ = env; }

  /// Choose the destination processor for `packet` spawned from `origin`.
  /// Must return an alive processor; returns kNoProc only when none exist.
  [[nodiscard]] virtual net::ProcId choose(net::ProcId origin,
                                           const runtime::TaskPacket& packet) = 0;

  /// Destination list type: inline for the common replication factors, so
  /// a spawn's placement decision allocates nothing.
  using DestVec = util::SmallVec<net::ProcId, 2>;

  /// Choose `count` destinations for replicated spawns; distinct processors
  /// when possible (§5.3: "each copy is executed by a different processor").
  [[nodiscard]] virtual DestVec choose_replicas(
      net::ProcId origin, const runtime::TaskPacket& packet,
      std::uint32_t count);

  /// Periodic hook (gradient refresh). Returns the number of load-exchange
  /// messages this refresh cost, so the runtime can account the traffic.
  virtual std::uint64_t on_tick(sim::SimTime /*now*/) { return 0; }

  [[nodiscard]] virtual core::SchedulerKind kind() const = 0;

 protected:
  /// Global liveness only (gradient field refresh — an aggregate view).
  [[nodiscard]] bool alive(net::ProcId p) const {
    return env_.alive && env_.alive(p);
  }
  /// Liveness as seen from `origin`: globally alive AND not locally
  /// suspected by the spawning processor. Placement decisions use this
  /// form; `origin` never suspects itself, so a live origin always has at
  /// least one admissible destination.
  [[nodiscard]] bool alive(net::ProcId origin, net::ProcId p) const {
    if (!alive(p)) return false;
    return !env_.suspected || !env_.suspected(origin, p);
  }
  /// Origin-view liveness + zone eligibility (soft; see SchedulerEnv).
  [[nodiscard]] bool ok(net::ProcId origin, net::ProcId p,
                        const runtime::TaskPacket& packet) const {
    if (!alive(origin, p)) return false;
    return !env_.eligible || env_.eligible(p, packet);
  }
  [[nodiscard]] std::uint32_t load_of(net::ProcId p) const {
    return env_.queue_length ? env_.queue_length(p) : 0;
  }
  [[nodiscard]] net::ProcId proc_count() const {
    return env_.topology ? env_.topology->size() : 0;
  }
  /// Seed the per-origin generators for sharded mode (one stream per
  /// processor, re-salted with the origin id) or the single classic stream.
  void seed_streams(std::vector<util::Xoshiro256>& per_origin,
                    util::Xoshiro256& classic, std::uint64_t salt) const {
    classic = util::Xoshiro256(util::hash_combine(env_.seed, salt));
    per_origin.clear();
    if (!env_.sharded) return;
    per_origin.reserve(proc_count());
    for (net::ProcId p = 0; p < proc_count(); ++p) {
      per_origin.emplace_back(
          util::hash_combine(util::hash_combine(env_.seed, salt), p));
    }
  }
  [[nodiscard]] util::Xoshiro256& stream(
      std::vector<util::Xoshiro256>& per_origin, util::Xoshiro256& classic,
      net::ProcId origin) const {
    if (origin < per_origin.size()) return per_origin[origin];
    return classic;
  }

  SchedulerEnv env_;
};

/// Uniformly random over alive processors.
class RandomScheduler final : public Scheduler {
 public:
  void attach(const SchedulerEnv& env) override;
  [[nodiscard]] net::ProcId choose(net::ProcId origin,
                                   const runtime::TaskPacket& packet) override;
  [[nodiscard]] core::SchedulerKind kind() const override {
    return core::SchedulerKind::kRandom;
  }

 private:
  util::Xoshiro256 rng_{1};
  std::vector<util::Xoshiro256> origin_rng_;  // sharded mode only
};

/// Cyclic over alive processors.
class RoundRobinScheduler final : public Scheduler {
 public:
  void attach(const SchedulerEnv& env) override;
  [[nodiscard]] net::ProcId choose(net::ProcId origin,
                                   const runtime::TaskPacket& packet) override;
  [[nodiscard]] core::SchedulerKind kind() const override {
    return core::SchedulerKind::kRoundRobin;
  }

 private:
  net::ProcId cursor_ = 0;
  std::vector<net::ProcId> origin_cursor_;  // sharded mode only
};

/// Keep tasks local until the queue passes a threshold, then push to the
/// least-loaded alive neighbour (random fallback).
class LocalFirstScheduler final : public Scheduler {
 public:
  /// Spawn locally while the local queue is below this.
  static constexpr std::uint32_t kThreshold = 2;

  void attach(const SchedulerEnv& env) override;
  [[nodiscard]] net::ProcId choose(net::ProcId origin,
                                   const runtime::TaskPacket& packet) override;
  [[nodiscard]] core::SchedulerKind kind() const override {
    return core::SchedulerKind::kLocalFirst;
  }

 private:
  util::Xoshiro256 rng_{1};
  std::vector<util::Xoshiro256> origin_rng_;  // sharded mode only
};

/// Grit's constraint (paper §5.4, ref. [6]): "each node in the system is
/// limited to spawning child tasks to its immediate neighbors". Spawns go
/// to the least-loaded of {self} ∪ neighbours; recovery reissues from a
/// node whose neighbourhood died fall back to any alive processor (our
/// dynamic-allocation substrate subsumes Grit's static recovery sites).
class NeighborScheduler final : public Scheduler {
 public:
  [[nodiscard]] net::ProcId choose(net::ProcId origin,
                                   const runtime::TaskPacket& packet) override;
  [[nodiscard]] core::SchedulerKind kind() const override {
    return core::SchedulerKind::kNeighbor;
  }
};

/// Honour FunctionDef::pinned_processor; random among alive otherwise or
/// when the pinned host is dead. Used to script the paper's Figure 1.
class PinnedScheduler final : public Scheduler {
 public:
  void attach(const SchedulerEnv& env) override;
  [[nodiscard]] net::ProcId choose(net::ProcId origin,
                                   const runtime::TaskPacket& packet) override;
  [[nodiscard]] core::SchedulerKind kind() const override {
    return core::SchedulerKind::kPinned;
  }

 private:
  util::Xoshiro256 rng_{1};
  std::vector<util::Xoshiro256> origin_rng_;  // sharded mode only
};

/// Factory from configuration.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const core::SchedulerConfig& config);

}  // namespace splice::sched
