// Recovery policy interface (strategy pattern over the §4.2 protocol loop).
//
// The Processor implements the policy-independent plumbing — task execution,
// acks, result routing, failure detection, broadcast. Policies supply the
// reactions that distinguish the paper's schemes:
//   * what to do when a processor is first learned dead,
//   * what to do with a result whose target is dead,
//   * what to do with a spawn that never arrived,
//   * what to do with an orphan result addressed to an ancestor.
// Each reaction has a default, so a policy overrides only where it differs:
// a death prompts nothing, a spawn that never arrived respawns through its
// slot, and a result nobody can consume is discarded (counted in
// late_results_discarded, §4.1 case 8).
#pragma once

#include <cstdint>
#include <memory>

#include "core/config.h"
#include "core/metrics.h"
#include "net/topology.h"
#include "runtime/task_packet.h"

namespace splice::runtime {
class Processor;
class Runtime;
}  // namespace splice::runtime

namespace splice::recovery {

class RecoveryPolicy {
 public:
  virtual ~RecoveryPolicy() = default;

  /// Do parents retain packets and populate the checkpoint table? True for
  /// the paper's schemes; false for the baselines (their overhead lives
  /// elsewhere).
  [[nodiscard]] virtual bool functional_checkpointing() const { return true; }

  /// Does this policy route orphan results onward (ancestor escalation +
  /// relay)? Warm rejoin only pre-links re-accepted tasks to surviving
  /// orphan children when it does — without salvage the orphan's result
  /// can be abandoned in flight and an awaiting slot would starve.
  [[nodiscard]] virtual bool salvages_orphans() const { return false; }

  /// Called once, after construction, with the runtime (periodic-global
  /// uses it to schedule snapshot cycles).
  virtual void attach(runtime::Runtime& /*rt*/) {}

  /// First time `proc` learns that `dead` failed (error-detection, §4.2).
  /// Default: nothing (the policy reacts globally, or not at all).
  virtual void on_error_detected(runtime::Processor& /*proc*/,
                                 net::ProcId /*dead*/) {}

  /// The cold reissue action for the checkpoints `proc` holds against
  /// `dead`. Checkpoint-based policies implement their on_error_detected
  /// body here so warm rejoin can defer it: while a warm-mode repair is
  /// pending, obligations stay in the table (state transfer re-hosts them)
  /// and this runs only if the grace period expires with the node still
  /// down (Runtime::defer_reissue).
  virtual void reissue_against(runtime::Processor& /*proc*/,
                               net::ProcId /*dead*/) {}

  /// Runtime-level notification, fired once per dead processor system-wide
  /// (restart and periodic-global act globally).
  virtual void on_global_failure(runtime::Runtime& /*rt*/,
                                 net::ProcId /*dead*/) {}

  /// A repaired processor rejoined blank (crash-recovery model). Fired after
  /// the node reinitialised and announced itself; by default nothing more is
  /// needed — the checkpoint-based schemes already regrew the lost subtree
  /// when the node died, and the scheduler resumes placing work on the
  /// revived node as soon as peers process its rejoin notice.
  virtual void on_rejoin(runtime::Runtime& /*rt*/, net::ProcId /*back*/) {}

  /// A completed task's result could not reach msg.target. Default:
  /// discard it.
  virtual void on_result_undeliverable(runtime::Processor& proc,
                                       runtime::ResultMsg msg);

  /// A spawned task packet never arrived (Fig. 6 state b: "processor G
  /// times out and reissues a new task P"). Default: respawn through the
  /// owning slot.
  virtual void on_spawn_undeliverable(runtime::Processor& proc,
                                      const runtime::TaskPacket& packet);

  /// An orphan result addressed to a live local ancestor arrived
  /// (relation kToAncestor). Default: discard it — a policy without
  /// grandparent transport ignores the packet ("others: Ignore").
  virtual void on_ancestor_result(runtime::Processor& proc,
                                  runtime::ResultMsg msg);

  /// Extra counters this policy accumulated outside any processor.
  virtual void contribute(core::Counters& /*counters*/) const {}
};

/// No fault tolerance: failures lose subtrees permanently (control arm).
class NoRecoveryPolicy final : public RecoveryPolicy {
 public:
  [[nodiscard]] bool functional_checkpointing() const override {
    return false;
  }
  void on_spawn_undeliverable(runtime::Processor&,
                              const runtime::TaskPacket&) override {}
};

/// Restart the whole program from the super-root's preevaluation checkpoint
/// on any failure (the no-checkpoint baseline).
class RestartPolicy final : public RecoveryPolicy {
 public:
  [[nodiscard]] bool functional_checkpointing() const override {
    return false;
  }
  void on_global_failure(runtime::Runtime& rt, net::ProcId dead) override;
  void on_spawn_undeliverable(runtime::Processor&,
                              const runtime::TaskPacket&) override {}
};

/// Factory over the full policy set (rollback/splice/periodic included).
[[nodiscard]] std::unique_ptr<RecoveryPolicy> make_policy(
    const core::RecoveryConfig& config);

}  // namespace splice::recovery
