#include "recovery/policy.h"

#include "recovery/periodic_global.h"
#include "recovery/rollback.h"
#include "recovery/splice_recovery.h"
#include "runtime/processor.h"
#include "runtime/runtime.h"

namespace splice::recovery {

using runtime::CallSlot;
using runtime::Processor;
using runtime::ResultMsg;
using runtime::Task;
using runtime::TaskPacket;

void RecoveryPolicy::on_result_undeliverable(Processor& proc,
                                             ResultMsg /*msg*/) {
  ++proc.counters().late_results_discarded;
}

void RecoveryPolicy::on_ancestor_result(Processor& proc, ResultMsg /*msg*/) {
  ++proc.counters().late_results_discarded;
}

void RecoveryPolicy::on_spawn_undeliverable(Processor& proc,
                                            const TaskPacket& packet) {
  // Fig. 6 state b: the child never arrived, no ack will come. The parent
  // "times out and reissues a new task P" — through the owning slot so the
  // replacement's result lands correctly.
  Task* owner = proc.find_task(packet.parent().uid);
  if (owner == nullptr) return;
  CallSlot* slot = owner->find_slot(packet.call_site);
  if (slot == nullptr || slot->resolved || !slot->spawned) return;
  if (packet.lineage < slot->lineage) {
    // Late bounce of a superseded spawn generation: the slot was respawned
    // after this packet left (a death-path reissue, or an earlier bounce)
    // and the current generation is unaffected. Reacting would cancel a
    // healthy copy and churn out yet another lineage.
    return;
  }
  // With replication, respawn only when the surviving (or still-possible)
  // incarnations can no longer reach quorum.
  const std::uint32_t quorum =
      proc.runtime().quorum_for(packet.stamp.depth());
  std::uint32_t possible = slot->votes;
  for (std::size_t i = 0; i < slot->children.size(); ++i) {
    // The copy that bounced can never ack — the packet itself was lost,
    // even if its destination has since been repaired (rejoin).
    if (i == packet.replica) continue;
    if (!proc.knows_dead(slot->children[i].where())) ++possible;
  }
  if (possible >= quorum) return;
  proc.respawn_slot(*owner, *slot, /*as_twin=*/false);
}

void RestartPolicy::on_global_failure(runtime::Runtime& rt,
                                      net::ProcId /*dead*/) {
  // No checkpoints anywhere: the only recovery is to run the whole program
  // again from the super-root's preevaluation copy.
  rt.super_root().restart_program();
}

std::unique_ptr<RecoveryPolicy> make_policy(
    const core::RecoveryConfig& config) {
  switch (config.kind) {
    case core::RecoveryKind::kNone:
      return std::make_unique<NoRecoveryPolicy>();
    case core::RecoveryKind::kRestart:
      return std::make_unique<RestartPolicy>();
    case core::RecoveryKind::kRollback:
      return std::make_unique<RollbackPolicy>();
    case core::RecoveryKind::kSplice:
      return std::make_unique<SplicePolicy>(config.eager_respawn);
    case core::RecoveryKind::kPeriodicGlobal:
      return std::make_unique<PeriodicGlobalPolicy>(config);
  }
  return std::make_unique<SplicePolicy>(false);
}

}  // namespace splice::recovery
