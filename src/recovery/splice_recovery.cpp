#include "recovery/splice_recovery.h"

#include "recovery/rollback.h"
#include "runtime/processor.h"
#include "runtime/runtime.h"

namespace splice::recovery {

using runtime::CallSlot;
using runtime::Processor;
using runtime::ResultMsg;
using runtime::ResultRelation;
using runtime::Task;
using runtime::TaskRef;

void SplicePolicy::on_error_detected(Processor& proc, net::ProcId dead) {
  if (proc.runtime().defer_reissue(proc, dead)) return;
  reissue_against(proc, dead);
}

void SplicePolicy::reissue_against(Processor& proc, net::ProcId dead) {
  if (eager_respawn_) {
    // Ablation variant: every live parent regenerates every child whose
    // every incarnation is trapped in dead processors.
    proc.for_each_task([&](Task& task) {
      for (auto& slot : task.slots_mut()) {
        if (slot.outstanding() && all_destinations_dead(proc, slot)) {
          proc.respawn_slot(task, slot, /*as_twin=*/true);
        }
      }
    });
    return;
  }
  // Paper-faithful: "Find the topmost offspring of all branches, respawn
  // all of these apply tasks." — the checkpoint table's entry for the dead
  // node is exactly that set. No reclaims: orphans keep computing; their
  // results are salvage material.
  reissue_topmost(proc, dead, /*as_twin=*/true);
}

void SplicePolicy::on_result_undeliverable(Processor& proc, ResultMsg msg) {
  escalate(proc, std::move(msg));
}

void SplicePolicy::escalate(Processor& proc, ResultMsg msg) {
  // "If the parent is dead, notify the grandparent and send the result to
  //  the grandparent." The ancestor chain extends this beyond depth 2 when
  //  §5.2's extension is configured.
  for (std::uint32_t idx = msg.ancestor_index + 1; idx < msg.ancestors.size();
       ++idx) {
    const TaskRef ancestor = msg.ancestors[idx];
    ResultMsg next = msg;
    next.target = ancestor;
    next.relation = ResultRelation::kToAncestor;
    next.ancestor_index = idx;
    if (ancestor.proc == net::kNoProc) {
      // The super-root is the root's parent (§4.3.1): it buffers and relays.
      proc.runtime().deliver_to_super_root(std::move(next), proc.id());
      return;
    }
    if (ancestor.proc == proc.id()) {
      on_ancestor_result(proc, std::move(next));
      return;
    }
    if (!proc.knows_dead(ancestor.proc)) {
      proc.send_result_msg(std::move(next), ancestor.proc);
      return;
    }
  }
  ++proc.counters().orphans_stranded;
  proc.runtime().recorder().record(proc.runtime().sim().now(),
                                   obs::EventKind::kStranded,
                                   {.proc = proc.id(), .stamp = &msg.stamp});
}

void SplicePolicy::on_ancestor_result(Processor& proc, ResultMsg msg) {
  Task* ancestor = proc.find_task(msg.target.uid);
  if (ancestor == nullptr && proc.warm_rejoined() &&
      msg.stamp.depth() > msg.ancestor_index + 1) {
    // The targeted ancestor uid belongs to this node's previous
    // incarnation; re-derive it by stamp (the producer's stamp truncated
    // to the ancestor's depth) against the re-accepted task set.
    const std::size_t depth = msg.stamp.depth() - (msg.ancestor_index + 1);
    ancestor = proc.find_task_by_stamp(msg.stamp.truncated(depth));
  }
  if (ancestor == nullptr) {
    // Case 8: nobody recognises the answer any more.
    ++proc.counters().late_results_discarded;
    return;
  }
  const std::size_t ancestor_depth = ancestor->stamp().depth();
  if (msg.stamp.depth() <= ancestor_depth ||
      !ancestor->stamp().is_ancestor_of(msg.stamp)) {
    ++proc.counters().late_results_discarded;  // "others: Ignore the packet"
    return;
  }
  const auto gap = msg.stamp.depth() - ancestor_depth;
  if (gap == 1) {
    // Escalation landed on the direct parent after all (e.g. a relay raced
    // a respawn): treat as a normal, salvaged return.
    msg.relayed = true;
    proc.deliver_parent_result(*ancestor, msg);
    return;
  }
  // The grandchild's path through this task goes via the call site encoded
  // in the stamp digit right below our depth ("Interpret the level stamp").
  const lang::ExprId site = msg.stamp.digit(ancestor_depth);
  CallSlot& slot = ancestor->slot(site);
  if (slot.resolved) {
    ++proc.counters().late_results_discarded;  // cases 7/8
    return;
  }
  // "Create a step-parent for the grandchild if there isn't one already."
  if (slot.spawned && all_destinations_dead(proc, slot)) {
    proc.respawn_slot(*ancestor, slot, /*as_twin=*/true);
    if (proc.crashed()) return;  // respawn trigger killed the relay host
  }
  // "Transfer the result to its step-parent" — now, or when the twin acks.
  proc.relay_or_buffer(*ancestor, slot, std::move(msg));
}

}  // namespace splice::recovery
