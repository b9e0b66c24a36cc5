#include "recovery/rollback.h"

#include <cassert>
#include <utility>

#include "runtime/processor.h"
#include "runtime/runtime.h"

namespace splice::recovery {

using runtime::CallSlot;
using runtime::Processor;
using runtime::Task;

bool all_destinations_dead(Processor& proc, const CallSlot& slot) {
  if (slot.sent_to.empty()) return false;
  for (std::size_t i = 0; i < slot.sent_to.size(); ++i) {
    // Prefer the acknowledged location (the packet may have been accepted
    // by a node that later forwarded nothing), else the send destination.
    net::ProcId where = slot.sent_to[i];
    if (i < slot.child_procs.size() && slot.child_procs[i] != net::kNoProc) {
      where = slot.child_procs[i];
    }
    if (!proc.knows_dead(where)) return false;
  }
  return true;
}

/// Rollback-specific recoverability: deaths are learned one at a time, and
/// the doomed sweep can run between learning a destination dead and
/// discharging the reissue obligation against it. A checkpoint still
/// retained against any destination means the slot is recoverable — the
/// pending reissue_against(that destination) will regrow the child — so
/// the owning task must not be doomed out from under it. (The eager-splice
/// variant must NOT use this: splice never takes records, so a record's
/// presence there says nothing about a pending reissue.)
bool slot_still_checkpointed(Processor& proc, const Task& owner,
                             const CallSlot& slot) {
  const runtime::LevelStamp stamp = owner.stamp().child(slot.site);
  for (std::size_t i = 0; i < slot.sent_to.size(); ++i) {
    net::ProcId where = slot.sent_to[i];
    if (i < slot.child_procs.size() && slot.child_procs[i] != net::kNoProc) {
      where = slot.child_procs[i];
    }
    if (proc.table().contains(where, stamp)) return true;
  }
  return false;
}

namespace {

/// Resolve a checkpoint record's owner task: by uid for live owners, by
/// stamp for records restored across a crash (their uid died with the old
/// incarnation; warm rejoin re-accepts the owner under a fresh one). When
/// found by stamp, the slot is re-linked from the record if needed.
/// Returns the owner and the slot to respawn through, or {nullptr,
/// nullptr} when reissue must go directly from the record.
std::pair<Task*, CallSlot*> resolve_record_owner(
    Processor& proc, checkpoint::CheckpointRecord& record) {
  Task* owner = proc.find_task(record.owner);
  if (owner == nullptr && record.restored() && !record.stamp.is_root()) {
    // Restored across a crash: the uid names the previous incarnation.
    owner = proc.find_task_by_stamp(record.stamp.parent());
  }
  if (owner == nullptr) return {nullptr, nullptr};
  CallSlot* slot = owner->find_slot(record.site);
  if (slot == nullptr || !slot->spawned) {
    // A stamp-matched owner re-accepted after the crash may not have
    // reached this call site yet; re-link the slot from the replayed
    // record's packet. (A live record's slot spawned when it was made.)
    assert(record.restored());
    slot = &owner->note_spawned(record.site, record.packet->fn,
                                record.packet->args, record.packet->lineage);
  }
  return {owner, slot};
}

/// (a) Reclaim the direct orphans of `dead`: their results could only flow
/// to the dead parent ("the result of the task cannot be forwarded"). Under
/// the cancellation protocol their descendants on *other* processors are
/// reclaimed too: the cancel forwards kCancel down every outstanding slot
/// instead of letting the subtree compute to run end for a result nobody
/// can consume.
void reclaim_orphans(Processor& proc, net::ProcId dead) {
  proc.reclaim_tasks_if(
      [&](const Task& task) { return task.packet().parent().proc == dead; });
}

}  // namespace

void reissue_topmost(Processor& proc, net::ProcId dead, bool as_twin) {
  auto records = proc.table().take(dead);
  for (auto& record : records) {
    auto [owner, slot] = resolve_record_owner(proc, record);
    if (owner == nullptr) {
      if (record.restored()) {
        // The owner died with this node's previous incarnation and was not
        // re-accepted; the retained packet alone regrows the branch.
        proc.respawn_from_record(std::move(record));
      }
      continue;  // a reclaimed owner's branch regrows from a higher ancestor
    }
    if (slot == nullptr || slot->resolved()) continue;
    proc.respawn_slot(*owner, *slot, as_twin);
  }
}

void RollbackPolicy::on_error_detected(Processor& proc, net::ProcId dead) {
  if (!proc.runtime().defer_reissue(proc, dead)) {
    reissue_against(proc, dead);
    return;
  }
  // Warm rejoin defers only the reissue. Rollback never pre-links, so a
  // parent the rejoin re-hosts respawns its children, and an orphan left
  // computing until the grace expires could only duplicate them.
  reclaim_orphans(proc, dead);
}

void RollbackPolicy::reissue_against(Processor& proc, net::ProcId dead) {
  reclaim_orphans(proc, dead);

  // (b) Reissue the topmost checkpoints held against the dead processor.
  //     An owner reclaimed in (a) regrows from a higher ancestor.
  reissue_topmost(proc, dead, /*as_twin=*/false);

  // (c) Reclaim doomed descendants: tasks waiting on children trapped in
  //     the dead node whose checkpoints were subsumed — their own topmost
  //     ancestor is being regrown elsewhere, so "new arguments of the task
  //     cannot be obtained". (Reissued slots in (b) already point at live
  //     destinations and are skipped.)
  proc.reclaim_tasks_if([&](const Task& task) {
    for (const auto& slot : task.slots()) {
      if (slot.outstanding() && all_destinations_dead(proc, slot) &&
          !slot_still_checkpointed(proc, task, slot)) {
        return true;
      }
    }
    return false;
  });
}

}  // namespace splice::recovery
