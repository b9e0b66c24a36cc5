// Rollback recovery (§3).
//
// "When processor C identifies the failure of processor B, C simply
//  reissues all the checkpointed tasks found in entry B of the table. By
//  doing so, processor C fulfills its responsibility of recovering B. ...
//  an efficient way to salvage a group of genealogical dependents is to
//  redo only the most ancient ancestor and ignore the rest."
//
// Orphan handling: "a processor is required to abort a task if new
// arguments of the task cannot be obtained due to failures of other
// processors. A task is also aborted if the result of the task cannot be
// forwarded to the parent task."
#pragma once

#include "recovery/policy.h"
#include "runtime/task.h"

namespace splice::recovery {

/// Rollback abandons orphan results: "Returns from orphan tasks are
/// theoretically harmless since they are forwarded to a faulty processor",
/// and without grandparent transport an ancestor ignores them — both are
/// the default discards.
class RollbackPolicy final : public RecoveryPolicy {
 public:
  void on_error_detected(runtime::Processor& proc, net::ProcId dead) override;
  void reissue_against(runtime::Processor& proc, net::ProcId dead) override;
};

/// The reissue both checkpoint schemes share ("find the topmost offspring
/// of all branches, respawn all of these apply tasks"): take `proc`'s
/// checkpoint-table entry for `dead` and respawn each record through its
/// owner's call slot — `as_twin` marks splice step-parents. A record whose
/// owner is gone reissues from its own packet when it was restored across
/// a crash; otherwise the owner was reclaimed and its branch regrows from a
/// higher ancestor.
void reissue_topmost(runtime::Processor& proc, net::ProcId dead,
                     bool as_twin);

/// True when every destination the slot's packet was last sent to is known
/// dead (no live or potentially-live incarnation of the child remains).
/// Shared by rollback's doomed-orphan rule and splice's twin-creation rule.
[[nodiscard]] bool all_destinations_dead(runtime::Processor& proc,
                                         const runtime::CallSlot& slot);

}  // namespace splice::recovery
