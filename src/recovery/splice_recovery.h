// Splice recovery (§4).
//
// Rollback's checkpoint reissue, plus salvage of orphan partial results:
//  * a completed task that cannot reach its parent forwards the result up
//    its ancestor chain (grandparent pointer; §5.2's great-grandparent
//    extension is the same chain, longer);
//  * an ancestor receiving an orphan result creates a step-parent twin of
//    the dead intermediate from its retained packet ("processor C forms the
//    recovery task B2' by duplicating the task packet of B2") and relays
//    the result to it;
//  * the twin inherits offspring: relayed results pre-fill its call slots,
//    so already-computed subtrees are not re-demanded (cases 4-6 of §4.1).
#pragma once

#include "recovery/policy.h"

namespace splice::recovery {

class SplicePolicy final : public RecoveryPolicy {
 public:
  /// eager_respawn=false reissues only topmost checkpoints (§4.2's
  /// "find the topmost offspring of all branches"); true makes every live
  /// parent respawn every trapped child (aggressive-salvage ablation).
  explicit SplicePolicy(bool eager_respawn)
      : eager_respawn_(eager_respawn) {}

  [[nodiscard]] bool salvages_orphans() const override { return true; }
  void on_error_detected(runtime::Processor& proc, net::ProcId dead) override;
  void reissue_against(runtime::Processor& proc, net::ProcId dead) override;
  void on_result_undeliverable(runtime::Processor& proc,
                               runtime::ResultMsg msg) override;
  void on_ancestor_result(runtime::Processor& proc,
                          runtime::ResultMsg msg) override;

 private:
  /// Route an undeliverable result to the next live ancestor in its chain;
  /// counts the orphan stranded when the chain is exhausted (§5.2: "if both
  /// the parent and grandparent processors fail simultaneously, the orphan
  /// task would be stranded").
  void escalate(runtime::Processor& proc, runtime::ResultMsg msg);

  bool eager_respawn_;
};

}  // namespace splice::recovery
