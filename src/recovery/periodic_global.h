// Periodic global checkpointing baseline.
//
// The conventional scheme the paper positions against (§2): "The basic idea
// is to virtually stop all computational operations while periodic global
// checkpointing takes place" (cf. Tamir & Sequin [15], Hughes [7]). Every
// `checkpoint_interval` ticks the coordinator freezes all processors, copies
// their logical state to stable storage (the host), and resumes; on failure
// the whole system is rolled back to the last snapshot, with the dead
// node's tasks redistributed.
//
// Modelling notes (DESIGN.md §3): in-flight messages are not revoked at
// restore; determinacy makes stale deliveries either duplicates (ignored)
// or early results (benign). Tasks keep their uids across restore; a
// relocation map re-routes returns addressed to the dead processor.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "recovery/policy.h"
#include "runtime/task.h"

namespace splice::recovery {

class PeriodicGlobalPolicy final : public RecoveryPolicy {
 public:
  /// Delay between detection and restore completion (ticks).
  static constexpr std::int64_t kRestoreDelay = 500;

  explicit PeriodicGlobalPolicy(const core::RecoveryConfig& config)
      : cfg_(config) {}

  [[nodiscard]] bool functional_checkpointing() const override {
    return false;
  }

  void attach(runtime::Runtime& rt) override;
  void on_global_failure(runtime::Runtime& rt, net::ProcId dead) override;
  void on_rejoin(runtime::Runtime& rt, net::ProcId back) override;
  void on_result_undeliverable(runtime::Processor& proc,
                               runtime::ResultMsg msg) override;
  void contribute(core::Counters& counters) const override;

 private:
  void schedule_snapshot();
  void begin_snapshot();
  void restore();
  /// Warm-mode fallback: the grace period elapsed with `home` still down —
  /// redistribute its parked slice over the living (the cold action the
  /// park deferred) and redirect any buffered results.
  void redistribute_parked(net::ProcId home);

  core::RecoveryConfig cfg_;
  runtime::Runtime* rt_ = nullptr;

  /// Last committed snapshot: tasks per home processor.
  std::vector<std::vector<runtime::Task>> snapshot_;
  bool snapshot_valid_ = false;
  /// Dead processors whose loss a restore has already rolled back around
  /// (their snapshot tasks were redistributed or parked). A crashed
  /// processor *not* in this set means a rollback is still coming — kills
  /// precede detection by a failure-timeout, so a snapshot in that window
  /// would commit state missing the dead node's slice and silently shrink
  /// what the restore (and a warm park) can recover. begin_snapshot defers
  /// until the pending rollback lands.
  std::set<net::ProcId> accounted_dead_;

  /// Where restored tasks of dead processors went (uid -> new host).
  std::unordered_map<runtime::TaskUid, net::ProcId> relocation_;

  /// Warm rejoin (crash-recovery model): a dead home's snapshot slice is
  /// parked here instead of being redistributed, so the repaired node
  /// resumes its own work — the apples-to-apples counterpart of the splice
  /// stack's survivor-assisted warm rejoin. Results bounced off the dead
  /// home meanwhile buffer in parked_results_ for redelivery. A slice
  /// still parked when the store.warm_grace expires falls back to the cold
  /// round-robin redistribution.
  std::unordered_map<net::ProcId, std::vector<runtime::Task>> parked_;
  std::unordered_map<net::ProcId, std::vector<runtime::ResultMsg>>
      parked_results_;

  std::uint64_t snapshots_ = 0;
  std::uint64_t restores_ = 0;
  std::int64_t freeze_ticks_ = 0;
};

}  // namespace splice::recovery
