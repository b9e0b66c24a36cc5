// Run-level metrics: what every experiment table is built from.
#pragma once

#include <cstdint>
#include <string>

#include "lang/value.h"
#include "net/network.h"

namespace splice::core {

/// Protocol-level counters aggregated across processors.
struct Counters {
  // Task lifecycle.
  std::uint64_t tasks_created = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_aborted = 0;
  /// Live resident tasks destroyed by the crash of their host. Together
  /// with completed/aborted/stranded these account for every accepted task
  /// (the RecoveryOracle's conservation equation).
  std::uint64_t tasks_lost_to_crash = 0;
  std::uint64_t scans = 0;

  // Recovery activity.
  std::uint64_t tasks_respawned = 0;       // reissued checkpoints (all kinds)
  std::uint64_t twins_created = 0;         // splice step-parents
  std::uint64_t orphan_results_salvaged = 0;  // slots filled by relayed returns
  std::uint64_t results_relayed = 0;       // grandparent transport actions
  std::uint64_t duplicate_results_ignored = 0;  // cases 6/7
  std::uint64_t late_results_discarded = 0;     // case 8 / unknown target
  std::uint64_t orphans_stranded = 0;      // undeliverable with no ancestor left
  /// Always 0: the cancel protocol is the only reclaim path, and it
  /// counts into tasks_cancelled. Kept for readers that still sum it.
  std::uint64_t orphans_gced = 0;

  // Cancellation protocol (kCancel, duplicate-lineage reclaim by message).
  std::uint64_t cancels_sent = 0;          // kCancel messages issued
  std::uint64_t tasks_cancelled = 0;       // live duplicates aborted by cancel
  std::uint64_t cancels_ignored = 0;       // no live addressee (already done)
  std::uint64_t cancel_retries = 0;        // kCancel re-sent after a bounce
  std::uint64_t bounce_retransmits = 0;    // other protocol kinds re-sent
  /// Of the two re-send counts above: messages that bounced off an active
  /// cut, were held by their sender, and went out once at the heal.
  std::uint64_t held_released = 0;
  std::uint64_t wire_dups_discarded = 0;   // duplicate task packets deduped
  std::uint64_t gc_oracle_orphans = 0;     // duplicates the oracle saw leak
  /// Sum over reclaimed duplicates of (reclaim time - task creation time);
  /// divide by tasks_cancelled for the E17 mean reclaim latency.
  std::int64_t reclaim_latency_ticks = 0;

  // Functional checkpointing.
  std::uint64_t checkpoint_records = 0;
  std::uint64_t checkpoint_subsumed = 0;   // level-stamp dedup hits (§3.2)
  std::uint64_t checkpoint_released = 0;
  std::uint64_t checkpoint_taken = 0;      // removed by take() on a crash
  std::uint64_t checkpoint_evicted = 0;    // antichain eviction in record()
  std::uint64_t checkpoint_cleared = 0;    // dropped by clear() (node nuked)
  std::uint64_t checkpoint_resident = 0;   // still held when the run ended
  std::uint64_t checkpoint_peak_entries = 0;
  std::uint64_t checkpoint_peak_units = 0;

  // Periodic-global baseline.
  std::uint64_t snapshots_taken = 0;
  std::uint64_t restores = 0;
  std::int64_t freeze_ticks = 0;

  // Failure handling.
  /// Error-detection rounds: one per detector per tick with a first-hand
  /// detection, each sending one notice that lists that tick's deaths to
  /// every other live peer.
  std::uint64_t error_broadcasts = 0;
  std::uint64_t rejoins = 0;  // times this node revived (crash-recovery)

  // Durable store + warm-rejoin state transfer (store/ subsystem).
  std::uint64_t store_entries_logged = 0;   // checkpoint mutations journaled
  std::uint64_t store_records_replayed = 0; // live records after log replay
  std::uint64_t state_chunks_sent = 0;      // kStateChunk messages streamed
  std::uint64_t state_packets_transferred = 0;  // packets re-accepted on rejoin
  std::uint64_t state_units_transferred = 0;    // transfer volume (size units)
  std::uint64_t stale_chunks_dropped = 0;   // incarnation-guarded discards
  std::uint64_t reissues_avoided = 0;       // respawns replaced by transfer
  std::uint64_t reissues_deferred = 0;      // warm-mode deferrals granted
  std::int64_t catch_up_ticks = 0;          // revive -> transfer complete (sum)

  // Work accounting (busy processor time in ticks).
  std::int64_t busy_ticks = 0;

  void merge(const Counters& other) noexcept;
  [[nodiscard]] bool operator==(const Counters&) const = default;
};

/// Result of one simulated run.
struct RunResult {
  bool completed = false;
  lang::Value answer;
  bool answer_checked = false;  // reference answer was computed
  bool answer_correct = false;

  std::int64_t makespan_ticks = 0;
  std::int64_t first_failure_ticks = -1;   // -1: no fault injected/fired
  std::int64_t detection_ticks = -1;       // first error-detection handling
  std::uint64_t faults_injected = 0;
  std::uint64_t nodes_revived = 0;         // rejoins executed (crash-recovery)

  Counters counters;
  net::NetworkStats net;
  std::uint64_t sim_events = 0;
  std::uint32_t processors = 0;
  std::uint32_t processors_alive_at_end = 0;
  /// Tasks still resident and unfinished when the run ended (orphans the
  /// system never reclaimed — §3.4's observation made measurable).
  std::uint64_t stranded_tasks = 0;

  [[nodiscard]] std::string summary() const;
};

}  // namespace splice::core
