#include "core/metrics.h"

#include <sstream>

namespace splice::core {

void Counters::merge(const Counters& other) noexcept {
  tasks_created += other.tasks_created;
  tasks_completed += other.tasks_completed;
  tasks_aborted += other.tasks_aborted;
  tasks_lost_to_crash += other.tasks_lost_to_crash;
  scans += other.scans;
  tasks_respawned += other.tasks_respawned;
  twins_created += other.twins_created;
  orphan_results_salvaged += other.orphan_results_salvaged;
  results_relayed += other.results_relayed;
  duplicate_results_ignored += other.duplicate_results_ignored;
  late_results_discarded += other.late_results_discarded;
  orphans_stranded += other.orphans_stranded;
  orphans_gced += other.orphans_gced;
  cancels_sent += other.cancels_sent;
  tasks_cancelled += other.tasks_cancelled;
  cancels_ignored += other.cancels_ignored;
  cancel_retries += other.cancel_retries;
  bounce_retransmits += other.bounce_retransmits;
  held_released += other.held_released;
  wire_dups_discarded += other.wire_dups_discarded;
  gc_oracle_orphans += other.gc_oracle_orphans;
  reclaim_latency_ticks += other.reclaim_latency_ticks;
  checkpoint_records += other.checkpoint_records;
  checkpoint_subsumed += other.checkpoint_subsumed;
  checkpoint_released += other.checkpoint_released;
  checkpoint_taken += other.checkpoint_taken;
  checkpoint_evicted += other.checkpoint_evicted;
  checkpoint_cleared += other.checkpoint_cleared;
  checkpoint_resident += other.checkpoint_resident;
  checkpoint_peak_entries += other.checkpoint_peak_entries;
  checkpoint_peak_units += other.checkpoint_peak_units;
  snapshots_taken += other.snapshots_taken;
  restores += other.restores;
  freeze_ticks += other.freeze_ticks;
  error_broadcasts += other.error_broadcasts;
  rejoins += other.rejoins;
  store_entries_logged += other.store_entries_logged;
  store_records_replayed += other.store_records_replayed;
  state_chunks_sent += other.state_chunks_sent;
  state_packets_transferred += other.state_packets_transferred;
  state_units_transferred += other.state_units_transferred;
  stale_chunks_dropped += other.stale_chunks_dropped;
  reissues_avoided += other.reissues_avoided;
  reissues_deferred += other.reissues_deferred;
  catch_up_ticks += other.catch_up_ticks;
  busy_ticks += other.busy_ticks;
}

std::string RunResult::summary() const {
  std::ostringstream out;
  out << (completed ? "completed" : "INCOMPLETE") << " makespan="
      << makespan_ticks << " answer=" << answer.to_string();
  if (answer_checked) out << (answer_correct ? " (correct)" : " (WRONG)");
  out << " tasks=" << counters.tasks_created << " respawned="
      << counters.tasks_respawned << " salvaged="
      << counters.orphan_results_salvaged << " msgs=" << net.total_sent();
  // Later-protocol activity, shown only when the run exercised it so the
  // fault-free one-liner stays short.
  if (counters.cancels_sent > 0 || counters.tasks_cancelled > 0) {
    out << " cancels=" << counters.cancels_sent << "/"
        << counters.tasks_cancelled;
    if (counters.cancel_retries > 0) out << " (+retries="
                                         << counters.cancel_retries << ")";
  }
  if (counters.state_packets_transferred > 0 || counters.state_chunks_sent > 0) {
    out << " transferred=" << counters.state_packets_transferred << " in "
        << counters.state_chunks_sent << " chunks";
  }
  if (counters.reissues_avoided > 0) {
    out << " reissues_avoided=" << counters.reissues_avoided;
  }
  if (net.link_dropped > 0 || net.link_duplicated > 0 ||
      net.link_reordered > 0 || net.gray_dropped > 0) {
    out << " link_faults=" << net.link_dropped << "d/" << net.link_duplicated
        << "D/" << net.link_reordered << "r/" << net.gray_dropped << "g";
  }
  if (net.partition_cut > 0) out << " cut=" << net.partition_cut;
  return out.str();
}

}  // namespace splice::core
