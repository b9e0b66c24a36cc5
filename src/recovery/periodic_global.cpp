#include "recovery/periodic_global.h"

#include "runtime/processor.h"
#include "runtime/runtime.h"

namespace splice::recovery {

using runtime::ResultMsg;
using runtime::Task;

void PeriodicGlobalPolicy::attach(runtime::Runtime& rt) {
  rt_ = &rt;
  schedule_snapshot();
}

void PeriodicGlobalPolicy::schedule_snapshot() {
  rt_->sim().after(sim::SimTime(cfg_.checkpoint_interval),
                   [this] { begin_snapshot(); });
}

void PeriodicGlobalPolicy::begin_snapshot() {
  if (rt_->done()) return;
  for (net::ProcId p = 0; p < rt_->processor_count(); ++p) {
    if (rt_->processor(p).crashed() && !accounted_dead_.contains(p)) {
      // A processor died and its rollback has not landed yet (kills precede
      // detection). Committing a snapshot now would drop its slice — keep
      // the last good snapshot and try again next interval.
      schedule_snapshot();
      return;
    }
  }
  rt_->freeze_all();
  const std::uint64_t units = rt_->total_state_units();
  snapshot_.assign(rt_->processor_count(), {});
  for (net::ProcId p = 0; p < rt_->processor_count(); ++p) {
    auto& proc = rt_->processor(p);
    if (!proc.crashed()) snapshot_[p] = proc.snapshot_tasks();
  }
  snapshot_valid_ = true;
  ++snapshots_;
  rt_->recorder().record(rt_->sim().now(), obs::EventKind::kSnapshot,
                         {.arg = units});
  // "Virtually stop all computational operations while ... checkpointing
  // takes place": frozen for a state-size-dependent window.
  const auto freeze =
      cfg_.freeze_base +
      static_cast<std::int64_t>(cfg_.freeze_per_unit *
                                static_cast<double>(units));
  freeze_ticks_ += freeze;
  rt_->sim().after(sim::SimTime(freeze), [this] {
    rt_->unfreeze_all();
    if (!rt_->done()) schedule_snapshot();
  });
}

void PeriodicGlobalPolicy::on_global_failure(runtime::Runtime& rt,
                                             net::ProcId /*dead*/) {
  rt.sim().after(sim::SimTime(kRestoreDelay), [this] { restore(); });
}

void PeriodicGlobalPolicy::restore() {
  if (rt_->done()) return;
  accounted_dead_.clear();
  for (net::ProcId p = 0; p < rt_->processor_count(); ++p) {
    if (rt_->processor(p).crashed()) accounted_dead_.insert(p);
  }
  ++restores_;
  // A new restore supersedes any slice still parked from a previous one:
  // the fresh snapshot is the authoritative state now, and buffered
  // results for superseded uids would only resolve slots the rescan is
  // about to re-demand anyway (determinacy makes the recomputation
  // equivalent).
  parked_.clear();
  parked_results_.clear();
  rt_->recorder().record(rt_->sim().now(), obs::EventKind::kRestore, {});
  if (!snapshot_valid_) {
    // Failure before the first snapshot: nothing saved, restart everything.
    for (net::ProcId p = 0; p < rt_->processor_count(); ++p) {
      auto& proc = rt_->processor(p);
      if (!proc.crashed()) proc.restore_tasks({});
    }
    rt_->super_root().restart_program();
    return;
  }
  // Global rollback: every live processor reverts to the snapshot; tasks of
  // dead processors are redistributed round-robin over the living.
  std::vector<std::vector<Task>> plan(rt_->processor_count());
  std::vector<net::ProcId> alive;
  for (net::ProcId p = 0; p < rt_->processor_count(); ++p) {
    if (!rt_->processor(p).crashed()) alive.push_back(p);
  }
  if (alive.empty()) return;
  // Tasks whose packets were in flight at snapshot time are in nobody's
  // snapshot; their parents' slots must be reset so the rescan re-demands
  // them (otherwise the parent waits forever for a task the restore
  // destroyed). The coordinator has global knowledge — this baseline is a
  // global scheme by design.
  std::set<runtime::LevelStamp> present;
  bool root_present = false;
  for (const auto& home : snapshot_) {
    for (const Task& task : home) {
      present.insert(task.stamp());
      root_present |= task.stamp().is_root();
    }
  }
  std::size_t rr = 0;
  for (net::ProcId home = 0; home < snapshot_.size(); ++home) {
    for (Task& task : snapshot_[home]) {
      Task copy = task;
      for (auto& slot : copy.slots_mut()) {
        if (slot.outstanding() &&
            !present.contains(task.stamp().child(slot.site))) {
          slot.spawned = false;
          slot.children.clear();
        }
      }
      if (!rt_->processor(home).crashed()) {
        plan[home].push_back(std::move(copy));
      } else if (rt_->warm_rejoin()) {
        // Crash-recovery model: the node is being repaired. Park its slice
        // so the rejoiner resumes its own work instead of scattering it.
        parked_[home].push_back(std::move(copy));
      } else {
        const net::ProcId host = alive[rr++ % alive.size()];
        relocation_[copy.uid()] = host;
        plan[host].push_back(std::move(copy));
      }
    }
  }
  for (net::ProcId p : alive) {
    rt_->processor(p).restore_tasks(std::move(plan[p]));
  }
  // Bound the wait for each parked slice by the same grace the splice
  // stack's warm deferral uses; generation-stamped so a later restore's
  // fresh park is not clobbered by this one's timer.
  const auto generation = restores_;
  for (const auto& [home, tasks] : parked_) {
    const net::ProcId h = home;
    rt_->sim().after(sim::SimTime(rt_->config().store.warm_grace),
                     [this, h, generation] {
                       if (rt_->done() || generation != restores_) return;
                       if (!parked_.contains(h)) return;  // rejoined in time
                       redistribute_parked(h);
                     });
  }
  if (!root_present) {
    // The root itself was in flight when the snapshot was cut: only the
    // super-root's preevaluation checkpoint can regenerate it.
    rt_->super_root().restart_program();
  }
}

void PeriodicGlobalPolicy::on_rejoin(runtime::Runtime& rt, net::ProcId back) {
  accounted_dead_.erase(back);
  const auto it = parked_.find(back);
  if (it == parked_.end()) return;
  std::vector<Task> tasks = std::move(it->second);
  parked_.erase(it);
  rt.recorder().record(
      rt.sim().now(), obs::EventKind::kUnpark,
      {.proc = back, .arg = static_cast<std::uint64_t>(tasks.size())});
  // Each resumed task is a redistribution (and the reissue traffic it
  // implies) the park avoided — the counter E15/E18 compare against the
  // splice stack's transfer-avoided reissues.
  rt.processor(back).counters().reissues_avoided += tasks.size();
  rt.processor(back).restore_tasks(std::move(tasks));
  const auto rit = parked_results_.find(back);
  if (rit == parked_results_.end()) return;
  std::vector<ResultMsg> buffered = std::move(rit->second);
  parked_results_.erase(rit);
  for (ResultMsg& msg : buffered) {
    // Buffered returns target the rejoined node's own uids; the host
    // channel redelivers them now that the addressee is back.
    rt.host_send_result(std::move(msg));
  }
}

void PeriodicGlobalPolicy::redistribute_parked(net::ProcId home) {
  const auto it = parked_.find(home);
  if (it == parked_.end()) return;
  std::vector<Task> tasks = std::move(it->second);
  parked_.erase(it);
  std::vector<net::ProcId> alive;
  for (net::ProcId p = 0; p < rt_->processor_count(); ++p) {
    if (!rt_->processor(p).crashed()) alive.push_back(p);
  }
  if (alive.empty()) return;
  rt_->recorder().record(
      rt_->sim().now(), obs::EventKind::kParkExpired,
      {.proc = home, .arg = static_cast<std::uint64_t>(tasks.size())});
  std::vector<std::vector<Task>> plan(rt_->processor_count());
  std::size_t rr = 0;
  for (Task& task : tasks) {
    const net::ProcId host = alive[rr++ % alive.size()];
    relocation_[task.uid()] = host;
    plan[host].push_back(std::move(task));
  }
  for (net::ProcId p : alive) {
    if (!plan[p].empty()) rt_->processor(p).adopt_tasks(std::move(plan[p]));
  }
  const auto rit = parked_results_.find(home);
  if (rit == parked_results_.end()) return;
  std::vector<ResultMsg> buffered = std::move(rit->second);
  parked_results_.erase(rit);
  for (ResultMsg& msg : buffered) {
    const auto rel = relocation_.find(msg.target.uid);
    if (rel == relocation_.end()) continue;  // slot reset; rescan re-demands
    msg.target.proc = rel->second;
    rt_->host_send_result(std::move(msg));
  }
}

void PeriodicGlobalPolicy::on_result_undeliverable(runtime::Processor& proc,
                                                   ResultMsg msg) {
  const auto it = relocation_.find(msg.target.uid);
  if (it != relocation_.end() && !proc.knows_dead(it->second)) {
    msg.target.proc = it->second;
    const net::ProcId to = it->second;
    proc.send_result_msg(std::move(msg), to);
    return;
  }
  // Warm mode: the target may sit in a parked slice awaiting its home's
  // repair. Hold the result for redelivery instead of discarding it.
  const auto parked = parked_.find(msg.target.proc);
  if (parked != parked_.end()) {
    parked_results_[msg.target.proc].push_back(std::move(msg));
    return;
  }
  ++proc.counters().late_results_discarded;
}

void PeriodicGlobalPolicy::contribute(core::Counters& counters) const {
  counters.snapshots_taken += snapshots_;
  counters.restores += restores_;
  counters.freeze_ticks += freeze_ticks_;
}

}  // namespace splice::recovery
