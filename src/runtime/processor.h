// A partitioned-memory processing node.
//
// Implements the §4.2 protocol loop:
//
//   LOOP CASE received packet OF
//     forward result:   interpret the level stamp (child / grandchild /
//                       others), place data, resume tasks, create
//                       step-parents, relay orphan results
//     task packet:      execute; DEMAND_IT unevaluated functions; suspend
//                       when blocked; send the result to the parent (or
//                       its ancestors when the parent is dead)
//     error-detection:  hand to the recovery policy (respawn topmost
//                       checkpoints etc.)
//   ENDCASE ENDLOOP
//
// plus the plumbing the paper assumes: spawn acknowledgements, delivery-
// failure timeouts, heartbeats, and the functional checkpoint table.
//
// Execution model: one task step (a body scan) runs at a time; its abstract
// cost advances the simulated clock. Steps queue FIFO.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checkpoint/checkpoint_table.h"
#include "core/metrics.h"
#include "net/network.h"
#include "runtime/task.h"
#include "runtime/task_packet.h"
#include "store/durable_store.h"
#include "store/state_transfer.h"
#include "util/slab.h"

namespace splice::runtime {

class Runtime;

class Processor {
 public:
  /// Task objects and the uid-map nodes that index them come from
  /// processor-local slab pools: tasks churn at every spawn/complete, and on
  /// the sharded engine per-processor ownership makes the pools lock-free.
  using TaskPtr = util::SlabPool<Task>::Ptr;
  using TaskMap =
      std::unordered_map<TaskUid, TaskPtr, std::hash<TaskUid>,
                         std::equal_to<TaskUid>,
                         util::PoolAllocator<std::pair<const TaskUid, TaskPtr>>>;

  Processor(Runtime& rt, net::ProcId id);

  [[nodiscard]] net::ProcId id() const noexcept { return id_; }

  /// Network receiver: the protocol loop's dispatch.
  void handle(net::Envelope&& env);

  /// Accept a task packet (from the network or the super-root's host
  /// channel): create the task, acknowledge, queue its first scan. Returns
  /// the new task's uid (kNoTask when dead).
  TaskUid accept_packet(TaskPacket packet);

  // ---- execution ----------------------------------------------------------
  void enqueue_scan(TaskUid uid);
  [[nodiscard]] std::uint32_t queue_length() const noexcept {
    return static_cast<std::uint32_t>(step_queue_.size()) +
           (executing_ ? 1U : 0U);
  }

  // ---- liveness -----------------------------------------------------------
  /// Crash: lose all volatile state (tasks, queue, table). Fail-silent.
  void nuke();
  [[nodiscard]] bool crashed() const noexcept { return dead_; }

  /// Repair (crash-recovery model). Cold: come back blank. Warm (runtime
  /// warm-rejoin mode): replay the durable checkpoint log into the table,
  /// then request survivor-assisted state transfer. Either way the dead
  /// flag clears, a rejoin notice broadcasts so peers drop this node from
  /// their dead sets, and heartbeats restart.
  void revive();

  /// Record that `dead` failed. Idempotent. When `direct_detection`, this
  /// processor is the detector and broadcasts error-detection packets.
  void learn_dead(net::ProcId dead, bool direct_detection);
  /// Record that `back` rejoined: forget it was dead so sends, relays and
  /// heartbeats toward it resume.
  void learn_alive(net::ProcId back);
  [[nodiscard]] bool knows_dead(net::ProcId p) const {
    return known_dead_.contains(p);
  }

  // ---- services used by recovery policies ---------------------------------
  [[nodiscard]] Task* find_task(TaskUid uid);
  /// Live (not completed/aborted) local task with this exact stamp, or
  /// nullptr. Warm rejoin re-creates tasks under fresh uids; stamp identity
  /// is what survives the crash (§3.1: names come from program structure).
  [[nodiscard]] Task* find_task_by_stamp(const LevelStamp& stamp);
  /// Stamp-addressed cancel resolution: the live local task matching
  /// (stamp, replica) that carries exactly `parent` as its parent ref and
  /// was accepted strictly before `before` (lowest uid wins for
  /// determinism). The parent filter makes the match unambiguous — uids
  /// are never reused, so only the issuer's own superseded child can
  /// match; the time fence additionally protects the issuer's replacement
  /// twin (same parent ref, spawned after the cancel).
  [[nodiscard]] Task* find_task_by_stamp_replica(const LevelStamp& stamp,
                                                 std::uint32_t replica,
                                                 TaskRef parent,
                                                 sim::SimTime before);
  /// Reissue a replay-restored checkpoint whose owner task died with this
  /// node and was not re-accepted: send the retained packet to a fresh
  /// destination and re-record it. The result flows to the old parent ref
  /// and is salvaged by stamp (warm) or by ancestor escalation (splice).
  void respawn_from_record(checkpoint::CheckpointRecord record,
                           std::string_view reason);
  /// Reissue the child of `slot` from its retained packet. `as_twin` marks
  /// a splice step-parent (enables orphan-result inheritance).
  void respawn_slot(Task& owner, CallSlot& slot, bool as_twin,
                    std::string_view reason);
  void abort_task(TaskUid uid, std::string_view reason);
  /// Cancel a local task: abort it, release the checkpoint-table entries it
  /// retained for its own children, and forward kCancel messages down every
  /// outstanding call slot so the whole duplicate subtree converges by
  /// message propagation (the protocol replacement for the old global
  /// orphan-GC sweep).
  void cancel_task(TaskUid uid, std::string_view reason);
  /// Deliver a direct-child result into a live local task (shared by the
  /// network path and policy relays).
  void deliver_parent_result(Task& task, const ResultMsg& msg);
  /// Relay an orphan result to the slot's (step-)child now, or buffer it
  /// until the twin's ack arrives.
  void relay_or_buffer(Task& ancestor, CallSlot& slot, ResultMsg msg);
  /// Send a result message into the network (policy escalation helper).
  void send_result_msg(ResultMsg msg, net::ProcId to);
  /// Abort every live task matching a predicate; returns count.
  template <typename Pred>
  std::size_t abort_tasks_if(Pred pred, std::string_view reason) {
    std::vector<TaskUid> victims;
    for (auto& [uid, task] : tasks_) {
      if (task->state() != TaskState::kCompleted &&
          task->state() != TaskState::kAborted && pred(*task)) {
        victims.push_back(uid);
      }
    }
    for (TaskUid uid : victims) abort_task(uid, reason);
    return victims.size();
  }
  /// Cancel every live task matching a predicate (abort + checkpoint
  /// release + cancels forwarded to children); returns count. The
  /// cancellation-protocol variant of abort_tasks_if: a doomed lineage's
  /// descendants on other processors are reclaimed by message instead of
  /// computing to run end.
  template <typename Pred>
  std::size_t cancel_tasks_if(Pred pred, std::string_view reason) {
    std::vector<TaskUid> victims;
    for (auto& [uid, task] : tasks_) {
      if (task->state() != TaskState::kCompleted &&
          task->state() != TaskState::kAborted && pred(*task)) {
        victims.push_back(uid);
      }
    }
    std::sort(victims.begin(), victims.end());
    for (TaskUid uid : victims) cancel_task(uid, reason);
    return victims.size();
  }
  /// Iterate live tasks (policies use this for reissue sweeps).
  template <typename Fn>
  void for_each_task(Fn fn) {
    // Snapshot uids first: respawns may mutate the table.
    std::vector<TaskUid> uids;
    uids.reserve(tasks_.size());
    for (auto& [uid, task] : tasks_) uids.push_back(uid);
    for (TaskUid uid : uids) {
      if (Task* task = find_task(uid)) fn(*task);
    }
  }

  [[nodiscard]] checkpoint::CheckpointTable& table() noexcept { return table_; }
  [[nodiscard]] Runtime& runtime() noexcept { return rt_; }
  [[nodiscard]] core::Counters& counters() noexcept { return counters_; }
  [[nodiscard]] const store::DurableStore& durable_store() const noexcept {
    return store_;
  }
  /// True from a warm revive until the next crash: enables stamp-matched
  /// delivery of results addressed to this node's previous incarnation.
  [[nodiscard]] bool warm_rejoined() const noexcept { return warm_rejoined_; }
  /// Crash count of this node — 0 for the first life, bumped per crash.
  /// splice_noded tags its log lines with it.
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }
  /// While warm catch-up is streaming, park a result whose consumer has not
  /// been re-hosted yet; it re-delivers as transfers land. Returns false
  /// once catch-up is over (the caller discards normally).
  bool buffer_warm_result(ResultMsg msg);
  /// Does this node hold anything a death of `dead` obligates it to act
  /// on — a checkpoint against it, a task parented there, or a slot whose
  /// child lives there? Gates warm-mode deferral so observers with no
  /// stake neither schedule grace timers nor count deferrals.
  [[nodiscard]] bool has_stake_in(net::ProcId dead) const;

  /// This node's share of the cancel-retransmission backoff books (see
  /// Runtime::cancel_backoff_pending for the aggregate view and why the
  /// storage is per-processor).
  void note_cancel_backoff(const LevelStamp& stamp, int delta);
  [[nodiscard]] bool cancel_backoff_pending(const LevelStamp& stamp) const {
    return cancels_in_backoff_.contains(stamp);
  }

  // ---- periodic-global baseline support ------------------------------------
  void freeze();
  void unfreeze();
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }
  /// Logical state snapshot: value-copies of all live tasks.
  [[nodiscard]] std::vector<Task> snapshot_tasks() const;
  /// Replace all volatile state with `tasks` and requeue them.
  void restore_tasks(std::vector<Task> tasks);
  /// Add `tasks` to the live set without disturbing resident work (warm-
  /// rejoin fallback: a parked slice redistributed over running survivors).
  void adopt_tasks(std::vector<Task> tasks);
  [[nodiscard]] std::uint64_t state_units() const;

  // ---- end-of-run accounting ----------------------------------------------
  [[nodiscard]] std::uint64_t live_task_count() const noexcept {
    return tasks_.size();
  }
  /// Retransmits waiting out their backoff, and the slots allocated for
  /// them so far (slots recycle, so the second is the first's peak).
  [[nodiscard]] std::size_t parked_retransmits() const noexcept {
    return parked_.size() - parked_free_.size();
  }
  [[nodiscard]] std::size_t parked_slots() const noexcept {
    return parked_.size();
  }

  void start_heartbeats();

 private:
  // ---- message dispatch ---------------------------------------------------
  // handle() std::visits the closed payload variant over this overload set.
  // There is deliberately no catch-all template: adding a variant
  // alternative refuses to compile until a handler exists here, so the wire
  // codec (net/codec.cpp) and the dispatcher stay exhaustive at the same
  // single point — the variant in net/message.h.
  void on_payload(net::Envelope& env, std::monostate&&);
  void on_payload(net::Envelope& env, TaskPacket&& msg);
  void on_payload(net::Envelope& env, AckMsg&& msg);
  void on_payload(net::Envelope& env, ResultMsg&& msg);
  void on_payload(net::Envelope& env, ErrorMsg&& msg);
  void on_payload(net::Envelope& env, HeartbeatMsg&& msg);
  void on_payload(net::Envelope& env, RejoinMsg&& msg);
  void on_payload(net::Envelope& env, LoadMsg&& msg);
  void on_payload(net::Envelope& env, ControlMsg&& msg);
  void on_payload(net::Envelope& env, CancelMsg&& msg);
  void on_payload(net::Envelope& env, store::StateRequestMsg&& msg);
  void on_payload(net::Envelope& env, store::StateChunkMsg&& msg);
  void on_payload(net::Envelope& env, net::EnvelopeBox&& box);
  /// The large payloads travel boxed; each dispatches to its handler above.
  template <typename T>
  void on_payload(net::Envelope& env, net::Boxed<T>&& box) {
    on_payload(env, std::move(*box));
  }

  void start_next_step();
  void finish_scan(TaskUid uid, ScanOutcome& outcome);
  void spawn_child(Task& owner, SpawnRequest request);
  void handle_cancel(CancelMsg msg);
  /// Emit one kCancel naming (stamp, replica) — uid-exact when the issuer
  /// holds an acknowledged pointer, else (stamp, parent-instance)-addressed
  /// with the issue time as incarnation fence.
  void send_cancel(const LevelStamp& stamp, std::uint32_t replica,
                   TaskUid uid, TaskRef parent, net::ProcId to);
  /// Cancel every instance this slot currently points at (acked ones by
  /// uid, in-flight/never-acked ones by (stamp, parent ref) at their send
  /// destination). Called when the slot's lineage is superseded — a
  /// respawn replaces it, a salvaged result resolves it, or the owning
  /// task is itself cancelled. Replicated depths are exempt (their copies
  /// are the redundancy) and destinations known dead are skipped (nothing
  /// lives there to reclaim).
  void cancel_slot_instances(const Task& owner, const CallSlot& slot);
  void handle_state_request(store::StateRequestMsg msg);
  void handle_state_chunk(net::ProcId from, store::StateChunkMsg msg);
  /// Re-host one transferred task packet: accept it, then pre-link its call
  /// slots from replay-restored child checkpoints so surviving orphan
  /// subtrees are awaited instead of recomputed.
  void accept_transferred_packet(TaskPacket packet);
  void note_transfer_peer_done(net::ProcId peer);
  void complete_catch_up();
  void flush_warm_results();
  /// Send packet replicas, record the functional checkpoint. The packet
  /// must already be retained in the slot.
  void send_packet(Task& owner, CallSlot& slot);
  void complete_task(TaskUid uid, const lang::Value& value);
  void handle_result(ResultMsg msg);
  void handle_ack(AckMsg msg);
  void handle_delivery_failure(net::Envelope original);
  /// Re-send a bounced protocol message after a backoff while its
  /// destination stays alive — the liveness net for lossy/gray links, for
  /// message kinds that have no payload-level reissue path of their own.
  void retransmit_after_backoff(net::Envelope env);
  /// Fire a parked retransmit: free its slot, then send unless this
  /// incarnation has ended or the addressee died meanwhile.
  void fire_retransmit(std::uint32_t slot, std::uint64_t life);
  void do_heartbeat();
  void resume_after_fill(Task& task);

  Runtime& rt_;
  net::ProcId id_;
  /// Allocation substrate for the task map's hash nodes (and any other
  /// small per-processor container that opts in). Declared before every
  /// container that allocates from it, so destruction order releases the
  /// containers first.
  util::SlabArena arena_;
  util::SlabPool<Task> task_pool_;
  TaskMap tasks_;
  std::deque<TaskUid> step_queue_;
  bool executing_ = false;
  /// Outcome of the step in flight (valid while executing_): parked here so
  /// the step-completion event's capture stays within EventFn's inline
  /// buffer. Single-occupancy is guaranteed by the one-step-at-a-time rule.
  ScanOutcome executing_outcome_;
  bool frozen_ = false;
  bool dead_ = false;
  std::unordered_set<net::ProcId> known_dead_;
  checkpoint::CheckpointTable table_;
  store::DurableStore store_;
  store::StateStreamer streamer_;
  /// Peers still owed a final state chunk during warm catch-up.
  std::unordered_set<net::ProcId> awaiting_transfer_;
  /// Results that raced the transfer of their consumer (warm catch-up).
  std::vector<ResultMsg> warm_pending_results_;
  bool warm_rejoined_ = false;
  sim::SimTime revive_time_;
  core::Counters counters_;
  std::uint64_t heartbeat_seq_ = 0;
  /// Bumped on every crash; heartbeat chains scheduled by an earlier
  /// incarnation abandon themselves instead of beating alongside the chain
  /// the revived node starts.
  std::uint64_t incarnation_ = 0;
  /// Cancels from this node waiting out a lossy-link retransmission backoff
  /// (keyed by lineage stamp; see Runtime::cancel_backoff_pending).
  std::unordered_map<LevelStamp, std::uint32_t, LevelStamp::Hash>
      cancels_in_backoff_;
  /// Envelopes waiting out a retransmit backoff, in recycled slots (the
  /// in-process transport's pattern): the backoff event captures only
  /// {this, slot, incarnation}, which fits EventFn's inline buffer. A slot
  /// frees when its event fires, whatever incarnation is current then, so
  /// a crash drops the parked send without leaking the slot. A deque, so
  /// growth never moves a parked envelope.
  std::deque<net::Envelope> parked_;
  std::vector<std::uint32_t> parked_free_;
  /// Uid watermark of this incarnation: every task this life hosts has a
  /// uid at or above it (uids are global and monotone). An ack addressed
  /// to a parent uid *below* the watermark names a crash casualty, not a
  /// cancelled task — its branch may have been legitimately reissued from
  /// a restored checkpoint record, so the ack-of-corpse reply must not
  /// fire (the pre-cancellation behaviour was to ignore such acks).
  TaskUid incarnation_uid_floor_ = 0;
};

}  // namespace splice::runtime
