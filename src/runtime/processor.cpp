#include "runtime/processor.h"

#include <algorithm>
#include <cassert>
#include <variant>

#include "runtime/runtime.h"

namespace splice::runtime {

using net::Envelope;
using net::MsgKind;

namespace {
store::StateStreamer::Env make_streamer_env(Processor& self, Runtime& rt) {
  store::StateStreamer::Env env;
  env.chunk_records = rt.config().store.chunk_records;
  env.chunk_interval = sim::SimTime(rt.config().store.chunk_interval);
  env.send = [&self, &rt](net::ProcId to, store::StateChunkMsg chunk) {
    if (self.crashed()) return;
    ++self.counters().state_chunks_sent;
    rt.recorder().record(rt.sim().now(), obs::EventKind::kStateChunk,
                         {.proc = self.id(),
                          .peer = to,
                          .arg = static_cast<std::uint64_t>(
                              chunk.packets.size())});
    Envelope env_out;
    env_out.kind = MsgKind::kStateChunk;
    env_out.from = self.id();
    env_out.to = to;
    env_out.size_units = chunk.size_units();
    env_out.payload = std::move(chunk);
    rt.network().send(std::move(env_out));
  };
  env.after = [&rt](sim::SimTime delay, std::function<void()> fn) {
    rt.sim().after(delay, std::move(fn));
  };
  env.alive = [&rt](net::ProcId p) { return rt.network().alive(p); };
  env.packets_against = [&self](net::ProcId rejoiner) {
    return self.packets_against(rejoiner);
  };
  env.still_checkpointed = [&self](net::ProcId rejoiner,
                                   const LevelStamp& stamp) {
    return self.table().contains(rejoiner, stamp);
  };
  env.known_dead = [&self, &rt] {
    // Sorted so the chunk contents — and therefore the whole run — stay a
    // pure function of the seed (the dead set is an unordered container).
    std::vector<net::ProcId> dead;
    for (net::ProcId p = 0; p < rt.network().size(); ++p) {
      if (p != self.id() && self.knows_dead(p)) dead.push_back(p);
    }
    return dead;
  };
  return env;
}
}  // namespace

Processor::Processor(Runtime& rt, net::ProcId id)
    : rt_(rt),
      id_(id),
      tasks_(rt.task_pool(id)),
      table_(id, rt.config().processors, rt.record_pool(id)),
      store_(id, rt.config().store.model, rt.config().store.survive_p,
             rt.config().seed),
      streamer_(make_streamer_env(*this, rt)) {
  if (store_.enabled()) table_.set_listener(&store_);
}

// ---------------------------------------------------------------------------
// Protocol loop dispatch
// ---------------------------------------------------------------------------

void Processor::handle(Envelope&& env) {
  if (dead_) return;  // fail-silent: a dead node processes nothing
  assert(net::payload_consistent(env.kind, env.payload));
  // `env` may alias transport-owned storage (stable for the duration of
  // this call). Each overload consumes the payload by move while evaluating
  // its handler's *arguments*, so handlers own their data outright and
  // never hold references into that storage. Taking the payload out first
  // frees a boxed payload's cell on return instead of leaving it in the
  // transport's slot until reuse.
  net::Payload payload = std::move(env.payload);
  std::visit(
      [&](auto&& alternative) {
        on_payload(env, std::forward<decltype(alternative)>(alternative));
      },
      std::move(payload));
}

void Processor::on_payload(Envelope&, std::monostate&&) {
  // kFetchData / kDataReply / kLoadUpdate / kCheckpointXfer carry no
  // modelled payload:
  // "if a processor receives a packet and cannot find a proper rule to
  // handle it, the processor simply ignores the received message."
}

void Processor::on_payload(Envelope&, TaskPacket&& msg) {
  accept_packet(std::move(msg));
}

void Processor::on_payload(Envelope&, AckMsg&& msg) {
  handle_ack(std::move(msg));
}

void Processor::on_payload(Envelope&, ResultMsg&& msg) {
  handle_result(std::move(msg));
}

void Processor::on_payload(Envelope&, ErrorMsg&& msg) {
  // A listed death that raced a repair is stale: the accused node already
  // revived (and announced it), so don't re-mark it dead. Across OS
  // processes there is no liveness oracle to consult — trust the sender;
  // a rejoin notice from the repaired node clears the verdict later.
  for (const net::ProcId dead : msg.dead) {
    if (rt_.network().distributed() || !rt_.network().alive(dead)) {
      learn_dead(dead, /*direct_detection=*/false);
    }
  }
}

void Processor::on_payload(Envelope&, HeartbeatMsg&&) {
  // Receipt alone proves liveness; detection watches for *absence*.
}

void Processor::on_payload(Envelope&, RejoinMsg&& msg) { learn_alive(msg.who); }

void Processor::on_payload(Envelope&, ControlMsg&& msg) {
  // kShutdown ends a multi-process rank's driver loop; the other control
  // kinds are point-to-point runtime traffic handled at their call sites.
  if (msg.kind == ControlKind::kShutdown) rt_.request_shutdown();
}

void Processor::on_payload(Envelope&, CancelMsg&& msg) {
  handle_cancel(std::move(msg));
}

void Processor::on_payload(Envelope&, store::StateRequestMsg&& msg) {
  handle_state_request(std::move(msg));
}

void Processor::on_payload(Envelope& env, store::StateChunkMsg&& msg) {
  handle_state_chunk(env.from, std::move(msg));
}

void Processor::on_payload(Envelope&, net::EnvelopeBox&& box) {
  handle_delivery_failure(std::move(*box));
}

// ---------------------------------------------------------------------------
// Task intake & execution
// ---------------------------------------------------------------------------

TaskUid Processor::accept_packet(TaskPacket packet) {
  if (dead_) return kNoTask;
  if (const net::LinkFaultModel* faults = rt_.network().link_faults();
      faults != nullptr && faults->may_duplicate() && !packet.stamp.is_root()) {
    // Links may deliver twice. A co-resident live task with identical
    // (stamp, replica, parent, lineage) can only be the earlier delivery of
    // the same wire message — every respawn bumps lineage, so a legitimate
    // replacement never matches. Drop the copy before it executes (and
    // before it counts as created: it is not a new task, it is the same
    // send arriving again).
    if (Task* first = find_task_by_stamp_replica(
            packet.stamp, packet.replica, packet.parent(), sim::SimTime::max());
        first != nullptr && first->packet().lineage == packet.lineage) {
      ++counters_.wire_dups_discarded;
      return kNoTask;
    }
  }
  ++counters_.tasks_created;
  const TaskUid uid = rt_.next_uid(id_);
  const LevelStamp stamp = packet.stamp;
  const TaskRef parent = packet.parent();
  const lang::ExprId call_site = packet.call_site;
  const std::uint32_t replica = packet.replica;
  const std::uint32_t lineage = packet.lineage;
  if (rt_.config().reclaim.cancellation && lineage > 0 && !stamp.is_root() &&
      rt_.replication_for(stamp.depth()) == 1) {
    // A recovery respawn landed here. If an older instance of the same
    // (stamp, replica) *from the same parent instance* is co-resident, it
    // is the superseded original of the lineage this packet replaces —
    // reclaim it locally before the replacement starts. (Gated on
    // lineage > 0 so the hot first-spawn path pays nothing for the scan;
    // parent-filtered so a sibling lineage's copy is never touched.)
    if (Task* older = find_task_by_stamp_replica(stamp, replica, parent,
                                                 rt_.sim().now())) {
      cancel_task(older->uid());
    }
  }
  tasks_.emplace(uid, std::move(packet), rt_.sim().now());

  rt_.recorder().record(rt_.sim().now(), obs::EventKind::kPlace,
                        {.proc = id_, .uid = uid, .stamp = &stamp});

  // Positive acknowledgement: establishes the parent-to-child pointer
  // (Fig. 6 state b -> c).
  AckMsg ack;
  ack.stamp = stamp;
  ack.call_site = call_site;
  ack.parent = parent;
  ack.child = TaskRef{id_, uid};
  ack.replica = replica;
  ack.lineage = lineage;
  if (parent.proc == net::kNoProc) {
    rt_.super_root_ack(ack, id_);
  } else {
    send(MsgKind::kSpawnAck, parent.proc, 1, ack);
  }
  enqueue_scan(uid);
  return uid;
}

void Processor::enqueue_scan(TaskUid uid) {
  Task* task = find_task(uid);
  if (task == nullptr) return;
  task->set_state(TaskState::kQueued);
  step_queue_.push_back(uid);
  start_next_step();
}

void Processor::start_next_step() {
  if (dead_ || frozen_ || executing_) return;
  // Skip stale queue entries: tasks gone since they queued, or already
  // scanned from an earlier entry.
  while (!step_queue_.empty()) {
    const TaskUid uid = step_queue_.front();
    Task* task = find_task(uid);
    if (task == nullptr || task->state() != TaskState::kQueued) {
      step_queue_.pop_front();
      continue;
    }
    step_queue_.pop_front();
    task->set_state(TaskState::kRunning);
    task->set_dirty(false);
    if (rt_.has_triggers() && task->scan_count() == 0) {
      rt_.fire_trigger("exec:" + rt_.program().function(task->packet().fn).name);
      // The trigger may have synchronously killed this processor (nuke()
      // frees every task): re-validate before touching `task` again.
      if (dead_) return;
      task = find_task(uid);
      if (task == nullptr || task->state() != TaskState::kRunning) continue;
    }
    // The scan's outcome is computed now; its cost advances the clock and
    // its effects (sends, completion) apply when the step finishes.
    ScanOutcome outcome = task->scan(rt_.program());
    ++counters_.scans;
    const std::int64_t cost =
        1 + static_cast<std::int64_t>(outcome.cost) * core::kOpCost +
        static_cast<std::int64_t>(outcome.spawns.size()) * core::kSpawnCost;
    counters_.busy_ticks += cost;
    executing_ = true;
    // One step runs at a time, so the outcome parks in the processor and the
    // step-completion event captures only {this, uid, life} — inline in
    // EventFn. The incarnation guard keeps a pre-crash step event from
    // meddling with the revived node's parked outcome (it used to merely
    // no-op on a stale uid; now it must not even clear executing_).
    executing_outcome_ = std::move(outcome);
    rt_.sim().after(sim::SimTime(cost), [this, uid, life = incarnation_] {
      if (dead_ || life != incarnation_) return;
      executing_ = false;
      finish_scan(uid, executing_outcome_);
      start_next_step();
    });
    return;
  }
}

void Processor::finish_scan(TaskUid uid, ScanOutcome& outcome) {
  Task* task = find_task(uid);
  if (task == nullptr) return;
  if (outcome.result.has_value()) {
    complete_task(uid, *outcome.result);
    return;
  }
  task->slots_mut().reserve(task->slots().size() + outcome.spawns.size());
  for (SpawnRequest& request : outcome.spawns) {
    spawn_child(*task, std::move(request));
    if (dead_) return;  // a spawn trigger killed this node mid-loop
  }
  // A result may have landed while this scan executed.
  if (task->dirty()) {
    task->set_dirty(false);
    task->set_state(TaskState::kQueued);
    step_queue_.push_back(uid);
  } else {
    task->set_state(TaskState::kWaiting);
  }
}

// ---------------------------------------------------------------------------
// DEMAND_IT (§4.2)
// ---------------------------------------------------------------------------
//   "Create a task packet. Level-stamp the task packet. Attach parent and
//    grandparent identifications to the task. Queue the task packet to load
//    balancing manager. Functional checkpoint the packet."

void Processor::spawn_child(Task& owner, SpawnRequest request) {
  if (const CallSlot* existing = owner.find_slot(request.site);
      existing != nullptr && existing->spawned && !existing->resolved) {
    // The slot was pre-linked by a warm rejoin while this scan's outcome
    // was in flight: the original child survives elsewhere and its result
    // is awaited — spawning again would duplicate the whole subtree.
    return;
  }
  // The slot keeps the callee and arguments; the owner supplies the stamp,
  // the ancestor chain and the zone (Task::child_packet).
  send_packet(owner, owner.note_spawned(request.site, request.fn,
                                        std::move(request.args)));
}

void Processor::send_packet(Task& owner, CallSlot& slot) {
  // Stamp the slot's current spawn generation into the packet: acks echo it
  // (stale-lineage acks are dropped) and a superseded instance can be told
  // apart from its replacement wherever both land.
  slot.lineage = slot.respawns;
  const TaskPacket packet =
      owner.child_packet(slot, id_, rt_.config().recovery.ancestor_depth);
  const std::uint32_t replicas =
      rt_.replication_for(packet.stamp.depth());
  const bool zoned = rt_.config().replication.enabled() &&
                     rt_.config().replication.zoned && replicas > 1;
  sched::Scheduler::DestVec dests;
  if (zoned) {
    // Each replica is placed within its own lane, so destinations must be
    // chosen with the replica's zone annotated.
    for (std::uint32_t r = 0; r < replicas; ++r) {
      TaskPacket probe = packet;
      probe.replica = r;
      probe.zone = static_cast<std::int32_t>(r);
      const net::ProcId dest = rt_.scheduler().choose(id_, probe);
      if (dest != net::kNoProc) dests.push_back(dest);
    }
  } else {
    dests = rt_.scheduler().choose_replicas(id_, packet, replicas);
  }
  if (dests.empty()) return;  // no alive processor: the system is gone
  // Where the superseded spawn's checkpoint was filed (a respawn moves it).
  const net::ProcId filed_at = slot.filed_at();
  slot.children.clear();
  for (const net::ProcId dest : dests) {
    slot.children.push_back(ChildRef{.sent_to = dest});
  }
  // This spawn is the slot's lineage now; pre-link provenance (used to
  // address cancels at the previous incarnation's child) is spent.
  if (slot.side.has_value()) slot.side->prelink_prev_owner = kNoTask;
  if (rt_.has_triggers()) {
    rt_.fire_trigger("spawn:" + rt_.program().function(packet.fn).name);
    if (dead_) return;  // trigger killed this node; owner/slot freed
  }
  for (std::uint32_t r = 0; r < dests.size(); ++r) {
    TaskPacket copy = packet;
    copy.replica = r;
    if (zoned) copy.zone = static_cast<std::int32_t>(r);
    const std::uint32_t size_units = copy.size_units();
    send(MsgKind::kTaskPacket, dests[r], size_units, std::move(copy));
  }
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kSpawn,
      {.proc = id_, .peer = dests[0], .stamp = &packet.stamp});
  // Functional checkpoint (replica 0's destination keys the table entry).
  if (rt_.policy().functional_checkpointing()) {
    if (slot.respawns > 0 && filed_at != net::kNoProc) {
      // A respawn moves the reissue obligation to the new destination; the
      // record made for the superseded spawn must not linger in the old
      // destination's entry, or a later warm rejoin of that processor
      // would re-host — resurrect — the lineage this respawn replaces.
      table_.release(filed_at, packet.stamp);
    }
    checkpoint::CheckpointRecord record;
    record.owner = owner.uid();
    record.site = slot.site;
    const auto outcome = table_.record(dests[0], std::move(record), packet);
    rt_.recorder().record(
        rt_.sim().now(), obs::EventKind::kCheckpoint,
        {.proc = id_,
         .peer = dests[0],
         .uid = owner.uid(),
         .stamp = &packet.stamp,
         .arg = outcome == checkpoint::RecordOutcome::kSubsumed ? 1u : 0u});
  }
}

// ---------------------------------------------------------------------------
// Completion & result routing
// ---------------------------------------------------------------------------

void Processor::complete_task(TaskUid uid, const lang::Value& value) {
  const Task* found = tasks_.find(uid);
  if (found == nullptr) return;
  const Task& task = *found;
  ++counters_.tasks_completed;

  ResultMsg msg;
  msg.stamp = task.stamp();
  msg.call_site = task.packet().call_site;
  msg.value = value;
  msg.target = task.packet().parent();
  msg.relation = ResultRelation::kToParent;
  msg.ancestor_index = 0;
  msg.ancestors = task.packet().ancestors;
  msg.replica = task.packet().replica;
  msg.lineage = task.packet().lineage;
  const lang::FuncId fn = task.packet().fn;

  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kComplete,
      {.proc = id_,
       .uid = uid,
       .stamp = &msg.stamp,
       .arg = static_cast<std::uint64_t>(
           (rt_.sim().now() - task.created_at()).ticks())});

  // The task is fully reduced: free the node's copy (the paper's reduction
  // of the evaluation structure) before anything else can happen to the
  // node, so a crash the complete: trigger causes finds it finished, not
  // resident and lost.
  tasks_.erase(uid);
  if (rt_.has_triggers()) {
    rt_.fire_trigger("complete:" + rt_.program().function(fn).name);
    if (dead_) return;  // trigger killed this node; the result dies with it
  }

  if (msg.target.proc == net::kNoProc) {
    rt_.deliver_to_super_root(std::move(msg), id_);
    return;
  }
  if (knows_dead(msg.target.proc)) {
    // "C sends the result to G after failing to communicate with parent P"
    // — when the parent is already known dead, skip the doomed send and let
    // the policy route (splice: to the grandparent; rollback: drop).
    rt_.policy().on_result_undeliverable(*this, std::move(msg));
    return;
  }
  send_result_msg(std::move(msg), msg.target.proc);
}

void Processor::send_result_msg(ResultMsg msg, net::ProcId to) {
  const std::uint32_t size_units = msg.size_units();
  send(MsgKind::kForwardResult, to, size_units, std::move(msg));
}

void Processor::send(MsgKind kind, net::ProcId to, std::uint32_t size_units,
                     net::Payload payload) {
  Envelope env;
  env.kind = kind;
  env.from = id_;
  env.to = to;
  env.size_units = size_units;
  env.payload = std::move(payload);
  rt_.network().send(std::move(env));
}

void Processor::handle_result(ResultMsg msg) {
  if (msg.relation == ResultRelation::kToAncestor) {
    rt_.policy().on_ancestor_result(*this, std::move(msg));
    return;
  }
  Task* task = find_task(msg.target.uid);
  if (task == nullptr && warm_rejoined_ && !msg.stamp.is_root()) {
    // The result addresses a task of this node's previous incarnation; the
    // warm rejoin re-created it under a fresh uid. Level stamps come from
    // program structure (§3.1), so they name the same task across lives —
    // "interpret the level stamp" instead of the stale pointer.
    task = find_task_by_stamp(msg.stamp.parent());
  }
  if (task == nullptr) {
    if (buffer_warm_result(std::move(msg))) return;
    // Case 8: "The processor which contained P' may no longer recognize the
    // arrived answer. The result is discarded."
    ++counters_.late_results_discarded;
    return;
  }
  deliver_parent_result(*task, msg);
}

bool Processor::buffer_warm_result(ResultMsg msg) {
  // Only while chunks are still streaming: the consumer may be in flight.
  if (!warm_rejoined_ || awaiting_transfer_.empty()) return false;
  warm_pending_results_.push_back(std::move(msg));
  return true;
}

void Processor::flush_warm_results() {
  if (warm_pending_results_.empty()) return;
  std::vector<ResultMsg> pending = std::move(warm_pending_results_);
  warm_pending_results_.clear();
  // Unmatched results re-buffer themselves while catch-up is active and
  // fall through to the normal discard path after it completes.
  for (ResultMsg& msg : pending) handle_result(std::move(msg));
}

void Processor::deliver_parent_result(Task& task, const ResultMsg& msg) {
  CallSlot& slot = task.slot(msg.call_site);
  if (slot.resolved) {
    // Cases 6/7: "Since they are identical, the second copy is simply
    // ignored."
    ++counters_.duplicate_results_ignored;
    return;
  }
  const std::uint32_t quorum =
      msg.relayed ? 1U : rt_.quorum_for(msg.stamp.depth());
  const bool newly = task.deliver_result(msg.call_site, msg.value, quorum);
  if (!newly) return;  // vote registered, quorum pending (§5.3)

  if (msg.relayed) {
    ++counters_.orphan_results_salvaged;
    rt_.recorder().record(
        rt_.sim().now(), obs::EventKind::kSalvage,
        {.proc = id_, .uid = task.uid(), .stamp = &msg.stamp});
  }
  // An unspawned slot can be pre-filled here (twin not yet scanned, or a
  // stamp-matched delivery into a re-hosted task); it names no callee, so
  // no trigger fires for it.
  if (rt_.has_triggers() && slot.spawned) {
    rt_.fire_trigger("result:" + rt_.program().function(slot.fn).name);
    if (dead_) return;  // trigger killed this node; task/slot are freed
  }
  // The slot resolved on a lineage that was recovered at least once (a
  // salvaged orphan return beat the twin, or the twin's own return beat the
  // superseded original): some instance of it may still be computing the
  // very value just delivered. The §4.1 rules would let it run to run end
  // and ignore its result; instead the discard travels as a cancel to
  // every instance the slot still points at — except the producer of a
  // direct return from the slot's current lineage, which has just
  // completed (a superseded original's return still cancels the twin). A
  // pre-linked slot resolving directly needs nothing: its single awaited
  // original just completed, and its grace respawn would have set
  // twin_active.
  if (msg.relayed || slot.twin_active) {
    std::optional<std::uint32_t> producer;
    if (!msg.relayed && msg.lineage == slot.lineage) {
      producer = msg.replica;
    }
    cancel_slot_instances(task, slot, producer);  // async: nothing dies here
  }
  // The child returned; its functional checkpoint is no longer needed. The
  // slot filed it under its first destination; a slot that never spawned
  // (a result for a replayed record's child) names no destination.
  if (rt_.policy().functional_checkpointing()) {
    if (slot.filed_at() != net::kNoProc) {
      table_.release(slot.filed_at(), msg.stamp);
    } else {
      table_.release_anywhere(msg.stamp);
    }
  }
  slot.args.clear();
  slot.args.shrink_to_fit();
  resume_after_fill(task);
}

void Processor::resume_after_fill(Task& task) {
  switch (task.state()) {
    case TaskState::kWaiting:
      task.set_state(TaskState::kQueued);
      step_queue_.push_back(task.uid());
      start_next_step();
      break;
    case TaskState::kRunning:
      task.set_dirty(true);
      break;
    case TaskState::kQueued:
      break;
  }
}

// ---------------------------------------------------------------------------
// Acks, failures, recovery plumbing
// ---------------------------------------------------------------------------

void Processor::handle_ack(AckMsg msg) {
  // Ack-of-corpse: the child announced itself to a parent instance that no
  // longer exists (cancelled, aborted as an orphan, or lost to a crash the
  // uid outlived). Nothing will ever consume the child's result — reply
  // with a uid-exact cancel so the in-flight spawns of reclaimed lineages
  // are reclaimed too, however late they land. (Replicated depths keep
  // every copy; see cancel_slot_instances.)
  const auto reply_cancel = [&] {
    if (!rt_.config().reclaim.cancellation || msg.stamp.is_root() ||
        rt_.replication_for(msg.stamp.depth()) > 1 ||
        msg.child.proc == net::kNoProc || knows_dead(msg.child.proc)) {
      return;
    }
    if (msg.parent.uid < incarnation_uid_floor_) {
      // The addressed parent died with a previous incarnation of this
      // node, it was not cancelled: its branch may be regrowing from a
      // restored checkpoint record (respawn_from_record keeps the old
      // parent ref so results still route by stamp), and cancelling the
      // fresh child would nullify the only remaining copy.
      return;
    }
    rt_.recorder().record(
        rt_.sim().now(), obs::EventKind::kAckOfCorpse,
        {.proc = id_, .uid = msg.child.uid, .stamp = &msg.stamp});
    send_cancel(msg.stamp, msg.replica, msg.child.uid, msg.parent,
                msg.child.proc);
  };
  Task* task = find_task(msg.parent.uid);
  if (task == nullptr) {
    reply_cancel();  // the parent instance is gone
    return;
  }
  if (!task->note_ack(msg.call_site, msg.child, msg.replica, msg.lineage)) {
    // Stale spawn generation: the instance this ack names was superseded
    // (and cancelled) by a later respawn of the slot. Recording it would
    // point relays — and forwarded cancels — at a corpse; the reply makes
    // sure the superseded instance itself dies even if the respawn-time
    // cancel raced past it in flight.
    reply_cancel();
    return;
  }
  if (rt_.has_triggers()) {
    rt_.fire_trigger(
        "ack:" +
        rt_.program().function(task->slot(msg.call_site).fn).name);
    if (dead_) return;  // trigger killed this node; `task` is freed
  }
  // Grandparent transport role: flush orphan results buffered for the twin.
  CallSlot& slot = task->slot(msg.call_site);
  if (slot.side.has_value() && !slot.side->pending_relay.empty() &&
      msg.replica == 0) {
    std::vector<ResultMsg> pending = std::move(slot.side->pending_relay);
    slot.side->pending_relay.clear();
    for (ResultMsg& orphan : pending) {
      relay_or_buffer(*task, slot, std::move(orphan));
    }
  }
}

void Processor::relay_or_buffer(Task& ancestor, CallSlot& slot,
                                ResultMsg msg) {
  // Target: the slot's current (step-)child, i.e. the twin of the orphan's
  // dead ancestor.
  if (slot.children.empty() || slot.children[0].proc == net::kNoProc ||
      knows_dead(slot.children[0].proc)) {
    slot.side_mut().pending_relay.push_back(std::move(msg));
    return;
  }
  const TaskRef twin{slot.children[0].proc, slot.children[0].uid};
  const std::size_t producer_depth = msg.stamp.depth();
  const std::size_t twin_depth = ancestor.stamp().depth() + 1;
  assert(producer_depth > twin_depth);
  const auto gap = producer_depth - twin_depth;
  msg.target = twin;
  msg.relation =
      gap == 1 ? ResultRelation::kToParent : ResultRelation::kToAncestor;
  msg.ancestor_index = static_cast<std::uint32_t>(gap - 1);
  msg.relayed = true;
  ++counters_.results_relayed;
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kRelay,
      {.proc = id_, .peer = twin.proc, .uid = twin.uid, .stamp = &msg.stamp});
  send_result_msg(std::move(msg), twin.proc);
}

void Processor::handle_delivery_failure(Envelope original) {
  const net::ProcId dead = original.to;
  // The bounce notice trails the failure by the detection timeout; under a
  // rejoin plan the node may have revived (and broadcast its rejoin notice)
  // in between. Marking a live node dead would stick forever — no second
  // rejoin notice will come — so only record the death while it holds.
  // Payload-level recovery below still runs either way: the original
  // message *was* lost, whatever the destination's current state. Across
  // OS processes the bounce came from a real connection failure — the
  // destination was down moments ago; record it (its rejoin notice will
  // clear the verdict if it comes back). An unreachable destination — the
  // far side of an active partition — is §1's "considered faulty" case:
  // detection fires exactly as for a crash. A loss to a destination both
  // alive and reachable (lossy or gray link) triggers no detection at all;
  // only the payload-level recovery below runs.
  if (rt_.network().distributed() || !rt_.network().alive(dead) ||
      !rt_.network().reachable(id_, dead)) {
    learn_dead(dead, /*direct_detection=*/true);
  }
  // Payload loss to a destination both alive and reachable is a wire
  // accident, not a death: the addressee still wants the message, so the
  // right recovery is to send it again. Respawning the child (spawn) or
  // escalating the result to an ancestor (salvage) are *death* recoveries —
  // escalating a result past a live, waiting parent would park it as
  // salvage nobody ever claims.
  const bool wire_loss = !rt_.network().distributed() &&
                         rt_.network().alive(dead) &&
                         rt_.network().reachable(id_, dead);
  // The kinds re-sent below while their destination stays alive split on
  // why the message was lost. A wire loss is polled: each retry after the
  // backoff is another independent draw. A cut is not: every re-send into
  // it bounces again until the heal, so the message is held here and sent
  // once when the cut heals (Runtime::on_partition_heal -> release_held).
  const auto resend = [&] {
    if (rt_.network().reachable(id_, dead)) {
      retransmit_after_backoff(std::move(original));
    } else {
      hold_until_heal(std::move(original));
    }
  };
  switch (original.kind) {
    case MsgKind::kTaskPacket:
      if (wire_loss) {
        retransmit_after_backoff(std::move(original));
      } else {
        rt_.policy().on_spawn_undeliverable(
            *this, *std::get<net::Boxed<TaskPacket>>(original.payload));
      }
      break;
    case MsgKind::kForwardResult:
      if (wire_loss) {
        retransmit_after_backoff(std::move(original));
      } else {
        rt_.policy().on_result_undeliverable(
            *this,
            std::move(*std::get<net::Boxed<ResultMsg>>(original.payload)));
      }
      break;
    case MsgKind::kStateRequest:
      if (!rt_.network().distributed() && rt_.network().alive(dead)) {
        // Lost on a lossy/gray link or to a cut, not to a crash: ask again.
        resend();
      } else {
        // The peer died before it could stream anything; stop waiting.
        note_transfer_peer_done(dead);
      }
      break;
    case MsgKind::kSpawnAck:
    case MsgKind::kFetchData:
    case MsgKind::kDataReply:
    case MsgKind::kErrorDetection:
    case MsgKind::kCheckpointXfer:
    case MsgKind::kRejoinNotice:
    case MsgKind::kStateChunk:
    case MsgKind::kCancel:
    case MsgKind::kControl:
      // Protocol messages with no payload-level reissue path: nobody
      // regenerates a lost ack, error broadcast, data reply, state chunk,
      // or cancel, so a loss on a lossy/gray link or at a partition would
      // quietly break liveness (a waiting parent, an unhonoured reissue
      // obligation, a duplicate computing to run end). Send it again while
      // the destination stays alive: after a backoff on a wire loss — each
      // retry is another independent draw, so delivery is eventually
      // certain — and at the heal on a cut. Receivers are idempotent
      // (stale broadcasts, chunks, and cancels are guarded at the handler).
      // In-process backends only: across OS processes the bounce means the
      // peer really went down, and a retry would just bounce again.
      if (!rt_.network().distributed() && rt_.network().alive(dead)) {
        resend();
      }
      break;
    case MsgKind::kHeartbeat:
    case MsgKind::kLoadUpdate:
      break;  // periodic gossip; the next beat serves the same purpose
    case MsgKind::kDeliveryFailure:
      // A bounce notice that itself bounced: the loss it reported was
      // already handled when the notice was first generated, and the
      // reverse link's health is the detector's problem, not ours.
      break;
  }
}

void Processor::retransmit_after_backoff(Envelope env) {
  std::uint32_t slot = 0;
  if (parked_free_.empty()) {
    slot = static_cast<std::uint32_t>(parked_.size());
    parked_.push_back(std::move(env));
  } else {
    slot = parked_free_.back();
    parked_free_.pop_back();
    parked_[slot] = std::move(env);
  }
  const sim::SimTime backoff =
      sim::SimTime(2 * rt_.network().latency_model().failure_timeout);
  rt_.sim().after(backoff, [this, slot, life = incarnation_] {
    fire_retransmit(slot, life);
  });
}

void Processor::fire_retransmit(std::uint32_t slot, std::uint64_t life) {
  Envelope env = std::move(parked_[slot]);
  parked_free_.push_back(slot);
  const bool is_cancel = env.kind == MsgKind::kCancel;
  if (dead_ || life != incarnation_ || rt_.done()) return;
  if (!rt_.network().alive(env.to)) return;  // addressee died meanwhile
  if (is_cancel) {
    ++counters_.cancel_retries;
  } else {
    ++counters_.bounce_retransmits;
  }
  rt_.network().send(std::move(env));
}

void Processor::hold_until_heal(Envelope env) {
  // learn_dead may have fired a trigger that killed this node; what it held
  // died with that incarnation.
  if (dead_) return;
  held_.push_back(std::move(env));
}

void Processor::release_held() {
  if (dead_) return;  // a kill ordered after the heal's post landed first
  std::vector<Envelope> held = std::move(held_);
  held_.clear();
  for (Envelope& env : held) {
    if (!rt_.network().alive(env.to)) continue;  // addressee died meanwhile
    if (!rt_.network().reachable(id_, env.to)) {
      held_.push_back(std::move(env));  // another cut still stands
      continue;
    }
    // Accusations this node has since withdrawn (the heal reconciled the
    // cut's mutual suspicion) would be ignored by the receiver anyway: the
    // notice keeps the deaths still believed, or goes if none remain.
    if (auto* error = std::get_if<ErrorMsg>(&env.payload)) {
      const auto kept =
          std::remove_if(error->dead.begin(), error->dead.end(),
                         [this](net::ProcId p) { return !knows_dead(p); });
      error->dead.resize(static_cast<std::size_t>(kept - error->dead.begin()));
      if (error->dead.empty()) continue;
      env.size_units = error->size_units();
    }
    if (env.kind == MsgKind::kCancel) {
      ++counters_.cancel_retries;
    } else {
      ++counters_.bounce_retransmits;
    }
    ++counters_.held_released;
    rt_.network().send(std::move(env));
  }
}

bool Processor::cancel_backoff_pending(const LevelStamp& stamp) const {
  // A fired slot keeps its moved-from, empty box, so only cancels still
  // waiting out their backoff match.
  const auto names_stamp = [&stamp](const Envelope& env) {
    const auto* cancel = std::get_if<net::Boxed<CancelMsg>>(&env.payload);
    return cancel != nullptr && cancel->has_value() &&
           (*cancel)->stamp == stamp;
  };
  return std::any_of(parked_.begin(), parked_.end(), names_stamp) ||
         std::any_of(held_.begin(), held_.end(), names_stamp);
}

void Processor::learn_dead(net::ProcId dead, bool direct_detection) {
  if (dead == id_ || known_dead_.contains(dead)) return;
  known_dead_.insert(dead);
  // A catch-up peer that died mid-stream will never send its last chunk.
  note_transfer_peer_done(dead);
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kDetect,
      {.proc = id_, .peer = dead, .arg = direct_detection ? 1u : 0u});
  rt_.note_detection(dead, id_);
  if (direct_detection) {
    // First-hand detector: every processor must hear of the death to honour
    // its reissue obligations. Under §1 each bounce off a cut is a fresh
    // detection, and one bounce cascade reveals many deaths at one tick;
    // they share this tick's round instead of each broadcasting alone.
    if (unannounced_.empty()) {
      rt_.sim().after(sim::SimTime::zero(), [this, life = incarnation_] {
        announce_deaths(life);
      });
    }
    unannounced_.push_back(dead);
  }
  rt_.policy().on_error_detected(*this, dead);
}

void Processor::announce_deaths(std::uint64_t life) {
  if (life != incarnation_) return;  // the list belongs to a later life now
  ErrorMsg notice;
  for (const net::ProcId dead : unannounced_) {
    if (knows_dead(dead)) notice.dead.push_back(dead);
  }
  unannounced_.clear();
  if (notice.dead.empty()) return;  // every accusation withdrawn meanwhile
  ++counters_.error_broadcasts;
  for (net::ProcId p = 0; p < rt_.network().size(); ++p) {
    if (p == id_ || !rt_.network().alive(p)) continue;
    // A listed peer alive behind a cut still needs the other deaths, some
    // perhaps real: its copy leaves out only its own name, is held at the
    // cut and trimmed again at the heal.
    ErrorMsg copy;
    copy.dead.reserve(notice.dead.size());
    for (const net::ProcId dead : notice.dead) {
      if (dead != p) copy.dead.push_back(dead);
    }
    if (copy.dead.empty()) continue;
    const std::uint32_t units = copy.size_units();
    send(MsgKind::kErrorDetection, p, units, std::move(copy));
  }
}

void Processor::respawn_slot(Task& owner, CallSlot& slot, bool as_twin) {
  if (slot.resolved || !slot.spawned) return;
  // The instances the slot pointed at so far are superseded by the twin
  // about to spawn; any that survive on a live processor (undetected
  // rejoin, pre-link grace expiry, warm re-host vs. survivor fallback)
  // would compute a duplicate lineage. Discard travels as a message:
  // cancels go out *before* the replacement packets, so on a shared
  // destination the cancel is delivered first and can never hit the twin.
  cancel_slot_instances(owner, slot);
  ++slot.respawns;
  ++counters_.tasks_respawned;
  if (as_twin) {
    slot.twin_active = true;
    ++counters_.twins_created;
  }
  const LevelStamp stamp = owner.stamp().child(slot.site);
  rt_.recorder().record(
      rt_.sim().now(),
      as_twin ? obs::EventKind::kTwin : obs::EventKind::kReissue,
      {.proc = id_, .stamp = &stamp});
  send_packet(owner, slot);
}

// ---------------------------------------------------------------------------
// Cancellation protocol (kCancel)
// ---------------------------------------------------------------------------
// The recovery scheme never assumes global knowledge: every corrective
// action — reissue, splice, discard — travels as a message. Reclamation of
// duplicate lineages is the discard case. A cancel names its victim by
// (stamp, replica), the identity that survives crashes (§3.1), plus the
// exact uid when the issuer holds an acknowledged pointer; the receiver
// aborts the addressed task, releases the checkpoints it retained for its
// own children, and forwards cancels down every outstanding call slot, so
// the duplicate subtree converges hop by hop instead of level by level
// under an omniscient sweep.

void Processor::send_cancel(const LevelStamp& stamp, std::uint32_t replica,
                            TaskUid uid, TaskRef parent, net::ProcId to) {
  ++counters_.cancels_sent;
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kCancel,
      {.proc = id_, .peer = to, .uid = uid, .stamp = &stamp});
  CancelMsg msg;
  msg.stamp = stamp;
  msg.replica = replica;
  msg.uid = uid;
  msg.parent = parent;
  msg.issued_at = rt_.sim().now();
  send(MsgKind::kCancel, to, msg.size_units(), msg);
}

void Processor::cancel_slot_instances(const Task& owner, const CallSlot& slot,
                                      std::optional<std::uint32_t> spared) {
  if (!rt_.config().reclaim.cancellation) return;
  const LevelStamp stamp = owner.stamp().child(slot.site);
  // Replicated depths keep every copy by design (§5.3 — the redundancy IS
  // the copies).
  if (rt_.replication_for(stamp.depth()) > 1) return;
  // Stamp-addressed cancels revoke a specific parent instance's spawn: for
  // a pre-linked slot the awaited original carries the *previous
  // incarnation's* owner uid; every other never-acked instance carries the
  // current owner's.
  const TaskRef spawner{id_, slot.prelink_prev_owner() != kNoTask
                                 ? slot.prelink_prev_owner()
                                 : owner.uid()};
  for (std::size_t r = 0; r < slot.children.size(); ++r) {
    if (spared == r) continue;
    const ChildRef& child = slot.children[r];
    const net::ProcId where = child.where();
    if (where == net::kNoProc || where >= rt_.network().size() ||
        (knows_dead(where) && !rt_.network().alive(where))) {
      // Really dead: nothing lives there to reclaim. A destination this
      // node merely *believes* dead may have rejoined undetected (repair,
      // healed partition) with the instance still resident — the cancel
      // must go out or that copy leaks; to a truly dead node it only
      // bounces.
      continue;
    }
    send_cancel(stamp, static_cast<std::uint32_t>(r),
                child.acked() ? child.uid : kNoTask, spawner, where);
  }
}

void Processor::handle_cancel(CancelMsg msg) {
  if (!rt_.config().reclaim.cancellation || msg.stamp.is_root()) return;
  Task* task = nullptr;
  if (msg.uid != kNoTask) {
    task = find_task(msg.uid);
    // Uids are never reused, but a stamp mismatch would mean a protocol
    // bug upstream — refuse to abort anything the cancel does not name.
    if (task != nullptr && task->stamp() != msg.stamp) task = nullptr;
  } else {
    task = find_task_by_stamp_replica(msg.stamp, msg.replica, msg.parent,
                                      msg.issued_at);
  }
  if (task == nullptr) {
    // Already completed, already reclaimed, or a fresh lineage the
    // incarnation fence protects — either way the cancel found no work.
    ++counters_.cancels_ignored;
    return;
  }
  cancel_task(task->uid());
}

void Processor::cancel_task(TaskUid uid) {
  Task* task = find_task(uid);
  if (task == nullptr) return;
  ++counters_.tasks_cancelled;
  counters_.reclaim_latency_ticks +=
      (rt_.sim().now() - task->created_at()).ticks();
  // Release the checkpoints this lineage retained and propagate the cancel
  // down every outstanding slot before the local abort frees them.
  for (const CallSlot& slot : task->slots()) {
    if (!slot.spawned || slot.resolved) continue;
    if (rt_.policy().functional_checkpointing() &&
        slot.filed_at() != net::kNoProc) {
      table_.release(slot.filed_at(), task->stamp().child(slot.site));
    }
    cancel_slot_instances(*task, slot);
  }
  abort_task(uid);
}

void Processor::abort_task(TaskUid uid) {
  Task* task = find_task(uid);
  if (task == nullptr) return;
  ++counters_.tasks_aborted;
  rt_.recorder().record(rt_.sim().now(), obs::EventKind::kAbort,
                        {.proc = id_, .uid = uid, .stamp = &task->stamp()});
  tasks_.erase(uid);
}

void Processor::reclaim_task(TaskUid uid) {
  if (rt_.config().reclaim.cancellation) {
    cancel_task(uid);
  } else {
    abort_task(uid);
  }
}

Task* Processor::find_task(TaskUid uid) { return tasks_.find(uid); }

bool Processor::has_stake_in(net::ProcId dead) const {
  if (!table_.entry(dead).empty()) return true;
  for (const Task& task : tasks_.resident()) {
    if (task.packet().parent().proc == dead) return true;
    for (const CallSlot& slot : task.slots()) {
      if (!slot.outstanding()) continue;
      // A child may have been accepted by a node the scheduler did not
      // originally pick (respawn landed elsewhere); the ack knows.
      for (const ChildRef& child : slot.children) {
        if (child.sent_to == dead || child.proc == dead) return true;
      }
    }
  }
  return false;
}

Task* Processor::find_task_by_stamp_replica(const LevelStamp& stamp,
                                            std::uint32_t replica,
                                            TaskRef parent,
                                            sim::SimTime before) {
  Task* best = nullptr;
  for (Task& task : tasks_.resident()) {
    if (task.stamp() != stamp || task.packet().replica != replica ||
        !(task.packet().parent() == parent) ||
        !(task.created_at() < before)) {
      continue;
    }
    if (best == nullptr || task.uid() < best->uid()) best = &task;
  }
  return best;
}

Task* Processor::find_task_by_stamp(const LevelStamp& stamp) {
  // Lowest uid wins so the choice is deterministic regardless of the task
  // index's cell order (replicas can share a stamp on one node).
  Task* best = nullptr;
  for (Task& task : tasks_.resident()) {
    if (task.stamp() != stamp) continue;
    if (best == nullptr || task.uid() < best->uid()) best = &task;
  }
  return best;
}

std::vector<TaskPacket> Processor::packets_against(net::ProcId rejoiner) {
  std::vector<TaskPacket> packets;
  for (const checkpoint::CheckpointRecord& record : table_.entry(rejoiner)) {
    if (record.restored()) {
      packets.push_back(*record.packet);
      continue;
    }
    Task* owner = find_task(record.owner);
    const CallSlot* slot =
        owner == nullptr ? nullptr : owner->find_slot(record.site);
    if (slot != nullptr) {
      packets.push_back(owner->child_packet(
          *slot, id_, rt_.config().recovery.ancestor_depth));
    }
  }
  return packets;
}

void Processor::respawn_from_record(checkpoint::CheckpointRecord record) {
  TaskPacket packet = *record.packet;
  packet.replica = 0;
  // A restored-record reissue supersedes whatever instance the record's
  // previous spawn produced; bump the generation so (a) the replacement's
  // acceptance triggers local duplicate reclaim and (b) a straggling ack
  // from the old instance cannot outrank the new one.
  ++packet.lineage;
  record.packet->lineage = packet.lineage;
  const net::ProcId dest = rt_.scheduler().choose(id_, packet);
  if (dest == net::kNoProc) return;
  ++counters_.tasks_respawned;
  rt_.recorder().record(rt_.sim().now(), obs::EventKind::kReissue,
                        {.proc = id_, .stamp = &packet.stamp});
  send(MsgKind::kTaskPacket, dest, packet.size_units(), packet);
  if (rt_.policy().functional_checkpointing()) {
    const TaskPacket retained = *record.packet;  // the record keeps its own
    table_.record(dest, std::move(record), retained);
  }
}

// ---------------------------------------------------------------------------
// Crash / freeze / snapshot
// ---------------------------------------------------------------------------

void Processor::nuke() {
  dead_ = true;
  // Everything resident is live work (finished tasks are erased at once);
  // it dies with the node. Counted so the RecoveryOracle can balance the
  // task-conservation equation — counters_ itself survives the crash, it
  // describes the run, not the incarnation.
  counters_.tasks_lost_to_crash += tasks_.size();
  tasks_.clear();
  step_queue_.clear();
  held_.clear();  // unlike parked_, no event comes back to free these
  unannounced_.clear();  // its round sees the incarnation bumped below
  executing_ = false;
  warm_rejoined_ = false;
  awaiting_transfer_.clear();
  streamer_.cancel_all();     // abandon any catch-up streams this node fed
  store_.on_crash(incarnation_);  // the persistency model decides survival
  ++incarnation_;  // orphan this life's pending heartbeat chain
  store_.set_incarnation(incarnation_);
}

void Processor::revive() {
  if (!dead_) return;
  dead_ = false;
  frozen_ = false;
  executing_ = false;
  incarnation_uid_floor_ = rt_.current_uid(id_);
  // Whatever the rejoin mode, the node has no memory of which peers failed
  // while it was down; warm catch-up re-learns that from survivors.
  known_dead_.clear();
  const bool warm = rt_.warm_rejoin();
  std::size_t restored = 0;
  table_.set_listener(nullptr);  // replay must not re-log itself
  table_.clear();
  if (warm) {
    // Replay skips checkpoints held against this node itself — they guard
    // children that died in the same crash, so the re-accepted parents
    // respawn those subtrees fresh.
    restored = store_.replay_into(table_);
    store_.compact_from(table_);
    warm_rejoined_ = true;
    revive_time_ = rt_.sim().now();
  } else {
    store_.clear();  // cold: the new life starts from an empty log
  }
  if (store_.enabled()) table_.set_listener(&store_);
  ++counters_.rejoins;
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kRejoin,
      {.proc = id_, .arg = warm ? static_cast<std::uint64_t>(restored) : 0});
  // Announce the rejoin so live peers drop this node from their dead sets
  // (dead peers either stay silent forever or rejoin themselves).
  for (net::ProcId p = 0; p < rt_.network().size(); ++p) {
    if (p == id_ || !rt_.network().alive(p)) continue;
    send(MsgKind::kRejoinNotice, p, 1, RejoinMsg{id_});
  }
  if (warm) {
    // Survivor-assisted catch-up: ask every live peer for the checkpoints
    // it holds against this node (the tasks this node should re-host) and
    // its liveness view. Chunks stream back interleaved with normal
    // traffic; the incarnation guards against a re-crash mid-transfer.
    for (net::ProcId p = 0; p < rt_.network().size(); ++p) {
      if (p == id_ || !rt_.network().alive(p)) continue;
      awaiting_transfer_.insert(p);
      send(MsgKind::kStateRequest, p, 1,
           store::StateRequestMsg{id_, incarnation_});
    }
    // Nobody left to stream from: catch-up is trivially complete (the
    // pre-link sweep and result flushing must still be armed).
    if (awaiting_transfer_.empty()) {
      complete_catch_up();
    } else {
      // Liveness guard on the stream itself: a final chunk lost to a lossy
      // or gray link would hold catch-up open forever (the peer is alive,
      // so no death notification ever closes it). After the warm grace —
      // the same horizon at which survivors give up deferring and reissue
      // cold — stop waiting; the pre-link sweep respawns whatever a
      // missing chunk should have carried.
      rt_.sim().after(sim::SimTime(rt_.config().store.warm_grace),
                      [this, life = incarnation_] {
                        if (life != incarnation_ || dead_ || rt_.done() ||
                            awaiting_transfer_.empty()) {
                          return;
                        }
                        awaiting_transfer_.clear();
                        complete_catch_up();
                      });
    }
  }
  start_heartbeats();
}

// ---------------------------------------------------------------------------
// Warm-rejoin state transfer (store/ subsystem)
// ---------------------------------------------------------------------------

void Processor::handle_state_request(store::StateRequestMsg msg) {
  // The request races the rejoin notice only in pathological orders; treat
  // it as proof of life either way.
  if (knows_dead(msg.who)) learn_alive(msg.who);
  streamer_.start(msg.who, msg.incarnation);
}

void Processor::handle_state_chunk(net::ProcId from,
                                   store::StateChunkMsg msg) {
  if (!warm_rejoined_ || msg.incarnation != incarnation_) {
    // Addressed to a previous life: this node re-crashed mid-transfer and
    // the chunk outlived it. The peer's table still holds every record, so
    // the next revive re-requests from scratch.
    ++counters_.stale_chunks_dropped;
    return;
  }
  counters_.state_units_transferred += msg.size_units();
  for (net::ProcId p : msg.known_dead) {
    // Survivor liveness view: adopt deaths the network still agrees on.
    if (p == id_ || rt_.network().alive(p)) continue;
    learn_dead(p, /*direct_detection=*/false);
  }
  for (TaskPacket& packet : msg.packets) {
    accept_transferred_packet(std::move(packet));
  }
  flush_warm_results();  // consumers for parked results may just have landed
  if (msg.last) note_transfer_peer_done(from);
}

void Processor::accept_transferred_packet(TaskPacket packet) {
  if (find_task_by_stamp(packet.stamp) != nullptr) return;  // already hosted
  ++counters_.state_packets_transferred;
  ++counters_.reissues_avoided;  // the peer would have respawned this task
  const LevelStamp stamp = packet.stamp;
  rt_.recorder().record(rt_.sim().now(), obs::EventKind::kTransferIn,
                        {.proc = id_, .stamp = &stamp});
  const TaskUid uid = accept_packet(std::move(packet));
  Task* task = find_task(uid);
  if (task == nullptr) return;
  // Rebind replay-restored child checkpoints to the re-accepted owner and —
  // when the policy salvages orphans — pre-link its slots: subtrees that
  // survive on peers are awaited (their results route back by stamp), not
  // recomputed. Without salvage an orphan's result can be abandoned in
  // flight, so a non-salvaging policy respawns instead of awaiting.
  const bool prelink = rt_.policy().salvages_orphans();
  for (auto& [dest, record] : table_.restored_children_of(stamp)) {
    const TaskUid prev_owner = record->owner;
    record->owner = uid;
    if (!record->packet->ancestors.empty()) {
      record->packet->ancestors[0] = TaskRef{id_, uid};
    }
    if (!prelink) continue;
    CallSlot& slot =
        task->note_spawned(record->site, record->packet->fn,
                           record->packet->args, record->packet->lineage);
    slot.children = {ChildRef{.sent_to = dest}};
    slot.prelinked = true;
    // The awaited original out there still carries the previous
    // incarnation's owner uid as its parent ref; a cancel for it (pre-link
    // grace expiry) must name that instance, not the re-hosted owner.
    slot.side_mut().prelink_prev_owner = prev_owner;
    rt_.recorder().record(
        rt_.sim().now(), obs::EventKind::kPreLink,
        {.proc = id_, .peer = dest, .stamp = &record->stamp});
  }
}

void Processor::note_transfer_peer_done(net::ProcId peer) {
  if (awaiting_transfer_.erase(peer) == 0 || !awaiting_transfer_.empty()) {
    return;
  }
  complete_catch_up();
}

void Processor::complete_catch_up() {
  counters_.catch_up_ticks += (rt_.sim().now() - revive_time_).ticks();
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kCatchUp,
      {.proc = id_,
       .arg = static_cast<std::uint64_t>(
           (rt_.sim().now() - revive_time_).ticks())});
  flush_warm_results();  // stragglers now resolve or discard normally
  // Liveness guard on the awaited orphans: a pre-linked result can be lost
  // to a later fault (ancestor chain exhausted, host re-crash) or be a
  // stale obligation whose release the persistency model dropped. After
  // the pre-link grace, stop waiting and respawn whatever is unresolved —
  // duplicate returns are ignored by the §4.1 rules, so this trades a
  // little repeat work for guaranteed progress.
  rt_.sim().after(sim::SimTime(rt_.config().store.prelink_grace),
                  [this, life = incarnation_] {
                    if (life != incarnation_ || dead_ || rt_.done()) return;
                    for_each_task([&](Task& task) {
                      for (CallSlot& slot : task.slots_mut()) {
                        if (!slot.prelinked || slot.resolved) continue;
                        slot.prelinked = false;
                        respawn_slot(task, slot, /*as_twin=*/true);
                      }
                    });
                    // Catch-up is over and every awaited slot has either
                    // resolved or respawned: results for the previous
                    // incarnation are no longer expected, so stop paying
                    // the stamp-scan fallback on every unmatched result.
                    warm_rejoined_ = false;
                  });
}

void Processor::learn_alive(net::ProcId back) {
  if (back == id_) return;
  // A peer this node is awaiting catch-up chunks from crashed mid-stream
  // (its pump died with it) and has now been repaired: re-request. The
  // repaired peer streams whatever its own store preserved — possibly just
  // an empty final chunk — so the catch-up bookkeeping always completes.
  if (awaiting_transfer_.contains(back)) {
    send(MsgKind::kStateRequest, back, 1,
         store::StateRequestMsg{id_, incarnation_});
  }
  if (known_dead_.erase(back) > 0) {
    rt_.recorder().record(rt_.sim().now(), obs::EventKind::kPeerRejoin,
                          {.proc = id_, .peer = back});
    return;
  }
  // We never saw this node die: the repair beat our detection timeout. Its
  // volatile state — including any of our children it hosted — is gone all
  // the same, so honour the reissue obligations a death notification would
  // have triggered. (No-op when we hold no checkpoints toward it.)
  rt_.recorder().record(rt_.sim().now(), obs::EventKind::kPeerRejoin,
                        {.proc = id_, .peer = back});
  rt_.policy().on_error_detected(*this, back);
}

void Processor::freeze() { frozen_ = true; }

void Processor::unfreeze() {
  frozen_ = false;
  start_next_step();
}

std::vector<Task> Processor::snapshot_tasks() {
  std::vector<Task> out;
  out.reserve(tasks_.size());
  // In uid order: restore_tasks and adopt_tasks queue first scans in
  // snapshot order, so the schedule must not follow the index's layout.
  for_each_task([&out](const Task& task) {
    Task& copy = out.emplace_back(task);
    // An in-flight step is not part of durable state; the restored task
    // rescans from its slots.
    if (copy.state() == TaskState::kRunning) copy.set_state(TaskState::kQueued);
    copy.set_dirty(false);
  });
  return out;
}

void Processor::restore_tasks(std::vector<Task> tasks) {
  if (dead_) return;
  tasks_.clear();
  step_queue_.clear();
  for (Task& task : tasks) {
    const TaskUid uid = task.uid();
    task.set_state(TaskState::kQueued);
    tasks_.emplace(std::move(task));
    step_queue_.push_back(uid);
  }
  start_next_step();
}

void Processor::adopt_tasks(std::vector<Task> tasks) {
  if (dead_) return;
  for (Task& task : tasks) {
    const TaskUid uid = task.uid();
    task.set_state(TaskState::kQueued);
    tasks_.emplace(std::move(task));
    step_queue_.push_back(uid);
  }
  start_next_step();
}

std::uint64_t Processor::state_units() const {
  std::uint64_t units = 0;
  const std::uint32_t depth = rt_.config().recovery.ancestor_depth;
  for (const Task& task : tasks_.resident()) units += task.state_units(depth);
  return units;
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

void Processor::start_heartbeats() {
  const std::int64_t interval = rt_.config().heartbeat_interval;
  if (interval <= 0) return;
  // Stagger initial probes so the fleet does not heartbeat in lockstep.
  const std::int64_t offset =
      static_cast<std::int64_t>(id_) * (interval / (rt_.network().size() + 1));
  rt_.sim().after(sim::SimTime(interval + offset),
                  [this, life = incarnation_] {
                    if (life == incarnation_) do_heartbeat();
                  });
}

void Processor::do_heartbeat() {
  if (dead_ || rt_.done()) return;
  ++heartbeat_seq_;
  for (net::ProcId q : rt_.network().topology().neighbors(id_)) {
    if (knows_dead(q)) continue;
    send(MsgKind::kHeartbeat, q, 1, HeartbeatMsg{heartbeat_seq_});
  }
  rt_.sim().after(sim::SimTime(rt_.config().heartbeat_interval),
                  [this, life = incarnation_] {
                    if (life == incarnation_) do_heartbeat();
                  });
}

}  // namespace splice::runtime
