// A task: one function application in the call tree.
//
// Task evaluation follows §4.2's protocol loop:
//   "task packet: Execute the task. DO each instruction. If an unevaluated
//    function encountered, DEMAND IT. If cannot proceed, suspend the task.
//    UNTIL completion. Send the result to the parent."
//
// Each *scan* interprets the body against the current call-slot contents:
// primitive subtrees evaluate locally; Call nodes whose arguments are ready
// and whose slot is empty become spawn requests (DEMAND_IT); when the root
// expression folds to a value the task completes. If-branches are lazy, so
// only the demanded side of a conditional spawns children — that is what
// terminates recursion.
//
// The task state machine mirrors Fig. 6 (states a-g) from the task's own
// viewpoint; transient states b/d of the figure live in the network as
// unacknowledged packets. A finished task — reduced to a value, cancelled
// or aborted — leaves its processor's task index at once (§4.2 reduces it out
// of the evaluation structure), so a resident task is live and no state
// records an ending.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "lang/program.h"
#include "runtime/task_packet.h"
#include "sim/time.h"
#include "util/boxed.h"

namespace splice::runtime {

enum class TaskState : std::uint8_t {
  kQueued,   // packet accepted by a processor, or woken to rescan
  kRunning,  // a scan step is executing
  kWaiting,  // suspended on outstanding children ("cannot proceed")
};

[[nodiscard]] std::string_view to_string(TaskState state) noexcept;

/// One replica of a call slot's child: where the last (re)spawn sent its
/// packet and, once the child acknowledged, where it was accepted.
struct ChildRef {
  net::ProcId sent_to = net::kNoProc;
  net::ProcId proc = net::kNoProc;  // kNoProc until the ack
  TaskUid uid = kNoTask;            // kNoTask until the ack

  [[nodiscard]] bool acked() const noexcept {
    return proc != net::kNoProc && uid != kNoTask;
  }
  /// Where the replica lives: the acknowledged host (the packet may have
  /// been accepted by a node that later forwarded nothing), else the send
  /// destination; kNoProc for a replica that was neither sent nor acked.
  [[nodiscard]] net::ProcId where() const noexcept {
    return acked() ? proc : sent_to;
  }
};

/// Bookkeeping for one call site of the body: the functional checkpoint
/// (what the child's packet needs beyond the owner), the child pointer(s)
/// learned from acks, the result, and splice-recovery relay state.
struct CallSlot {
  lang::ExprId site = lang::kNoExpr;

  /// Functional checkpoint: "as a child task is spawned to a new node, the
  /// parent task may retain a copy of the task packet. This retained copy
  /// is all that the parent needs to regenerate the child task." (§2.1)
  /// The owner already holds the packet's stamp prefix, ancestor chain and
  /// zone, and the site is the call site, so the slot keeps only the callee,
  /// the argument values and the spawn lineage; Task::child_packet
  /// rebuilds the packet from them. The arguments are dropped once the slot
  /// resolves.
  lang::FuncId fn = 0;
  /// Spawn generation of the child (TaskPacket::lineage): the slot's
  /// respawn count at its last (re)spawn, or a replayed record's lineage
  /// for a slot re-linked from that record.
  std::uint32_t lineage = 0;

  /// Replication votes (§5.3): values returned by replicas so far.
  std::uint32_t votes = 0;

  /// Times this slot was re-spawned by recovery.
  std::uint32_t respawns = 0;

  bool spawned = false;
  /// True once `result` holds the child's value.
  bool resolved = false;

  /// True when the current incarnation of the child is a recovery twin
  /// (step-child) created after a failure.
  bool twin_active = false;

  /// True when a warm rejoin pre-linked this slot to a child that survives
  /// on a peer: the result is awaited instead of respawned. Cleared when
  /// the pre-link grace sweep gives up waiting and respawns.
  bool prelinked = false;

  TaskPacket::Args args;
  lang::Value result;

  /// One entry per replica the packet went to at the last (re)spawn,
  /// extended by an ack for a replica beyond them. Inline for the common
  /// replication factors: slot bookkeeping costs no heap for <= 2 replicas.
  util::SmallVec<ChildRef, 2> children;

  /// Splice-relay and warm-rejoin pre-link state. Nearly every slot leaves
  /// both empty, so they live in a side record boxed on first use.
  struct Side {
    /// Pre-link provenance: the uid of the *previous incarnation's* task
    /// that originally spawned the awaited child (the restored checkpoint's
    /// owner before rebinding). A cancel for the awaited original must
    /// carry the parent ref that original actually holds — the re-hosted
    /// owner's fresh uid would name the replacement twin instead. Cleared
    /// on respawn.
    TaskUid prelink_prev_owner = kNoTask;
    /// Orphan results received for *grandchildren* under this slot,
    /// awaiting the twin's ack so they can be relayed (grandparent
    /// transport role, §4.1: "it transports the orphan results to their
    /// step-parent").
    std::vector<ResultMsg> pending_relay;
  };
  util::Boxed<Side> side;

  /// The side record, created on first use.
  Side& side_mut() {
    if (!side.has_value()) side = Side{};
    return *side;
  }
  [[nodiscard]] TaskUid prelink_prev_owner() const noexcept {
    return side.has_value() ? side->prelink_prev_owner : kNoTask;
  }

  /// Where the child's functional checkpoint is filed: the last spawn's
  /// first destination (kNoProc for a slot that never spawned).
  [[nodiscard]] net::ProcId filed_at() const noexcept {
    return children.empty() ? net::kNoProc : children[0].sent_to;
  }

  [[nodiscard]] bool outstanding() const noexcept {
    return spawned && !resolved;
  }
};

/// A spawn demanded by a scan: DEMAND_IT input.
struct SpawnRequest {
  lang::ExprId site = lang::kNoExpr;
  lang::FuncId fn = 0;
  TaskPacket::Args args;
};

struct ScanOutcome {
  std::optional<lang::Value> result;
  /// Inline for the common fan-outs (a binary body demands at most two
  /// children per scan); higher-arity bodies spill to the heap once.
  util::SmallVec<SpawnRequest, 2> spawns;
  /// Abstract ticks of local work this scan performed.
  std::uint64_t cost = 0;
};

class Task {
 public:
  Task(TaskUid uid, TaskPacket packet, sim::SimTime created_at)
      : uid_(uid), packet_(std::move(packet)), created_at_(created_at) {}

  [[nodiscard]] TaskUid uid() const noexcept { return uid_; }
  [[nodiscard]] const TaskPacket& packet() const noexcept { return packet_; }
  [[nodiscard]] const LevelStamp& stamp() const noexcept {
    return packet_.stamp;
  }
  [[nodiscard]] TaskState state() const noexcept { return state_; }
  void set_state(TaskState state) noexcept { state_ = state; }
  [[nodiscard]] sim::SimTime created_at() const noexcept { return created_at_; }

  /// Interpret the body against current slots. Does not mutate slot spawn
  /// flags — the caller (processor) marks slots spawned once packets are
  /// actually sent, then calls note_spawned().
  [[nodiscard]] ScanOutcome scan(const lang::Program& program);

  /// Mark the slot at `site` spawned and keep what its child's packet needs
  /// beyond this task: the callee, the arguments and the spawn lineage (a
  /// slot re-linked from a replayed record passes that record's).
  CallSlot& note_spawned(lang::ExprId site, lang::FuncId fn,
                         TaskPacket::Args args, std::uint32_t lineage = 0);

  /// The packet of the child `slot` spawned, the one source of a child
  /// packet: this task's stamp plus the slot's site, the slot's callee,
  /// arguments and lineage, the ancestors {host, this task} followed by
  /// this task's chain, cut to max(1, ancestor_depth) entries, and this
  /// task's zone (lane confinement is inherited). Replica 0.
  [[nodiscard]] TaskPacket child_packet(const CallSlot& slot,
                                        net::ProcId host,
                                        std::uint32_t ancestor_depth) const;

  /// Record a child ack (parent-to-child pointer, Fig. 6 state c). Returns
  /// false — and records nothing — when `lineage` is older than the slot's
  /// current spawn generation: a stale ack from a superseded (possibly
  /// already cancelled) instance must not overwrite the pointer the
  /// replacement's ack establishes, or recovery would relay results and
  /// forward cancels into a corpse.
  bool note_ack(lang::ExprId site, TaskRef child, std::uint32_t replica,
                std::uint32_t lineage);

  /// Deliver a result into a slot. With replication, `quorum` > 1 results
  /// must arrive before the slot resolves (§5.3 majority consensus; values
  /// are identical by determinacy, so the vote is a count). Returns true if
  /// the slot newly resolved — false for duplicates (cases 6-8: "the second
  /// copy is simply ignored").
  bool deliver_result(lang::ExprId site, const lang::Value& value,
                      std::uint32_t quorum);

  /// Pre-fill a slot that was never spawned (splice case 4: result arrives
  /// before the twin first scans; "P' will not spawn C' because the answer
  /// is already there").
  void prefill(lang::ExprId site, const lang::Value& value);

  [[nodiscard]] CallSlot* find_slot(lang::ExprId site);
  CallSlot& slot(lang::ExprId site);
  /// Slots in creation (body scan) order; each carries its own `site`.
  /// Out of line: a CallSlot is 160 bytes, and leaves and tasks not yet
  /// scanned have none, so two inline slots would more than double every
  /// live task. The processor reserves for a scan's spawns before creating
  /// their slots, so a binary body allocates once.
  using Slots = std::vector<CallSlot>;
  [[nodiscard]] const Slots& slots() const noexcept { return slots_; }
  [[nodiscard]] Slots& slots_mut() noexcept { return slots_; }

  [[nodiscard]] std::uint32_t outstanding_children() const noexcept;
  [[nodiscard]] std::uint64_t scan_count() const noexcept { return scans_; }

  /// Dirty: a slot resolved while a scan step was executing, so the task
  /// must be rescanned when the step finishes.
  [[nodiscard]] bool dirty() const noexcept { return dirty_; }
  void set_dirty(bool dirty) noexcept { dirty_ = dirty; }

  /// State-resident size in abstract units: the packet, each slot, its
  /// result and, for a spawned slot, its child's packet at the configured
  /// `ancestor_depth`. Used by the periodic-global baseline to cost
  /// snapshots and by the storage-overhead experiment.
  [[nodiscard]] std::uint32_t state_units(std::uint32_t ancestor_depth) const;

 private:
  using RequestedSites = util::SmallVec<lang::ExprId, 8>;
  std::optional<lang::Value> eval(const lang::Program& program,
                                  const lang::FunctionDef& def,
                                  lang::ExprId expr, ScanOutcome& outcome,
                                  RequestedSites& requested);

  TaskUid uid_;
  TaskPacket packet_;
  sim::SimTime created_at_;
  TaskState state_ = TaskState::kQueued;
  bool dirty_ = false;
  Slots slots_;
  std::uint64_t scans_ = 0;
};

// Tens of thousands of tasks are live at once in a large run; the call slots
// stay out of line (see Task::Slots), and a slot keeps no second copy of the
// packet its owner can rebuild.
static_assert(sizeof(Task) <= 264);
static_assert(sizeof(CallSlot) <= 160);

}  // namespace splice::runtime
