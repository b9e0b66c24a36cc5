// Task packets and message payloads.
//
// "A task packet is formed for the new function and then waits for
//  execution. The packet contains all necessary information, either directly
//  or indirectly accessible, to activate the child task." (§2.1)
//
// The packet also carries the resilient-structure linkage of §4: the
// identity of the parent, the grandparent ("may be just an integer"), and —
// when the great-grandparent extension of §5.2 is enabled — deeper
// ancestors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lang/expr.h"
#include "lang/value.h"
#include "net/topology.h"
#include "runtime/level_stamp.h"
#include "sim/time.h"
#include "util/small_vec.h"

namespace splice::runtime {

using TaskUid = std::uint64_t;
inline constexpr TaskUid kNoTask = 0;

/// Where a task lives: which processor hosts which task instance.
struct TaskRef {
  net::ProcId proc = net::kNoProc;
  TaskUid uid = kNoTask;

  [[nodiscard]] bool valid() const noexcept { return proc != net::kNoProc; }
  [[nodiscard]] bool operator==(const TaskRef&) const = default;
};

struct TaskPacket {
  /// Inline argument list: packet copies (checkpoint retention, replicas,
  /// state transfer) stay allocation-free for every workload arity.
  using Args = util::SmallVec<lang::Value, 4>;

  LevelStamp stamp;
  lang::FuncId fn = 0;
  Args args;

  /// Call site in the parent's body whose slot this task's result fills.
  lang::ExprId call_site = lang::kNoExpr;

  /// Ancestor chain: ancestors[0] is the parent, ancestors[1] the
  /// grandparent, ancestors[2] the great-grandparent, ... Length is the
  /// configured resilience depth (>= 2 for splice). The root's chain points
  /// at the super-root sentinel. Inline small-vector: copying a packet
  /// never allocates for the chain at any depth the config allows.
  util::SmallVec<TaskRef, 4> ancestors;

  /// Replica ordinal for §5.3 replicated-task redundancy (0 for the
  /// primary; replicas share the stamp).
  std::uint32_t replica = 0;

  /// Spawn generation of the owning call slot: 0 for the first spawn, then
  /// the slot's respawn count. An ack echoing a lineage older than the
  /// slot's current one is stale (it names a superseded, possibly already
  /// cancelled instance) and must not overwrite the parent-to-child
  /// pointer the replacement's ack will establish.
  std::uint32_t lineage = 0;

  /// Replication zone: lane confinement à la Misunas's TMR dataflow
  /// machine ("each copy is executed by a different processor and utilizes
  /// different communication paths", cited in §5.4). Tasks with zone >= 0
  /// are placed only on processors p with p % factor == zone, so a single
  /// crash damages at most one lane. -1 = unconstrained.
  std::int32_t zone = -1;

  [[nodiscard]] TaskRef parent() const {
    return ancestors.empty() ? TaskRef{} : ancestors[0];
  }
  [[nodiscard]] TaskRef grandparent() const {
    return ancestors.size() < 2 ? TaskRef{} : ancestors[1];
  }

  /// Wire size: stamp + args + bookkeeping.
  [[nodiscard]] std::uint32_t size_units() const noexcept;

  [[nodiscard]] std::string describe() const;
};

/// kForwardResult payload. `relation` says how the sender believes the
/// receiver relates to the producing task — the receiver re-derives the
/// truth from the stamp, per the protocol's "Interpret the level stamp".
enum class ResultRelation : std::uint8_t {
  kToParent,       // normal return
  kToAncestor,     // orphan return diverted to grandparent or beyond (§4)
};

struct ResultMsg {
  LevelStamp stamp;              // stamp of the producing task
  lang::ExprId call_site = lang::kNoExpr;
  lang::Value value;
  TaskRef target;                // task expected to consume the result
  ResultRelation relation = ResultRelation::kToParent;
  /// True once an ancestor relayed this result toward a step-parent —
  /// consuming such a result is a *salvage* (§4's whole point).
  bool relayed = false;
  /// Index into the producer's ancestor chain that `target` came from
  /// (0 = parent). Lets the receiver escalate to the next ancestor on
  /// failure when the §5.2 extension is active.
  std::uint32_t ancestor_index = 0;
  /// Remaining ancestor chain of the producer (for escalation).
  util::SmallVec<TaskRef, 4> ancestors;
  std::uint32_t replica = 0;
  /// Echo of the producer's TaskPacket::lineage, as AckMsg carries it: a
  /// direct return names the spawn generation it came from, so the parent
  /// can tell its current child's return from a superseded instance's.
  std::uint32_t lineage = 0;

  [[nodiscard]] std::uint32_t size_units() const noexcept {
    return 1 + value.size_units();
  }
};

/// kSpawnAck payload: "task G receives an acknowledge from P and establishes
/// a parent-to-child pointer to P" (Fig. 6 state c).
struct AckMsg {
  LevelStamp stamp;      // stamp of the acknowledged child
  lang::ExprId call_site = lang::kNoExpr;
  TaskRef parent;        // who should record the pointer
  TaskRef child;         // where the child actually landed
  std::uint32_t replica = 0;
  /// Echo of TaskPacket::lineage: the parent drops acks from spawn
  /// generations older than the slot's current one (cancel/ack race guard).
  std::uint32_t lineage = 0;
};

/// kCancel payload: abort a duplicate task lineage. Every corrective action
/// of the recovery scheme travels as a message; reclamation is no
/// exception. A cancel names its victim by (stamp, replica) — the identity
/// that survives crashes (§3.1) — plus the exact uid when the issuer holds
/// an acknowledged pointer. Receivers abort the addressed task, release the
/// checkpoint-table entries it retained for its own children, and forward
/// cancels down every outstanding call slot, so a whole duplicate subtree
/// converges by message propagation instead of by an omniscient sweep.
struct CancelMsg {
  LevelStamp stamp;               // stamp of the lineage being cancelled
  std::uint32_t replica = 0;
  /// Exact victim instance when the issuer saw its ack; kNoTask = address
  /// by (stamp, replica, parent) instead.
  TaskUid uid = kNoTask;
  /// Stamp-addressed cancels name the *parent instance* whose spawn they
  /// revoke: only a task whose packet carries this exact parent ref
  /// matches. Task uids are never reused, so two same-stamp instances at
  /// one destination (duplicate lineages racing) can never be confused —
  /// a cancel reaches the issuer's own superseded child and nothing else.
  TaskRef parent;
  /// Incarnation fence for stamp-addressed cancels: only instances accepted
  /// *before* this time match. The issuer's replacement twin (same parent
  /// ref by construction) is spawned after the cancel is issued, so the
  /// fence keeps the revocation from ever touching it.
  sim::SimTime issued_at;

  [[nodiscard]] std::uint32_t size_units() const noexcept { return 1; }
};

/// kErrorDetection payload: "processors `dead` are faulty" — the deaths the
/// sender detected first-hand in one tick and still believes, in detection
/// order; a listed recipient's copy leaves out its own name. Up to three
/// names stay inline in the envelope.
struct ErrorMsg {
  util::SmallVec<net::ProcId, 3> dead;

  [[nodiscard]] std::uint32_t size_units() const noexcept {
    return static_cast<std::uint32_t>(dead.size());
  }
};

/// kHeartbeat payload (probe; liveness is inferred from delivery failures).
struct HeartbeatMsg {
  std::uint64_t sequence = 0;
};

/// kRejoinNotice payload: `who` was repaired and rejoined blank; receivers
/// drop it from their dead sets so traffic and scheduling resume.
struct RejoinMsg {
  net::ProcId who = net::kNoProc;
};

/// kControl payload kinds used by the runtime.
enum class ControlKind : std::uint8_t {
  kStartRoot,        // super-root injects the root task
  kFreeze,           // periodic-global baseline: stop-the-world begin
  kUnfreeze,         // periodic-global baseline: resume
  kShutdown,         // multi-process driver: root broadcasts group teardown
};

struct ControlMsg {
  ControlKind kind = ControlKind::kStartRoot;
};

}  // namespace splice::runtime
