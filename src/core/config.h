// System configuration: every knob of the simulated applicative machine.
//
// This header is dependency-light (net + plain enums) so that runtime,
// scheduler, and recovery modules can all consume it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/fault_plan.h"
#include "net/network.h"
#include "net/topology.h"
#include "store/persistency.h"

namespace splice::core {

enum class SchedulerKind : std::uint8_t {
  kRandom,      // uniform over alive processors
  kRoundRobin,  // cyclic over alive processors
  kLocalFirst,  // keep local until the queue exceeds a threshold
  kPinned,      // honour FunctionDef::pinned_processor (Fig. 1 scripting)
  kGradient,    // gradient model of Lin & Keller [10]
  kNeighbor,    // Grit-style: spawn only to self or immediate neighbours [6]
};

enum class RecoveryKind : std::uint8_t {
  kNone,            // no fault tolerance (control)
  kRestart,         // restart whole program from the super-root on failure
  kRollback,        // §3: reissue topmost functional checkpoints
  kSplice,          // §4: rollback + orphan-result salvage via grandparents
  kPeriodicGlobal,  // baseline: coordinated global snapshots (Tamir–Sequin)
};

[[nodiscard]] std::string_view to_string(SchedulerKind kind) noexcept;
[[nodiscard]] std::string_view to_string(RecoveryKind kind) noexcept;

/// Parse a compact fault-scenario DSL into a FaultPlan, for scenario configs
/// and chaos-tool command lines. Clauses are `;`-separated:
///
///   kill:P@T                        timed crash of processor P at tick T
///   trigger:P@name[+delay]         crash P when the runtime fires `name`
///   rect:R0,C0,RxC@T               mesh/torus rectangle (top-left R0,C0)
///   arc:S+L@T                      ring arc of L nodes starting at S
///   cube:MASK/VALUE@T              hypercube subcube (fixed address bits)
///   hood:P,rK@T                    K-hop neighbourhood of P
///   cascade:P@T[,p=0.9][,decay=0.5][,hops=2][,stagger=200]
///   poisson:mean=M[,start=T][,stop=T][,max=N][,over=p1|p2|...]
///   rejoin:DELAY[,warm|cold]       crash-recovery: revive DELAY after kill;
///                                  warm = survivor state transfer, plus
///                                  durable-log replay when the host
///                                  SystemConfig's StoreConfig persists
///                                  (model != none); cold (default) = blank
///   partition:REGION@T[,heal=H|healmean=M]
///                                  cut REGION (rect(R0,C0,RxC), arc(S+L),
///                                  cube(MASK/VALUE), hood(P,rK)) off from
///                                  the rest at T; heal after H ticks, or an
///                                  exponential delay of mean M drawn from
///                                  the plan seed; neither = never heals
///   link:A-B@T[,drop=p][,dup=p][,reorder=p][,delay=D][,jitter=J][,until=T]
///                                  per-link quality between A and B from T
///                                  ('A>B' = directed, '*' = any endpoint)
///   gray:P@T[,drop=p][,slow=F][,until=T]
///                                  gray failure: P stays alive and its
///                                  control traffic (heartbeats, notices)
///                                  flows, but payload traffic drops with
///                                  probability p and everything slows F×
///   seed:S                         RNG stream for cascade/poisson/link draws
///
/// Example: "rect:0,0,2x2@5000;cascade:7@9000,p=0.8,hops=2;rejoin:4000,warm".
/// Regions resolve against the concrete Topology when the injector arms.
/// Throws std::invalid_argument on malformed input, naming the bad clause.
[[nodiscard]] net::FaultPlan parse_fault_plan(std::string_view spec);

struct SchedulerConfig {
  SchedulerKind kind = SchedulerKind::kRandom;
  /// kGradient: proximity-field refresh period (ticks); models the
  /// propagation delay of load information.
  std::int64_t gradient_refresh = 500;
};

struct RecoveryConfig {
  RecoveryKind kind = RecoveryKind::kSplice;
  /// Length of the ancestor chain carried in packets: 2 = parent +
  /// grandparent (the paper's splice), 3 adds the great-grandparent
  /// extension of §5.2. Rollback needs only 1 but carries 2 harmlessly.
  std::uint32_t ancestor_depth = 2;
  /// Splice variant: false = reissue only topmost checkpoints (§4.2,
  /// paper-faithful); true = every live parent respawns every trapped child
  /// (aggressive salvage ablation).
  bool eager_respawn = false;
  /// kPeriodicGlobal: snapshot period in ticks.
  std::int64_t checkpoint_interval = 30000;
  /// kPeriodicGlobal: freeze duration = freeze_base + freeze_per_unit *
  /// total state units (the "virtually stop all computational operations"
  /// cost of §2).
  std::int64_t freeze_base = 100;
  double freeze_per_unit = 0.25;
};

/// Durable checkpoint store + warm-rejoin state transfer (store/ subsystem).
struct StoreConfig {
  /// What survives a crash on the node's local medium (persistency.h).
  /// kNone keeps the paper's blank-rejoin semantics and disables logging.
  store::Persistency model = store::Persistency::kNone;
  /// kLossy: per-entry survival probability.
  double survive_p = 0.5;
  /// State transfer: task packets per kStateChunk (bounds message size so
  /// catch-up interleaves with normal traffic instead of stopping it).
  std::uint32_t chunk_records = 4;
  /// State transfer: ticks between consecutive chunks from one peer.
  std::int64_t chunk_interval = 50;
  /// Warm rejoin: how long a survivor defers its reissue obligations
  /// against a dead node before falling back to cold reissue (covers the
  /// repair delay plus the transfer; a node that rejoins sooner absorbs
  /// its old work via state transfer instead).
  std::int64_t warm_grace = 20000;
  /// Warm rejoin: how long a re-hosted task awaits a pre-linked orphan
  /// child's result after catch-up before respawning it. A stale replayed
  /// record (its release lost by torn media) awaits a result that already
  /// returned to the previous incarnation, so this bounds that false wait.
  std::int64_t prelink_grace = 8000;

  [[nodiscard]] bool durable() const noexcept {
    return model != store::Persistency::kNone;
  }
};

struct ReplicationConfig {
  /// §5.3: number of copies of each replicated task packet (1 = off).
  std::uint32_t factor = 1;
  /// Replicate tasks whose stamp depth is < max_depth ("the user may
  /// specify certain critical sections"). Depth 1 replicates the root only.
  std::uint32_t max_depth = 1;
  /// true: wait for a majority of identical results (paper's consensus);
  /// false: first result wins (fail-silent optimisation ablation).
  bool majority = true;
  /// Confine each replica's subtree to a disjoint processor partition
  /// (lane p % factor == replica), emulating Misunas's "carefully
  /// distributed" copies (§5.4). Without confinement a single crash can
  /// damage every replica's subtree at once.
  bool zoned = true;

  [[nodiscard]] bool enabled() const noexcept { return factor > 1; }
  [[nodiscard]] std::uint32_t quorum() const noexcept {
    return majority ? factor / 2 + 1 : 1;
  }
};

/// Duplicate-task reclamation: the cancel protocol, and the cadence of the
/// read-only gc oracle that validates it.
struct ReclaimConfig {
  /// First-class task-cancellation protocol. Recovery can leave *duplicate*
  /// live tasks — a reissue raced the original (undetected rejoin, pre-link
  /// grace expiry, warm re-host vs. survivor reissue) and both copies now
  /// compute the same (stamp, replica). The §4.1 rules make the extra
  /// results harmless ("the second copy is simply ignored"), but the
  /// duplicates burn processor time until run end. With cancellation on,
  /// every recovery action that supersedes a live instance also emits a
  /// kCancel message naming it; receivers abort the addressed task, release
  /// its retained checkpoints, and forward cancels down every outstanding
  /// call slot — the duplicate subtree converges by message propagation.
  /// Replicated depths are exempt: their copies are the redundancy.
  /// This is the only mechanism that reclaims duplicates.
  bool cancellation = true;

  /// Read-only gc oracle period (ticks); 0 disables. At each tick the
  /// oracle reads global simulator state and *identifies* duplicate copies
  /// (every copy except the one the live parent's acknowledged slot points
  /// at) but aborts nothing; a duplicate still present at the next tick
  /// (cancel latency is bounded by one network traversal, far below any
  /// sensible cadence) counts as a protocol leak in
  /// Counters::gc_oracle_orphans, the feed of RecoveryOracle's task-leak
  /// invariant. The enforced invariant is the protocol's reach: no
  /// duplicate whose own parent *instance* is live may persist. True
  /// orphans (the exact parent task is gone) are excluded under a
  /// salvaging policy — they are §4.1 salvage material, unreachable by any
  /// message until their results flow.
  std::int64_t gc_interval = 0;
};

/// Which substrate moves envelopes (net/transport.h). kInProcess is the
/// zero-copy deterministic oracle; kShmRing round-trips every message
/// through the wire codec (same seeded results, real bytes); kTcp runs one
/// OS process per rank and is driven by tools/splice_noded, not by
/// Simulation::run.
struct TransportConfig {
  net::TransportKind backend = net::TransportKind::kInProcess;
  /// kShmRing: per-destination ring capacity in bytes (overflow spills to a
  /// heap queue, counted in WireStats::ring_spills).
  std::uint32_t shm_ring_bytes = 1u << 20;
};

/// Flight recorder + time-series metrics (obs/ subsystem). Off by default:
/// with `recorder` false every hook is a single predictable branch and the
/// throughput benches are unaffected.
struct ObsConfig {
  /// Journal protocol events into the ring-buffered flight recorder.
  bool recorder = false;
  /// Ring capacity in events; the ring overwrites oldest and counts drops.
  std::uint32_t journal_capacity = 1u << 16;
};

/// Parallel (PDES) simulation driver. `shards == 0` (default) keeps the
/// classic single-threaded path bit-for-bit untouched; `shards >= 1` routes
/// the run through runtime::PdesEngine — processors partitioned across
/// shard-owned event queues synchronized on a conservative time-window
/// barrier with lookahead = latency.base. `shards == 1` exercises the full
/// engine machinery on one worker and is the A/B determinism oracle for
/// `shards > 1`. Engine mode rejects features whose semantics need the
/// global event order (kTcp/kShmRing transports, kRestart/kPeriodicGlobal
/// recovery, triggered faults).
struct ParallelConfig {
  std::uint32_t shards = 0;

  [[nodiscard]] bool engine() const noexcept { return shards >= 1; }
};

/// Simulated ticks per abstract primitive-op unit. The processor's step
/// cost and the simulation's auto deadline bound share it and kSpawnCost.
inline constexpr std::int64_t kOpCost = 1;
/// DEMAND_IT overhead per spawn: packet formation + checkpoint + queueing
/// (§4.2).
inline constexpr std::int64_t kSpawnCost = 5;

struct SystemConfig {
  std::uint32_t processors = 8;
  net::TopologyKind topology = net::TopologyKind::kMesh2D;
  net::LatencyModel latency;

  SchedulerConfig scheduler;
  RecoveryConfig recovery;
  ReplicationConfig replication;
  StoreConfig store;
  ReclaimConfig reclaim;
  TransportConfig transport;
  ObsConfig obs;
  ParallelConfig parallel;

  /// Liveness probing period (ticks); 0 disables. Needed so failures of
  /// quiescent processors are detected (§1's "identified as faulty by other
  /// processors").
  std::int64_t heartbeat_interval = 2000;

  /// §4.3.1 super-root: checkpoints the root program so the system survives
  /// failure of the root's host.
  bool super_root = true;

  std::uint64_t seed = 1;

  /// Hard stop for the simulation; 0 derives a generous bound from the
  /// program's reference work.
  std::int64_t deadline_ticks = 0;

  [[nodiscard]] std::string describe() const;
};

}  // namespace splice::core
