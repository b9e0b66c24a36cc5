// The interconnection network: protocol semantics over a pluggable substrate.
//
// Semantics match §1 of the paper:
//  * best-effort delivery: a message to a live processor arrives after a
//    hop- and size-dependent latency;
//  * a message to a dead (or killed-in-flight) processor is lost, and the
//    *sender* receives a kDeliveryFailure notification after a timeout —
//    "if the destination cannot be reached, the unreachable node is
//    considered faulty";
//  * a processor that dies transmits nothing thereafter, but messages it
//    sent before dying are still delivered (they left the node while it was
//    healthy).
//
// The mechanism that actually moves envelopes is a Transport
// (net/transport.h): the pooled in-process mailbox, shared-memory rings, or
// TCP sockets. The Network owns the latency model, liveness map, per-kind
// stats, and the bounce protocol; the transport owns bytes and timing of
// the hand-back. Every backend funnels into the same deliver() sink, so
// protocol behaviour is identical across substrates.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/link_faults.h"
#include "net/message.h"
#include "net/topology.h"
#include "net/transport.h"
#include "sim/context.h"
#include "sim/simulator.h"

namespace splice::net {

/// Delivery sink for the sharded (PDES) engine. In router mode the Network
/// computes latency and link-fault shaping exactly as on the classic path,
/// then hands the envelope to the router with its absolute delivery time
/// instead of submitting it to a Transport; the engine files it into the
/// destination shard's op heap (same shard) or staging inbox (cross shard).
/// The engine later feeds executed deliveries back through
/// Network::deliver_routed so dead-dest/bounce/stats semantics stay in one
/// place.
class EnvelopeRouter {
 public:
  virtual ~EnvelopeRouter() = default;
  /// `when` is absolute simulated time. For cross-processor traffic the
  /// latency model guarantees when >= poster's now + base latency — the
  /// conservative-lookahead contract the window barrier relies on.
  virtual void route(Envelope&& envelope, sim::SimTime when) = 0;
};

struct LatencyModel {
  /// Fixed wire/software overhead per message.
  std::int64_t base = 20;
  /// Added per hop of topological distance.
  std::int64_t per_hop = 10;
  /// Added per payload size unit.
  std::int64_t per_unit = 1;
  /// Delay for a processor sending to itself (loopback through the local
  /// queue, no network traversal).
  std::int64_t local = 2;
  /// How long the sender waits before concluding the destination is dead.
  std::int64_t failure_timeout = 400;

  [[nodiscard]] sim::SimTime latency(std::uint32_t hops,
                                     std::uint32_t size_units) const noexcept {
    if (hops == 0) return sim::SimTime(local);
    return sim::SimTime(base + per_hop * static_cast<std::int64_t>(hops) +
                        per_unit * static_cast<std::int64_t>(size_units));
  }
};

/// Per-kind message counters, kept by the network for the experiment tables.
struct NetworkStats {
  std::uint64_t sent[kMsgKindCount] = {};
  std::uint64_t units[kMsgKindCount] = {};  // size units sent, per kind
  std::uint64_t delivered[kMsgKindCount] = {};
  std::uint64_t dropped_dead_dest = 0;
  std::uint64_t dropped_dead_sender = 0;
  std::uint64_t failure_notices = 0;
  std::uint64_t revives = 0;
  std::uint64_t total_units = 0;
  std::uint64_t total_hop_units = 0;  // size * hops, a bandwidth proxy

  // Link-fault layer (all zero without an armed LinkFaultModel).
  std::uint64_t partition_cut = 0;    // messages lost crossing an active cut
  std::uint64_t link_dropped = 0;     // lossy-link losses (dest alive)
  std::uint64_t gray_dropped = 0;     // payload starved by a gray node
  std::uint64_t link_duplicated = 0;  // messages delivered twice
  std::uint64_t link_reordered = 0;   // messages held back to be overtaken
  std::uint64_t link_delay_ticks = 0;  // sum of injected extra latency

  [[nodiscard]] std::uint64_t total_sent() const noexcept {
    std::uint64_t n = 0;
    for (auto v : sent) n += v;
    return n;
  }
  [[nodiscard]] std::uint64_t total_delivered() const noexcept {
    std::uint64_t n = 0;
    for (auto v : delivered) n += v;
    return n;
  }

  /// Accumulate another lane's counters (router mode keeps one NetworkStats
  /// per shard thread; stats() folds them).
  void merge(const NetworkStats& other) noexcept {
    for (std::size_t k = 0; k < kMsgKindCount; ++k) {
      sent[k] += other.sent[k];
      units[k] += other.units[k];
      delivered[k] += other.delivered[k];
    }
    dropped_dead_dest += other.dropped_dead_dest;
    dropped_dead_sender += other.dropped_dead_sender;
    failure_notices += other.failure_notices;
    revives += other.revives;
    total_units += other.total_units;
    total_hop_units += other.total_hop_units;
    partition_cut += other.partition_cut;
    link_dropped += other.link_dropped;
    gray_dropped += other.gray_dropped;
    link_duplicated += other.link_duplicated;
    link_reordered += other.link_reordered;
    link_delay_ticks += other.link_delay_ticks;
  }
};

class Network {
 public:
  /// Rvalue-typed so delivery moves the envelope straight into the protocol
  /// loop (no intermediate copy of the ~300-byte payload variant).
  using Receiver = std::function<void(Envelope&&)>;

  /// A null transport selects the in-process backend (the common case for
  /// simulation and tests).
  Network(sim::Simulator& simulator, Topology topology, LatencyModel latency,
          std::unique_ptr<Transport> transport = nullptr);

  /// Router (PDES engine) mode: no transport; every shaped envelope goes to
  /// the EnvelopeRouter installed via set_router before the first send.
  /// Counters split into `shards + 1` thread lanes (one per worker, one for
  /// the coordinator/classic thread, selected by sim::ctx_shard()) so the
  /// send/deliver hot paths never share a cache line across threads; the
  /// clock reads the calling thread's context simulator.
  struct RouterMode {
    std::uint32_t shards = 1;
  };
  Network(sim::Simulator& coordinator_sim, Topology topology,
          LatencyModel latency, RouterMode mode);
  void set_router(EnvelopeRouter& router) noexcept { router_ = &router; }

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] ProcId size() const noexcept { return topology_.size(); }

  /// Install the message handler for processor p (the runtime's protocol
  /// loop). Must be set before any send touches p.
  void set_receiver(ProcId p, Receiver receiver);

  /// Send a message. If the destination is dead now or at delivery time the
  /// message is lost and the sender gets a kDeliveryFailure envelope (whose
  /// payload is the original envelope) after `failure_timeout`.
  void send(Envelope envelope);

  /// Mark p dead. In-flight messages *from* p still arrive; everything
  /// addressed to p from now on bounces.
  void kill(ProcId p);

  /// Mark a repaired p alive again (crash-recovery model). Messages sent to
  /// p while it was dead stay lost; new sends deliver normally. Bounce
  /// notices already in flight still arrive — detection is per-observer, so
  /// a sender may briefly believe a rejoined node is dead.
  void revive(ProcId p);

  [[nodiscard]] bool alive(ProcId p) const { return alive_.at(p); }
  [[nodiscard]] std::uint32_t alive_count() const noexcept;

  /// Install the armed link-fault layer (FaultInjector::arm). Every
  /// subsequent send is shaped by it; a null model restores clean links.
  void set_link_faults(std::unique_ptr<LinkFaultModel> model) noexcept {
    link_faults_ = std::move(model);
  }
  [[nodiscard]] const LinkFaultModel* link_faults() const noexcept {
    return link_faults_.get();
  }
  /// False while an active partition separates a and b (true on clean
  /// networks). Protocol layers use this the way they use alive(): as the
  /// modelled outcome of the §1 timeout probe, not as hidden knowledge.
  [[nodiscard]] bool reachable(ProcId a, ProcId b) const {
    return link_faults_ == nullptr || link_faults_->reachable(a, b, net_now());
  }

  /// Aggregate counters folded across thread lanes. Call only while no
  /// worker thread is sending (post-run, or at a window barrier).
  [[nodiscard]] const NetworkStats& stats() const noexcept {
    aggregate_ = NetworkStats{};
    for (const Lane& lane : lanes_) aggregate_.merge(lane.stats);
    return aggregate_;
  }
  /// Envelopes submitted to the transport and not yet handed to deliver()
  /// — the in-flight gauge the flight recorder's metrics sampler reads.
  /// (On the distributed TCP backend this counts only locally-submitted
  /// envelopes; remote legs are invisible to this rank.) In router mode each
  /// thread lane tracks its own signed delta (poster increments its lane,
  /// the executing shard decrements its own), so only the sum is meaningful.
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    std::int64_t total = 0;
    for (const Lane& lane : lanes_) total += lane.in_flight;
    return total > 0 ? static_cast<std::uint64_t>(total) : 0;
  }
  [[nodiscard]] const LatencyModel& latency_model() const noexcept {
    return latency_;
  }

  [[nodiscard]] Transport& transport() noexcept { return *transport_; }
  [[nodiscard]] const Transport& transport() const noexcept {
    return *transport_;
  }
  /// True when this rank hosts processor p (always true without a transport
  /// — router mode and single-process simulation host everything).
  [[nodiscard]] bool is_local(ProcId p) const {
    return transport_ == nullptr || transport_->local(p);
  }
  /// True when ranks span multiple OS processes (TCP backend).
  [[nodiscard]] bool distributed() const noexcept {
    return transport_ != nullptr && transport_->distributed();
  }
  /// Serialization counters from the transport (all zero for in-process and
  /// router mode).
  [[nodiscard]] const WireStats& wire() const noexcept {
    if (transport_ == nullptr) {
      static const WireStats kNone{};
      return kNone;
    }
    return transport_->wire();
  }
  /// Drain externally-arrived frames (socket backends); see Transport::poll.
  std::size_t poll() { return transport_ != nullptr ? transport_->poll() : 0; }

  /// Router-mode re-entry: the engine executes a delivery op by handing the
  /// envelope back through the same sink every transport funnels into.
  void deliver_routed(Envelope&& envelope) { deliver(std::move(envelope)); }

  /// Field-by-field copy for duplicate delivery (the payload variant is not
  /// copy-assignable as a whole because EnvelopeBox is move-only; shaped
  /// traffic never carries one). A boxed payload is deep-copied, so the
  /// duplicate owns its own cell.
  [[nodiscard]] static Envelope clone_envelope(const Envelope& envelope);

 private:
  /// The single delivery sink every transport funnels into.
  void deliver(Envelope&& envelope);
  void bounce(Envelope envelope);
  /// Hand a shaped envelope to the substrate: transport (relative delay) or
  /// router (absolute delivery time).
  void dispatch(Envelope&& envelope, sim::SimTime delay);

  /// The calling thread's simulated clock: the context override inside a
  /// shard window, else the owning (classic/coordinator) simulator.
  [[nodiscard]] sim::SimTime net_now() const noexcept {
    return sim::ctx(sim_).now();
  }

  /// Per-thread counter lane, cache-line padded. Classic mode has exactly
  /// one; router mode has shards + 1 (last = coordinator thread).
  struct alignas(64) Lane {
    NetworkStats stats;
    std::int64_t in_flight = 0;
  };
  [[nodiscard]] Lane& lane() noexcept {
    const std::uint32_t s = sim::ctx_shard();
    const std::size_t last = lanes_.size() - 1;
    return lanes_[s < last ? s : last];
  }

  sim::Simulator& sim_;
  Topology topology_;
  LatencyModel latency_;
  std::unique_ptr<Transport> transport_;
  EnvelopeRouter* router_ = nullptr;
  std::unique_ptr<LinkFaultModel> link_faults_;
  std::vector<Receiver> receivers_;
  std::vector<bool> alive_;
  std::vector<Lane> lanes_;
  mutable NetworkStats aggregate_;
};

}  // namespace splice::net
