#include "net/network.h"

#include <cassert>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

namespace splice::net {

Network::Network(sim::Simulator& simulator, Topology topology,
                 LatencyModel latency, std::unique_ptr<Transport> transport)
    : sim_(simulator),
      topology_(std::move(topology)),
      latency_(latency),
      transport_(transport ? std::move(transport)
                           : make_in_process_transport(simulator)),
      receivers_(topology_.size()),
      alive_(topology_.size(), true),
      lanes_(1) {
  transport_->set_deliver(
      [this](Envelope&& envelope) { deliver(std::move(envelope)); });
  transport_->set_unreachable([this](Envelope&& envelope) {
    ++lane().stats.dropped_dead_dest;
    bounce(std::move(envelope));
  });
}

Network::Network(sim::Simulator& coordinator_sim, Topology topology,
                 LatencyModel latency, RouterMode mode)
    : sim_(coordinator_sim),
      topology_(std::move(topology)),
      latency_(latency),
      receivers_(topology_.size()),
      alive_(topology_.size(), true),
      lanes_(mode.shards + 1) {}

void Network::set_receiver(ProcId p, Receiver receiver) {
  receivers_.at(p) = std::move(receiver);
}

void Network::dispatch(Envelope&& envelope, sim::SimTime delay) {
  if (router_ != nullptr) {
    router_->route(std::move(envelope), net_now() + delay);
    return;
  }
  transport_->submit(std::move(envelope), delay);
}

void Network::send(Envelope envelope) {
  assert(envelope.from < size() && envelope.to < size());
  const sim::SimTime now = net_now();
  Lane& ln = lane();
  envelope.sent_at = now;
  ++ln.stats.sent[static_cast<std::size_t>(envelope.kind)];
  ln.stats.units[static_cast<std::size_t>(envelope.kind)] +=
      envelope.size_units;
  ln.stats.total_units += envelope.size_units;

  // A dead processor transmits nothing (fail-silent, §1). Sends attempted
  // by a processor after its death are artefacts of same-tick event
  // ordering; drop them.
  if (!alive_[envelope.from]) {
    ++ln.stats.dropped_dead_sender;
    return;
  }

  const std::uint32_t hops = topology_.hops(envelope.from, envelope.to);
  ln.stats.total_hop_units +=
      static_cast<std::uint64_t>(hops) * envelope.size_units;
  sim::SimTime delay = latency_.latency(hops, envelope.size_units);

  // Link-fault shaping, send-side so every transport backend perturbs
  // identically. Loopback never touches a link; bounce notices model the
  // sender's own timeout, not a wire transit.
  if (link_faults_ != nullptr && envelope.from != envelope.to &&
      envelope.kind != MsgKind::kDeliveryFailure) {
    const LinkFaultModel::Verdict verdict = link_faults_->shape(
        envelope.kind, envelope.from, envelope.to, now, delay);
    if (verdict.cut) {
      // Crossing an active partition: undeliverable, and the sender's
      // timeout legitimately concludes the peer is faulty (§1).
      ++ln.stats.partition_cut;
      bounce(std::move(envelope));
      return;
    }
    if (verdict.drop || verdict.gray_drop) {
      // Lost in transit to a live destination. The bounce is the modelled
      // timeout; handle_delivery_failure sees the peer alive and reachable,
      // so recovery retransmits at the payload level without any false
      // crash detection.
      ++(verdict.gray_drop ? ln.stats.gray_dropped : ln.stats.link_dropped);
      bounce(std::move(envelope));
      return;
    }
    if (verdict.reordered) ++ln.stats.link_reordered;
    if (verdict.extra.ticks() > 0) {
      ln.stats.link_delay_ticks +=
          static_cast<std::uint64_t>(verdict.extra.ticks());
      delay = delay + verdict.extra;
    }
    if (verdict.duplicate) {
      ++ln.stats.link_duplicated;
      ++ln.in_flight;
      dispatch(clone_envelope(envelope), delay + verdict.dup_extra);
    }
  }
  ++ln.in_flight;
  dispatch(std::move(envelope), delay);
}

Envelope Network::clone_envelope(const Envelope& envelope) {
  Envelope clone;
  clone.kind = envelope.kind;
  clone.from = envelope.from;
  clone.to = envelope.to;
  clone.size_units = envelope.size_units;
  clone.sent_at = envelope.sent_at;
  std::visit(
      [&clone](const auto& payload) {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, EnvelopeBox>) {
          // kDeliveryFailure is exempt from shaping, so a box never gets
          // here.
          assert(false && "cannot duplicate a bounce notice");
        } else {
          clone.payload = payload;
        }
      },
      envelope.payload);
  return clone;
}

void Network::deliver(Envelope&& envelope) {
  Lane& ln = lane();
  // In-flight gauge: the substrate just handed the envelope back. In router
  // mode the executing shard decrements its own lane — individual lanes go
  // signed-negative and only the sum matters. On the classic path remote
  // arrivals on the TCP backend were never submitted locally, so the single
  // lane saturates at zero instead.
  if (router_ != nullptr) {
    --ln.in_flight;
  } else if (ln.in_flight > 0) {
    --ln.in_flight;
  }
  if (!alive_[envelope.to]) {
    // A bounce notice whose addressee has since died notifies nobody; a
    // regular message to a dead destination is lost and bounces to its
    // sender.
    if (envelope.kind != MsgKind::kDeliveryFailure) {
      ++ln.stats.dropped_dead_dest;
      bounce(std::move(envelope));
    }
    return;
  }
  ++ln.stats.delivered[static_cast<std::size_t>(envelope.kind)];
  Receiver& receiver = receivers_[envelope.to];
  if (!receiver) {
    // Synthetic notices tolerate a missing receiver (the addressee may be
    // mid-teardown); real protocol traffic does not.
    if (envelope.kind == MsgKind::kDeliveryFailure) return;
    throw std::logic_error("no receiver installed for processor " +
                           std::to_string(envelope.to));
  }
  // The envelope is the receiver's only for the duration of the call —
  // transports may recycle the backing storage once dispatch returns.
  receiver(std::move(envelope));
}

void Network::bounce(Envelope envelope) {
  // Sender learns of unreachability after the failure timeout (§1: coding /
  // timeout mechanisms). The dead envelope rides along as payload so the
  // protocol layer can tell *what* failed to arrive. Callers count the
  // cause (dead destination, partition cut, lossy link) before calling.
  const ProcId sender = envelope.from;
  if (!alive_[sender]) return;  // nobody left to notify
  Envelope notice;
  notice.kind = MsgKind::kDeliveryFailure;
  notice.from = envelope.to;  // nominally "from" the dead node
  notice.to = sender;
  notice.size_units = 1;
  notice.sent_at = net_now();
  notice.payload = EnvelopeBox(std::move(envelope));
  Lane& ln = lane();
  ++ln.stats.failure_notices;
  ++ln.in_flight;
  dispatch(std::move(notice), sim::SimTime(latency_.failure_timeout));
}

void Network::kill(ProcId p) {
  assert(p < size());
  if (!alive_[p]) return;
  alive_[p] = false;
}

void Network::revive(ProcId p) {
  assert(p < size());
  if (alive_[p]) return;
  alive_[p] = true;
  ++lane().stats.revives;
}

std::uint32_t Network::alive_count() const noexcept {
  std::uint32_t n = 0;
  for (bool a : alive_) {
    n += a ? 1 : 0;
  }
  return n;
}

}  // namespace splice::net
