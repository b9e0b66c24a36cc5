#include "net/transport.h"

#include <cassert>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/codec.h"
#include "net/shm_ring.h"

namespace splice::net {

std::string_view to_string(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::kInProcess:
      return "inproc";
    case TransportKind::kShmRing:
      return "shm";
    case TransportKind::kTcp:
      return "tcp";
  }
  return "?";
}

TransportKind parse_transport(std::string_view name) {
  if (name == "inproc" || name == "in-process" || name == "inprocess") {
    return TransportKind::kInProcess;
  }
  if (name == "shm" || name == "shm-ring" || name == "shmring") {
    return TransportKind::kShmRing;
  }
  if (name == "tcp") return TransportKind::kTcp;
  throw std::invalid_argument("unknown transport: " + std::string(name) +
                              " (expected inproc | shm | tcp)");
}

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- in-process ------------------------------------------------------------

/// The pooled mailbox that used to live inside Network. In-flight
/// envelopes park in a recycled pool while their delivery event waits in
/// the queue; the event captures only {this, slot} — 16 bytes, inside
/// EventFn's inline buffer — so the transport allocates nothing per send
/// (a large payload's box is the sender's one allocation). A
/// deque, deliberately: growth never relocates existing slots, so the
/// reference the delivery dispatches through stays valid even when a
/// receiver's nested send grows the pool; a slot returns to the free list
/// only after delivery returns, so nested sends cannot reuse it
/// mid-dispatch either.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(sim::Simulator& sim) : sim_(sim) {}

  void submit(Envelope&& env, sim::SimTime delay) override {
    const std::uint32_t slot = pool_acquire(std::move(env));
    sim_.after(delay, [this, slot] {
      deliver_(std::move(inflight_[slot]));
      inflight_free_.push_back(slot);
    });
  }

 private:
  std::uint32_t pool_acquire(Envelope&& envelope) {
    if (inflight_free_.empty()) {
      inflight_.push_back(std::move(envelope));
      return static_cast<std::uint32_t>(inflight_.size() - 1);
    }
    const std::uint32_t slot = inflight_free_.back();
    inflight_free_.pop_back();
    inflight_[slot] = std::move(envelope);
    return slot;
  }

  sim::Simulator& sim_;
  std::deque<Envelope> inflight_;
  std::vector<std::uint32_t> inflight_free_;
};

// ---- shared-memory rings ---------------------------------------------------

/// One SPSC byte ring per destination rank; every envelope is encoded with
/// the wire codec, pushed as a sequence-tagged frame, and reconstituted at
/// delivery time. Delivery *scheduling* still rides the simulator event
/// queue with the same latency as kInProcess, and the delivery event names
/// the frame's sequence number: the consumer pops (and decodes) frames
/// until it finds its own, parking early arrivals in a reorder map. Rings
/// therefore deliver in exactly the event-queue order — seeded runs are
/// bit-identical to the in-process oracle, which is the A/B contract the
/// transport tests enforce.
///
/// A frame that does not fit (ring full) spills to a per-destination heap
/// queue, counted in WireStats::ring_spills — overflow degrades to heap
/// buffering instead of dropping or deadlocking. FIFO is preserved: once a
/// destination spills, new frames keep spilling until both ring and spill
/// queue drain.
class ShmRingTransport final : public Transport {
 public:
  ShmRingTransport(sim::Simulator& sim, std::uint32_t procs,
                   std::uint32_t ring_bytes)
      : sim_(sim), ring_bytes_(ring_bytes) {
    lanes_.reserve(procs);
    for (std::uint32_t p = 0; p < procs; ++p) {
      lanes_.push_back(std::make_unique<Lane>());
    }
  }

  void submit(Envelope&& env, sim::SimTime delay) override {
    assert(env.to < lanes_.size());
    Lane& lane = *lanes_[env.to];
    const std::uint64_t seq = lane.next_seq++;

    scratch_.clear();
    const std::uint64_t t0 = now_ns();
    codec::encode_envelope(env, scratch_);
    wire_.encode_ns += now_ns() - t0;
    ++wire_.frames;
    wire_.payload_bytes += scratch_.size();
    wire_.frame_bytes +=
        ShmRing::record_bytes(static_cast<std::uint32_t>(scratch_.size()));

    if (lane.ring == nullptr) lane.ring = std::make_unique<ShmRing>(ring_bytes_);
    // FIFO across the spill boundary: while the spill queue is non-empty
    // the ring receives nothing, so every ring frame predates every
    // spilled one and the consumer can always drain ring-first.
    if (!lane.spill.empty() ||
        !lane.ring->push(seq, scratch_.data(),
                         static_cast<std::uint32_t>(scratch_.size()))) {
      ++wire_.ring_spills;
      lane.spill.push_back(
          ShmRing::Record{seq, {scratch_.begin(), scratch_.end()}});
    }
    const ProcId dest = env.to;
    sim_.after(delay, [this, dest, seq] { deliver_seq(dest, seq); });
  }

 private:
  struct Lane {
    std::unique_ptr<ShmRing> ring;
    std::deque<ShmRing::Record> spill;
    /// Frames popped ahead of their delivery event, parked by sequence.
    std::unordered_map<std::uint64_t, Envelope> reorder;
    std::uint64_t next_seq = 0;
  };

  void deliver_seq(ProcId dest, std::uint64_t seq) {
    Lane& lane = *lanes_[dest];
    const auto parked = lane.reorder.find(seq);
    if (parked != lane.reorder.end()) {
      Envelope env = std::move(parked->second);
      lane.reorder.erase(parked);
      deliver_(std::move(env));
      return;
    }
    ShmRing::Record record;
    while (pop_next(lane, &record)) {
      const std::uint64_t t0 = now_ns();
      Envelope env =
          codec::decode_envelope(record.bytes.data(), record.bytes.size());
      wire_.decode_ns += now_ns() - t0;
      if (record.seq == seq) {
        deliver_(std::move(env));
        return;
      }
      lane.reorder.emplace(record.seq, std::move(env));
    }
    // Every submitted frame has exactly one delivery event, so the frame
    // must exist; reaching here means the ring was corrupted.
    throw std::logic_error("shm transport: frame missing for seq " +
                           std::to_string(seq));
  }

  bool pop_next(Lane& lane, ShmRing::Record* out) {
    if (lane.ring != nullptr && lane.ring->pop(out)) return true;
    if (lane.spill.empty()) return false;
    *out = std::move(lane.spill.front());
    lane.spill.pop_front();
    return true;
  }

  sim::Simulator& sim_;
  std::uint32_t ring_bytes_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace

std::unique_ptr<Transport> make_in_process_transport(sim::Simulator& sim) {
  return std::make_unique<InProcessTransport>(sim);
}

std::unique_ptr<Transport> make_shm_ring_transport(sim::Simulator& sim,
                                                   std::uint32_t procs,
                                                   std::uint32_t ring_bytes) {
  return std::make_unique<ShmRingTransport>(sim, procs, ring_bytes);
}

}  // namespace splice::net
