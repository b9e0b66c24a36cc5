// Pluggable message-delivery substrate.
//
// The Network used to *be* the delivery mechanism: an in-process mailbox
// wired to the simulator's event queue. That conflated two layers the
// recovery literature keeps separate — protocol semantics (best-effort
// send, bounce-on-dead, latency model, per-kind stats) and the substrate
// that moves bytes. Transport is the substrate interface; the Network
// keeps the semantics and drives whichever backend it is given:
//
//   backend      bytes on a wire?  processes   delivery order
//   kInProcess   no (zero-copy)    1           event queue (oracle)
//   kShmRing     yes (ring+codec)  1..N        event queue, seq-matched —
//                                              bit-identical to kInProcess
//   kTcp         yes (sockets)     N           real network; sim time paced
//                                              to wall clock by the driver
//
// A submitted envelope is OWNED by the transport until it invokes the
// deliver callback (at delivery time, with the envelope — possibly
// reconstituted from bytes — moved into the protocol loop) or the
// unreachable callback (the backend discovered the destination is gone;
// the Network turns that into the §1 bounce).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "net/message.h"
#include "sim/simulator.h"

namespace splice::net {

enum class TransportKind : std::uint8_t {
  kInProcess,  // pooled mailbox, no serialization (the deterministic oracle)
  kShmRing,    // per-destination shared-memory ring buffers + wire codec
  kTcp,        // real sockets, one OS process per rank (or group of ranks)
};

[[nodiscard]] std::string_view to_string(TransportKind kind) noexcept;
/// Parse "inproc" / "shm" / "tcp" (also accepts the to_string names).
/// Throws std::invalid_argument on anything else.
[[nodiscard]] TransportKind parse_transport(std::string_view name);

/// Serialization-side counters, kept by backends that put envelopes on a
/// byte surface (all zero for kInProcess). frames/payload_bytes drive the
/// bytes-per-event tables; encode_ns/decode_ns the ns-per-message ones.
/// encode_ns and decode_ns are estimates: one frame in
/// FrameClock::kSampleEvery is timed and counts that many times over
/// (FrameClock below). Every other field is an exact count.
struct WireStats {
  std::uint64_t frames = 0;         // envelopes serialized
  std::uint64_t payload_bytes = 0;  // encoded envelope bytes (unframed)
  std::uint64_t frame_bytes = 0;    // on-wire bytes incl. length prefixes
  std::uint64_t encode_ns = 0;      // sampled, see above
  std::uint64_t decode_ns = 0;      // sampled, see above
  std::uint64_t ring_spills = 0;    // frames that overflowed a full ring
};

/// The clock behind WireStats::encode_ns/decode_ns. A clock read costs about
/// as much as encoding a small frame, so only one frame in kSampleEvery
/// reads it, and that frame's time counts kSampleEvery times. The first
/// frame is always timed, so a run with any frame reports a nonzero time.
class FrameClock {
 public:
  static constexpr std::uint32_t kSampleEvery = 16;

  /// Call before a frame's encode or decode.
  void start() noexcept {
    sampled_ = frames_++ % kSampleEvery == 0;
    if (sampled_) started_ = std::chrono::steady_clock::now();
  }
  /// Call after it: adds the scaled time of a sampled frame to `total_ns`.
  void stop(std::uint64_t& total_ns) const noexcept {
    if (!sampled_) return;
    const auto took = std::chrono::steady_clock::now() - started_;
    total_ns += kSampleEvery *
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(took)
                        .count());
  }

 private:
  std::chrono::steady_clock::time_point started_;
  std::uint32_t frames_ = 0;
  bool sampled_ = false;
};

class Transport {
 public:
  using DeliverFn = std::function<void(Envelope&&)>;
  using UnreachableFn = std::function<void(Envelope&&)>;

  virtual ~Transport() = default;

  /// Does this OS process host rank `p`? Single-process backends host
  /// every rank; TCP hosts exactly its own.
  [[nodiscard]] virtual bool local(ProcId p) const noexcept {
    (void)p;
    return true;
  }

  /// True when ranks are spread over multiple OS processes (the runtime
  /// pins the root program and the host channel to rank 0 in that case).
  [[nodiscard]] virtual bool distributed() const noexcept { return false; }

  /// Take ownership of `env` and deliver it to env.to after `delay` sim
  /// ticks (real backends substitute their own wire latency for remote
  /// destinations). The deliver callback must be installed first.
  virtual void submit(Envelope&& env, sim::SimTime delay) = 0;

  /// Drain externally-arrived frames (sockets). No-op for in-sim backends.
  /// Returns the number of envelopes delivered.
  virtual std::size_t poll() { return 0; }

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_unreachable(UnreachableFn fn) { unreachable_ = std::move(fn); }

  [[nodiscard]] const WireStats& wire() const noexcept { return wire_; }

 protected:
  DeliverFn deliver_;
  UnreachableFn unreachable_;
  WireStats wire_;
};

/// Today's pooled mailbox: zero-copy, no allocation of its own in steady
/// state, and the deterministic A/B oracle the byte backends are validated
/// against.
[[nodiscard]] std::unique_ptr<Transport> make_in_process_transport(
    sim::Simulator& sim);

/// Shared-memory ring-buffer backend: every envelope round-trips through
/// the wire codec into a per-destination SPSC byte ring. Delivery times and
/// order are identical to kInProcess (frames carry a sequence number; the
/// delivery event claims exactly its own frame), so seeded runs produce
/// identical RunResults — the determinism A/B contract.
[[nodiscard]] std::unique_ptr<Transport> make_shm_ring_transport(
    sim::Simulator& sim, std::uint32_t procs, std::uint32_t ring_bytes);

}  // namespace splice::net
