// Message envelope.
//
// Packet kinds mirror the paper's protocol loop (§4.2): task packets,
// forward-result, fetch-data, error-detection — plus the plumbing the paper
// assumes implicitly: spawn acknowledgements (Fig. 6 states b/c), delivery-
// failure notifications (best-effort send + timeout, §1), heartbeats, load
// updates for the gradient scheduler (modelled, never sent: the runtime
// books their count at run end), and checkpoint-transfer for the
// periodic-global baseline.
//
// Payloads are a *closed* variant over the concrete protocol message types,
// not std::any: receivers dispatch with std::visit/std::get, and adding a
// kind without a payload alternative is a compile-time error at the
// construction site instead of a bad_any_cast at delivery time. The variant
// is sized for the small signals (error detection, heartbeats, rejoin,
// control, state requests: at most 16 bytes, inline, zero
// allocations). The five large payloads — task packets, acks, results,
// cancels and state chunks — live out of line behind Boxed<T>, one
// allocation per send, so an envelope is 48 bytes (320 with them inline).
// That matters when envelopes pile up. While a partition stands, every
// error-detection notice across the cut bounces (§1: unreachable is
// faulty) and waits at its sender for the heal: on perfbench's
// `partition-heal` 8.2k-9.5k envelopes are in flight, parked or held at
// the peak of a run, and a run bounces ~8.9k times, so bounces are not a
// cold path. The recursive case — a delivery-failure notice carries the
// lost envelope — is boxed through EnvelopeBox, one 48-byte allocation per
// bounce.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "net/topology.h"
#include "runtime/task_packet.h"
#include "sim/time.h"
#include "store/state_transfer.h"
#include "util/boxed.h"

namespace splice::net {

enum class MsgKind : std::uint8_t {
  kTaskPacket,       // parent spawns child (carries TaskPacket payload)
  kSpawnAck,         // child's host acknowledges the spawn (Fig. 6 state c)
  kForwardResult,    // child returns its value (level-stamped, §4.2)
  kFetchData,        // demand for a remote datum (§4.2 "fetch data")
  kDataReply,        // answer to kFetchData
  kErrorDetection,   // "processors P... are faulty" notification (§4.2)
  kDeliveryFailure,  // network tells sender the destination is unreachable
  kHeartbeat,        // liveness probe (optional detector)
  kLoadUpdate,       // gradient-model pressure exchange (booked, not sent)
  kCheckpointXfer,   // periodic-global baseline state transfer
  kRejoinNotice,     // repaired processor announces it is back
  kStateRequest,     // warm rejoiner asks peers for state held against it
  kStateChunk,       // bounded slice of checkpoints + liveness (transfer)
  kCancel,           // abort a duplicate task lineage (subtree-scoped)
  kControl,          // runtime-internal control (super-root start, etc.)
};

inline constexpr std::size_t kMsgKindCount = 15;

[[nodiscard]] std::string_view to_string(MsgKind kind) noexcept;

struct Envelope;

/// Heap box for the recursive delivery-failure payload (the notice carries
/// the envelope that could not be delivered). Move-only, nothrow-movable.
class EnvelopeBox {
 public:
  EnvelopeBox() noexcept;
  explicit EnvelopeBox(Envelope&& env);
  EnvelopeBox(EnvelopeBox&&) noexcept;
  EnvelopeBox& operator=(EnvelopeBox&&) noexcept;
  EnvelopeBox(const EnvelopeBox&) = delete;
  EnvelopeBox& operator=(const EnvelopeBox&) = delete;
  ~EnvelopeBox();

  [[nodiscard]] Envelope& operator*() noexcept { return *boxed_; }
  [[nodiscard]] const Envelope& operator*() const noexcept { return *boxed_; }
  [[nodiscard]] Envelope* operator->() noexcept { return boxed_.get(); }
  [[nodiscard]] const Envelope* operator->() const noexcept {
    return boxed_.get();
  }
  [[nodiscard]] bool has_value() const noexcept { return boxed_ != nullptr; }

 private:
  std::unique_ptr<Envelope> boxed_;
};

/// Owning, deep-copying heap cell for a large payload (util/boxed.h).
using util::Boxed;

/// The closed set of wire payloads, one alternative per payload-bearing
/// MsgKind (monostate covers the kinds that are pure signals). Keep this in
/// sync with MsgKind: receivers std::get the alternative keyed by `kind`.
using Payload = std::variant<std::monostate,
                             Boxed<runtime::TaskPacket>,     // kTaskPacket
                             Boxed<runtime::AckMsg>,         // kSpawnAck
                             Boxed<runtime::ResultMsg>,      // kForwardResult
                             runtime::ErrorMsg,              // kErrorDetection
                             runtime::HeartbeatMsg,          // kHeartbeat
                             runtime::RejoinMsg,             // kRejoinNotice
                             runtime::ControlMsg,            // kControl
                             Boxed<runtime::CancelMsg>,      // kCancel
                             store::StateRequestMsg,         // kStateRequest
                             Boxed<store::StateChunkMsg>,    // kStateChunk
                             EnvelopeBox>;                   // kDeliveryFailure

/// An in-flight message. `payload` is owned; receivers std::get the
/// concrete payload alternative keyed by `kind`. Envelopes are move-only:
/// delivery hands each message through the network exactly once, and the
/// type system now proves no path copies one.
struct Envelope {
  MsgKind kind = MsgKind::kControl;
  ProcId from = kNoProc;
  ProcId to = kNoProc;
  /// Abstract size in "data units"; scales transfer latency.
  std::uint32_t size_units = 1;
  sim::SimTime sent_at;
  Payload payload;

  Envelope() = default;
  Envelope(Envelope&&) = default;
  Envelope& operator=(Envelope&&) = default;
  Envelope(const Envelope&) = delete;
  Envelope& operator=(const Envelope&) = delete;
};

// The scheduler-facing guarantee: envelopes relocate (through the event
// queue, the in-flight pool, and receiver dispatch) without throwing and
// without copying.
static_assert(std::is_nothrow_move_constructible_v<Envelope>);
static_assert(std::is_nothrow_move_assignable_v<Envelope>);
static_assert(!std::is_copy_constructible_v<Envelope>);
// Envelopes park in transport pools, backoff slots and bounce boxes by the
// hundred thousand; only the small signals may stay inline.
static_assert(sizeof(Envelope) <= 48);

/// The variant index of the payload alternative each kind carries
/// (monostate for the pure-signal kinds). This is the single kind→payload
/// table shared by the wire codec (encode/decode), the dispatch assert in
/// Processor::handle, and the round-trip tests — a new MsgKind that is not
/// added here fails the static_assert below, and a new payload alternative
/// without a kind fails the codec's exhaustive visit.
[[nodiscard]] constexpr std::size_t payload_index_of(MsgKind kind) noexcept {
  switch (kind) {
    case MsgKind::kTaskPacket:      return 1;
    case MsgKind::kSpawnAck:        return 2;
    case MsgKind::kForwardResult:   return 3;
    case MsgKind::kFetchData:       return 0;
    case MsgKind::kDataReply:       return 0;
    case MsgKind::kErrorDetection:  return 4;
    case MsgKind::kDeliveryFailure: return 11;
    case MsgKind::kHeartbeat:       return 5;
    case MsgKind::kLoadUpdate:      return 0;
    case MsgKind::kCheckpointXfer:  return 0;
    case MsgKind::kRejoinNotice:    return 6;
    case MsgKind::kStateRequest:    return 9;
    case MsgKind::kStateChunk:      return 10;
    case MsgKind::kCancel:          return 8;
    case MsgKind::kControl:         return 7;
  }
  return 0;
}

// Pin the table to the variant layout: renumbering Payload without
// updating payload_index_of is a compile error, not a wire corruption.
static_assert(std::variant_size_v<Payload> == 12);
static_assert(std::is_same_v<std::variant_alternative_t<1, Payload>,
                             Boxed<runtime::TaskPacket>>);
static_assert(std::is_same_v<std::variant_alternative_t<2, Payload>,
                             Boxed<runtime::AckMsg>>);
static_assert(std::is_same_v<std::variant_alternative_t<3, Payload>,
                             Boxed<runtime::ResultMsg>>);
static_assert(std::is_same_v<std::variant_alternative_t<4, Payload>,
                             runtime::ErrorMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<5, Payload>,
                             runtime::HeartbeatMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<6, Payload>,
                             runtime::RejoinMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<7, Payload>,
                             runtime::ControlMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<8, Payload>,
                             Boxed<runtime::CancelMsg>>);
static_assert(std::is_same_v<std::variant_alternative_t<9, Payload>,
                             store::StateRequestMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<10, Payload>,
                             Boxed<store::StateChunkMsg>>);
static_assert(std::is_same_v<std::variant_alternative_t<11, Payload>,
                             EnvelopeBox>);

/// Does the envelope's payload alternative match its declared kind?
/// (Debug-assert guard at the dispatch and encode boundaries.)
[[nodiscard]] inline bool payload_consistent(MsgKind kind,
                                             const Payload& payload) noexcept {
  return payload.index() == payload_index_of(kind);
}

}  // namespace splice::net
