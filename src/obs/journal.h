// The recovery flight recorder: a typed, binary, ring-buffered journal of
// protocol events.
//
// The paper's recovery argument (§4.1) is about *causal* chains — spawn →
// checkpoint → crash → detect → reissue → cancel — and this journal is that
// argument made inspectable: every recovery-relevant protocol action is one
// fixed-shape Event carrying sim-time, processor, level stamp, task uid and
// a causal parent reference (the event that made this one happen). It is
// the only record of a run's protocol events: the figure walkthroughs
// render it line by line (obs::render_event), tests assert on its kinds and
// fields, and the causal query engine (obs/causal.h), the Perfetto exporter
// (obs/export.h) and the splice_trace CLI all read it.
//
// Cost discipline:
//  * recorder off (the default, and every throughput bench): record() is a
//    single predictable branch — no allocation, no stamp copy;
//  * recorder on: a record is one ring-slot write plus the metrics feed
//    (the ring overwrites the oldest entry once full and counts the drop;
//    until then it grows a chunk at a time, so memory follows the events
//    recorded, not the capacity).
//    Cause edges cost nothing here: snapshot() infers them when the
//    journal is read.
//
// Determinism: the journal is a pure function of (config, program, fault
// plan, seed) — the same run journals byte-identical event streams on the
// in-process and shm-ring transports (tests/obs_test.cpp A/Bs the
// serialized bytes, the same discipline transport_test.cpp applies to
// counters). Causal linking is one forward pass over the retained events
// in id order with keyed lookups only, never container iteration order;
// in a wrapped ring an event links only to retained events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "net/topology.h"
#include "obs/metrics.h"
#include "runtime/level_stamp.h"
#include "sim/time.h"

namespace splice::obs {

/// Monotone 1-based journal event id; 0 = "no event" (absent cause).
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

/// The event taxonomy. One entry per protocol action worth explaining; the
/// comment after each kind gives its to_string() name.
enum class EventKind : std::uint8_t {
  // Task lifecycle.
  kPlace = 0,     // packet accepted, task resident ("place")
  kSpawn,         // DEMAND_IT sent a child packet ("spawn")
  kCheckpoint,    // functional checkpoint recorded ("checkpoint"); arg 1
                  // when an ancestor's checkpoint subsumes it (§3.2)
  kComplete,      // task reduced to a value ("complete")
  kAbort,         // task reclaimed/aborted ("abort")
  // Faults and detection.
  kCrash,         // processor failed, fail-silent ("crash")
  kDetect,        // observer learned a peer is dead ("detect")
  kRevive,        // fault injector repaired a node ("revive")
  kRejoin,        // the repaired node reinitialised itself ("rejoin")
  kPeerRejoin,    // observer learned a peer is back ("peer-rejoin")
  // Recovery actions.
  kReissue,       // checkpoint reissued ("reissue")
  kTwin,          // splice step-parent spawned ("twin")
  kRelay,         // grandparent relayed an orphan result ("relay")
  kSalvage,       // relayed orphan result consumed ("salvage")
  kAckOfCorpse,   // ack addressed a gone parent instance ("ack-of-corpse")
  kCancel,        // kCancel issued against a duplicate ("cancel")
  kStranded,      // orphan result with no ancestor left ("stranded")
  kDefer,         // warm rejoin deferred a reissue ("defer")
  kGraceExpired,  // warm grace ran out, cold reissue ("grace-expired")
  kOracleLeak,    // gc oracle saw a duplicate outlive cancel ("oracle-leak")
  // Warm-rejoin state transfer (store subsystem).
  kStateChunk,    // survivor streamed a state chunk ("state-chunk")
  kTransferIn,    // packet re-hosted from a chunk ("transfer-in")
  kPreLink,       // re-hosted slot awaits a surviving orphan ("pre-link")
  kCatchUp,       // state transfer complete ("catch-up")
  // Link-level chaos (armed fault plan, scheduled alongside the injector).
  kPartition,     // a cut came up ("partition")
  kHeal,          // the cut healed ("heal")
  kGray,          // a gray failure window opened ("gray")
  // Host channel / run milestones.
  kInjectRoot,    // super-root injected the root program ("inject-root")
  kDone,          // the answer reached the super-root ("done")
  // Periodic-global baseline.
  kSnapshot,      // coordinated global snapshot ("snapshot")
  kRestore,       // global restore after a failure ("restore")
  kUnpark,        // parked subtree resumed on rejoin ("unpark")
  kParkExpired,   // park grace ran out ("park-expired")
  kCount
};

inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kCount);

[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;

/// One journal entry. Fixed shape; every field is optional except (ticks,
/// kind) — absent processors are net::kNoProc, absent uids are 0, an empty
/// stamp means "not stamp-addressed", cause 0 means "root cause / unknown".
struct Event {
  EventId id = kNoEvent;
  std::int64_t ticks = 0;
  EventKind kind = EventKind::kPlace;
  net::ProcId proc = net::kNoProc;  // the acting processor
  net::ProcId peer = net::kNoProc;  // the other party (dest, dead node, ...)
  std::uint64_t uid = 0;            // task uid when the event names one
  EventId cause = kNoEvent;         // causal parent; only snapshot() fills it
  runtime::LevelStamp stamp;        // lineage identity (§3.1)
  std::uint64_t arg = 0;            // kind-specific scalar (latency, count)
};

/// The dump format's version: a dump stores each EventKind by number, so
/// it is bumped whenever the numbering changes.
inline constexpr std::uint32_t kJournalVersion = 2;

/// Journal dump header (what serialize() writes before the events).
struct JournalHeader {
  std::uint32_t version = kJournalVersion;
  std::uint32_t rank = 0;        // multi-process rank; 0 single-process
  std::uint32_t processors = 0;  // machine size of the run
  std::uint64_t total_recorded = 0;  // includes events the ring dropped
  std::uint64_t dropped = 0;         // overwritten-oldest count
};

/// A deserialized (or snapshotted) journal: header + events in id order.
struct Journal {
  JournalHeader header;
  std::vector<Event> events;

  /// Index of an event by id, or nullptr when the ring dropped it.
  [[nodiscard]] const Event* find(EventId id) const;
};

/// The serialized journal's magic prefix ("SPLJ").
inline constexpr char kJournalMagic[4] = {'S', 'P', 'L', 'J'};

/// Throws std::runtime_error when two consecutive events' ticks differ by
/// more than int64 can hold.
[[nodiscard]] std::vector<std::uint8_t> serialize(const Journal& journal);
/// Throws std::runtime_error on a malformed dump.
[[nodiscard]] Journal deserialize(const std::uint8_t* data, std::size_t size);

class Recorder {
 public:
  /// Optional fields of a record() call, aggregate-initialisable at the
  /// hook sites: {.proc = id_, .uid = uid, .stamp = &stamp}.
  struct Fields {
    net::ProcId proc = net::kNoProc;
    net::ProcId peer = net::kNoProc;
    std::uint64_t uid = 0;
    const runtime::LevelStamp* stamp = nullptr;
    std::uint64_t arg = 0;
  };

  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// `capacity` bounds the ring (entries). Nothing is allocated up front:
  /// the ring grows a chunk at a time as it fills.
  void configure(bool enabled, std::uint32_t capacity);
  void set_rank(std::uint32_t rank) noexcept { header_rank_ = rank; }
  void set_processors(std::uint32_t n) noexcept { header_procs_ = n; }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a typed event. Returns its id (kNoEvent when disabled).
  EventId record(sim::SimTime t, EventKind kind, const Fields& fields) {
    if (!enabled_) return kNoEvent;
    return record_slow(t, kind, fields);
  }

  /// Ring + drop introspection (unit tests; stats lines).
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return next_id_ - 1;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Visit retained events oldest-first. Fn: void(const Event&) — every
  /// cause is kNoEvent: only snapshot() fills causes.
  template <typename Fn>
  void for_each(Fn fn) const {
    const std::size_t n = size_;
    for (std::size_t i = 0; i < n; ++i) fn(slot((head_ + i) % n));
  }

  /// Copy the retained window out as a Journal (id order) and infer each
  /// event's cause from the retained events before it.
  [[nodiscard]] Journal snapshot() const;

  /// The time-series metrics registry riding along with the journal.
  [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

 private:
  /// Events per ring chunk (88 KB of Events): a short run pays for the
  /// events it records, not for the whole capacity.
  static constexpr std::size_t kChunkEvents = 1024;

  EventId record_slow(sim::SimTime t, EventKind kind, const Fields& fields);
  [[nodiscard]] Event& slot(std::size_t i) noexcept {
    return chunks_[i / kChunkEvents][i % kChunkEvents];
  }
  [[nodiscard]] const Event& slot(std::size_t i) const noexcept {
    return chunks_[i / kChunkEvents][i % kChunkEvents];
  }

  bool enabled_ = false;
  std::uint32_t capacity_ = 0;
  std::uint32_t header_rank_ = 0;
  std::uint32_t header_procs_ = 0;
  // The ring proper: one fixed-size Event per record, kept in chunks of
  // kChunkEvents (the last one cut to the capacity) that are allocated as
  // the ring first fills and reused once it wraps.
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::size_t size_ = 0;  // retained events
  std::size_t head_ = 0;  // index of the oldest retained slot once full
  EventId next_id_ = 1;
  std::uint64_t dropped_ = 0;
  Metrics metrics_;
};

}  // namespace splice::obs
