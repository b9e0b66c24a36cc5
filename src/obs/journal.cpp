#include "obs/journal.h"

#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "net/codec.h"
#include "util/small_vec.h"

namespace splice::obs {

namespace {

// One name per EventKind, in enum order: what render_event, the Perfetto
// exporter and `splice_trace stats` print for each kind.
// The array bound pins the entry *count*; the lint marker additionally
// requires every enumerator to be named in the block, so a new kind cannot
// silently value-initialize an empty name at the end of the table.
// splice-lint: exhaustive(EventKind)
constexpr std::string_view kKindNames[kEventKindCount] = {
    "place",          // kPlace
    "spawn",          // kSpawn
    "checkpoint",     // kCheckpoint
    "complete",       // kComplete
    "abort",          // kAbort
    "crash",          // kCrash
    "detect",         // kDetect
    "revive",         // kRevive
    "rejoin",         // kRejoin
    "peer-rejoin",    // kPeerRejoin
    "reissue",        // kReissue
    "twin",           // kTwin
    "relay",          // kRelay
    "salvage",        // kSalvage
    "ack-of-corpse",  // kAckOfCorpse
    "cancel",         // kCancel
    "stranded",       // kStranded
    "defer",          // kDefer
    "grace-expired",  // kGraceExpired
    "oracle-leak",    // kOracleLeak
    "state-chunk",    // kStateChunk
    "transfer-in",    // kTransferIn
    "pre-link",       // kPreLink
    "catch-up",       // kCatchUp
    "partition",      // kPartition
    "heal",           // kHeal
    "gray",           // kGray
    "inject-root",    // kInjectRoot
    "done",           // kDone
    "snapshot",       // kSnapshot
    "restore",        // kRestore
    "unpark",         // kUnpark
    "park-expired",   // kParkExpired
};

template <typename Map, typename Key>
EventId lookup(const Map& map, const Key& key) {
  auto it = map.find(key);
  return it == map.end() ? kNoEvent : it->second;
}

// A dump is outside input (splice_trace --in FILE): a 32-bit field whose
// varint does not fit is malformed, never silently truncated.
std::uint32_t narrow(std::uint64_t value, const char* what) {
  if (value > UINT32_MAX) {
    throw std::runtime_error(std::string("journal: ") + what +
                             " out of range");
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

std::string_view to_string(EventKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < kEventKindCount ? kKindNames[index] : "?";
}

const Event* Journal::find(EventId id) const {
  if (id == kNoEvent || events.empty()) return nullptr;
  // Retained ids are consecutive (the ring keeps the newest window), so
  // lookup is an offset from the first event.
  const EventId first = events.front().id;
  if (id < first || id >= first + events.size()) return nullptr;
  return &events[static_cast<std::size_t>(id - first)];
}

void Recorder::configure(bool enabled, std::uint32_t capacity) {
  enabled_ = enabled && capacity > 0;
  capacity_ = capacity;
  slots_.clear();
  if (enabled_) slots_.reserve(capacity_);
  head_ = 0;
  next_id_ = 1;
  dropped_ = 0;
  metrics_.clear();
}

EventId Recorder::record_slow(sim::SimTime t, EventKind kind,
                              const Fields& fields) {
  // Claim the ring slot first and build the Event in place: the ring is
  // large and cache-cold, so one pass over the destination lines beats a
  // local Event plus a copy.
  Event* slot;
  if (slots_.size() < capacity_) {
    slot = &slots_.emplace_back();
  } else {
    // Ring full: overwrite the oldest retained slot and count the drop.
    slot = &slots_[head_];
    head_ = (head_ + 1) % slots_.size();
    ++dropped_;
  }
  Event& event = *slot;
  event.id = next_id_++;
  event.ticks = t.ticks();
  event.kind = kind;
  event.proc = fields.proc;
  event.peer = fields.peer;
  event.uid = fields.uid;
  if (fields.stamp != nullptr) {
    event.stamp = *fields.stamp;
  } else {
    event.stamp = runtime::LevelStamp{};  // reused slots must not leak one
  }
  event.arg = fields.arg;

  // Metrics feed: spawn/complete drive the goodput window, completion
  // carries spawn→complete latency in arg.
  if (kind == EventKind::kPlace) {
    metrics_.on_task_spawn();
  } else if (kind == EventKind::kComplete) {
    metrics_.on_task_complete(fields.arg);
  }
  return event.id;
}

namespace {

// The causal linker. It reads a journal forward in id order: cause_of()
// names the retained event that made this one happen, then learn() files
// the event under the keys later events look it up by. It sees only what
// the ring retained, so an event never links to an overwritten id.
class Linker {
 public:
  [[nodiscard]] EventId cause_of(const Event& e) const;
  void learn(const Event& e);

 private:
  using StampMap = std::unordered_map<runtime::LevelStamp, EventId,
                                      runtime::LevelStamp::Hash>;
  /// Stamp-keyed link; an event with an empty stamp is not stamp-addressed.
  [[nodiscard]] static EventId by_stamp(const StampMap& map, const Event& e) {
    return e.stamp.is_root() ? kNoEvent : lookup(map, e.stamp);
  }

  std::unordered_map<net::ProcId, EventId> fault_of_;   // crash per proc
  std::unordered_map<net::ProcId, EventId> detect_by_;  // last detect BY p
  std::unordered_map<net::ProcId, EventId> rejoin_of_;  // rejoin per proc
  // Place event per uid, erased once the task completes or aborts.
  std::unordered_map<std::uint64_t, EventId> place_of_;
  StampMap reissue_of_;  // last reissue/twin/spawn per stamp
  StampMap cancel_of_;   // last cancel per stamp
  StampMap relay_of_;    // last relay per stamp
  EventId last_fault_ = kNoEvent;      // most recent crash/partition/gray
  EventId last_partition_ = kNoEvent;  // most recent partition (heal cause)
};

EventId Linker::cause_of(const Event& e) const {
  switch (e.kind) {
    case EventKind::kPlace:
      // The packet that placed this task came from a spawn, reissue or
      // twin addressed at the same stamp.
      return by_stamp(reissue_of_, e);
    case EventKind::kSpawn:
    case EventKind::kCheckpoint:
    case EventKind::kComplete:
    case EventKind::kOracleLeak:
      return lookup(place_of_, e.uid);
    case EventKind::kAbort:
      if (EventId c = by_stamp(cancel_of_, e); c != kNoEvent) return c;
      return lookup(place_of_, e.uid);
    case EventKind::kCrash:
    case EventKind::kPartition:
    case EventKind::kGray:
      return kNoEvent;  // root causes
    case EventKind::kHeal:
      return last_partition_;
    case EventKind::kDetect:
      if (EventId c = lookup(fault_of_, e.peer); c != kNoEvent) return c;
      return last_fault_;
    case EventKind::kTwin:
    case EventKind::kReissue:
    case EventKind::kRelay:
      if (EventId c = lookup(detect_by_, e.proc); c != kNoEvent) return c;
      return last_fault_;
    case EventKind::kCancel:
      if (EventId c = by_stamp(reissue_of_, e); c != kNoEvent) return c;
      return lookup(detect_by_, e.proc);
    case EventKind::kSalvage:
    case EventKind::kStranded:
      if (EventId c = by_stamp(relay_of_, e); c != kNoEvent) return c;
      return last_fault_;
    case EventKind::kAckOfCorpse:
      if (EventId c = lookup(place_of_, e.uid); c != kNoEvent) return c;
      return last_fault_;
    case EventKind::kDefer:
    case EventKind::kGraceExpired:
    case EventKind::kParkExpired:
      if (EventId c = lookup(fault_of_, e.peer); c != kNoEvent) return c;
      return last_fault_;
    case EventKind::kRevive:
      return lookup(fault_of_, e.proc);
    case EventKind::kRejoin:
      // Chains revive → rejoin when the injector journaled the repair.
      if (EventId c = lookup(rejoin_of_, e.proc); c != kNoEvent) return c;
      return lookup(fault_of_, e.proc);
    case EventKind::kStateChunk:
    case EventKind::kPeerRejoin:
      return lookup(rejoin_of_, e.peer);
    case EventKind::kTransferIn:
    case EventKind::kPreLink:
    case EventKind::kCatchUp:
      return lookup(rejoin_of_, e.proc);
    case EventKind::kUnpark:
      if (EventId c = lookup(rejoin_of_, e.peer); c != kNoEvent) return c;
      return lookup(rejoin_of_, e.proc);
    case EventKind::kRestore:
      return last_fault_;
    // Run milestones are causal roots: nothing upstream explains them.
    // Exhaustive by SPL003 and -Wswitch-enum — a 34th EventKind must pick
    // its causal-inference rule here explicitly, not inherit "no cause".
    case EventKind::kInjectRoot:
    case EventKind::kDone:
    case EventKind::kSnapshot:
    case EventKind::kCount:
      return kNoEvent;
  }
  return kNoEvent;
}

void Linker::learn(const Event& e) {
  switch (e.kind) {
    case EventKind::kCrash:
      fault_of_[e.proc] = e.id;
      last_fault_ = e.id;
      break;
    case EventKind::kPartition:
      last_fault_ = e.id;
      last_partition_ = e.id;
      break;
    case EventKind::kGray:
      last_fault_ = e.id;
      break;
    case EventKind::kDetect:
      detect_by_[e.proc] = e.id;
      break;
    case EventKind::kSpawn:
    case EventKind::kTwin:
    case EventKind::kReissue:
      reissue_of_[e.stamp] = e.id;
      break;
    case EventKind::kPlace:
      if (e.uid != 0) place_of_[e.uid] = e.id;
      break;
    case EventKind::kComplete:
    case EventKind::kAbort:
      // Uids are never reused, so forget the placement: a stale one can
      // never be relinked.
      place_of_.erase(e.uid);
      break;
    case EventKind::kCancel:
      cancel_of_[e.stamp] = e.id;
      break;
    case EventKind::kRelay:
      relay_of_[e.stamp] = e.id;
      break;
    case EventKind::kRevive:
    case EventKind::kRejoin:
      rejoin_of_[e.proc] = e.id;
      break;
    // Kinds that feed no linker map. Exhaustive by SPL003 and
    // -Wswitch-enum: a new EventKind must state here that nothing links
    // *through* it (it can still be linked *from*, via cause_of).
    case EventKind::kCheckpoint:
    case EventKind::kPeerRejoin:
    case EventKind::kSalvage:
    case EventKind::kAckOfCorpse:
    case EventKind::kStranded:
    case EventKind::kDefer:
    case EventKind::kGraceExpired:
    case EventKind::kOracleLeak:
    case EventKind::kStateChunk:
    case EventKind::kTransferIn:
    case EventKind::kPreLink:
    case EventKind::kCatchUp:
    case EventKind::kHeal:
    case EventKind::kInjectRoot:
    case EventKind::kDone:
    case EventKind::kSnapshot:
    case EventKind::kRestore:
    case EventKind::kUnpark:
    case EventKind::kParkExpired:
    case EventKind::kCount:
      break;
  }
}

}  // namespace

Journal Recorder::snapshot() const {
  Journal journal;
  journal.header.rank = header_rank_;
  journal.header.processors = header_procs_;
  journal.header.total_recorded = total_recorded();
  journal.header.dropped = dropped_;
  journal.events.reserve(slots_.size());
  Linker linker;
  for_each([&](const Event& event) {
    Event& linked = journal.events.emplace_back(event);
    linked.cause = linker.cause_of(linked);
    linker.learn(linked);
  });
  return journal;
}

std::vector<std::uint8_t> serialize(const Journal& journal) {
  std::vector<std::uint8_t> out;
  out.reserve(32 + journal.events.size() * 12);
  for (const char c : kJournalMagic) out.push_back(static_cast<std::uint8_t>(c));
  {
    net::codec::Writer w(out);
    w.varint(journal.header.version);
    w.varint(journal.header.rank);
    w.varint(journal.header.processors);
    w.varint(journal.header.total_recorded);
    w.varint(journal.header.dropped);
    w.varint(journal.events.size());
    // Ids are consecutive in a snapshot, ticks nondecreasing: both delta-
    // encode to ~1 byte. Proc ids shift by one so kNoProc encodes as 0.
    EventId prev_id = 0;
    std::int64_t prev_ticks = 0;
    for (const Event& e : journal.events) {
      w.varint(e.id - prev_id);
      prev_id = e.id;
      // Nondecreasing ticks may still span more than int64 can hold (a merge
      // of dumps from either end of the range).
      std::int64_t tick_delta = 0;
      if (__builtin_sub_overflow(e.ticks, prev_ticks, &tick_delta)) {
        throw std::runtime_error("journal: tick span out of range");
      }
      w.svarint(tick_delta);
      prev_ticks = e.ticks;
      w.u8(static_cast<std::uint8_t>(e.kind));
      w.varint(e.proc == net::kNoProc ? 0 : std::uint64_t{e.proc} + 1);
      w.varint(e.peer == net::kNoProc ? 0 : std::uint64_t{e.peer} + 1);
      w.varint(e.uid);
      w.varint(e.cause);
      w.varint(e.arg);
      w.varint(e.stamp.depth());
      for (const runtime::StampDigit digit : e.stamp) w.varint(digit);
    }
  }  // the Writer trims its slack off `out` here
  return out;
}

Journal deserialize(const std::uint8_t* data, std::size_t size) {
  if (size < 4 || std::memcmp(data, kJournalMagic, 4) != 0) {
    throw std::runtime_error("journal: bad magic (not an SPLJ dump)");
  }
  net::codec::Reader r(data + 4, size - 4);
  Journal journal;
  journal.header.version = narrow(r.varint(), "version");
  if (journal.header.version != kJournalVersion) {
    throw std::runtime_error("journal: unsupported version");
  }
  journal.header.rank = narrow(r.varint(), "rank");
  journal.header.processors = narrow(r.varint(), "processors");
  journal.header.total_recorded = r.varint();
  journal.header.dropped = r.varint();
  const std::uint64_t count = r.varint();
  if (count > size) {  // each event is >= 1 byte; cheap sanity bound
    throw std::runtime_error("journal: event count exceeds dump size");
  }
  journal.events.reserve(static_cast<std::size_t>(count));
  EventId prev_id = 0;
  std::int64_t prev_ticks = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Event e;
    e.id = prev_id + r.varint();
    prev_id = e.id;
    // Each delta is in range; their running sum may not be.
    if (__builtin_add_overflow(prev_ticks, r.svarint(), &e.ticks)) {
      throw std::runtime_error("journal: tick out of range");
    }
    prev_ticks = e.ticks;
    const std::uint8_t kind = r.u8();
    if (kind >= kEventKindCount) {
      throw std::runtime_error("journal: unknown event kind");
    }
    e.kind = static_cast<EventKind>(kind);
    const std::uint64_t proc = r.varint();
    e.proc = proc == 0 ? net::kNoProc : narrow(proc - 1, "proc");
    const std::uint64_t peer = r.varint();
    e.peer = peer == 0 ? net::kNoProc : narrow(peer - 1, "peer");
    e.uid = r.varint();
    e.cause = r.varint();
    e.arg = r.varint();
    const std::uint64_t depth = r.varint();
    if (depth > 4096) throw std::runtime_error("journal: stamp too deep");
    util::SmallVec<runtime::StampDigit, runtime::LevelStamp::kInlineDepth>
        digits;
    for (std::uint64_t d = 0; d < depth; ++d) {
      digits.push_back(narrow(r.varint(), "stamp digit"));
    }
    e.stamp = runtime::LevelStamp(std::span(digits.data(), digits.size()));
    journal.events.push_back(e);
  }
  if (!r.done()) throw std::runtime_error("journal: trailing bytes");
  return journal;
}

}  // namespace splice::obs
