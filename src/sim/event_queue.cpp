#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace splice::sim {

namespace {
// Min-heap comparator: the heap's top is the earliest (when, seq).
struct OverflowLater {
  bool operator()(const auto& a, const auto& b) const noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;  // FIFO among equal-time events
  }
};
}  // namespace

std::uint32_t EventQueue::acquire_slot(EventFn fn) {
  if (free_slots_.empty()) {
    slots_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t idx = free_slots_.back();
  free_slots_.pop_back();
  slots_[idx] = std::move(fn);
  return idx;
}

// ---------------------------------------------------------------------------
// Occupancy bitmap
// ---------------------------------------------------------------------------

// The size_t casts below intend two's-complement wraparound: `when` is a
// signed tick but the bucket index is its value modulo kWindowSize (a power
// of two), and converting to unsigned before masking makes the modulo
// well-defined for any tick the ring can legally hold.
void EventQueue::set_occupied(std::int64_t when) noexcept {
  const std::size_t j = static_cast<std::size_t>(when) & (kWindowSize - 1);
  occupied_[j >> 6] |= std::uint64_t{1} << (j & 63);
}

void EventQueue::clear_occupied(std::int64_t when) noexcept {
  const std::size_t j = static_cast<std::size_t>(when) & (kWindowSize - 1);
  occupied_[j >> 6] &= ~(std::uint64_t{1} << (j & 63));
}

std::int64_t EventQueue::next_occupied_offset(
    std::int64_t from_offset) const noexcept {
  // Scan in *time* order: offsets map to bucket indices modulo kWindowSize,
  // so the walk is cyclic over the bitmap but monotone in time. Word steps
  // never straddle the array edge because kWindowSize is a multiple of 64.
  // When base_ is not a multiple of 64, the last word read also holds the
  // buckets at the start of the window, which the scan has already passed;
  // callers keep those empty (restore_head starts at scan_offset_, and
  // demote_window clears every bucket it passes).
  std::int64_t off = from_offset;
  while (off < kWindowSize) {
    const std::size_t j =
        static_cast<std::size_t>(base_ + off) & (kWindowSize - 1);
    const std::uint64_t bits = occupied_[j >> 6] >> (j & 63);
    if (bits != 0) {
      const std::int64_t hit = off + std::countr_zero(bits);
      // Invariant: no occupied bucket below scan_offset_, so no wrap hit.
      assert(hit < kWindowSize);
      return hit;
    }
    off += 64 - static_cast<std::int64_t>(j & 63);
  }
  return kWindowSize;
}

// ---------------------------------------------------------------------------
// Window maintenance
// ---------------------------------------------------------------------------

void EventQueue::overflow_push(OverflowEntry entry) {
  overflow_.push_back(entry);
  std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
}

void EventQueue::restore_head() {
  const std::int64_t off = next_occupied_offset(scan_offset_);
  if (off < kWindowSize) {
    scan_offset_ = off;
    head_when_ = base_ + off;
    head_in_window_ = true;
    return;
  }
  // Window drained: every pending event waits in the overflow tier.
  assert(live_ == overflow_.size());
  scan_offset_ = 0;
  span_max_ = base_;
  head_when_ = overflow_[0].when;
  head_in_window_ = false;
}

void EventQueue::migrate_overflow() {
  while (!overflow_.empty() && overflow_[0].when - base_ < kWindowSize) {
    const OverflowEntry top = overflow_[0];
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    overflow_.pop_back();
    bucket_of(top.when).items.push_back(Entry{top.seq, top.slot});
    set_occupied(top.when);
    span_max_ = std::max(span_max_, top.when);
  }
}

void EventQueue::rotate_window() {
  // Only called from run_next when the head sits in the overflow tier: the
  // window is empty, and head_when_ is about to become "now", so no future
  // schedule can legally land below the new base.
  assert(live_ == overflow_.size());
  base_ = head_when_;
  span_max_ = base_;
  scan_offset_ = 0;
  migrate_overflow();  // overflow pops arrive (when, seq)-sorted: FIFO holds
  assert(live_ > overflow_.size());
  head_in_window_ = true;
}

void EventQueue::demote_window() {
  std::int64_t off = 0;
  while ((off = next_occupied_offset(off)) < kWindowSize) {
    Bucket& b = bucket_of(base_ + off);
    for (std::size_t i = b.head; i < b.items.size(); ++i) {
      const Entry& e = b.items[i];
      overflow_push(OverflowEntry{base_ + off, e.seq, e.slot});
    }
    b.items.clear();
    b.head = 0;
    clear_occupied(base_ + off);
    ++off;
  }
  scan_offset_ = 0;
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

void EventQueue::schedule(SimTime when_t, EventFn fn) {
  const std::int64_t when = when_t.ticks();
  if (live_ == 0) {
    base_ = when;
    scan_offset_ = 0;
    span_max_ = when;
  } else if (when < base_) {
    // Below the window base (only legal from a standalone queue that was
    // anchored by a later first event). Slide the base down when the window
    // span still fits — the modulo bucket mapping means nothing moves — or,
    // in the degenerate wide-span case, spill the window into the overflow
    // heap and migrate back what fits around the new base.
    if (span_max_ - when < kWindowSize) {
      base_ = when;
      scan_offset_ = 0;
    } else {
      demote_window();
      base_ = when;
      span_max_ = when;
      migrate_overflow();
    }
  }

  const std::uint64_t seq = ++seq_counter_;
  const std::uint32_t slot = acquire_slot(std::move(fn));
  if (when - base_ < kWindowSize) {
    bucket_of(when).items.push_back(Entry{seq, slot});
    set_occupied(when);
    span_max_ = std::max(span_max_, when);
    if (live_ == 0 || when < head_when_) {
      head_when_ = when;
      head_in_window_ = true;
      scan_offset_ = when - base_;
    }
  } else {
    overflow_push(OverflowEntry{when, seq, slot});
    if (when < head_when_) {  // live_ > 0: an empty queue anchored at `when`
      head_when_ = when;
      head_in_window_ = false;
    }
  }
  ++live_;
}

SimTime EventQueue::next_time() const {
  assert(live_ > 0);
  return SimTime(head_when_);
}

SimTime EventQueue::run_next(SimTime* clock) {
  assert(live_ > 0 && "run_next on empty queue");
  if (!head_in_window_) rotate_window();
  Bucket& b = bucket_of(head_when_);
  assert(b.head < b.items.size());
  const std::uint32_t slot = b.items[b.head++].slot;
  EventFn fn = std::move(slots_[slot]);  // leaves the slot empty
  free_slots_.push_back(slot);
  --live_;
  const SimTime when{head_when_};
  if (b.head == b.items.size()) {
    b.items.clear();
    b.head = 0;
    clear_occupied(head_when_);
  }
  if (clock != nullptr) *clock = when;
  // Re-establish the head *before* running: the callback may schedule new
  // events, and schedule() compares against the head. The base does not
  // move here, so a callback scheduling at the just-popped time (== now)
  // still lands in the window.
  if (live_ > 0) restore_head();
  fn();
  return when;
}

}  // namespace splice::sim
