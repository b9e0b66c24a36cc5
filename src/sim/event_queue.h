// Discrete-event queue: two-tier ladder (calendar) structure.
//
// Events at equal times fire in insertion order (a monotone sequence number
// breaks ties), which is what makes whole-system replay deterministic. The
// pop order is exactly lexicographic (time, sequence) — identical to the
// binary-heap implementation this replaced; tests/event_queue_ladder_test.cpp
// drives both against each other on randomized schedule/pop workloads to
// prove it.
//
// Every scheduled event fires: there is no cancellation. A component that
// may no longer want its timer checks a flag or an incarnation number when
// the timer fires, the same way the protocol never retracts a message.
//
// Structure:
//  * a near-future window of kWindowSize one-tick buckets covering
//    [base, base + kWindowSize): schedule and pop are O(1) amortized, and
//    FIFO-within-timestamp is free because a bucket is a single timestamp
//    and entries only ever append;
//  * a sorted overflow tier (binary min-heap over (time, seq)) for events
//    beyond the window. When the window drains, the next pop re-anchors the
//    window at the earliest overflow event and migrates everything that now
//    fits — overflow pops arrive sorted, so bucket order stays FIFO.
//
// Callbacks live in a slot table recycled through a free list: a slot is
// freed the moment its event fires, so callback memory is bounded by
// *pending* events, not by the total ever scheduled.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inplace_function.h"
#include "sim/time.h"

namespace splice::sim {

class EventQueue {
 public:
  /// Width of the near-future window in ticks (one bucket per tick).
  static constexpr std::int64_t kWindowSize = 4096;

  /// Schedule fn at absolute time `when`; it will fire.
  void schedule(SimTime when, EventFn fn);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  /// Earliest pending event time. Requires !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Pop and run the earliest event. Requires !empty().
  /// `clock`, when non-null, is set to the event's time *before* the
  /// callback runs, so the callback observes the advanced clock.
  /// Returns the time the event fired at.
  SimTime run_next(SimTime* clock = nullptr);

  [[nodiscard]] std::uint64_t total_scheduled() const noexcept {
    return seq_counter_;
  }

  /// Callback slots currently allocated (bounded by peak pending events).
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slots_.size();
  }

 private:
  struct Entry {          // window tier: `when` is implied by the bucket
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct OverflowEntry {  // overflow tier: explicit time
    std::int64_t when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Bucket {
    std::vector<Entry> items;
    std::size_t head = 0;  // popped prefix
  };

  [[nodiscard]] Bucket& bucket_of(std::int64_t when) noexcept {
    return buckets_[static_cast<std::size_t>(when) & (kWindowSize - 1)];
  }

  std::uint32_t acquire_slot(EventFn fn);
  void overflow_push(OverflowEntry entry);

  /// Re-establish the head after a pop: the first occupied bucket at or
  /// after scan_offset_, else the overflow top. Never moves the window base.
  void restore_head();
  /// Pop every overflow entry that fits the current window into its
  /// bucket; pops arrive (when, seq)-sorted so FIFO order is preserved.
  void migrate_overflow();
  /// Re-anchor the window at the overflow head and migrate everything that
  /// fits. Only called from run_next, when the fire time becomes "now" —
  /// so the base never advances past a time that could still be scheduled.
  void rotate_window();
  /// Move every queued window entry to the overflow tier (rare: schedule
  /// below the window base while the window spans too much to just slide).
  void demote_window();

  void set_occupied(std::int64_t when) noexcept;
  void clear_occupied(std::int64_t when) noexcept;
  /// First occupied bucket at window offset >= `from_offset`, scanning in
  /// time order (cyclic over the bucket array). Returns kWindowSize if none.
  [[nodiscard]] std::int64_t next_occupied_offset(
      std::int64_t from_offset) const noexcept;

  std::vector<Bucket> buckets_{static_cast<std::size_t>(kWindowSize)};
  std::vector<std::uint64_t> occupied_ =
      std::vector<std::uint64_t>(static_cast<std::size_t>(kWindowSize / 64), 0);
  std::vector<OverflowEntry> overflow_;  // binary min-heap over (when, seq)

  std::vector<EventFn> slots_;
  std::vector<std::uint32_t> free_slots_;

  std::int64_t base_ = 0;          // window covers [base_, base_ + kWindowSize)
  std::int64_t scan_offset_ = 0;   // no occupied bucket below this offset
  std::int64_t span_max_ = 0;      // max `when` currently in the window
  std::int64_t head_when_ = 0;     // earliest event (valid iff live_ > 0)
  bool head_in_window_ = false;

  std::size_t live_ = 0;  // pending events; overflow_.size() of them overflow
  std::uint64_t seq_counter_ = 0;
};

}  // namespace splice::sim
