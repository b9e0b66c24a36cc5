// The simulation driver: owns the clock and the event queue.
//
// Components schedule work via after()/at(); run_until() drives the loop.
// Everything is single-threaded and deterministic for a given seed.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace splice::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule at an absolute time (must be >= now()). Every scheduled
  /// event fires; there is no cancellation.
  void at(SimTime when, EventFn fn);

  /// Schedule `delay` ticks from now.
  void after(SimTime delay, EventFn fn);

  /// Run until the queue drains or the clock passes `deadline`.
  /// Returns true if the queue drained (normal completion).
  bool run_until(SimTime deadline = SimTime::max());

  /// Advance the clock to `t` without running anything, clamped so it never
  /// jumps past the next pending event. Used by real-time drivers (TCP
  /// multi-process mode) to pace simulated time against the wall clock
  /// between poll() rounds: run_until(deadline) leaves now() at the last
  /// event executed, not at the deadline.
  void advance_to(SimTime t) noexcept;

  /// Time of the earliest pending event; SimTime::max() when idle. The PDES
  /// window driver peeks this to decide whether the next event is inside the
  /// current time window.
  [[nodiscard]] SimTime next_event_time() const noexcept {
    return queue_.empty() ? SimTime::max() : queue_.next_time();
  }

  /// Pop and run exactly one event (precondition: !idle()). The PDES window
  /// driver interleaves sim events with shard-op execution at matching
  /// timestamps, so it needs single-step granularity run_until can't give.
  void run_one() {
    queue_.run_next(&now_);
    ++events_executed_;
  }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }
  /// Scheduled events not yet fired — the queue-depth gauge the flight
  /// recorder's metrics sampler reads.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.pending();
  }

 private:
  EventQueue queue_;
  SimTime now_;
  std::uint64_t events_executed_ = 0;
};

}  // namespace splice::sim
