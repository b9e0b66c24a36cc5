#include "sim/simulator.h"

#include <cassert>

namespace splice::sim {

void Simulator::at(SimTime when, EventFn fn) {
  assert(when >= now_ && "cannot schedule into the past");
  queue_.schedule(when, std::move(fn));
}

void Simulator::after(SimTime delay, EventFn fn) {
  assert(delay.ticks() >= 0);
  queue_.schedule(now_ + delay, std::move(fn));
}

bool Simulator::run_until(SimTime deadline) {
  while (!queue_.empty()) {
    if (queue_.next_time() > deadline) return false;
    run_one();
  }
  return true;
}

void Simulator::advance_to(SimTime t) noexcept {
  if (!queue_.empty() && queue_.next_time() < t) t = queue_.next_time();
  if (t > now_) now_ = t;
}

}  // namespace splice::sim
