#include "sched/gradient.h"

#include <algorithm>

namespace splice::sched {

namespace {
/// Proximity of unreachable/no-sink regions; acts like "infinity".
constexpr std::uint32_t kFarAway = UINT32_MAX / 2;
}  // namespace

void GradientScheduler::attach(const SchedulerEnv& env) {
  Scheduler::attach(env);
  seed_streams(origin_rng_, rng_, 0x96AD);
  proximity_.assign(proc_count(), 0);
  last_refresh_ = sim::SimTime(-1);
}

void GradientScheduler::refresh_now() {
  const net::ProcId n = proc_count();
  proximity_.assign(n, kFarAway);
  // Sinks: alive processors at or below the idle threshold.
  for (net::ProcId p = 0; p < n; ++p) {
    if (alive(p) && load_of(p) <= kIdleThreshold) proximity_[p] = 0;
  }
  // Bellman-Ford style relaxation over the neighbour graph. The diameter
  // bounds the iteration count.
  const std::uint32_t rounds = env_.topology->diameter() + 1;
  for (std::uint32_t round = 0; round < rounds; ++round) {
    bool changed = false;
    for (net::ProcId p = 0; p < n; ++p) {
      if (!alive(p)) continue;
      std::uint32_t best = proximity_[p];
      for (net::ProcId q : env_.topology->neighbors(p)) {
        if (!alive(q)) continue;
        best = std::min(best, proximity_[q] == kFarAway ? kFarAway
                                                        : proximity_[q] + 1);
      }
      if (best < proximity_[p]) {
        proximity_[p] = best;
        changed = true;
      }
    }
    if (!changed) break;
  }
}

std::uint64_t GradientScheduler::on_tick(sim::SimTime now) {
  if (last_refresh_.ticks() >= 0 &&
      (now - last_refresh_).ticks() < refresh_ticks_) {
    return 0;
  }
  last_refresh_ = now;
  refresh_now();
  // Traffic accounting: one pressure exchange per directed edge.
  std::uint64_t messages = 0;
  for (net::ProcId p = 0; p < proc_count(); ++p) {
    if (alive(p)) messages += env_.topology->neighbors(p).size();
  }
  return messages;
}

net::ProcId GradientScheduler::choose(net::ProcId origin,
                                      const runtime::TaskPacket& packet) {
  const net::ProcId n = proc_count();
  util::Xoshiro256& rng = stream(origin_rng_, rng_, origin);
  // Lazy first refresh mutates the shared field, so it must not happen on a
  // sharded worker thread; the engine primes the field with on_tick(0)
  // before the workers start, making this a coordinator-only path.
  if (proximity_.size() != n || last_refresh_.ticks() < 0) refresh_now();

  if (ok(origin, origin, packet)) {
    // A lightly loaded node keeps its own spawn: no suction beats local.
    if (load_of(origin) <= kIdleThreshold) return origin;
    // Push one hop down the gradient. Ties break uniformly at random so
    // parallel branches spread.
    net::ProcId best = origin;
    std::uint32_t best_prox =
        proximity_[origin] == 0 ? kFarAway : proximity_[origin];
    std::uint32_t ties = 1;
    for (net::ProcId q : env_.topology->neighbors(origin)) {
      if (!ok(origin, q, packet)) continue;
      if (proximity_[q] < best_prox) {
        best_prox = proximity_[q];
        best = q;
        ties = 1;
      } else if (proximity_[q] == best_prox && best != origin) {
        ++ties;
        if (rng.next_below(ties) == 0) best = q;
      }
    }
    return best;
  }

  // Origin ineligible (zone-constrained replica or dead host): route to
  // the least-loaded eligible node anywhere, then any alive node.
  net::ProcId best = net::kNoProc;
  std::uint32_t best_load = UINT32_MAX;
  for (net::ProcId p = 0; p < n; ++p) {
    if (!ok(origin, p, packet)) continue;
    const std::uint32_t l = load_of(p);
    if (l < best_load) {
      best_load = l;
      best = p;
    }
  }
  if (best != net::kNoProc) return best;
  for (net::ProcId p = 0; p < n; ++p) {
    if (alive(origin, p)) return p;
  }
  return net::kNoProc;
}

}  // namespace splice::sched
