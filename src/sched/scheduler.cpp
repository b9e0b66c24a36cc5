#include "sched/scheduler.h"

#include <algorithm>

#include "sched/gradient.h"

namespace splice::sched {

Scheduler::DestVec Scheduler::choose_replicas(
    net::ProcId origin, const runtime::TaskPacket& packet,
    std::uint32_t count) {
  DestVec out;
  out.reserve(count);
  // Prefer distinct destinations; fall back to duplicates when fewer alive
  // processors exist than replicas requested.
  for (std::uint32_t attempt = 0; attempt < count * 8 && out.size() < count;
       ++attempt) {
    const net::ProcId p = choose(origin, packet);
    if (p == net::kNoProc) break;
    if (std::find(out.begin(), out.end(), p) == out.end()) {
      out.push_back(p);
    }
  }
  while (out.size() < count && !out.empty()) out.push_back(out[0]);
  return out;
}

void RandomScheduler::attach(const SchedulerEnv& env) {
  Scheduler::attach(env);
  seed_streams(origin_rng_, rng_, 0xA11CE);
}

net::ProcId RandomScheduler::choose(net::ProcId origin,
                                    const runtime::TaskPacket& packet) {
  const net::ProcId n = proc_count();
  util::Xoshiro256& rng = stream(origin_rng_, rng_, origin);
  // Rejection-sample eligible processors; bounded fallback scans (first
  // eligible, then merely alive-from-origin — the zone constraint is soft).
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto p = static_cast<net::ProcId>(rng.next_below(n));
    if (ok(origin, p, packet)) return p;
  }
  for (net::ProcId p = 0; p < n; ++p) {
    if (ok(origin, p, packet)) return p;
  }
  for (net::ProcId p = 0; p < n; ++p) {
    if (alive(origin, p)) return p;
  }
  return net::kNoProc;
}

void RoundRobinScheduler::attach(const SchedulerEnv& env) {
  Scheduler::attach(env);
  cursor_ = 0;
  origin_cursor_.clear();
  if (env_.sharded) {
    // Per-origin cursors start one past the origin so the first spawn from p
    // probes p+1 — the same neighbourly spread the shared cursor produces.
    origin_cursor_.resize(proc_count());
    for (net::ProcId p = 0; p < proc_count(); ++p) {
      origin_cursor_[p] = (p + 1) % std::max<net::ProcId>(proc_count(), 1);
    }
  }
}

net::ProcId RoundRobinScheduler::choose(net::ProcId origin,
                                        const runtime::TaskPacket& packet) {
  const net::ProcId n = proc_count();
  net::ProcId& cursor =
      origin < origin_cursor_.size() ? origin_cursor_[origin] : cursor_;
  for (net::ProcId step = 0; step < n; ++step) {
    const net::ProcId p = (cursor + step) % n;
    if (ok(origin, p, packet)) {
      cursor = (p + 1) % n;
      return p;
    }
  }
  for (net::ProcId step = 0; step < n; ++step) {
    const net::ProcId p = (cursor + step) % n;
    if (alive(origin, p)) {
      cursor = (p + 1) % n;
      return p;
    }
  }
  return net::kNoProc;
}

void LocalFirstScheduler::attach(const SchedulerEnv& env) {
  Scheduler::attach(env);
  seed_streams(origin_rng_, rng_, 0x10CA1);
}

net::ProcId LocalFirstScheduler::choose(net::ProcId origin,
                                        const runtime::TaskPacket& packet) {
  util::Xoshiro256& rng = stream(origin_rng_, rng_, origin);
  if (ok(origin, origin, packet) && load_of(origin) < kThreshold) {
    return origin;
  }
  // Push to the least-loaded eligible neighbour.
  net::ProcId best = net::kNoProc;
  std::uint32_t best_load = UINT32_MAX;
  if (env_.topology != nullptr && origin < proc_count()) {
    for (net::ProcId q : env_.topology->neighbors(origin)) {
      if (!ok(origin, q, packet)) continue;
      const std::uint32_t l = load_of(q);
      if (l < best_load) {
        best_load = l;
        best = q;
      }
    }
  }
  if (best != net::kNoProc &&
      (best_load < kThreshold || !ok(origin, origin, packet))) {
    return best;
  }
  if (ok(origin, origin, packet)) return origin;
  // Constrained elsewhere (zone) or origin dead: any eligible node, then
  // any alive node.
  const net::ProcId n = proc_count();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto p = static_cast<net::ProcId>(rng.next_below(n));
    if (ok(origin, p, packet)) return p;
  }
  for (net::ProcId p = 0; p < n; ++p) {
    if (ok(origin, p, packet)) return p;
  }
  for (net::ProcId p = 0; p < n; ++p) {
    if (alive(origin, p)) return p;
  }
  return net::kNoProc;
}

net::ProcId NeighborScheduler::choose(net::ProcId origin,
                                      const runtime::TaskPacket& packet) {
  // Least-loaded among self and immediate neighbours (Grit [6] confines
  // spawning to the neighbourhood; diffusion happens hop by hop).
  net::ProcId best = net::kNoProc;
  std::uint32_t best_load = UINT32_MAX;
  auto consider = [&](net::ProcId p) {
    if (!ok(origin, p, packet)) return;
    const std::uint32_t l = load_of(p);
    if (l < best_load) {
      best_load = l;
      best = p;
    }
  };
  if (origin < proc_count()) {
    consider(origin);
    for (net::ProcId q : env_.topology->neighbors(origin)) consider(q);
  }
  if (best != net::kNoProc) return best;
  // Whole neighbourhood dead/ineligible: any alive processor (the dynamic
  // allocator's escape hatch Grit provides via static recovery sites).
  for (net::ProcId p = 0; p < proc_count(); ++p) {
    if (ok(origin, p, packet)) return p;
  }
  for (net::ProcId p = 0; p < proc_count(); ++p) {
    if (alive(origin, p)) return p;
  }
  return net::kNoProc;
}

void PinnedScheduler::attach(const SchedulerEnv& env) {
  Scheduler::attach(env);
  seed_streams(origin_rng_, rng_, 0x919);
}

net::ProcId PinnedScheduler::choose(net::ProcId origin,
                                    const runtime::TaskPacket& packet) {
  const net::ProcId n = proc_count();
  util::Xoshiro256& rng = stream(origin_rng_, rng_, origin);
  if (env_.program != nullptr) {
    const auto pin = env_.program->function(packet.fn).pinned_processor;
    if (pin >= 0 && static_cast<net::ProcId>(pin) < n &&
        alive(origin, static_cast<net::ProcId>(pin))) {
      return static_cast<net::ProcId>(pin);
    }
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto p = static_cast<net::ProcId>(rng.next_below(n));
    if (ok(origin, p, packet)) return p;
  }
  for (net::ProcId p = 0; p < n; ++p) {
    if (alive(origin, p)) return p;
  }
  return net::kNoProc;
}

std::unique_ptr<Scheduler> make_scheduler(const core::SchedulerConfig& config) {
  switch (config.kind) {
    case core::SchedulerKind::kRandom:
      return std::make_unique<RandomScheduler>();
    case core::SchedulerKind::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case core::SchedulerKind::kLocalFirst:
      return std::make_unique<LocalFirstScheduler>();
    case core::SchedulerKind::kPinned:
      return std::make_unique<PinnedScheduler>();
    case core::SchedulerKind::kGradient:
      return std::make_unique<GradientScheduler>(config.gradient_refresh);
    case core::SchedulerKind::kNeighbor:
      return std::make_unique<NeighborScheduler>();
  }
  return std::make_unique<RandomScheduler>();
}

}  // namespace splice::sched
