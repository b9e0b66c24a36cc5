#include "net/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace splice::net {

namespace {
// Stream tags keep cascade, Poisson, and partition-heal draws independent
// of each other and of plan-seed reuse elsewhere in the simulator.
constexpr std::uint64_t kCascadeStream = 0xCA5CADE000000000ULL;
constexpr std::uint64_t kPoissonStream = 0x9015500000000000ULL;
constexpr std::uint64_t kHealStream = 0x4EA1000000000000ULL;

// Plans arrive machine-independent (often from the scenario DSL); the
// machine size is only known here. Reject out-of-range targets before they
// reach Topology::hops / Network::kill.
void check_target(ProcId target, ProcId machine, const char* what) {
  if (target >= machine) {
    throw std::invalid_argument(
        std::string("fault plan: ") + what + " P" + std::to_string(target) +
        " outside machine of " + std::to_string(machine) + " processors");
  }
}
}  // namespace

FaultInjector::FaultInjector(sim::Simulator& simulator, Network& network,
                             FaultPlan plan,
                             std::function<void(ProcId)> on_kill,
                             std::function<void(ProcId)> on_revive)
    : sim_(simulator),
      network_(network),
      plan_(std::move(plan)),
      on_kill_(std::move(on_kill)),
      on_revive_(std::move(on_revive)),
      triggered_done_(plan_.triggered.size(), false) {}

void FaultInjector::expand_plan() {
  const Topology& topology = network_.topology();
  for (const TimedFault& fault : plan_.timed) {
    check_target(fault.target, topology.size(), "timed target");
  }
  for (const TriggeredFault& fault : plan_.triggered) {
    check_target(fault.target, topology.size(), "triggered target");
  }
  for (const CascadeFault& wave : plan_.cascades) {
    check_target(wave.seed, topology.size(), "cascade seed");
  }
  for (const RecurringFault& arrivals : plan_.recurring) {
    for (ProcId candidate : arrivals.candidates) {
      check_target(candidate, topology.size(), "poisson candidate");
    }
  }
  schedule_ = plan_.timed;

  for (const RegionalFault& fault : plan_.regional) {
    for (ProcId p : fault.region.resolve(topology)) {
      schedule_.push_back({p, fault.when});
    }
  }

  for (std::size_t i = 0; i < plan_.cascades.size(); ++i) {
    const CascadeFault& wave = plan_.cascades[i];
    util::Xoshiro256 rng(util::hash_combine(plan_.seed, kCascadeStream + i));
    schedule_.push_back({wave.seed, wave.when});
    double p_kill = wave.probability;
    for (std::uint32_t h = 1; h <= wave.max_hops; ++h) {
      const sim::SimTime when = wave.when + wave.stagger * h;
      // Ascending node order makes the draw sequence — and therefore the
      // whole wave — a pure function of (plan seed, topology).
      for (ProcId p = 0; p < topology.size(); ++p) {
        if (p == wave.seed || topology.hops(wave.seed, p) != h) continue;
        if (rng.next_bool(p_kill)) schedule_.push_back({p, when});
      }
      p_kill *= wave.decay;
    }
  }

  for (std::size_t i = 0; i < plan_.recurring.size(); ++i) {
    const RecurringFault& arrivals = plan_.recurring[i];
    util::Xoshiro256 rng(util::hash_combine(plan_.seed, kPoissonStream + i));
    std::int64_t t = arrivals.start.ticks();
    for (std::uint32_t n = 0; n < arrivals.max_faults; ++n) {
      const double gap = rng.next_exponential(arrivals.mean_interval);
      t += std::max<std::int64_t>(1, std::llround(gap));
      if (sim::SimTime(t) >= arrivals.stop) break;
      const ProcId victim =
          arrivals.candidates.empty()
              ? static_cast<ProcId>(rng.next_below(topology.size()))
              : arrivals.candidates[rng.next_below(
                    arrivals.candidates.size())];
      schedule_.push_back({victim, sim::SimTime(t)});
    }
  }
}

void FaultInjector::arm_link_faults() {
  if (!plan_.has_link_faults()) return;
  const Topology& topology = network_.topology();
  for (const LinkQuality& q : plan_.links) {
    if (q.src != kNoProc) check_target(q.src, topology.size(), "link src");
    if (q.dst != kNoProc) check_target(q.dst, topology.size(), "link dst");
  }
  for (const GraySpec& g : plan_.grays) {
    check_target(g.node, topology.size(), "gray node");
  }

  auto model = std::make_unique<LinkFaultModel>(plan_.seed, topology.size());
  for (std::size_t i = 0; i < plan_.partitions.size(); ++i) {
    const PartitionSpec& spec = plan_.partitions[i];
    ArmedPartition armed;
    armed.side = spec.side.resolve(topology);
    armed.start = spec.at;
    if (spec.heal_mean > 0.0) {
      // Probabilistic heal: the delay is drawn here, once, from the plan
      // seed — the armed window is as deterministic as a scheduled one.
      util::Xoshiro256 rng(util::hash_combine(plan_.seed, kHealStream + i));
      armed.heal = spec.at + sim::SimTime(std::max<std::int64_t>(
                                 1, std::llround(rng.next_exponential(
                                        spec.heal_mean))));
    } else if (spec.heal_after.ticks() > 0) {
      armed.heal = spec.at + spec.heal_after;
    } else {
      armed.heal = sim::SimTime::max();
    }
    model->add_partition(armed.side, armed.start, armed.heal);
    if (armed.heal != sim::SimTime::max()) {
      sim_.at(armed.heal, [this, side = armed.side] {
        if (on_heal_) on_heal_(side);
      });
    }
    partitions_.push_back(std::move(armed));
  }
  for (const LinkQuality& q : plan_.links) model->add_link(q);
  for (const GraySpec& g : plan_.grays) model->add_gray(g);
  network_.set_link_faults(std::move(model));
}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  expand_plan();
  arm_link_faults();
  for (const TimedFault& fault : schedule_) {
    sim_.at(fault.when, [this, target = fault.target] { kill_now(target); });
  }
}

void FaultInjector::fire_trigger(const std::string& name) {
  for (std::size_t i = 0; i < plan_.triggered.size(); ++i) {
    if (triggered_done_[i] || plan_.triggered[i].trigger != name) continue;
    triggered_done_[i] = true;
    const TriggeredFault& fault = plan_.triggered[i];
    if (fault.delay.ticks() <= 0) {
      kill_now(fault.target);
    } else {
      sim_.after(fault.delay,
                 [this, target = fault.target] { kill_now(target); });
    }
  }
}

void FaultInjector::kill_now(ProcId target) {
  if (!network_.alive(target)) return;
  network_.kill(target);
  kill_times_.push_back(sim_.now());
  if (on_kill_) on_kill_(target);
  if (plan_.rejoin.enabled) {
    sim_.after(plan_.rejoin.delay,
               [this, target] { revive_now(target); });
  }
}

void FaultInjector::revive_now(ProcId target) {
  if (network_.alive(target)) return;
  network_.revive(target);
  revive_times_.push_back(sim_.now());
  if (on_revive_) on_revive_(target);
}

}  // namespace splice::net
