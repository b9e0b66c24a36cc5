#include "core/simulation.h"

#include <stdexcept>

namespace splice::core {

Simulation::Simulation(SystemConfig config, lang::Program program)
    : config_(std::move(config)), program_(std::move(program)) {
  program_.validate();
}

Simulation::~Simulation() = default;

RunResult Simulation::run() {
  if (ran_) throw std::logic_error("Simulation::run may be called once");
  ran_ = true;

  sim_ = std::make_unique<sim::Simulator>();
  if (config_.parallel.engine()) {
    // Sharded (PDES) driver: the Network shapes envelopes exactly as on the
    // classic path but hands them to the engine's router instead of a
    // transport. Triggered faults are rejected here because their firing
    // order depends on the classic global event order.
    if (!fault_plan_.triggered.empty()) {
      throw std::invalid_argument(
          "parallel engine: triggered faults need the classic event order");
    }
    network_ = std::make_unique<net::Network>(
        *sim_, net::Topology(config_.topology, config_.processors),
        config_.latency, net::Network::RouterMode{config_.parallel.shards});
  } else {
    std::unique_ptr<net::Transport> transport;  // null = in-process default
    switch (config_.transport.backend) {
      case net::TransportKind::kInProcess:
        break;
      case net::TransportKind::kShmRing:
        transport = net::make_shm_ring_transport(
            *sim_, config_.processors, config_.transport.shm_ring_bytes);
        break;
      case net::TransportKind::kTcp:
        // TCP spans OS processes; a single-process Simulation cannot host it.
        throw std::invalid_argument(
            "Simulation::run cannot drive the tcp transport; use the "
            "splice_noded multi-process driver");
    }
    network_ = std::make_unique<net::Network>(
        *sim_, net::Topology(config_.topology, config_.processors),
        config_.latency, std::move(transport));
  }
  runtime_ = std::make_unique<runtime::Runtime>(*sim_, *network_, config_,
                                                program_);
  if (config_.parallel.engine()) {
    engine_ = std::make_unique<runtime::PdesEngine>(*runtime_, *network_,
                                                    config_);
    network_->set_router(*engine_);
    runtime_->set_engine(engine_.get());
  }
  runtime_->set_warm_rejoin(fault_plan_.rejoin.enabled &&
                            fault_plan_.rejoin.mode == net::RejoinMode::kWarm);
  injector_ = std::make_unique<net::FaultInjector>(
      *sim_, *network_, fault_plan_,
      [this](net::ProcId dead) { runtime_->on_kill(dead); },
      [this](net::ProcId back) { runtime_->on_revive(back); });
  injector_->set_on_heal([this](const std::vector<net::ProcId>& side) {
    runtime_->on_partition_heal(side);
  });
  if (!fault_plan_.triggered.empty()) {
    runtime_->set_trigger_sink(
        [this](const std::string& name) { injector_->fire_trigger(name); });
  }

  // Reference answer: the determinacy oracle (§2.1). Memoized per program —
  // replicate sweeps and clean-makespan twin runs share one interpreter walk.
  const lang::ReferenceCache& ref = lang::cached_reference(program_);
  const lang::EvalStats& ref_stats = ref.stats;
  const lang::Value& expected = ref.answer;

  std::int64_t deadline = config_.deadline_ticks;
  if (deadline <= 0) {
    // Generous auto-bound: sequential work, fully serialised on one node,
    // times a recovery headroom factor.
    const std::int64_t serial =
        static_cast<std::int64_t>(ref_stats.total_work) * kOpCost +
        static_cast<std::int64_t>(ref_stats.calls) *
            (kSpawnCost + 4 * config_.latency.base + 40);
    deadline = 1000000 + serial * 50;
  }

  injector_->arm();
  if (runtime_->recorder().enabled()) {
    // Journal link-level chaos milestones at the moment they bite. The
    // injector resolved partition windows (including seeded heal draws) at
    // arm() time, so these schedules are deterministic per (plan, seed) and
    // identical across transport backends.
    obs::Recorder& rec = runtime_->recorder();
    for (const auto& cut : injector_->armed_partitions()) {
      const obs::Recorder::Fields fields{
          .proc = cut.side.empty() ? net::kNoProc : cut.side.front(),
          .arg = static_cast<std::uint64_t>(cut.side.size())};
      sim_->at(cut.start, [this, &rec, fields] {
        rec.record(sim_->now(), obs::EventKind::kPartition, fields);
      });
      if (cut.heal != sim::SimTime::max()) {
        sim_->at(cut.heal, [this, &rec, fields] {
          rec.record(sim_->now(), obs::EventKind::kHeal, fields);
        });
      }
    }
    for (const auto& gray : injector_->plan().grays) {
      sim_->at(gray.start, [this, &rec, node = gray.node] {
        rec.record(sim_->now(), obs::EventKind::kGray, {.proc = node});
      });
    }
  }
  runtime_->start();
  sim::SimTime end_time;
  if (engine_ != nullptr) {
    engine_->run(sim::SimTime(deadline));
    engine_->merge_journals();
    end_time = engine_->horizon();
  } else {
    sim_->run_until(sim::SimTime(deadline));
    end_time = sim_->now();
  }

  RunResult result =
      runtime_->collect(end_time, injector_->kills_executed());
  // The injector records the first kill that actually executed — with
  // regional/cascade/recurring plans the earliest *scheduled* entry may
  // target an already-dead node and never fire.
  result.first_failure_ticks = injector_->first_kill_ticks();
  result.nodes_revived = injector_->revives_executed();
  result.answer_checked = true;
  result.answer_correct = result.completed && result.answer == expected;
  return result;
}

std::int64_t Simulation::fault_free_makespan(const SystemConfig& config,
                                             const lang::Program& program) {
  // Only the makespan is read: nobody reads the twin's journal.
  SystemConfig clean = config;
  clean.obs.recorder = false;
  Simulation twin(clean, program);
  const RunResult result = twin.run();
  return result.makespan_ticks;
}

const obs::Recorder& Simulation::recorder() const {
  if (!runtime_) throw std::logic_error("recorder: run() first");
  return runtime_->recorder();
}

RunResult run_once(const SystemConfig& config, const lang::Program& program,
                   const net::FaultPlan& plan) {
  Simulation simulation(config, program);
  simulation.set_fault_plan(plan);
  return simulation.run();
}

}  // namespace splice::core
