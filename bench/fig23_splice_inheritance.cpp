// E2 — Figures 2 & 3: grandparent pointers and step-parent inheritance.
//
// Replays the Figure-1 tree under splice recovery, kills B mid-run, and
// prints the protocol narrative: error detection, B2' creation by C (the
// grandparent C1 duplicating B2's retained packet), and the relay of
// orphan results (D4's return travels D -> C1 -> B2').
#include <cstdio>

#include "bench/harness.h"
#include "obs/causal.h"

using namespace splice;

int main(int argc, char** argv) {
  const bench::Options opt = bench::Options::parse(argc, argv);

  core::SystemConfig cfg;
  cfg.processors = 4;
  cfg.topology = net::TopologyKind::kComplete;
  cfg.scheduler.kind = core::SchedulerKind::kPinned;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 800;
  cfg.obs.recorder = true;

  const lang::Program program = lang::programs::figure1_tree(2500);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);

  core::Simulation sim(cfg, program);
  sim.set_fault_plan(net::FaultPlan::single(/*B=*/1, sim::SimTime(makespan / 2)));
  const core::RunResult r = sim.run();

  auto pname = [](net::ProcId p) {
    return p == net::kNoProc ? std::string("host")
                             : std::string(1, static_cast<char>('A' + p));
  };

  util::Table events({"proc", "task", "journal event"});
  events.set_title("Figs. 2/3 — splice recovery narrative (B dies mid-run)");
  using K = obs::EventKind;
  for (const obs::Event& e : sim.recorder().snapshot().events) {
    if (e.kind != K::kCrash && e.kind != K::kDetect && e.kind != K::kTwin &&
        e.kind != K::kRelay && e.kind != K::kSalvage &&
        e.kind != K::kReissue && e.kind != K::kStranded) {
      continue;
    }
    events.add_row(
        {pname(e.proc), bench::task_name(program, e), obs::render_event(e)});
  }
  bench::emit(events, opt);

  util::Table summary({"metric", "value"});
  summary.set_title("Figs. 2/3 — inheritance summary");
  summary.add_row({"completed & correct",
                   r.completed && r.answer_correct ? "yes" : "NO"});
  summary.add_row({"step-parent twins created",
                   util::Table::num(r.counters.twins_created)});
  summary.add_row({"orphan results relayed by grandparents",
                   util::Table::num(r.counters.results_relayed)});
  summary.add_row({"orphan results salvaged into twins",
                   util::Table::num(r.counters.orphan_results_salvaged)});
  summary.add_row({"duplicate results ignored (cases 6/7)",
                   util::Table::num(r.counters.duplicate_results_ignored)});
  summary.add_row({"late results discarded (case 8)",
                   util::Table::num(r.counters.late_results_discarded)});
  bench::emit(summary, opt);
  return r.completed && r.answer_correct ? 0 : 1;
}
