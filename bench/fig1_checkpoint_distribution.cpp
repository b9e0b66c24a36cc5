// E1 — Figure 1: call tree mapped onto processors A-D and the resulting
// distribution of functional checkpoints.
//
// Regenerates, from a live run of the pinned Figure-1 tree:
//   * the task -> processor mapping (matches the figure);
//   * the per-processor checkpoint tables toward processor B, showing the
//     paper's claim: A holds B1; C holds B2 and B3 (with B5 subsumed under
//     B2, §3's "C does nothing" case); D holds B7;
//   * the reissue sets after B fails.
#include <cstdio>
#include <map>

#include "bench/harness.h"
#include "obs/causal.h"

using namespace splice;

int main(int argc, char** argv) {
  const bench::Options opt = bench::Options::parse(argc, argv);

  core::SystemConfig cfg;
  cfg.processors = 4;
  cfg.topology = net::TopologyKind::kComplete;
  cfg.scheduler.kind = core::SchedulerKind::kPinned;
  cfg.recovery.kind = core::RecoveryKind::kRollback;
  cfg.heartbeat_interval = 800;
  cfg.obs.recorder = true;

  // Long-running tasks so every spawn happens while nothing completes: the
  // static snapshot the paper's figure depicts.
  const lang::Program program = lang::programs::figure1_tree(50000);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);

  // Fault-free twin: gives the placement and checkpoint-distribution
  // tables of Figure 1 (the faulted run below re-places B tasks after B
  // dies, which is recovery, not the figure).
  core::Simulation clean_sim(cfg, program);
  const core::RunResult clean = clean_sim.run();
  const obs::Journal journal = clean_sim.recorder().snapshot();

  core::Simulation faulted_sim(cfg, program);
  faulted_sim.set_fault_plan(net::FaultPlan::single(/*B=*/1, sim::SimTime(makespan / 2)));
  const core::RunResult r = faulted_sim.run();
  const obs::Journal faulted = faulted_sim.recorder().snapshot();

  auto pname = [](net::ProcId p) {
    return std::string(1, static_cast<char>('A' + p));
  };

  // Table 1: task placement.
  util::Table placement({"task", "processor (paper)", "processor (run)"});
  placement.set_title("Fig. 1 — call tree mapping");
  std::map<std::string, net::ProcId> placed;
  for (const obs::Event& e : journal.events) {
    if (e.kind != obs::EventKind::kPlace) continue;
    placed.try_emplace(bench::task_name(program, e), e.proc);
  }
  for (const auto& node : lang::programs::figure1_nodes()) {
    placement.add_row({node.name, std::string(1, node.name[0]),
                       placed.contains(node.name) ? pname(placed[node.name])
                                                  : "?"});
  }
  bench::emit(placement, opt);

  // Table 2: checkpoint distribution toward processor B.
  // A checkpoint event names its holder (proc) and destination (peer);
  // arg 1 marks one an ancestor's checkpoint subsumes (§3.2).
  util::Table dist({"owner proc", "task", "journal event", "outcome"});
  dist.set_title("Fig. 1 — functional checkpoints held against processor B");
  for (const obs::Event& e : journal.events) {
    if (e.kind != obs::EventKind::kCheckpoint || e.peer != 1) continue;
    dist.add_row({pname(e.proc), bench::task_name(program, e),
                  obs::render_event(e),
                  e.arg == 1 ? "subsumed (descendant of a topmost)"
                             : "topmost"});
  }
  bench::emit(dist, opt);

  // Table 3: recovery obligations executed when B died (faulted twin run).
  util::Table reissue({"proc", "reissued task", "journal event", "kind"});
  reissue.set_title(
      "Fig. 1 — reissue set after B fails mid-run (rollback; B tasks that "
      "already returned need no reissue)");
  for (const obs::EventKind kind :
       {obs::EventKind::kReissue, obs::EventKind::kTwin}) {
    for (const obs::Event& e : faulted.events) {
      if (e.kind != kind) continue;
      reissue.add_row({pname(e.proc), bench::task_name(program, e),
                       obs::render_event(e),
                       kind == obs::EventKind::kTwin ? "step-parent"
                                                     : "rollback"});
    }
  }
  bench::emit(reissue, opt);

  std::printf("fault-free: %s\nfaulted   : %s\n", clean.summary().c_str(),
              r.summary().c_str());
  return r.completed && r.answer_correct && clean.completed ? 0 : 1;
}
