// Replays the paper's running example (Figures 1-3) and prints its journal:
//
//   * the call tree A1..D5 is pinned onto processors A,B,C,D exactly as in
//     Figure 1;
//   * functional checkpoints accumulate in the per-processor tables;
//   * processor B is killed mid-run;
//   * splice recovery creates the step-parent B2' (Figure 3) and the
//     grandparent C1 relays D4's orphan result into it.
//
//   $ ./figure1_walkthrough [node_work]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "lang/programs.h"
#include "obs/causal.h"

int main(int argc, char** argv) {
  using namespace splice;
  const std::int64_t node_work = argc > 1 ? std::atoll(argv[1]) : 2500;

  core::SystemConfig cfg;
  cfg.processors = 4;  // A=0, B=1, C=2, D=3
  cfg.topology = net::TopologyKind::kComplete;
  cfg.scheduler.kind = core::SchedulerKind::kPinned;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 800;
  cfg.obs.recorder = true;

  const lang::Program program = lang::programs::figure1_tree(node_work);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);

  std::printf("Figure 1 call tree (17 tasks) pinned to processors A-D\n");
  std::printf("fault-free makespan %lld ticks; killing processor B at t=%lld\n",
              static_cast<long long>(makespan),
              static_cast<long long>(makespan / 2));

  core::Simulation simulation(cfg, program);
  simulation.set_fault_plan(net::FaultPlan::single(1, sim::SimTime(makespan / 2)));
  const core::RunResult r = simulation.run();

  // One journal line per protocol event, tagged with the function of the
  // task it names (machine-level events carry neither stamp nor uid).
  std::printf("journal (p0=A, p1=B, p2=C, p3=D):\n\n");
  simulation.recorder().for_each([&](const obs::Event& e) {
    // Print the protocol-level story; skip raw placement noise.
    if (e.kind == obs::EventKind::kPlace) return;
    std::string line = obs::render_event(e);
    if (!e.stamp.is_root() || e.uid != 0) {
      const std::vector<lang::ExprId> sites(e.stamp.begin(), e.stamp.end());
      line += "  [" + program.function_at(sites).name + "]";
    }
    std::printf("%s\n", line.c_str());
  });

  std::printf("\n%s\n", r.summary().c_str());
  std::printf("twins created (B2' and friends): %llu\n",
              static_cast<unsigned long long>(r.counters.twins_created));
  std::printf("orphan results relayed via grandparents: %llu, salvaged: %llu\n",
              static_cast<unsigned long long>(r.counters.results_relayed),
              static_cast<unsigned long long>(
                  r.counters.orphan_results_salvaged));
  return r.completed && r.answer_correct ? 0 : 1;
}
