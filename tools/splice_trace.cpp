// splice_trace: flight-recorder toolbox.
//
//   record   run a seeded link-chaos scenario (E19's partition-and-heal or
//            gray-churn recipe) with the recorder on; dump the binary
//            journal, and optionally the Perfetto trace and metrics series,
//            in one go. The run is validated by the RecoveryOracle with the
//            journal attached, so a violation prints its causal chain.
//   export   journal dump -> Perfetto/Chrome trace_event JSON
//            (load into ui.perfetto.dev or chrome://tracing)
//   explain  walk a task's causal chain back to the fault that doomed it
//            (--uid N, or --first-reissue for the first recovery action)
//   merge    stitch per-rank dumps (splice_noded --journal) into one
//            timeline with remapped causal edges
//   stats    header + per-kind event counts of a dump
//
// Journal dumps are the "SPLJ" binary format of obs/journal.h; any file
// name works, `.splj` by convention.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "lang/programs.h"
#include "net/fault_plan.h"
#include "obs/causal.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "recovery/recovery_oracle.h"

namespace {

using namespace splice;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: splice_trace <command> [options]\n"
      "  record  [--procs N] [--seed S] [--scenario partition|gray]\n"
      "          [--transport inproc|shm] [--out FILE.splj]\n"
      "          [--perfetto FILE.json] [--series-csv FILE]\n"
      "          [--series-json FILE]\n"
      "  export  --in FILE.splj --out FILE.json\n"
      "  explain --in FILE.splj (--uid N | --first-reissue)\n"
      "  merge   --out FILE.splj IN.splj [IN.splj ...]\n"
      "  stats   --in FILE.splj\n");
  std::exit(2);
}

obs::Journal load_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "splice_trace: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  try {
    return obs::deserialize(bytes.data(), bytes.size());
  } catch (const std::exception& err) {
    std::fprintf(stderr, "splice_trace: %s: %s\n", path.c_str(), err.what());
    std::exit(1);
  }
}

void save_journal(const obs::Journal& journal, const std::string& path) {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = obs::serialize(journal);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "splice_trace: %s: %s\n", path.c_str(), err.what());
    std::exit(1);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()))) {
    std::fprintf(stderr, "splice_trace: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

struct Args {
  std::string in, out, perfetto, series_csv, series_json;
  std::string scenario = "partition";
  std::string transport = "inproc";
  std::uint32_t procs = 32;
  std::uint64_t seed = 7;
  std::uint64_t uid = 0;
  bool first_reissue = false;
  std::vector<std::string> positional;
};

Args parse(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--in") {
      args.in = value();
    } else if (arg == "--out") {
      args.out = value();
    } else if (arg == "--perfetto") {
      args.perfetto = value();
    } else if (arg == "--series-csv") {
      args.series_csv = value();
    } else if (arg == "--series-json") {
      args.series_json = value();
    } else if (arg == "--scenario") {
      args.scenario = value();
    } else if (arg == "--transport") {
      args.transport = value();
    } else if (arg == "--procs") {
      args.procs = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--seed") {
      args.seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (arg == "--uid") {
      args.uid = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (arg == "--first-reissue") {
      args.first_reissue = true;
    } else if (!arg.empty() && arg[0] != '-') {
      args.positional.push_back(arg);
    } else {
      usage();
    }
  }
  return args;
}

std::ofstream open_text(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "splice_trace: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  return out;
}

int cmd_record(const Args& args) {
  if (args.procs < 4) {
    std::fprintf(stderr, "splice_trace: record needs --procs >= 4\n");
    return 2;
  }
  // The E19 chaos recipe (bench/tab_scalability.cpp): link-level faults
  // only, cancel-protocol reclaim, a tree deep enough that the cut has
  // concurrent subtrees to orphan. Deterministic per (procs, seed,
  // scenario) — the transport choice must not change the journal.
  core::SystemConfig cfg;
  cfg.processors = args.procs;
  cfg.topology = net::TopologyKind::kTorus2D;
  cfg.scheduler.kind = core::SchedulerKind::kLocalFirst;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 2000;
  cfg.seed = args.seed * 41 + 29;
  cfg.reclaim.cancellation = true;
  cfg.reclaim.gc_interval = 0;
  cfg.obs.recorder = true;
  cfg.obs.journal_capacity = 1u << 18;
  if (args.transport == "shm") {
    cfg.transport.backend = net::TransportKind::kShmRing;
  } else if (args.transport != "inproc") {
    std::fprintf(stderr, "splice_trace: unknown transport %s\n",
                 args.transport.c_str());
    return 2;
  }
  const lang::Program program = lang::programs::tree_sum(
      args.procs >= 256 ? 11 : args.procs >= 128 ? 10 : 9, 2, 400, 30);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);

  net::FaultPlan plan;
  if (args.scenario == "partition") {
    plan = net::FaultPlan::partition(
        net::RegionSpec::neighborhood(
            static_cast<net::ProcId>(cfg.processors - 1), 2),
        sim::SimTime(makespan / 4), sim::SimTime(makespan / 3));
  } else if (args.scenario == "gray") {
    net::GraySpec gray;
    gray.node = static_cast<net::ProcId>(cfg.processors / 2);
    gray.start = sim::SimTime(makespan / 6);
    plan = net::FaultPlan::gray(gray);
  } else {
    std::fprintf(stderr, "splice_trace: unknown scenario %s\n",
                 args.scenario.c_str());
    return 2;
  }
  plan.with_seed(args.seed * 31 + 7);

  core::Simulation simulation(cfg, program);
  simulation.set_fault_plan(plan);
  const core::RunResult result = simulation.run();
  const obs::Journal journal = simulation.recorder().snapshot();
  const std::vector<obs::TimePoint>& series =
      simulation.recorder().metrics().series();

  std::printf("%s\n", result.summary().c_str());
  std::printf("journal: %llu recorded, %llu dropped, %zu retained, "
              "%zu sample windows\n",
              static_cast<unsigned long long>(journal.header.total_recorded),
              static_cast<unsigned long long>(journal.header.dropped),
              journal.events.size(), series.size());

  recovery::RecoveryOracle::Expect expect;
  expect.no_detection = args.scenario == "gray";
  const auto report =
      recovery::RecoveryOracle::check(result, journal, expect);
  if (!report.ok()) {
    std::fprintf(stderr, "oracle violations:\n%s", report.to_string().c_str());
    return 1;
  }
  std::printf("oracle: ok\n");

  if (!args.out.empty()) {
    save_journal(journal, args.out);
    std::printf("journal dump written to %s\n", args.out.c_str());
  }
  if (!args.perfetto.empty()) {
    auto out = open_text(args.perfetto);
    obs::write_perfetto(journal, series, out);
    std::printf("perfetto trace written to %s\n", args.perfetto.c_str());
  }
  if (!args.series_csv.empty()) {
    auto out = open_text(args.series_csv);
    obs::write_series_csv(series, out);
  }
  if (!args.series_json.empty()) {
    auto out = open_text(args.series_json);
    obs::write_series_json(series, out);
  }
  return 0;
}

int cmd_export(const Args& args) {
  if (args.in.empty() || args.out.empty()) usage();
  const obs::Journal journal = load_journal(args.in);
  auto out = open_text(args.out);
  obs::write_perfetto(journal, out);
  std::printf("perfetto trace written to %s (%zu events)\n", args.out.c_str(),
              journal.events.size());
  return 0;
}

int cmd_explain(const Args& args) {
  if (args.in.empty() || (args.uid == 0 && !args.first_reissue)) usage();
  const obs::Journal journal = load_journal(args.in);
  if (args.first_reissue) {
    const obs::EventId leaf = obs::first_reissued(journal);
    if (leaf == obs::kNoEvent) {
      std::printf("no reissue/twin event journaled (fault-free run?)\n");
      return 1;
    }
    std::printf("first recovery action, walked back to its root cause:\n%s",
                obs::render_chain(journal, leaf).c_str());
    return 0;
  }
  std::printf("%s", obs::explain_task(journal, args.uid).c_str());
  return 0;
}

int cmd_merge(const Args& args) {
  if (args.out.empty() || args.positional.empty()) usage();
  std::vector<obs::Journal> journals;
  journals.reserve(args.positional.size());
  for (const std::string& path : args.positional) {
    journals.push_back(load_journal(path));
  }
  const obs::Journal merged = obs::merge(journals);
  save_journal(merged, args.out);
  std::printf("merged %zu dumps -> %s (%zu events)\n", journals.size(),
              args.out.c_str(), merged.events.size());
  return 0;
}

int cmd_stats(const Args& args) {
  if (args.in.empty()) usage();
  const obs::Journal journal = load_journal(args.in);
  std::printf("rank=%u processors=%u recorded=%llu dropped=%llu retained=%zu\n",
              journal.header.rank, journal.header.processors,
              static_cast<unsigned long long>(journal.header.total_recorded),
              static_cast<unsigned long long>(journal.header.dropped),
              journal.events.size());
  std::uint64_t by_kind[obs::kEventKindCount] = {};
  for (const obs::Event& event : journal.events) {
    ++by_kind[static_cast<std::size_t>(event.kind)];
  }
  for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
    if (by_kind[k] == 0) continue;
    std::printf("  %-14s %llu\n",
                std::string(obs::to_string(static_cast<obs::EventKind>(k)))
                    .c_str(),
                static_cast<unsigned long long>(by_kind[k]));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const Args args = parse(argc, argv, 2);
  if (cmd == "record") return cmd_record(args);
  if (cmd == "export") return cmd_export(args);
  if (cmd == "explain") return cmd_explain(args);
  if (cmd == "merge") return cmd_merge(args);
  if (cmd == "stats") return cmd_stats(args);
  usage();
}
