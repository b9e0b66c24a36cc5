// splice_noded: one rank of a real multi-process recovery group.
//
// Launch N of these (rank 0..N-1) and the same Processor/Runtime/recovery
// stack that runs inside the single-process simulator runs as N OS
// processes wired by the TCP transport — same protocol code, same wire
// codec, real process kills:
//
//   $ for r in 0 1 2 3; do
//       ./splice_noded --rank $r --ranks 4 --base-port 7800 &
//     done
//
// Crash-recovery drill: kill -9 one rank mid-run, then restart it with
// --rejoin (add --warm on every rank for survivor-assisted state
// transfer). The restarted process announces itself, catches up, and the
// group completes; rank 0 prints `DONE answer=...` and broadcasts a
// kShutdown control message so every rank exits.
//
// Each process paces its simulated clock against the wall clock
// (--tick-ns nanoseconds per tick) so tick-denominated protocol timeouts
// (failure detection, warm grace) elapse at comparable real rates across
// the group; between event batches the driver polls the sockets.
//
// Markers on stdout (machine-checked by scripts/tcp_smoke.py):
//   READY rank=R            listener bound, runtime started
//   REJOIN_COMPLETE rank=R  warm/cold catch-up finished
//   DONE answer=V           rank 0 only: root program completed
//   SHUTDOWN rank=R         exiting on the group teardown broadcast
//   JOURNAL rank=R file=F   flight-recorder dump written (--journal only)
//
// With --journal FILE the per-rank flight recorder is on: the journal dumps
// to FILE on exit and on SIGUSR1 (live inspection of a running group), a
// periodic STATS line reports recorder counters, and `splice_trace merge`
// stitches the per-rank dumps into one timeline.
#include <csignal>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "lang/programs.h"
#include "obs/journal.h"
#include "net/tcp_transport.h"
#include "runtime/runtime.h"

namespace {

volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigusr1(int) { g_dump_requested = 1; }

struct Options {
  std::uint32_t rank = 0;
  std::uint32_t ranks = 4;
  std::uint16_t base_port = 7800;
  std::string program = "nqueens:5";
  std::int64_t tick_ns = 2000;  // 2us per tick: failure_timeout(400) = 0.8ms
  std::int64_t deadline_ticks = 60'000'000;
  bool rejoin = false;
  bool warm = false;
  std::uint64_t seed = 1;
  std::string journal;               // empty: recorder off
  std::int64_t stats_ticks = 2'000'000;  // STATS cadence (with --journal)
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --rank R --ranks N [--base-port P] [--program NAME:ARG]\n"
      "          [--tick-ns NS] [--deadline-ticks T] [--seed S]\n"
      "          [--rejoin] [--warm] [--journal FILE] [--stats-ticks T]\n",
      argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--rank") {
      opt.rank = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--ranks") {
      opt.ranks = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--base-port") {
      opt.base_port = static_cast<std::uint16_t>(std::atoi(value()));
    } else if (arg == "--program") {
      opt.program = value();
    } else if (arg == "--tick-ns") {
      opt.tick_ns = std::atoll(value());
    } else if (arg == "--deadline-ticks") {
      opt.deadline_ticks = std::atoll(value());
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (arg == "--journal") {
      opt.journal = value();
    } else if (arg == "--stats-ticks") {
      opt.stats_ticks = std::atoll(value());
    } else if (arg == "--rejoin") {
      opt.rejoin = true;
    } else if (arg == "--warm") {
      opt.warm = true;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.ranks == 0 || opt.rank >= opt.ranks || opt.tick_ns <= 0) {
    usage(argv[0]);
  }
  return opt;
}

splice::lang::Program make_program(const std::string& spec) {
  using namespace splice::lang;
  const auto colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const std::int64_t arg =
      colon == std::string::npos ? -1 : std::atoll(spec.c_str() + colon + 1);
  if (name == "nqueens") {
    return programs::nqueens(arg < 0 ? 5 : static_cast<std::uint32_t>(arg));
  }
  if (name == "fib") return programs::fib(arg < 0 ? 14 : arg);
  if (name == "tak") return programs::tak(12, 8, 4);
  if (name == "mergesort") {
    return programs::mergesort(arg < 0 ? 64 : static_cast<std::size_t>(arg));
  }
  std::fprintf(stderr, "unknown program: %s\n", spec.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace splice;
  using Clock = std::chrono::steady_clock;
  const Options opt = parse_args(argc, argv);

  core::SystemConfig cfg;
  cfg.processors = opt.ranks;
  cfg.topology = net::TopologyKind::kRing;  // any N works; no grid constraint
  cfg.scheduler.kind = core::SchedulerKind::kRandom;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 2000;
  cfg.seed = opt.seed;
  cfg.transport.backend = net::TransportKind::kTcp;
  cfg.obs.recorder = !opt.journal.empty();

  const lang::Program program = make_program(opt.program);

  std::vector<net::TcpPeer> peers(opt.ranks);
  for (std::uint32_t r = 0; r < opt.ranks; ++r) {
    peers[r].port = static_cast<std::uint16_t>(opt.base_port + r);
  }

  sim::Simulator sim;
  std::unique_ptr<net::Transport> transport;
  try {
    transport = net::make_tcp_transport(sim, opt.rank, peers);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "rank %u: %s\n", opt.rank, err.what());
    return 1;
  }
  net::Network network(sim, net::Topology(cfg.topology, cfg.processors),
                       cfg.latency, std::move(transport));
  runtime::Runtime rt(sim, network, cfg, program);
  rt.set_warm_rejoin(opt.warm);
  rt.recorder().set_rank(opt.rank);
  const auto dump_journal = [&](const char* why) {
    if (opt.journal.empty()) return;
    const obs::Journal journal = rt.recorder().snapshot();
    const std::vector<std::uint8_t> bytes = obs::serialize(journal);
    std::ofstream out(opt.journal, std::ios::binary | std::ios::trunc);
    if (!out.write(reinterpret_cast<const char*>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size()))) {
      std::fprintf(stderr, "rank %u: cannot write %s\n", opt.rank,
                   opt.journal.c_str());
      return;
    }
    std::printf("JOURNAL rank=%u file=%s events=%zu reason=%s\n", opt.rank,
                opt.journal.c_str(), journal.events.size(), why);
    std::fflush(stdout);
  };
  if (!opt.journal.empty()) std::signal(SIGUSR1, on_sigusr1);

  rt.start();
  if (opt.rejoin) {
    // This process replaces a killed rank: run the crash-recovery arrival
    // protocol (rejoin broadcast; under --warm also survivor-assisted
    // state transfer) exactly as the in-simulator FaultInjector would.
    network.kill(opt.rank);
    rt.on_kill(opt.rank);
    network.revive(opt.rank);
    rt.on_revive(opt.rank);
  }
  std::printf("READY rank=%u ranks=%u port=%u%s\n", opt.rank, opt.ranks,
              opt.base_port + opt.rank,
              opt.rejoin ? (opt.warm ? " rejoin=warm" : " rejoin=cold") : "");
  std::fflush(stdout);

  bool rejoin_pending = opt.rejoin;
  bool done_announced = false;
  std::int64_t linger_until = -1;  // rank 0: flush window after DONE
  std::int64_t next_stats = opt.stats_ticks;
  const auto wall0 = Clock::now();

  for (;;) {
    network.poll();

    if (g_dump_requested) {
      g_dump_requested = 0;
      dump_journal("sigusr1");
    }
    if (!opt.journal.empty() && opt.stats_ticks > 0 &&
        sim.now().ticks() >= next_stats) {
      next_stats = sim.now().ticks() + opt.stats_ticks;
      std::printf(
          "STATS rank=%u t=%lld events=%llu dropped=%llu windows=%zu "
          "in_flight=%llu\n",
          opt.rank, static_cast<long long>(sim.now().ticks()),
          static_cast<unsigned long long>(rt.recorder().total_recorded()),
          static_cast<unsigned long long>(rt.recorder().dropped()),
          rt.recorder().metrics().series().size(),
          static_cast<unsigned long long>(network.in_flight()));
      std::fflush(stdout);
    }

    const std::int64_t target_ticks =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             wall0)
            .count() /
        opt.tick_ns;
    sim.run_until(sim::SimTime(target_ticks));
    sim.advance_to(sim::SimTime(target_ticks));

    if (rejoin_pending && !rt.processor(opt.rank).warm_rejoined()) {
      // Cold rejoin finishes immediately; warm flips the flag when
      // survivor catch-up completes.
      rejoin_pending = false;
      std::printf("REJOIN_COMPLETE rank=%u t=%lld\n", opt.rank,
                  static_cast<long long>(sim.now().ticks()));
      std::fflush(stdout);
    }

    if (rt.hosts_super_root() && rt.done() && !done_announced) {
      done_announced = true;
      std::printf("DONE answer=%s t=%lld\n", rt.answer().to_string().c_str(),
                  static_cast<long long>(sim.now().ticks()));
      std::fflush(stdout);
      for (net::ProcId p = 0; p < opt.ranks; ++p) {
        if (p == opt.rank) continue;
        net::Envelope env;
        env.kind = net::MsgKind::kControl;
        env.from = opt.rank;
        env.to = p;
        env.size_units = 1;
        env.payload = runtime::ControlMsg{runtime::ControlKind::kShutdown};
        network.send(std::move(env));
      }
      // Brief linger so late frames (acks, result redeliveries) drain
      // before the listener disappears.
      linger_until = sim.now().ticks() + 20000;
    }
    if (linger_until >= 0 && sim.now().ticks() >= linger_until) break;

    if (rt.shutdown_requested()) {
      std::printf("SHUTDOWN rank=%u t=%lld\n", opt.rank,
                  static_cast<long long>(sim.now().ticks()));
      std::fflush(stdout);
      break;
    }
    if (sim.now().ticks() >= opt.deadline_ticks) {
      std::fprintf(stderr, "rank %u: deadline reached without completion\n",
                   opt.rank);
      dump_journal("deadline");
      return 3;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  dump_journal("exit");
  return 0;
}
