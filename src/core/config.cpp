#include "core/config.h"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace splice::core {

// ---------------------------------------------------------------------------
// Fault-scenario DSL
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void bad_clause(std::string_view clause, std::string_view why) {
  throw std::invalid_argument("fault plan clause '" + std::string(clause) +
                              "': " + std::string(why));
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t pos = s.find(sep);
    if (pos == std::string_view::npos) {
      if (!trim(s).empty()) out.push_back(trim(s));
      return out;
    }
    if (!trim(s.substr(0, pos)).empty()) out.push_back(trim(s.substr(0, pos)));
    s.remove_prefix(pos + 1);
  }
}

template <typename Int>
Int parse_int(std::string_view token, std::string_view clause) {
  Int value{};
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || end != token.data() + token.size()) {
    bad_clause(clause, "expected an integer, got '" + std::string(token) +
                           "'");
  }
  return value;
}

double parse_double(std::string_view token, std::string_view clause) {
  // std::from_chars for doubles is missing on some libc++; stod suffices.
  try {
    std::size_t used = 0;
    const double value = std::stod(std::string(token), &used);
    if (used != token.size()) throw std::invalid_argument("trailing junk");
    return value;
  } catch (const std::exception&) {
    bad_clause(clause, "expected a number, got '" + std::string(token) + "'");
  }
}

/// Split "body@T" and return T as SimTime.
std::pair<std::string_view, sim::SimTime> split_at_time(
    std::string_view args, std::string_view clause) {
  const std::size_t at = args.rfind('@');
  if (at == std::string_view::npos) bad_clause(clause, "missing '@time'");
  return {trim(args.substr(0, at)),
          sim::SimTime(parse_int<std::int64_t>(trim(args.substr(at + 1)),
                                               clause))};
}

/// Parse a parenthesised region sub-body: rect(R0,C0,RxC), arc(S+L),
/// cube(MASK/VALUE), hood(P,rK) — the same shapes the top-level regional
/// kill verbs take, usable where a clause needs a region as an operand
/// (partition sides).
net::RegionSpec parse_region(std::string_view body, std::string_view clause) {
  const std::size_t open = body.find('(');
  if (open == std::string_view::npos || body.empty() || body.back() != ')') {
    bad_clause(clause, "expected 'rect(...)', 'arc(...)', 'cube(...)' or "
                       "'hood(...)'");
  }
  const std::string_view kind = trim(body.substr(0, open));
  const std::string_view inner =
      trim(body.substr(open + 1, body.size() - open - 2));
  if (kind == "rect") {
    const auto parts = split(inner, ',');
    if (parts.size() != 3) bad_clause(clause, "expected 'rect(R0,C0,RxC)'");
    const std::size_t x = parts[2].find('x');
    if (x == std::string_view::npos) bad_clause(clause, "missing 'RxC'");
    return net::RegionSpec::grid_rect(
        parse_int<std::uint32_t>(parts[0], clause),
        parse_int<std::uint32_t>(parts[1], clause),
        parse_int<std::uint32_t>(trim(parts[2].substr(0, x)), clause),
        parse_int<std::uint32_t>(trim(parts[2].substr(x + 1)), clause));
  }
  if (kind == "arc") {
    const std::size_t plus = inner.find('+');
    if (plus == std::string_view::npos) bad_clause(clause, "missing 'S+L'");
    return net::RegionSpec::ring_arc(
        parse_int<net::ProcId>(trim(inner.substr(0, plus)), clause),
        parse_int<std::uint32_t>(trim(inner.substr(plus + 1)), clause));
  }
  if (kind == "cube") {
    const std::size_t slash = inner.find('/');
    if (slash == std::string_view::npos) {
      bad_clause(clause, "missing 'MASK/VALUE'");
    }
    return net::RegionSpec::subcube(
        parse_int<net::ProcId>(trim(inner.substr(0, slash)), clause),
        parse_int<net::ProcId>(trim(inner.substr(slash + 1)), clause));
  }
  if (kind == "hood") {
    const auto parts = split(inner, ',');
    if (parts.size() != 2 || parts[1].size() < 2 || parts[1][0] != 'r') {
      bad_clause(clause, "expected 'hood(P,rK)'");
    }
    return net::RegionSpec::neighborhood(
        parse_int<net::ProcId>(parts[0], clause),
        parse_int<std::uint32_t>(trim(parts[1].substr(1)), clause));
  }
  bad_clause(clause, "unknown region shape '" + std::string(kind) + "'");
}

}  // namespace

net::FaultPlan parse_fault_plan(std::string_view spec) {
  net::FaultPlan plan;
  for (std::string_view clause : split(spec, ';')) {
    const std::size_t colon = clause.find(':');
    if (colon == std::string_view::npos) {
      bad_clause(clause, "expected 'verb:args'");
    }
    const std::string_view verb = trim(clause.substr(0, colon));
    const std::string_view args = trim(clause.substr(colon + 1));

    if (verb == "kill") {
      const auto [who, when] = split_at_time(args, clause);
      plan.timed.push_back({parse_int<net::ProcId>(who, clause), when});
    } else if (verb == "trigger") {
      // trigger:P@name[+delay]
      const std::size_t at = args.find('@');
      if (at == std::string_view::npos) bad_clause(clause, "missing '@name'");
      const net::ProcId target =
          parse_int<net::ProcId>(trim(args.substr(0, at)), clause);
      std::string_view name = trim(args.substr(at + 1));
      sim::SimTime delay;
      if (const std::size_t plus = name.rfind('+');
          plus != std::string_view::npos) {
        delay = sim::SimTime(
            parse_int<std::int64_t>(trim(name.substr(plus + 1)), clause));
        name = trim(name.substr(0, plus));
      }
      if (name.empty()) bad_clause(clause, "empty trigger name");
      plan.triggered.push_back({target, std::string(name), delay});
    } else if (verb == "rect") {
      // rect:R0,C0,RxC@T
      const auto [body, when] = split_at_time(args, clause);
      const auto parts = split(body, ',');
      if (parts.size() != 3) bad_clause(clause, "expected 'R0,C0,RxC@T'");
      const std::size_t x = parts[2].find('x');
      if (x == std::string_view::npos) bad_clause(clause, "missing 'RxC'");
      plan.regional.push_back(
          {net::RegionSpec::grid_rect(
               parse_int<std::uint32_t>(parts[0], clause),
               parse_int<std::uint32_t>(parts[1], clause),
               parse_int<std::uint32_t>(trim(parts[2].substr(0, x)), clause),
               parse_int<std::uint32_t>(trim(parts[2].substr(x + 1)),
                                        clause)),
           when});
    } else if (verb == "arc") {
      // arc:S+L@T
      const auto [body, when] = split_at_time(args, clause);
      const std::size_t plus = body.find('+');
      if (plus == std::string_view::npos) bad_clause(clause, "missing 'S+L'");
      plan.regional.push_back(
          {net::RegionSpec::ring_arc(
               parse_int<net::ProcId>(trim(body.substr(0, plus)), clause),
               parse_int<std::uint32_t>(trim(body.substr(plus + 1)), clause)),
           when});
    } else if (verb == "cube") {
      // cube:MASK/VALUE@T
      const auto [body, when] = split_at_time(args, clause);
      const std::size_t slash = body.find('/');
      if (slash == std::string_view::npos) {
        bad_clause(clause, "missing 'MASK/VALUE'");
      }
      plan.regional.push_back(
          {net::RegionSpec::subcube(
               parse_int<net::ProcId>(trim(body.substr(0, slash)), clause),
               parse_int<net::ProcId>(trim(body.substr(slash + 1)), clause)),
           when});
    } else if (verb == "hood") {
      // hood:P,rK@T
      const auto [body, when] = split_at_time(args, clause);
      const auto parts = split(body, ',');
      if (parts.size() != 2 || parts[1].size() < 2 || parts[1][0] != 'r') {
        bad_clause(clause, "expected 'P,rK@T'");
      }
      plan.regional.push_back(
          {net::RegionSpec::neighborhood(
               parse_int<net::ProcId>(parts[0], clause),
               parse_int<std::uint32_t>(trim(parts[1].substr(1)), clause)),
           when});
    } else if (verb == "cascade") {
      // cascade:P@T[,p=..][,decay=..][,hops=..][,stagger=..]
      const auto parts = split(args, ',');
      if (parts.empty()) bad_clause(clause, "expected 'P@T,...'");
      net::CascadeFault wave;
      const auto [who, when] = split_at_time(parts[0], clause);
      wave.seed = parse_int<net::ProcId>(who, clause);
      wave.when = when;
      for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::size_t eq = parts[i].find('=');
        if (eq == std::string_view::npos) bad_clause(clause, "expected k=v");
        const std::string_view key = trim(parts[i].substr(0, eq));
        const std::string_view value = trim(parts[i].substr(eq + 1));
        if (key == "p") {
          wave.probability = parse_double(value, clause);
        } else if (key == "decay") {
          wave.decay = parse_double(value, clause);
        } else if (key == "hops") {
          wave.max_hops = parse_int<std::uint32_t>(value, clause);
        } else if (key == "stagger") {
          wave.stagger =
              sim::SimTime(parse_int<std::int64_t>(value, clause));
        } else {
          bad_clause(clause, "unknown cascade key '" + std::string(key) +
                                 "'");
        }
      }
      plan.cascades.push_back(wave);
    } else if (verb == "poisson") {
      // poisson:mean=M[,start=T][,stop=T][,max=N][,over=p1|p2|...]
      net::RecurringFault arrivals;
      bool have_mean = false;
      for (std::string_view part : split(args, ',')) {
        const std::size_t eq = part.find('=');
        if (eq == std::string_view::npos) bad_clause(clause, "expected k=v");
        const std::string_view key = trim(part.substr(0, eq));
        const std::string_view value = trim(part.substr(eq + 1));
        if (key == "mean") {
          arrivals.mean_interval = parse_double(value, clause);
          have_mean = true;
        } else if (key == "start") {
          arrivals.start =
              sim::SimTime(parse_int<std::int64_t>(value, clause));
        } else if (key == "stop") {
          arrivals.stop =
              sim::SimTime(parse_int<std::int64_t>(value, clause));
        } else if (key == "max") {
          arrivals.max_faults = parse_int<std::uint32_t>(value, clause);
        } else if (key == "over") {
          for (std::string_view p : split(value, '|')) {
            arrivals.candidates.push_back(parse_int<net::ProcId>(p, clause));
          }
        } else {
          bad_clause(clause, "unknown poisson key '" + std::string(key) +
                                 "'");
        }
      }
      if (!have_mean || arrivals.mean_interval <= 0) {
        bad_clause(clause, "poisson needs mean=<positive ticks>");
      }
      plan.recurring.push_back(std::move(arrivals));
    } else if (verb == "rejoin") {
      // rejoin:DELAY[,warm|cold]
      const auto parts = split(args, ',');
      if (parts.empty()) bad_clause(clause, "expected 'DELAY[,warm|cold]'");
      net::RejoinMode mode = net::RejoinMode::kCold;
      if (parts.size() == 2) {
        if (parts[1] == "warm") {
          mode = net::RejoinMode::kWarm;
        } else if (parts[1] == "cold") {
          mode = net::RejoinMode::kCold;
        } else {
          bad_clause(clause, "unknown rejoin mode '" + std::string(parts[1]) +
                                 "' (want warm|cold)");
        }
      } else if (parts.size() > 2) {
        bad_clause(clause, "expected 'DELAY[,warm|cold]'");
      }
      plan.with_rejoin(
          sim::SimTime(parse_int<std::int64_t>(parts[0], clause)), mode);
    } else if (verb == "partition") {
      // partition:REGION@T[,heal=H|healmean=M] — cut REGION off from the
      // rest of the machine at T; heal after H ticks (deterministic) or an
      // exponential delay of mean M drawn from the plan seed.
      const std::size_t close = args.find(')');
      if (close == std::string_view::npos) {
        bad_clause(clause, "expected 'region(...)@T[,heal=H|healmean=M]'");
      }
      net::PartitionSpec cut;
      cut.side = parse_region(trim(args.substr(0, close + 1)), clause);
      std::string_view rest = trim(args.substr(close + 1));
      if (rest.empty() || rest.front() != '@') {
        bad_clause(clause, "missing '@time'");
      }
      rest.remove_prefix(1);
      const auto parts = split(rest, ',');
      if (parts.empty()) bad_clause(clause, "missing '@time'");
      cut.at = sim::SimTime(parse_int<std::int64_t>(parts[0], clause));
      for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::size_t eq = parts[i].find('=');
        if (eq == std::string_view::npos) bad_clause(clause, "expected k=v");
        const std::string_view key = trim(parts[i].substr(0, eq));
        const std::string_view value = trim(parts[i].substr(eq + 1));
        if (key == "heal") {
          cut.heal_after =
              sim::SimTime(parse_int<std::int64_t>(value, clause));
        } else if (key == "healmean") {
          cut.heal_mean = parse_double(value, clause);
        } else {
          bad_clause(clause,
                     "unknown partition key '" + std::string(key) + "'");
        }
      }
      plan.partitions.push_back(std::move(cut));
    } else if (verb == "link") {
      // link:A-B@T[,drop=p][,dup=p][,reorder=p][,delay=D][,jitter=J]
      //          [,until=T] — per-link quality; 'A>B' directed, '*' any.
      const auto parts = split(args, ',');
      if (parts.empty()) bad_clause(clause, "expected 'A-B@T,...'");
      const auto [ends, start] = split_at_time(parts[0], clause);
      net::LinkQuality q;
      q.start = start;
      std::size_t sep = ends.find('>');
      if (sep != std::string_view::npos) {
        q.symmetric = false;
      } else {
        sep = ends.find('-');
      }
      if (sep == std::string_view::npos) {
        bad_clause(clause, "expected 'A-B' or 'A>B' endpoints");
      }
      const auto parse_end = [&clause](std::string_view token) {
        return token == "*" ? net::kNoProc
                            : parse_int<net::ProcId>(token, clause);
      };
      q.src = parse_end(trim(ends.substr(0, sep)));
      q.dst = parse_end(trim(ends.substr(sep + 1)));
      for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::size_t eq = parts[i].find('=');
        if (eq == std::string_view::npos) bad_clause(clause, "expected k=v");
        const std::string_view key = trim(parts[i].substr(0, eq));
        const std::string_view value = trim(parts[i].substr(eq + 1));
        if (key == "drop") {
          q.drop_p = parse_double(value, clause);
        } else if (key == "dup") {
          q.dup_p = parse_double(value, clause);
        } else if (key == "reorder") {
          q.reorder_p = parse_double(value, clause);
        } else if (key == "delay") {
          q.delay = parse_int<std::int64_t>(value, clause);
        } else if (key == "jitter") {
          q.jitter = parse_int<std::int64_t>(value, clause);
        } else if (key == "until") {
          q.stop = sim::SimTime(parse_int<std::int64_t>(value, clause));
        } else {
          bad_clause(clause, "unknown link key '" + std::string(key) + "'");
        }
      }
      plan.links.push_back(q);
    } else if (verb == "gray") {
      // gray:P@T[,drop=p][,slow=F][,until=T] — node P alive but sick:
      // payload traffic starves while heartbeats trickle through.
      const auto parts = split(args, ',');
      if (parts.empty()) bad_clause(clause, "expected 'P@T,...'");
      const auto [who, start] = split_at_time(parts[0], clause);
      net::GraySpec g;
      g.node = parse_int<net::ProcId>(who, clause);
      g.start = start;
      for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::size_t eq = parts[i].find('=');
        if (eq == std::string_view::npos) bad_clause(clause, "expected k=v");
        const std::string_view key = trim(parts[i].substr(0, eq));
        const std::string_view value = trim(parts[i].substr(eq + 1));
        if (key == "drop") {
          g.payload_drop_p = parse_double(value, clause);
        } else if (key == "slow") {
          g.slow_factor = parse_int<std::int64_t>(value, clause);
        } else if (key == "until") {
          g.stop = sim::SimTime(parse_int<std::int64_t>(value, clause));
        } else {
          bad_clause(clause, "unknown gray key '" + std::string(key) + "'");
        }
      }
      plan.grays.push_back(g);
    } else if (verb == "seed") {
      plan.with_seed(parse_int<std::uint64_t>(args, clause));
    } else {
      bad_clause(clause, "unknown verb '" + std::string(verb) + "'");
    }
  }
  return plan;
}

std::string_view to_string(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::kRandom:
      return "random";
    case SchedulerKind::kRoundRobin:
      return "round-robin";
    case SchedulerKind::kLocalFirst:
      return "local-first";
    case SchedulerKind::kPinned:
      return "pinned";
    case SchedulerKind::kGradient:
      return "gradient";
    case SchedulerKind::kNeighbor:
      return "neighbor";
  }
  return "?";
}

std::string_view to_string(RecoveryKind kind) noexcept {
  switch (kind) {
    case RecoveryKind::kNone:
      return "none";
    case RecoveryKind::kRestart:
      return "restart";
    case RecoveryKind::kRollback:
      return "rollback";
    case RecoveryKind::kSplice:
      return "splice";
    case RecoveryKind::kPeriodicGlobal:
      return "periodic-global";
  }
  return "?";
}

std::string SystemConfig::describe() const {
  std::ostringstream out;
  out << "procs=" << processors << " topo=" << net::to_string(topology)
      << " sched=" << to_string(scheduler.kind)
      << " recovery=" << to_string(recovery.kind);
  if (recovery.kind == RecoveryKind::kSplice) {
    out << "(depth=" << recovery.ancestor_depth
        << (recovery.eager_respawn ? ",eager" : ",topmost") << ")";
  }
  if (replication.enabled()) {
    out << " repl=" << replication.factor << "x@d<" << replication.max_depth
        << (replication.majority ? "(majority)" : "(first)");
  }
  if (store.durable()) {
    out << " store=" << store::to_string(store.model);
    if (store.model == store::Persistency::kLossy) {
      out << "(p=" << store.survive_p << ")";
    }
  }
  if (!reclaim.cancellation) out << " cancel=off";
  if (reclaim.gc_interval > 0) out << " gc-oracle=" << reclaim.gc_interval;
  if (transport.backend != net::TransportKind::kInProcess) {
    out << " transport=" << net::to_string(transport.backend);
  }
  if (parallel.engine()) out << " shards=" << parallel.shards;
  out << " seed=" << seed;
  return out.str();
}

}  // namespace splice::core
