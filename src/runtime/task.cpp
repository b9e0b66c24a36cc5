#include "runtime/task.h"

#include <algorithm>
#include <cassert>

namespace splice::runtime {

std::string_view to_string(TaskState state) noexcept {
  switch (state) {
    case TaskState::kQueued:
      return "queued";
    case TaskState::kRunning:
      return "running";
    case TaskState::kWaiting:
      return "waiting";
  }
  return "?";
}

ScanOutcome Task::scan(const lang::Program& program) {
  ++scans_;
  ScanOutcome outcome;
  const lang::FunctionDef& def = program.function(packet_.fn);
  RequestedSites requested;
  outcome.result = eval(program, def, def.root, outcome, requested);
  // Task setup / resume overhead: a few ticks per scan on top of prim work.
  outcome.cost += 2;
  return outcome;
}

std::optional<lang::Value> Task::eval(const lang::Program& program,
                                      const lang::FunctionDef& def,
                                      lang::ExprId expr, ScanOutcome& outcome,
                                      RequestedSites& requested) {
  const lang::ExprNode& node = def.nodes[expr];
  switch (node.kind) {
    case lang::ExprKind::kConst:
      return node.literal;
    case lang::ExprKind::kArg:
      return packet_.args[node.arg_index];
    case lang::ExprKind::kPrim: {
      // Evaluate every operand even after one suspends, so all ready calls
      // under this prim are demanded in the same scan (maximal parallelism).
      util::SmallVec<lang::Value, 4> operands;
      operands.reserve(node.children.size());
      bool complete = true;
      for (lang::ExprId child : node.children) {
        auto v = eval(program, def, child, outcome, requested);
        if (v.has_value()) {
          operands.push_back(std::move(*v));
        } else {
          complete = false;
        }
      }
      if (!complete) return std::nullopt;
      return lang::apply_prim(node.op, {operands.data(), operands.size()},
                              &outcome.cost);
    }
    case lang::ExprKind::kIf: {
      auto cond = eval(program, def, node.children[0], outcome, requested);
      if (!cond.has_value()) return std::nullopt;
      ++outcome.cost;
      const lang::ExprId branch =
          cond->truthy() ? node.children[1] : node.children[2];
      return eval(program, def, branch, outcome, requested);
    }
    case lang::ExprKind::kCall: {
      if (const CallSlot* existing = find_slot(expr);
          existing != nullptr && existing->resolved) {
        return existing->result;
      }
      // Evaluate arguments; nested calls inside them are demanded first.
      TaskPacket::Args call_args;
      call_args.reserve(node.children.size());
      bool args_ready = true;
      for (lang::ExprId child : node.children) {
        auto v = eval(program, def, child, outcome, requested);
        if (v.has_value()) {
          call_args.push_back(std::move(*v));
        } else {
          args_ready = false;
        }
      }
      if (!args_ready) return std::nullopt;
      const CallSlot* s = find_slot(expr);
      const bool already_spawned = s != nullptr && s->spawned;
      const bool already_requested =
          std::find(requested.begin(), requested.end(), expr) !=
          requested.end();
      if (!already_spawned && !already_requested) {
        requested.push_back(expr);
        outcome.spawns.push_back(
            SpawnRequest{expr, node.callee, std::move(call_args)});
      }
      return std::nullopt;  // waiting for the child's result
    }
  }
  assert(false && "bad expr kind");
  return std::nullopt;
}

CallSlot& Task::note_spawned(lang::ExprId site, lang::FuncId fn,
                             TaskPacket::Args args, std::uint32_t lineage) {
  CallSlot& s = slot(site);
  s.spawned = true;
  s.fn = fn;
  s.args = std::move(args);
  s.lineage = lineage;
  return s;
}

TaskPacket Task::child_packet(const CallSlot& slot, net::ProcId host,
                              std::uint32_t ancestor_depth) const {
  TaskPacket packet;
  packet.stamp = stamp().child(slot.site);
  packet.fn = slot.fn;
  packet.args = slot.args;
  packet.call_site = slot.site;
  packet.ancestors.push_back(TaskRef{host, uid_});
  const auto depth = std::max<std::uint32_t>(1, ancestor_depth);
  for (const TaskRef& ref : packet_.ancestors) {
    if (packet.ancestors.size() >= depth) break;
    packet.ancestors.push_back(ref);
  }
  packet.lineage = slot.lineage;
  packet.zone = packet_.zone;
  return packet;
}

bool Task::note_ack(lang::ExprId site, TaskRef child, std::uint32_t replica,
                    std::uint32_t lineage) {
  CallSlot& s = slot(site);
  if (lineage < s.respawns) return false;  // superseded spawn generation
  if (s.children.size() <= replica) s.children.resize(replica + 1);
  s.children[replica].proc = child.proc;
  s.children[replica].uid = child.uid;
  return true;
}

bool Task::deliver_result(lang::ExprId site, const lang::Value& value,
                          std::uint32_t quorum) {
  CallSlot& s = slot(site);
  if (s.resolved) return false;  // duplicate (cases 6-8): ignored
  ++s.votes;
  if (s.votes >= quorum) {
    s.result = value;
    s.resolved = true;
    return true;
  }
  return false;
}

void Task::prefill(lang::ExprId site, const lang::Value& value) {
  CallSlot& s = slot(site);
  if (s.resolved) return;
  s.result = value;
  s.resolved = true;
}

CallSlot* Task::find_slot(lang::ExprId site) {
  for (CallSlot& s : slots_) {
    if (s.site == site) return &s;
  }
  return nullptr;
}

CallSlot& Task::slot(lang::ExprId site) {
  if (CallSlot* existing = find_slot(site)) return *existing;
  slots_.push_back(CallSlot{});
  slots_.back().site = site;
  return slots_.back();
}

std::uint32_t Task::outstanding_children() const noexcept {
  std::uint32_t n = 0;
  for (const CallSlot& s : slots_) {
    if (s.outstanding()) ++n;
  }
  return n;
}

std::uint32_t Task::state_units(std::uint32_t ancestor_depth) const {
  std::uint32_t units = packet_.size_units();
  for (const CallSlot& s : slots_) {
    units += 1;
    if (s.resolved) units += s.result.size_units();
    if (s.spawned) {
      units += child_packet(s, net::kNoProc, ancestor_depth).size_units();
    }
  }
  return units;
}

}  // namespace splice::runtime
