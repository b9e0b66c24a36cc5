#include "core/trace.h"

#include <sstream>
#include <utility>

namespace splice::core {

void Trace::add(sim::SimTime t, net::ProcId proc, std::string kind,
                std::string detail) {
  if (!enabled_) return;
  events_.push_back(
      TraceEvent{t.ticks(), proc, std::move(kind), std::move(detail)});
}

std::vector<TraceEvent> Trace::of_kind(const std::string& kind) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

bool Trace::contains(const std::string& kind,
                     const std::string& detail_substr) const {
  for (const TraceEvent& e : events_) {
    if (e.kind == kind && e.detail.find(detail_substr) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::string Trace::render() const {
  std::ostringstream out;
  for (const TraceEvent& e : events_) {
    out << "t=" << e.ticks << " ";
    if (e.proc == net::kNoProc) {
      out << "[host] ";
    } else {
      out << "[P" << e.proc << "]   ";
    }
    out << e.kind << ": " << e.detail << "\n";
  }
  return out.str();
}

}  // namespace splice::core
