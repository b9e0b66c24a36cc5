// Optional human-readable event trace.
//
// The figure-walkthrough benches (Fig. 1/2/3 scenarios) replay the paper's
// narrative from this trace; tests assert on event sequences.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.h"
#include "sim/time.h"

namespace splice::core {

struct TraceEvent {
  std::int64_t ticks = 0;
  net::ProcId proc = net::kNoProc;
  std::string kind;    // e.g. "spawn", "checkpoint", "twin", "relay"
  std::string detail;
};

class Trace {
 public:
  explicit Trace(bool enabled = false) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  void add(sim::SimTime t, net::ProcId proc, std::string kind,
           std::string detail);

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }

  /// Events of a given kind, in order.
  [[nodiscard]] std::vector<TraceEvent> of_kind(const std::string& kind) const;

  /// True if an event matching (kind, detail-substring) exists.
  [[nodiscard]] bool contains(const std::string& kind,
                              const std::string& detail_substr) const;

  [[nodiscard]] std::string render() const;

 private:
  bool enabled_;
  std::vector<TraceEvent> events_;
};

}  // namespace splice::core
