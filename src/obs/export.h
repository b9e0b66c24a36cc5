// Journal exporters.
//
// write_perfetto emits Chrome/Perfetto `trace_event` JSON (the
// {"traceEvents": [...]} object form): one track (tid) per processor plus
// a host track, every journal event as a 1-tick complete slice, flow
// arrows ("s"/"f" pairs keyed by the effect's event id) along causal
// edges, and counter tracks ("ph":"C") from the metrics time series —
// load either into ui.perfetto.dev or chrome://tracing. Ticks map 1:1 to
// trace microseconds (one tick nominally models 1 µs, sim/time.h).
//
// write_series_csv / write_series_json emit the per-window goodput +
// gauge + latency-quantile series (`splice_trace record --series-csv` and
// `--series-json`).
//
// merge stitches per-rank journals (splice_noded --journal dumps) into one
// timeline: events re-sorted by time, re-numbered consecutively, causal
// edges remapped — rank-local ids never leak into the merged journal.
#pragma once

#include <ostream>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"

namespace splice::obs {

void write_perfetto(const Journal& journal, const std::vector<TimePoint>& series,
                    std::ostream& out);

inline void write_perfetto(const Journal& journal, std::ostream& out) {
  write_perfetto(journal, {}, out);
}

void write_series_csv(const std::vector<TimePoint>& series, std::ostream& out);
void write_series_json(const std::vector<TimePoint>& series, std::ostream& out);

/// Merge per-rank journals into one consecutive-id timeline. Header totals
/// sum; processors takes the max (ranks report the same machine size).
[[nodiscard]] Journal merge(const std::vector<Journal>& journals);

}  // namespace splice::obs
