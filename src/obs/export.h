// Trace exporters: Chrome trace_event JSON (chrome://tracing, Perfetto) and
// a per-iteration phase CSV.
//
// The JSON is emitted one event per line with fixed-precision timestamps, so
// two runs that made identical simulated decisions produce byte-identical
// files — the determinism golden test diffs them directly.
#ifndef COLSGD_OBS_EXPORT_H_
#define COLSGD_OBS_EXPORT_H_

#include <string>

#include "common/status.h"
#include "obs/trace.h"

namespace colsgd {

/// \brief Serializes the trace as Chrome trace_event JSON. Timestamps are
/// simulated microseconds; each node exports as one process (pid = node id,
/// named from the shape the tracer was attached with), with tid 0 = raw
/// events and tid 1 = the master's iteration/phase track.
std::string ChromeTraceJson(const Tracer& tracer);

/// \brief Writes ChromeTraceJson(tracer) to `path`.
Status WriteChromeTrace(const Tracer& tracer, const std::string& path);

/// \brief Writes the per-iteration phase breakdown (simulated seconds) as
/// CSV: iteration, start, end, one column per phase, total.
Status WritePhaseCsv(const Tracer& tracer, const std::string& path);

}  // namespace colsgd

#endif  // COLSGD_OBS_EXPORT_H_
