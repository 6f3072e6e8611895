// colsgd_trace: summarizes a Chrome trace-event JSON produced by
// colsgd_train --trace_out (or WriteChromeTrace). Prints the simulated span,
// the top-k master-timeline phases, and per-node traffic / NIC utilization —
// the quick look before opening the file in Perfetto. Example:
//
//   colsgd_train --synthetic tiny --engine columnsgd --trace_out t.json
//   colsgd_trace --trace t.json --topk 4
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/flags.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_reader.h"

namespace colsgd {
namespace {

// Matches TraceTrack in obs/trace.h: tid 1 is the master's phase timeline.
constexpr uint32_t kPhasesTid = 1;

struct NodeUsage {
  double out_busy = 0.0;  // seconds the outbound NIC was occupied
  double in_busy = 0.0;   // seconds the inbound NIC was occupied
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  uint64_t messages_out = 0;
};

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string trace_path;
  std::string phase_csv;
  int64_t topk = 5;
  flags.AddString("trace", &trace_path, "trace-event JSON file to summarize");
  flags.AddString("phase_csv", &phase_csv,
                  "write per-iteration phase breakdown CSV here");
  flags.AddInt64("topk", &topk, "phases to print, most expensive first");
  flags.ParseOrExit(argc, argv, [&] {
    if (trace_path.empty()) {
      return Status::InvalidArgument("--trace is required");
    }
    if (topk < 1) return Status::InvalidArgument("--topk must be at least 1");
    return Status::OK();
  });

  Result<ParsedTrace> parsed = ReadChromeTraceFile(trace_path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const ParsedTrace& trace = *parsed;
  if (trace.events.empty()) {
    std::printf("%s: empty trace\n", trace_path.c_str());
    return 0;
  }

  // Simulated span covered by the trace (microseconds in the file).
  double first_us = trace.events.front().ts_us;
  double last_us = first_us;
  for (const ParsedTraceEvent& event : trace.events) {
    first_us = std::min(first_us, event.ts_us);
    last_us = std::max(last_us, event.ts_us + event.dur_us);
  }
  const double span = (last_us - first_us) * 1e-6;

  // Master-timeline phases (tid 1 'X' events; "iteration" wraps them).
  // Each phase also gets a duration histogram so the summary can show the
  // spread (p50/p95/p99) across occurrences, not just the total.
  std::map<std::string, double> phase_seconds;
  MetricsRegistry registry;
  int64_t iterations = 0;
  std::map<uint32_t, NodeUsage> usage;
  // Named spans on the per-node event tracks (tid 0): serve.*, recovery.*,
  // checkpoint — every SimObserver::OnSpan event, as opposed to the bulk
  // compute / mem.touch / net.send machinery.
  struct SpanStats {
    double seconds = 0.0;
    int64_t count = 0;
  };
  std::map<std::string, SpanStats> spans;
  // Per-iteration phase rows for --phase_csv, keyed by iteration number.
  struct IterationRow {
    double start_us = 0.0;
    double end_us = 0.0;
    std::map<std::string, double> phases;
  };
  std::map<int64_t, IterationRow> iteration_rows;
  for (const ParsedTraceEvent& event : trace.events) {
    if (event.tid == kPhasesTid && event.ph == 'X') {
      const int64_t iteration =
          static_cast<int64_t>(event.ArgUint("iteration"));
      if (event.name == "iteration") {
        ++iterations;
        IterationRow& row = iteration_rows[iteration];
        row.start_us = event.ts_us;
        row.end_us = event.ts_us + event.dur_us;
      } else {
        phase_seconds[event.name] += event.dur_us * 1e-6;
        registry.GetHistogram(event.name)->Observe(event.dur_us * 1e-6);
        iteration_rows[iteration].phases[event.name] += event.dur_us * 1e-6;
      }
      continue;
    }
    if (event.ph == 'X' && event.name != "net.send" &&
        event.name != "compute" && event.name != "mem.touch") {
      SpanStats& s = spans[event.name];
      s.seconds += event.dur_us * 1e-6;
      s.count++;
      registry.GetHistogram("span." + event.name)
          ->Observe(event.dur_us * 1e-6);
    }
    if (event.name == "net.send" && event.ph == 'X') {
      const uint64_t bytes = event.ArgUint("bytes");
      const uint32_t to = static_cast<uint32_t>(event.ArgUint("to"));
      NodeUsage& sender = usage[event.pid];
      sender.out_busy += event.dur_us * 1e-6;
      sender.bytes_out += bytes;
      sender.messages_out++;
      NodeUsage& receiver = usage[to];
      receiver.bytes_in += bytes;
      // Control messages bypass the inbound NIC queue (rx_start == rx_done).
      // rx_* args are microseconds, like ts/dur.
      receiver.in_busy +=
          (event.ArgDouble("rx_done") - event.ArgDouble("rx_start")) * 1e-6;
    }
  }

  std::printf("%s: %zu events, %.6fs simulated span, %lld iterations\n",
              trace_path.c_str(), trace.events.size(), span,
              static_cast<long long>(iterations));

  std::vector<std::pair<std::string, double>> phases(phase_seconds.begin(),
                                                     phase_seconds.end());
  std::sort(phases.begin(), phases.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  double phase_total = 0.0;
  for (const auto& [name, seconds] : phases) phase_total += seconds;
  if (!phases.empty()) {
    std::printf("\ntop phases (master clock):\n");
    std::printf("  %-14s %12s %8s %12s %12s %12s\n", "phase", "total", "share",
                "p50", "p95", "p99");
    const size_t n = std::min(phases.size(), static_cast<size_t>(topk));
    // Always surface staleness waits and serving phases, even when they fall
    // below the top-k cut — they are what the summary is usually asked for.
    std::set<size_t> shown;
    for (size_t i = 0; i < n; ++i) shown.insert(i);
    for (size_t i = n; i < phases.size(); ++i) {
      if (phases[i].first == "ssp.wait" ||
          phases[i].first.rfind("serve.", 0) == 0) {
        shown.insert(i);
      }
    }
    for (size_t i : shown) {
      const Histogram* h = registry.GetHistogram(phases[i].first);
      std::printf("  %-14s %11.6fs %7.1f%% %11.6fs %11.6fs %11.6fs\n",
                  phases[i].first.c_str(), phases[i].second,
                  100.0 * phases[i].second / phase_total, h->p50(), h->p95(),
                  h->p99());
    }
  }

  if (!spans.empty()) {
    std::printf("\nnamed spans (serve / recovery / checkpoint):\n");
    std::printf("  %-24s %8s %12s %12s %12s %12s\n", "span", "count", "total",
                "p50", "p95", "p99");
    for (const auto& [name, s] : spans) {
      const Histogram* h = registry.GetHistogram("span." + name);
      std::printf("  %-24s %8lld %11.6fs %11.6fs %11.6fs %11.6fs\n",
                  name.c_str(), static_cast<long long>(s.count), s.seconds,
                  h->p50(), h->p95(), h->p99());
    }
    // The failover split: how much of each outage was the detection window
    // (heartbeat / reply-timeout bound) vs the re-install shipment.
    const auto detect = spans.find("serve.failover.detect");
    const auto reinstall = spans.find("serve.failover.reinstall");
    if (detect != spans.end() && reinstall != spans.end()) {
      const double outage = detect->second.seconds + reinstall->second.seconds;
      std::printf("  failover outage split: %.1f%% detection, %.1f%% "
                  "re-install (%.6fs total)\n",
                  outage > 0.0 ? 100.0 * detect->second.seconds / outage : 0.0,
                  outage > 0.0
                      ? 100.0 * reinstall->second.seconds / outage
                      : 0.0,
                  outage);
    }
  }

  if (!usage.empty()) {
    std::printf("\nper-node NIC utilization over the span:\n");
    std::printf("  %-10s %8s %8s %14s %14s %9s\n", "node", "out%", "in%",
                "bytes_out", "bytes_in", "msgs_out");
    for (const auto& [node, u] : usage) {
      const auto name_it = trace.process_names.find(node);
      const std::string name = name_it != trace.process_names.end()
                                   ? name_it->second
                                   : "node " + std::to_string(node);
      std::printf("  %-10s %7.1f%% %7.1f%% %14llu %14llu %9llu\n",
                  name.c_str(), span > 0.0 ? 100.0 * u.out_busy / span : 0.0,
                  span > 0.0 ? 100.0 * u.in_busy / span : 0.0,
                  static_cast<unsigned long long>(u.bytes_out),
                  static_cast<unsigned long long>(u.bytes_in),
                  static_cast<unsigned long long>(u.messages_out));
    }
  }

  if (!phase_csv.empty()) {
    // Same shape as colsgd_train --phase_csv (obs/export.h), rebuilt from
    // the trace so an archived trace file is enough to get the breakdown.
    CsvWriter csv;
    std::vector<std::string> header = {"iteration", "start", "end"};
    for (int p = 0; p < static_cast<int>(Phase::kNumPhases); ++p) {
      header.push_back(PhaseName(static_cast<Phase>(p)));
    }
    header.push_back("total");
    Status csv_st = csv.Open(phase_csv, header);
    if (!csv_st.ok()) {
      std::fprintf(stderr, "%s\n", csv_st.ToString().c_str());
      return 1;
    }
    for (const auto& [iteration, row] : iteration_rows) {
      std::vector<double> cells = {static_cast<double>(iteration),
                                   row.start_us * 1e-6, row.end_us * 1e-6};
      double total = 0.0;
      for (int p = 0; p < static_cast<int>(Phase::kNumPhases); ++p) {
        const auto it = row.phases.find(PhaseName(static_cast<Phase>(p)));
        const double seconds = it != row.phases.end() ? it->second : 0.0;
        cells.push_back(seconds);
        total += seconds;
      }
      cells.push_back(total);
      csv.WriteNumericRow(cells);
    }
    std::printf("\nphase CSV written to %s (%zu iterations)\n",
                phase_csv.c_str(), iteration_rows.size());
  }
  return 0;
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) { return colsgd::Run(argc, argv); }
