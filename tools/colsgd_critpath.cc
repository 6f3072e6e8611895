// colsgd_critpath: analyzes a causal DAG recorded by colsgd_train --dag_out
// (obs/critpath). Prints the end-to-end critical path with per-(resource,
// node) blame that tiles the makespan exactly, answers what-if questions by
// replaying the log under hypothetical changes, and exports machine-readable
// artifacts: a versioned critical-path JSON, a Chrome-trace overlay track,
// and a BENCH_critpath.json suite for the colsgd_report regression gate.
//
//   colsgd_train --synthetic tiny --engine columnsgd --dag_out run.dag.json
//   colsgd_critpath --dag run.dag.json --topk 8
//   colsgd_critpath --dag run.dag.json --check            # conservation gate
//   colsgd_critpath --dag run.dag.json --what_if straggler[1]=0
//   colsgd_critpath --dag run.dag.json --sweep bandwidth=1,2,4,8
//   colsgd_critpath --dag run.dag.json --overlay t.json --overlay_out o.json
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/flags.h"
#include "obs/bench/bench_result.h"
#include "obs/bench/json.h"
#include "obs/critpath/analysis.h"
#include "obs/critpath/dag_json.h"
#include "obs/critpath/retime.h"

namespace colsgd {
namespace {

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (written != text.size() || rc != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// Applies one `key=value` entry of a what-if spec. Scalar keys: mem,
/// bandwidth, latency, overhead, slack (a whole-number bump). Per-node keys:
/// compute[N], straggler[N], local[N] — N is a node id, or * for all nodes.
/// Every value must be finite, a scale at least 0 and bandwidth above 0, and
/// slack a whole number below 2^63. With `num_nodes` 0 (no DAG read yet) a
/// per-node entry is checked but not applied.
Status ApplyWhatIfEntry(const std::string& entry, uint32_t num_nodes,
                        WhatIf* w) {
  const size_t eq = entry.find('=');
  if (eq == std::string::npos) {
    return Status::InvalidArgument("what-if entry '" + entry +
                                   "' is not key=value");
  }
  const std::string key = entry.substr(0, eq);
  const std::string value_str = entry.substr(eq + 1);
  char* end = nullptr;
  const double value = std::strtod(value_str.c_str(), &end);
  if (end == value_str.c_str() || *end != '\0') {
    return Status::InvalidArgument("what-if value '" + value_str +
                                   "' is not a number");
  }
  if (!std::isfinite(value) || value < 0.0 ||
      (key == "bandwidth" && value == 0.0)) {
    return Status::InvalidArgument(
        "what-if " + key + "=" + value_str +
        ": values must be finite and >= 0, bandwidth above 0");
  }
  if (key == "mem") {
    w->mem_scale = value;
    return Status::OK();
  }
  if (key == "bandwidth") {
    w->bandwidth_scale = value;
    return Status::OK();
  }
  if (key == "latency") {
    w->latency_scale = value;
    return Status::OK();
  }
  if (key == "overhead") {
    w->overhead_scale = value;
    return Status::OK();
  }
  if (key == "slack") {
    if (value != std::floor(value) || value >= 0x1p63) {
      return Status::InvalidArgument("what-if slack must be a whole number "
                                     "below 2^63");
    }
    w->slack_delta = static_cast<int64_t>(value);
    return Status::OK();
  }
  const size_t lb = key.find('[');
  if (lb == std::string::npos || key.back() != ']') {
    return Status::InvalidArgument("unknown what-if key '" + key + "'");
  }
  const std::string base = key.substr(0, lb);
  const std::string index = key.substr(lb + 1, key.size() - lb - 2);
  std::vector<double>* scales = nullptr;
  if (base == "compute") scales = &w->compute_scale;
  if (base == "straggler") scales = &w->straggler_scale;
  if (base == "local") scales = &w->local_scale;
  if (scales == nullptr) {
    return Status::InvalidArgument("unknown what-if key '" + key + "'");
  }
  if (num_nodes == 0) return Status::OK();
  if (scales->size() < num_nodes) scales->resize(num_nodes, 1.0);
  if (index == "*") {
    std::fill(scales->begin(), scales->end(), value);
    return Status::OK();
  }
  const long node = std::strtol(index.c_str(), &end, 10);
  if (end == index.c_str() || *end != '\0' || node < 0 ||
      node >= static_cast<long>(num_nodes)) {
    return Status::InvalidArgument("what-if node index '" + index +
                                   "' out of range");
  }
  (*scales)[static_cast<size_t>(node)] = value;
  return Status::OK();
}

/// The non-empty items of a comma-separated list.
std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> items;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    if (comma > pos) items.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return items;
}

Status ParseWhatIf(const std::string& spec, uint32_t num_nodes, WhatIf* w) {
  for (const std::string& entry : SplitCommas(spec)) {
    COLSGD_RETURN_NOT_OK(ApplyWhatIfEntry(entry, num_nodes, w));
  }
  return Status::OK();
}

/// The values of `--sweep key=v1,v2,...`, checked as what-if entries (none
/// when `spec` is empty).
Result<std::vector<std::string>> SweepValues(const std::string& spec) {
  if (spec.empty()) return std::vector<std::string>{};
  const size_t eq = spec.find('=');
  const std::vector<std::string> values =
      eq == std::string::npos ? std::vector<std::string>{}
                              : SplitCommas(spec.substr(eq + 1));
  if (values.empty()) {
    return Status::InvalidArgument("--sweep must be key=v1,v2,...");
  }
  WhatIf w;
  for (const std::string& value : values) {
    COLSGD_RETURN_NOT_OK(
        ApplyWhatIfEntry(spec.substr(0, eq + 1) + value, 0, &w));
  }
  return values;
}

std::string NodeName(const CritDag& dag, uint32_t node) {
  if (node == 0) return "master";
  if (node <= static_cast<uint32_t>(dag.num_workers)) {
    return "worker " + std::to_string(node - 1);
  }
  return "extra " + std::to_string(node - dag.num_workers - 1);
}

void PrintBlame(const CritDag& dag, const CritPathResult& result) {
  std::printf("\nblame (tiles the makespan):\n");
  std::printf("  %-10s %-10s %12s %8s\n", "resource", "node", "seconds",
              "share");
  std::vector<std::pair<std::pair<int, uint32_t>, double>> rows(
      result.blame.begin(), result.blame.end());
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  for (const auto& [key, seconds] : rows) {
    std::printf("  %-10s %-10s %11.6fs %7.2f%%\n",
                BlameKindName(static_cast<BlameKind>(key.first)),
                NodeName(dag, key.second).c_str(), seconds,
                result.makespan > 0.0 ? 100.0 * seconds / result.makespan
                                      : 0.0);
  }
}

void PrintTopSegments(const CritDag& dag, const CritPathResult& result,
                      int64_t topk) {
  std::vector<PathStep> segments = result.steps;
  std::stable_sort(segments.begin(), segments.end(),
                   [](const PathStep& a, const PathStep& b) {
                     return a.length() > b.length();
                   });
  const size_t n = std::min(segments.size(), static_cast<size_t>(topk));
  if (n == 0) return;
  std::printf("\ntop path segments:\n");
  std::printf("  %-10s %-10s %12s %14s %14s\n", "resource", "node", "length",
              "start", "end");
  for (size_t i = 0; i < n; ++i) {
    const PathStep& s = segments[i];
    std::printf("  %-10s %-10s %11.6fs %13.6fs %13.6fs\n",
                BlameKindName(s.kind), NodeName(dag, s.node).c_str(),
                s.length(), s.t0, s.t1);
  }
}

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string dag_path;
  int64_t topk = 10;
  bool check = false;
  std::string what_if_spec;
  std::string sweep_spec;
  std::string overlay_path;
  std::string overlay_out;
  std::string critpath_out;
  std::string bench_out;
  flags.AddString("dag", &dag_path, "causal DAG JSON (colsgd_train --dag_out)");
  flags.AddInt64("topk", &topk, "path segments to print, longest first");
  flags.AddBool("check", &check,
                "exit nonzero unless the critical path tiles the makespan to "
                "1e-9 with zero unexplained gaps");
  flags.AddString("what_if", &what_if_spec,
                  "comma-separated retiming spec, e.g. "
                  "straggler[1]=0,bandwidth=2,slack=1");
  flags.AddString("sweep", &sweep_spec,
                  "sweep one what-if key over values, e.g. bandwidth=1,2,4,8");
  flags.AddString("overlay", &overlay_path,
                  "Chrome trace to overlay the critical path onto");
  flags.AddString("overlay_out", &overlay_out,
                  "output path for the overlay trace");
  flags.AddString("critpath_out", &critpath_out,
                  "write the colsgd.critpath/v1 report JSON here");
  flags.AddString("bench_out", &bench_out,
                  "write a BENCH suite (suite 'critpath') here for "
                  "colsgd_report gating");
  std::vector<std::string> sweep_values;
  flags.ParseOrExit(argc, argv, [&]() -> Status {
    if (dag_path.empty()) return Status::InvalidArgument("--dag is required");
    // The critpath JSON takes the count as an int.
    if (topk < 0 || topk > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("--topk must lie in [0, INT_MAX]");
    }
    if (overlay_path.empty() != overlay_out.empty()) {
      return Status::InvalidArgument(
          "--overlay and --overlay_out go together");
    }
    WhatIf w;
    COLSGD_RETURN_NOT_OK(ParseWhatIf(what_if_spec, 0, &w));
    COLSGD_ASSIGN_OR_RETURN(sweep_values, SweepValues(sweep_spec));
    return Status::OK();
  });

  Result<CritDag> dag_result = ReadCritDagFile(dag_path);
  if (!dag_result.ok()) {
    std::fprintf(stderr, "%s\n", dag_result.status().ToString().c_str());
    return 1;
  }
  const CritDag& dag = *dag_result;
  Result<CritPathResult> path_result = ExtractCriticalPath(dag);
  if (!path_result.ok()) {
    std::fprintf(stderr, "%s\n", path_result.status().ToString().c_str());
    return 1;
  }
  const CritPathResult& path = *path_result;
  const double conservation = std::fabs(path.PathLength() - path.makespan);

  std::printf(
      "%s: %zu ops, %u nodes (%d workers), fingerprint %08x\n", dag_path.c_str(),
      dag.ops.size(), dag.num_nodes, dag.num_workers, CritDagFingerprint(dag));
  std::printf(
      "makespan %.9fs on %s; path: %zu segments, length %.9fs "
      "(|path-makespan| = %.3g, unexplained gaps: %lld)\n",
      path.makespan, NodeName(dag, path.makespan_node).c_str(),
      path.steps.size(), path.PathLength(), conservation,
      static_cast<long long>(path.exact_misses));

  PrintBlame(dag, path);
  PrintTopSegments(dag, path, topk);

  Status st;
  if (!what_if_spec.empty()) {
    WhatIf w;
    st = ParseWhatIf(what_if_spec, dag.num_nodes, &w);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    Result<RetimeResult> retimed = Retime(dag, w);
    if (!retimed.ok()) {
      std::fprintf(stderr, "%s\n", retimed.status().ToString().c_str());
      return 1;
    }
    std::printf("\nwhat-if [%s]: predicted makespan %.9fs (%.2f%% of "
                "recorded)\n",
                what_if_spec.c_str(), retimed->makespan,
                path.makespan > 0.0 ? 100.0 * retimed->makespan / path.makespan
                                    : 0.0);
  }

  if (!sweep_values.empty()) {
    const std::string key = sweep_spec.substr(0, sweep_spec.find('='));
    std::printf("\nsweep %s:\n  %-12s %14s %10s\n", key.c_str(), "value",
                "makespan", "vs base");
    for (const std::string& value : sweep_values) {
      WhatIf w;
      st = ParseWhatIf(what_if_spec, dag.num_nodes, &w);  // base spec first
      if (st.ok()) st = ApplyWhatIfEntry(key + "=" + value, dag.num_nodes, &w);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 2;
      }
      Result<RetimeResult> retimed = Retime(dag, w);
      if (!retimed.ok()) {
        std::fprintf(stderr, "%s\n", retimed.status().ToString().c_str());
        return 1;
      }
      std::printf("  %-12s %13.6fs %9.2f%%\n", value.c_str(),
                  retimed->makespan,
                  path.makespan > 0.0
                      ? 100.0 * retimed->makespan / path.makespan
                      : 0.0);
    }
  }

  if (!critpath_out.empty()) {
    st = WriteTextFile(critpath_out,
                       CritPathJson(dag, path, static_cast<int>(topk))
                               .Serialize() +
                           "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", critpath_out.c_str());
  }

  if (!overlay_path.empty()) {
    Result<std::string> text = ReadTextFile(overlay_path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    Result<JsonValue> doc = ParseJson(*text);
    if (!doc.ok()) {
      std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
      return 1;
    }
    const JsonValue* events = doc->Find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      std::fprintf(stderr, "%s: no traceEvents array\n", overlay_path.c_str());
      return 1;
    }
    // The overlay rides on a dedicated pid above every simulated node so
    // Perfetto shows it as its own process row.
    const uint32_t overlay_pid = dag.num_nodes + 1000;
    JsonValue out_events = *events;
    {
      JsonValue meta = JsonValue::Object();
      meta.Set("ph", JsonValue::String("M"));
      meta.Set("name", JsonValue::String("process_name"));
      meta.Set("pid", JsonValue::Number(overlay_pid));
      meta.Set("tid", JsonValue::Number(0));
      JsonValue args = JsonValue::Object();
      args.Set("name", JsonValue::String("critical path"));
      meta.Set("args", std::move(args));
      out_events.Append(std::move(meta));
    }
    for (const PathStep& step : path.steps) {
      if (step.length() <= 0.0) continue;
      JsonValue e = JsonValue::Object();
      e.Set("ph", JsonValue::String("X"));
      e.Set("name", JsonValue::String(BlameKindName(step.kind)));
      e.Set("pid", JsonValue::Number(overlay_pid));
      e.Set("tid", JsonValue::Number(0));
      e.Set("ts", JsonValue::Number(step.t0 * 1e6));
      e.Set("dur", JsonValue::Number(step.length() * 1e6));
      JsonValue args = JsonValue::Object();
      args.Set("node", JsonValue::Number(step.node));
      args.Set("blamed", JsonValue::String(NodeName(dag, step.node)));
      e.Set("args", std::move(args));
      out_events.Append(std::move(e));
    }
    JsonValue out_doc = JsonValue::Object();
    for (const auto& [key, value] : doc->members()) {
      if (key == "traceEvents") {
        out_doc.Set(key, std::move(out_events));
      } else {
        out_doc.Set(key, value);
      }
    }
    st = WriteTextFile(overlay_out, out_doc.Serialize() + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu path segments overlaid)\n", overlay_out.c_str(),
                path.steps.size());
  }

  if (!bench_out.empty()) {
    BenchSuite suite;
    suite.suite = "critpath";
    suite.env["git"] = GitDescribe();
    suite.env["source"] = "colsgd_critpath";
    BenchResult* r = suite.AddResult("critpath/conservation");
    r->env["nodes"] = std::to_string(dag.num_nodes);
    r->env["workers"] = std::to_string(dag.num_workers);
    r->metrics["makespan_seconds"] = path.makespan;
    r->metrics["path_segments"] = static_cast<double>(path.steps.size());
    r->metrics["conservation_error"] = conservation;
    r->metrics["unexplained_gaps"] = static_cast<double>(path.exact_misses);
    for (int kind = 0; kind <= static_cast<int>(BlameKind::kExternal);
         ++kind) {
      r->metrics[std::string("blame_") +
                 BlameKindName(static_cast<BlameKind>(kind))] =
          path.BlameSeconds(static_cast<BlameKind>(kind));
    }
    st = WriteBenchSuite(suite, bench_out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", bench_out.c_str());
  }

  if (check) {
    if (conservation > 1e-9 || path.exact_misses != 0) {
      std::fprintf(stderr,
                   "CHECK FAILED: |path - makespan| = %.3g (limit 1e-9), "
                   "unexplained gaps = %lld\n",
                   conservation, static_cast<long long>(path.exact_misses));
      return 1;
    }
    std::printf("\ncheck OK: path tiles the makespan to 1e-9 with no "
                "unexplained gaps\n");
  }
  return 0;
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) { return colsgd::Run(argc, argv); }
