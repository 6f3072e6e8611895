// Machine-readable benchmark results: the BENCH_*.json schema.
//
// Every bench binary (bench/) emits one BenchSuite per run — a versioned
// JSON document holding, per measured configuration, an environment block
// (engine, model, dataset, cost-model parameters, seed, git describe), a
// flat map of comparable scalar metrics (times, bytes, losses, derived
// p50/p95 and time-to-target stats), and optional per-iteration time-series
// columns built from the TimeSeriesRecorder samples. tools/colsgd_report
// diffs two such files and gates CI on regressions (obs/bench/report.h).
//
// The writer is deterministic (sorted keys, shortest round-tripping number
// strings, NaN as null), so writer → reader → writer is byte-identical and
// two identical simulated runs produce byte-identical files. Schema changes
// bump kBenchSchemaVersion; the reader rejects documents it does not
// understand rather than guessing. DESIGN.md §9 documents the schema and
// the derived-stat definitions.
#ifndef COLSGD_OBS_BENCH_BENCH_RESULT_H_
#define COLSGD_OBS_BENCH_BENCH_RESULT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/bench/timeseries.h"
#include "obs/metrics.h"

namespace colsgd {

/// \brief Schema tag written into every BENCH file; readers reject others.
inline constexpr const char* kBenchSchema = "colsgd.bench/v1";

/// \brief One measured configuration within a suite.
struct BenchResult {
  /// Unique within the suite, e.g. "kddb-sim/lr/columnsgd".
  std::string name;
  /// Environment block: engine, model, dataset, batch_size, seed, workers,
  /// cost-model parameters — everything needed to re-run this point.
  std::map<std::string, std::string> env;
  /// Comparable scalars (simulated seconds, bytes, losses). All metrics are
  /// lower-is-better; colsgd_report flags `new > old * (1 + threshold)`.
  std::map<std::string, double> metrics;
  /// Per-iteration columns (same length each), e.g. "sim_time",
  /// "batch_loss", "iter_seconds", "phase_wire". Optional.
  std::map<std::string, std::vector<double>> series;
};

/// \brief One BENCH_*.json document.
struct BenchSuite {
  /// Suite name, e.g. "fig8_convergence"; the file is BENCH_<suite>.json.
  std::string suite;
  /// Suite-wide environment: git describe, cluster presets, run flags.
  std::map<std::string, std::string> env;
  std::vector<BenchResult> results;

  BenchResult* AddResult(const std::string& name) {
    results.emplace_back();
    results.back().name = name;
    return &results.back();
  }
  const BenchResult* FindResult(const std::string& name) const {
    for (const BenchResult& r : results) {
      if (r.name == name) return &r;
    }
    return nullptr;
  }
};

/// \brief Serializes the suite (deterministic layout; see header comment).
std::string BenchSuiteJson(const BenchSuite& suite);

/// \brief Writes BenchSuiteJson to `path`.
Status WriteBenchSuite(const BenchSuite& suite, const std::string& path);

/// \brief Parses a BENCH document; rejects wrong schema tags, non-numeric
/// series cells, and unknown top-level/result fields.
Result<BenchSuite> ParseBenchSuiteJson(const std::string& json);

/// \brief Reads and parses a BENCH_*.json file.
Result<BenchSuite> ReadBenchSuiteFile(const std::string& path);

/// \brief Converts recorder samples into series columns on `result`:
/// iteration, sim_time, iter_seconds, bytes, messages, bytes_master, plus
/// batch_loss / eval_loss / grad_norm when any sample has a finite value,
/// phase_<name> columns when phases were captured, and fault columns
/// (task_failures, worker_failures, checkpoints, recovery_seconds) when any
/// fired. Column presence is a deterministic function of the samples.
void AppendSampleSeries(const std::vector<TimeSeriesSample>& samples,
                        BenchResult* result);

/// \brief Fills derived metrics from the series columns (DESIGN.md §9):
/// iter_p50 / iter_p95 / iter_p99 (exact order statistics of iter_seconds,
/// linearly interpolated), bytes_per_iter, and — when batch_loss + sim_time
/// exist — target_loss and time_to_target_loss. The target is
/// `final + 0.1 * (first - final)` over 10-iteration moving averages unless
/// metrics["target_loss"] was preset by the caller; time_to_target_loss is
/// omitted when the smoothed loss never reaches the target (colsgd_report
/// then flags the missing metric).
void ComputeDerivedStats(BenchResult* result);

/// \brief `git describe --always --dirty` captured at build time, or
/// "unknown" outside a git checkout or a build by src/obs/CMakeLists.txt.
std::string GitDescribe();

/// \brief Serializes a MetricsRegistry as JSON (counters as integers,
/// histograms with count/sum/min/max/mean/p50/p95/p99 and the raw buckets).
/// Deterministic: name-sorted, same number formatting as the bench writer.
std::string MetricsRegistryJson(const MetricsRegistry& registry);

}  // namespace colsgd

#endif  // COLSGD_OBS_BENCH_BENCH_RESULT_H_
