// Host-time benchmark of the ColumnSGD simulator.
//
// The simulator reports its results on a simulated clock; this driver
// measures the simulator itself on the host clock. It generates one workload
// from --seed, drives the library's public API (GenerateSynthetic,
// MakeEngine, Engine::Setup/RunIteration/FinishTraining/FullModel,
// ServeFleet::Install/Run, GenerateArrivals), times every call from outside,
// checks the outputs, and prints one JSON result line last on stdout.
//
//   --trace 0  end-to-end metrics from untraced runs, repeated until
//              --seconds have passed; host set-up time and host throughput
//              are medians over them.
//   --trace 1  per-layer metrics: untraced/traced pairs of runs (Tracer and
//              CritPathRecorder attached), passivity checks between them, and
//              outside-in probes of single layers run after the measured runs.
//
// Everything runs on one thread with the scalar kernel mode. See README.md
// for the workload table and the layer -> end-to-end map.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "datagen/synthetic.h"
#include "engine/trainer.h"
#include "linalg/kernels/kernels.h"
#include "obs/critpath/analysis.h"
#include "obs/critpath/critpath.h"
#include "obs/trace.h"
#include "serve/fleet.h"
#include "serve/inference.h"
#include "storage/partitioner.h"
#include "storage/transform.h"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace colsgd {
namespace {

constexpr size_t kBatch = 1000;
constexpr size_t kEvalRows = 10000;
constexpr int kWorkers = 8;
constexpr int kMinRepeats = 3;
constexpr int kMaxRepeats = 50;
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ---- Workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  bool serving = false;
  // Training workloads.
  std::string engine;
  std::string model;
  double learning_rate = 0.0;
  int64_t iterations = 0;  // per repeat; fixed so results are deterministic
  // Serving workload.
  int replicas = 0;
  int shards = 0;
  uint64_t model_features = 0;
  uint64_t query_rows = 0;
  double rate = 0.0;
  int64_t requests = 0;
};

// Learning rates are the repo's grid-searched ones for kdd12-sim (LR 512,
// FM 32 at B=1000).
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> w(4);
    w[0].name = "col-lr-kdd12";
    w[0].engine = "columnsgd";
    w[0].model = "lr";
    w[0].learning_rate = 512.0;
    w[0].iterations = 1500;
    w[1].name = "ps-fm-kdd12";
    w[1].engine = "mxnet";
    w[1].model = "fm10";
    w[1].learning_rate = 32.0;
    w[1].iterations = 100;
    w[2].name = "mllibstar-lr-kdd12";
    w[2].engine = "mllib_star";
    w[2].model = "lr";
    w[2].learning_rate = 512.0;
    w[2].iterations = 15;
    w[3].name = "serve-fleet";
    w[3].serving = true;
    w[3].model = "lr";
    w[3].replicas = 2;
    w[3].shards = 8;
    w[3].model_features = 1000000;
    w[3].query_rows = 20000;
    w[3].rate = 6000.0;
    w[3].requests = 100000;
    return w;
  }();
  return workloads;
}

// ---- Per-layer metrics --------------------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every metric a traced run reports, on every workload. Units named sim_*
// are on the simulated clock; the others are host time or exact counts.
constexpr LayerMetric kLayerMetrics[] = {
    {"datagen.s", "s"},
    {"engine.iter_ms.p50", "ms"},
    {"engine.iter_ms.p99", "ms"},
    {"engine.finish_s", "s"},
    {"engine.full_model_s", "s"},
    {"model.init_s", "s"},
    {"storage.transform_s", "s"},
    {"kernels.fwd_ns_per_nnz", "ns"},
    {"kernels.est_share", "fraction"},
    {"simnet.bytes_per_iter", "bytes"},
    {"simnet.msgs_per_iter", "count"},
    {"phase.serialization", "sim_s"},
    {"phase.compute", "sim_s"},
    {"phase.wire", "sim_s"},
    {"phase.barrier", "sim_s"},
    {"phase.ssp_wait", "sim_s"},
    {"blame.compute", "sim_s"},
    {"blame.mem", "sim_s"},
    {"blame.local", "sim_s"},
    {"blame.straggler", "sim_s"},
    {"blame.nic.out", "sim_s"},
    {"blame.link", "sim_s"},
    {"blame.nic.in", "sim_s"},
    {"blame.sweep", "sim_s"},
    {"blame.external", "sim_s"},
    {"obs.trace_overhead_frac", "fraction"},
    {"serve.run_s", "s"},
    {"serve.install_s", "s"},
    {"serve.queue_ms", "sim_ms"},
    {"serve.scatter_ms", "sim_ms"},
    {"serve.compute_ms", "sim_ms"},
    {"serve.gather_ms", "sim_ms"},
    {"serve.batches", "count"},
    {"serve.wire_bytes_per_req", "bytes"},
};

const char* LayerMetricUnit(const std::string& name) {
  for (const LayerMetric& m : kLayerMetrics) {
    if (name == m.name) return m.unit;
  }
  return nullptr;
}

// ---- Small helpers ------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return kNan;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint32_t WeightsCrc(const std::vector<double>& weights) {
  return Crc32c(weights.data(), weights.size() * sizeof(double));
}

std::vector<SparseVectorView> RowViews(const Dataset& data) {
  std::vector<SparseVectorView> rows;
  rows.reserve(data.num_rows());
  for (size_t i = 0; i < data.num_rows(); ++i) rows.push_back(data.rows.Row(i));
  return rows;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Collects the run's output checks and its operation counts (iterations, or
/// requests offered). A failed check is named, turns the result's "correct"
/// off, and fails every operation of the repeat it belongs to; a non-OK
/// iteration or a rejected or timed-out request always fails a check.
struct Checks {
  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void CountRepeat(int64_t ops, bool checks_ok) {
    attempted += ops;
    if (!checks_ok) failed += ops;
  }
  /// Share of operations that succeeded; 0 once any check failed, so a
  /// failed run never reads as a plausible figure.
  double OkFraction() const {
    if (!failures.empty() || attempted == 0) return 0.0;
    return 1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- Training -----------------------------------------------------------------

struct TrainRun {
  Status status;
  double setup_s = 0.0;
  std::vector<double> iter_s;      // host seconds per RunIteration
  std::vector<double> sim_iter_s;  // master-clock seconds per iteration
  double finish_s = 0.0;
  double full_model_s = 0.0;
  double sim_train_s = 0.0;        // master clock, end of Setup -> finish
  double sim_train_start = 0.0;
  uint32_t crc = 0;
  double final_loss = kNan;
  double loss_after_iter0 = kNan;  // only when requested
  uint64_t bytes = 0;
  uint64_t messages = 0;
  PhaseBreakdown phases;           // summed over iterations (traced runs)
  int64_t traced_iterations = 0;

  double HostSeconds() const {
    double total = setup_s + finish_s;
    for (double s : iter_s) total += s;
    return total;
  }
  double SimPerIter() const {
    return iter_s.empty() ? kNan
                          : sim_train_s / static_cast<double>(iter_s.size());
  }
  /// Host rows per second: iterations x B over the host seconds in
  /// RunIteration plus FinishTraining.
  double ExamplesPerSecond() const {
    double seconds = finish_s;
    for (double s : iter_s) seconds += s;
    return static_cast<double>(iter_s.size() * kBatch) / seconds;
  }
};

/// One Setup + `iterations` RunIteration + FinishTraining + FullModel on a
/// fresh engine. Observers, when given, are attached before Setup.
TrainRun RunTrain(const Workload& w, const Dataset& data, uint64_t seed,
                  Tracer* tracer, CritPathRecorder* critpath, bool eval_iter0,
                  std::vector<double>* weights_out) {
  TrainRun run;
  TrainConfig config;
  config.model = w.model;
  config.learning_rate = w.learning_rate;
  config.batch_size = kBatch;
  config.seed = seed;
  std::unique_ptr<Engine> engine =
      MakeEngine(w.engine, ClusterSpec::Cluster1(), config);
  if (tracer != nullptr) engine->set_tracer(tracer);
  if (critpath != nullptr) engine->set_critpath(critpath);

  Stopwatch watch;
  run.status = engine->Setup(data);
  run.setup_s = watch.ElapsedSeconds();
  if (!run.status.ok()) return run;

  ClusterRuntime& runtime = engine->runtime();
  const TrafficStats before = runtime.net().TotalStats();
  run.sim_train_start = runtime.clock(runtime.master());
  double prev = run.sim_train_start;
  run.iter_s.reserve(static_cast<size_t>(w.iterations));
  for (int64_t it = 0; it < w.iterations; ++it) {
    watch.Restart();
    run.status = engine->RunIteration(it);
    run.iter_s.push_back(watch.ElapsedSeconds());
    if (!run.status.ok()) return run;
    const double now = runtime.clock(runtime.master());
    run.sim_iter_s.push_back(now - prev);
    prev = now;
    if (it == 0 && eval_iter0) {
      run.loss_after_iter0 =
          EvaluateLoss(engine->model(), engine->FullModel(), data, kEvalRows);
    }
  }
  watch.Restart();
  run.status = engine->FinishTraining();
  run.finish_s = watch.ElapsedSeconds();
  if (!run.status.ok()) return run;
  run.sim_train_s = runtime.clock(runtime.master()) - run.sim_train_start;
  const TrafficStats after = runtime.net().TotalStats();
  run.bytes = after.bytes_sent - before.bytes_sent;
  run.messages = after.messages_sent - before.messages_sent;

  watch.Restart();
  std::vector<double> weights = engine->FullModel();
  run.full_model_s = watch.ElapsedSeconds();
  run.crc = WeightsCrc(weights);
  run.final_loss = EvaluateLoss(engine->model(), weights, data, kEvalRows);
  if (tracer != nullptr) {
    for (const IterationPhases& iter : tracer->iterations()) {
      for (int p = 0; p < static_cast<int>(Phase::kNumPhases); ++p) {
        run.phases.seconds[p] += iter.phases.seconds[p];
      }
      ++run.traced_iterations;
    }
  }
  if (weights_out != nullptr) *weights_out = std::move(weights);
  return run;
}

Dataset TrainData(uint64_t seed) {
  SyntheticSpec spec = Kdd12SimSpec();
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

// ---- Serving ------------------------------------------------------------------

struct ServeInputs {
  Dataset queries;
  SavedModel model;
  std::vector<ServeRequest> arrivals;
};

ServeInputs MakeServeInputs(const Workload& w, uint64_t seed) {
  ServeInputs in;
  SyntheticSpec spec;
  spec.name = "queries";
  spec.num_rows = w.query_rows;
  spec.num_features = w.model_features;
  spec.avg_nnz_per_row = 15.0;
  spec.label_noise = 4.0;
  spec.seed = seed;
  in.queries = GenerateSynthetic(spec);
  // Serve the planted model the labels were drawn from, scaled like the
  // generator's margin, so the served log loss is a meaningful figure.
  in.model.model_name = w.model;
  in.model.num_features = w.model_features;
  in.model.weights.resize(w.model_features);
  const double scale = spec.label_noise / std::sqrt(spec.avg_nnz_per_row);
  for (uint64_t f = 0; f < w.model_features; ++f) {
    in.model.weights[f] = scale * PlantedWeight(f, seed);
  }
  WorkloadConfig arrivals;
  arrivals.arrivals = "poisson";
  arrivals.rate = w.rate;
  arrivals.num_requests = w.requests;
  arrivals.seed = seed;
  in.arrivals = GenerateArrivals(arrivals, in.queries.num_rows());
  return in;
}

FleetConfig MakeFleetConfig(const Workload& w, uint64_t seed) {
  FleetConfig config;
  config.replicas = w.replicas;
  config.serve.num_shards = w.shards;
  config.hedging = true;
  config.seed = seed;
  return config;
}

struct ServeRun {
  Status status;
  double ctor_s = 0.0;
  double install_s = 0.0;
  double run_s = 0.0;
  FleetSummary summary;
  uint64_t fingerprint = 0;
  std::vector<double> scores;  // per request id; NaN unless completed
  std::vector<uint32_t> rows;
  double queue_ms = 0.0, scatter_ms = 0.0, compute_ms = 0.0, gather_ms = 0.0;
  double served_loss = kNan;
  uint64_t served_nnz = 0;
  uint64_t bytes = 0;
  uint64_t messages = 0;

  double SetupSeconds() const { return ctor_s + install_s; }
};

ServeRun RunServe(const Workload& w, const ServeInputs& in, uint64_t seed,
                  Tracer* tracer, CritPathRecorder* critpath) {
  ServeRun run;
  Stopwatch watch;
  ServeFleet fleet(ClusterSpec::Cluster1(), MakeFleetConfig(w, seed),
                   &in.queries);
  if (tracer != nullptr) fleet.set_tracer(tracer);
  if (critpath != nullptr) fleet.set_critpath(critpath);
  run.ctor_s = watch.ElapsedSeconds();
  watch.Restart();
  run.status = fleet.Install(in.model);
  run.install_s = watch.ElapsedSeconds();
  if (!run.status.ok()) return run;
  watch.Restart();
  run.status = fleet.Run(in.arrivals);
  run.run_s = watch.ElapsedSeconds();
  if (!run.status.ok()) return run;

  run.summary = fleet.Summarize();
  run.fingerprint = fleet.Fingerprint();
  const TrafficStats stats = fleet.runtime().net().TotalStats();
  run.bytes = stats.bytes_sent;
  run.messages = stats.messages_sent;
  double loss = 0.0;
  int64_t completed = 0;
  for (const RequestRecord& rec : fleet.records()) {
    run.scores.push_back(rec.status == RequestStatus::kCompleted ? rec.score
                                                                 : kNan);
    run.rows.push_back(rec.row);
    if (rec.status != RequestStatus::kCompleted) continue;
    ++completed;
    run.queue_ms += rec.queue_s;
    run.scatter_ms += rec.scatter_s;
    run.compute_ms += rec.compute_s;
    run.gather_ms += rec.gather_s;
    loss += kernels::LinkLoss(kernels::GlmLink::kLogistic,
                              in.queries.labels[rec.row], rec.score);
    run.served_nnz += in.queries.rows.Row(rec.row).nnz;
  }
  if (completed > 0) {
    const double per_ms = 1e3 / static_cast<double>(completed);
    run.queue_ms *= per_ms;
    run.scatter_ms *= per_ms;
    run.compute_ms *= per_ms;
    run.gather_ms *= per_ms;
    run.served_loss = loss / static_cast<double>(completed);
  }
  return run;
}

// ---- Outside-in layer probes (run after the measured runs) -------------------

/// Seconds to evaluate ModelSpec::InitWeight over every slot of the model.
double ProbeModelInit(const std::string& model_name, uint64_t num_features,
                      uint64_t seed) {
  std::unique_ptr<ModelSpec> spec = MakeModel(model_name);
  const int wpf = spec->weights_per_feature();
  Stopwatch watch;
  double sink = 0.0;
  for (uint64_t f = 0; f < num_features; ++f) {
    for (int j = 0; j < wpf; ++j) sink += spec->InitWeight(f, j, seed);
  }
  const double seconds = watch.ElapsedSeconds();
  volatile double keep = sink;
  (void)keep;
  return seconds;
}

/// Seconds of the engine's row->worker load path over the workload's blocks.
double ProbeTransform(const Workload& w, const Dataset& data) {
  const std::vector<RowBlock> blocks =
      MakeRowBlocks(data, TrainConfig{}.block_rows);
  ClusterRuntime runtime(ClusterSpec::Cluster1());
  const TransformCostConfig cost;
  Stopwatch watch;
  if (w.engine == "columnsgd") {
    std::unique_ptr<ColumnPartitioner> partitioner =
        MakePartitioner(TrainConfig{}.partitioner, data.num_features, kWorkers);
    ColumnLoadResult load =
        BlockColumnLoad(blocks, *partitioner, &runtime, cost);
    return watch.ElapsedSeconds();
  }
  RowLoadResult load = LoadRowPartitioned(blocks, &runtime, cost);
  return watch.ElapsedSeconds();
}

/// Seconds of the serving plane's row->shard split over the whole query log.
double ProbeServeSplit(const Workload& w, const Dataset& queries) {
  std::unique_ptr<ColumnPartitioner> partitioner =
      MakePartitioner(ServeConfig{}.partitioner, queries.num_features, w.shards);
  const std::vector<SparseVectorView> rows = RowViews(queries);
  Stopwatch watch;
  std::vector<CsrBatch> slices = SplitBatchByShard(rows, *partitioner);
  const double seconds = watch.ElapsedSeconds();
  volatile size_t keep = slices.size();
  (void)keep;
  return seconds;
}

/// Host nanoseconds per nonzero of the model's forward kernel over `data`'s
/// rows against `weights` (global layout); median over passes.
double ProbeForwardNsPerNnz(const std::string& model_name, const Dataset& data,
                            const std::vector<double>& weights) {
  std::unique_ptr<ModelSpec> spec = MakeModel(model_name);
  const int wpf = spec->weights_per_feature();
  const std::vector<SparseVectorView> rows = RowViews(data);
  std::vector<double> out(rows.size() * static_cast<size_t>(wpf));
  std::vector<double> per_pass;
  Stopwatch total;
  while (per_pass.size() < 5 ||
         (total.ElapsedSeconds() < 0.5 && per_pass.size() < 200)) {
    std::fill(out.begin(), out.end(), 0.0);
    Stopwatch watch;
    if (wpf == 1) {
      kernels::SpmvRows(rows.data(), rows.size(), weights.data(), out.data());
    } else {
      kernels::FmForwardRows(rows.data(), rows.size(), wpf - 1, weights.data(),
                             out.data());
    }
    per_pass.push_back(watch.ElapsedSeconds() * 1e9 /
                       static_cast<double>(data.nnz()));
  }
  volatile double keep = out[0];
  (void)keep;
  return Median(per_pass);
}

// ---- Blame over a window of the critical path --------------------------------

/// Blamed seconds per kind, clipped to the path's part inside [t_from, inf).
std::vector<double> WindowBlame(const CritPathResult& path, double t_from) {
  std::vector<double> blame(static_cast<int>(BlameKind::kExternal) + 1, 0.0);
  for (const PathStep& step : path.steps) {
    const double len = step.t1 - std::max(step.t0, t_from);
    if (len > 0.0) blame[static_cast<int>(step.kind)] += len;
  }
  return blame;
}

/// "phase.<name>", with the phase name's own dots ("ssp.wait") as '_'.
std::string PhaseMetric(Phase phase) {
  std::string name = PhaseName(phase);
  std::replace(name.begin(), name.end(), '.', '_');
  return "phase." + name;
}

// ---- The benchmark ------------------------------------------------------------

struct Options {
  std::string workload;
  int64_t seed = 1;
  double seconds = 10.0;
  int64_t trace = 0;
  std::string git_rev = "unknown";
};

class Bench {
 public:
  explicit Bench(const Options& options, const Workload& w)
      : o_(options), w_(w), seed_(static_cast<uint64_t>(options.seed)) {}

  void Run() {
    kernels::SetMode(kernels::KernelMode::kScalar);
    if (o_.trace == 0) {
      w_.serving ? ServeEndToEnd() : TrainEndToEnd();
    } else {
      w_.serving ? ServeLayers() : TrainLayers();
      FillInapplicableLayers();
    }
  }

  void Print() const {
    std::printf("hostbench %s seed=%lld trace=%lld\n", w_.name.c_str(),
                static_cast<long long>(o_.seed),
                static_cast<long long>(o_.trace));
    for (const auto& [name, m] : metrics_) {
      std::printf("  %-26s %18.9g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    for (const std::string& f : checks_.failures) {
      std::printf("  CHECK FAILED: %s\n", f.c_str());
    }
    // Provenance: what produced these numbers, and the samples behind each.
    std::string prov = "{\"provenance\": {";
    prov += "\"workload\": " + JsonString(w_.name);
    prov += ", \"seed\": " + std::to_string(o_.seed);
    prov += ", \"seconds\": " + JsonNumber(o_.seconds);
    prov += ", \"trace\": " + std::to_string(o_.trace);
    prov += ", \"git_rev\": " + JsonString(o_.git_rev);
    prov += ", \"build_type\": " + JsonString(HOSTBENCH_BUILD_TYPE);
    prov += std::string(", \"optimized\": ") + (Optimized() ? "true" : "false");
    prov += ", \"nproc\": " +
            std::to_string(std::thread::hardware_concurrency());
    prov += ", \"threads_used\": 1";
    prov += ", \"kernel_mode\": " +
            JsonString(kernels::KernelModeName(kernels::CurrentMode()));
    prov += ", \"samples\": {";
    bool first = true;
    for (const auto& [name, n] : samples_) {
      prov += (first ? "" : ", ") + JsonString(name) + ": " + std::to_string(n);
      first = false;
    }
    prov += "}}}";
    std::printf("%s\n", prov.c_str());

    std::string line = "{\"correct\": ";
    line += checks_.failures.empty() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(std::max<int64_t>(
                                       checks_.attempted, 1));
    line += ", \"failed\": " + std::to_string(checks_.failed);
    line += ", \"metrics\": {";
    first = true;
    for (const auto& [name, m] : metrics_) {
      line += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
              JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
      first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

  static bool Optimized() {
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
  }

 private:
  void Set(const std::string& name, double value, const std::string& unit) {
    checks_.Expect(std::isfinite(value), name + " is finite");
    metrics_[name] = Metric{std::isfinite(value) ? value : 0.0, unit};
  }

  bool TimeLeft(const Stopwatch& watch, size_t done) const {
    return done < static_cast<size_t>(kMinRepeats) ||
           (watch.ElapsedSeconds() < o_.seconds &&
            done < static_cast<size_t>(kMaxRepeats));
  }

  // -- training ---------------------------------------------------------------

  /// Output checks shared by every repeat of one seed; counts the repeat's
  /// iterations.
  void CheckTrainRun(const TrainRun& run, const TrainRun& reference,
                     const std::string& label) {
    const size_t failures_before = checks_.failures.size();
    checks_.Expect(run.status.ok(), label + ": " + run.status.ToString());
    checks_.Expect(static_cast<int64_t>(run.iter_s.size()) == w_.iterations,
                   label + ": every iteration ran");
    checks_.Expect(run.crc == reference.crc,
                   label + ": trained-weight CRC32C matches the first repeat");
    checks_.Expect(run.sim_train_s == reference.sim_train_s,
                   label + ": simulated time matches the first repeat");
    checks_.Expect(std::isfinite(run.final_loss),
                   label + ": final loss is finite");
    checks_.CountRepeat(w_.iterations,
                        checks_.failures.size() == failures_before);
  }

  void TrainEndToEnd() {
    const Dataset data = TrainData(seed_);
    std::vector<TrainRun> runs;
    // Peak memory through the first repeat: the process's figure would also
    // take in allocator growth that depends on how many repeats fit the
    // budget.
    double peak_rss_mb = kNan;
    Stopwatch watch;
    while (TimeLeft(watch, runs.size())) {
      runs.push_back(RunTrain(w_, data, seed_, nullptr, nullptr,
                              /*eval_iter0=*/runs.empty(), nullptr));
      CheckTrainRun(runs.back(), runs.front(),
                    "repeat " + std::to_string(runs.size()));
      if (!runs.back().status.ok()) break;
      if (runs.size() == 1) peak_rss_mb = PeakRssMb();
    }
    const TrainRun& first = runs.front();
    checks_.Expect(first.final_loss < first.loss_after_iter0,
                   "final loss is below the loss after iteration 0");

    std::vector<double> setup, rate;
    for (const TrainRun& run : runs) {
      setup.push_back(run.setup_s);
      // A failed repeat is already counted in ok_frac and has no rate.
      if (run.status.ok()) rate.push_back(run.ExamplesPerSecond());
    }
    Set("setup_s", Median(setup), "s");
    Set("examples_per_s", Median(rate), "1/s");
    Set("peak_rss_mb", peak_rss_mb, "MB");
    Set("sim_s_per_iter", first.SimPerIter(), "sim_s");
    // Training has no requests: the simulated percentiles are over the
    // master-clock length of each iteration.
    Set("sim_p50_ms", 1e3 * Quantile(first.sim_iter_s, 0.50), "sim_ms");
    Set("sim_p99_ms", 1e3 * Quantile(first.sim_iter_s, 0.99), "sim_ms");
    Set("final_loss", first.final_loss, "nats");
    Set("ok_frac", checks_.OkFraction(), "fraction");
    samples_["repeats"] = static_cast<int64_t>(runs.size());
    samples_["iterations_per_repeat"] = w_.iterations;
    samples_["sim_p50_ms"] = static_cast<int64_t>(first.sim_iter_s.size());
    samples_["sim_p99_ms"] = static_cast<int64_t>(first.sim_iter_s.size());
    samples_["final_loss_rows"] = static_cast<int64_t>(
        std::min(kEvalRows, data.num_rows()));
  }

  void TrainLayers() {
    Stopwatch datagen;
    const Dataset data = TrainData(seed_);
    Set("datagen.s", datagen.ElapsedSeconds(), "s");

    // Untraced/traced pairs; the first pair supplies the per-layer figures,
    // and every pair adds to the overhead ratio. Which run of a pair goes
    // first alternates, so a drift in host speed does not bias the ratio.
    std::vector<double> overhead;
    std::vector<double> weights;
    TrainRun untraced, traced;
    CritPathResult path;
    Stopwatch watch;
    do {
      Tracer tracer;
      CritPathRecorder critpath;
      const auto run_traced = [&] {
        return RunTrain(w_, data, seed_, &tracer, &critpath, false,
                        overhead.empty() ? &weights : nullptr);
      };
      const bool traced_first = overhead.size() % 2 == 1;
      TrainRun t;
      if (traced_first) t = run_traced();
      TrainRun u = RunTrain(w_, data, seed_, nullptr, nullptr, false, nullptr);
      if (!traced_first) t = run_traced();
      CheckTrainRun(u, overhead.empty() ? u : untraced, "untraced run");
      CheckTrainRun(t, u, "traced run (passivity)");
      checks_.Expect(t.bytes == u.bytes && t.messages == u.messages,
                     "traced run moves the same simulated bytes and messages");
      if (!u.status.ok() || !t.status.ok()) return;
      overhead.push_back(t.HostSeconds() / u.HostSeconds() - 1.0);
      if (overhead.size() == 1) {
        Result<CritPathResult> extracted =
            ExtractCriticalPath(critpath.Snapshot());
        checks_.Expect(extracted.ok(), "critical path extracts");
        if (!extracted.ok()) return;
        path = std::move(*extracted);
        untraced = std::move(u);
        traced = std::move(t);
      }
    } while (watch.ElapsedSeconds() < o_.seconds && overhead.size() < 10);

    const double iters = static_cast<double>(traced.iter_s.size());
    const double sim_per_iter = untraced.SimPerIter();
    // Host times come from the untraced run, so they carry no hook cost.
    const double iter_p50_s = Quantile(untraced.iter_s, 0.50);
    Set("engine.iter_ms.p50", 1e3 * iter_p50_s, "ms");
    Set("engine.iter_ms.p99", 1e3 * Quantile(untraced.iter_s, 0.99), "ms");
    Set("engine.finish_s", untraced.finish_s, "s");
    Set("engine.full_model_s", untraced.full_model_s, "s");
    Set("simnet.bytes_per_iter", static_cast<double>(traced.bytes) / iters,
        "bytes");
    Set("simnet.msgs_per_iter", static_cast<double>(traced.messages) / iters,
        "count");
    Set("obs.trace_overhead_frac", Median(overhead), "fraction");

    // Phase split of the master clock: every phase, reported or not (no
    // workload injects faults, so recovery and checkpoint stay 0), must tile
    // sim_s_per_iter.
    checks_.Expect(traced.traced_iterations == w_.iterations,
                   "tracer saw every iteration");
    double phase_sum = 0.0;
    for (int p = 0; p < static_cast<int>(Phase::kNumPhases); ++p) {
      const double per_iter = traced.phases.seconds[p] / iters;
      phase_sum += per_iter;
      const std::string name = PhaseMetric(static_cast<Phase>(p));
      if (LayerMetricUnit(name) != nullptr) Set(name, per_iter, "sim_s");
    }
    checks_.Expect(std::fabs(phase_sum - sim_per_iter) <= 1e-9,
                   "phase.* sums to sim_s_per_iter within 1e-9");
    SetBlame(path, traced.sim_train_start, iters);

    // Probes, after the measured runs so they cannot warm caches for them.
    Set("model.init_s", ProbeModelInit(w_.model, data.num_features, seed_),
        "s");
    Set("storage.transform_s", ProbeTransform(w_, data), "s");
    const double ns_per_nnz = ProbeForwardNsPerNnz(w_.model, data, weights);
    Set("kernels.fwd_ns_per_nnz", ns_per_nnz, "ns");
    const double nnz_per_iter = static_cast<double>(kBatch) *
                                data.AvgNnzPerRow();
    Set("kernels.est_share",
        ns_per_nnz * nnz_per_iter / (1e9 * iter_p50_s),
        "fraction");
    samples_["pairs"] = static_cast<int64_t>(overhead.size());
    samples_["engine.iter_ms"] = static_cast<int64_t>(untraced.iter_s.size());
  }

  void SetBlame(const CritPathResult& path, double window_start,
                double divisor) {
    const double conservation = std::fabs(path.PathLength() - path.makespan);
    checks_.Expect(conservation <= 1e-9 && path.exact_misses == 0,
                   "critical path tiles the makespan (conservation 0)");
    const std::vector<double> blame = WindowBlame(path, window_start);
    for (int k = 0; k <= static_cast<int>(BlameKind::kExternal); ++k) {
      Set(std::string("blame.") + BlameKindName(static_cast<BlameKind>(k)),
          blame[k] / divisor, "sim_s");
    }
  }

  /// Reports 0 for every per-layer metric of a layer the workload does not
  /// run (the serving figures on training workloads and the other way round),
  /// so each traced result carries the same names.
  void FillInapplicableLayers() {
    for (const LayerMetric& m : kLayerMetrics) {
      metrics_.try_emplace(m.name, Metric{0.0, m.unit});
    }
  }

  // -- serving ------------------------------------------------------------------

  /// Output checks shared by every repeat of one seed; counts the repeat's
  /// requests.
  void CheckServeRun(const ServeRun& run, const ServeRun& reference,
                     const std::string& label) {
    const size_t failures_before = checks_.failures.size();
    checks_.Expect(run.status.ok(), label + ": " + run.status.ToString());
    const FleetSummary& s = run.summary;
    checks_.Expect(s.offered == w_.requests,
                   label + ": every arrival is accounted");
    checks_.Expect(s.completed + s.rejected + s.timed_out == s.offered,
                   label + ": completed + rejected + timed_out == offered");
    checks_.Expect(s.completed == s.offered,
                   label + ": no request rejected or timed out");
    checks_.Expect(run.fingerprint == reference.fingerprint,
                   label + ": response fingerprint matches the first repeat");
    checks_.CountRepeat(w_.requests,
                        checks_.failures.size() == failures_before);
  }

  /// Every served score is bitwise equal to offline ScoreDatasetSharded.
  void CheckServedScores(const ServeRun& run, const ServeInputs& in) {
    Result<DatasetScores> offline = ScoreDatasetSharded(
        in.model, ServeConfig{}.partitioner, w_.shards, in.queries,
        in.queries.num_rows());
    checks_.Expect(offline.ok(), "offline scoring runs");
    if (!offline.ok()) return;
    int64_t mismatches = 0;
    for (size_t i = 0; i < run.scores.size(); ++i) {
      const double served = run.scores[i];
      const double expected = offline->scores[run.rows[i]];
      if (std::isnan(served) ||
          std::memcmp(&served, &expected, sizeof(double)) != 0) {
        ++mismatches;
      }
    }
    checks_.Expect(mismatches == 0,
                   "served scores are bitwise equal to offline scoring (" +
                       std::to_string(mismatches) + " differ)");
  }

  void ServeEndToEnd() {
    const ServeInputs in = MakeServeInputs(w_, seed_);
    std::vector<ServeRun> runs;
    double peak_rss_mb = kNan;  // through the first repeat, as in training
    Stopwatch watch;
    while (TimeLeft(watch, runs.size())) {
      runs.push_back(RunServe(w_, in, seed_, nullptr, nullptr));
      CheckServeRun(runs.back(), runs.front(),
                    "repeat " + std::to_string(runs.size()));
      if (!runs.back().status.ok()) break;
      if (runs.size() == 1) peak_rss_mb = PeakRssMb();
      // Later repeats are checked through the fingerprint alone.
      if (runs.size() > 1) {
        runs.back().scores = {};
        runs.back().rows = {};
      }
    }
    const ServeRun& first = runs.front();
    if (first.status.ok()) CheckServedScores(first, in);

    // Host rate per repeat: completed queries over the host seconds in Run.
    std::vector<double> setup, rate;
    for (const ServeRun& run : runs) {
      setup.push_back(run.SetupSeconds());
      if (run.status.ok()) {
        rate.push_back(static_cast<double>(run.summary.completed) / run.run_s);
      }
    }
    const FleetSummary& s = first.summary;
    Set("setup_s", Median(setup), "s");
    Set("examples_per_s", Median(rate), "1/s");
    Set("peak_rss_mb", peak_rss_mb, "MB");
    // Serving has no iterations: the router's batches stand in for them, and
    // the loss is the served log loss against the query labels.
    Set("sim_s_per_iter",
        s.batches > 0 ? s.makespan / static_cast<double>(s.batches) : kNan,
        "sim_s");
    Set("sim_p50_ms", 1e3 * s.latency_p50, "sim_ms");
    Set("sim_p99_ms", 1e3 * s.latency_p99, "sim_ms");
    Set("final_loss", first.served_loss, "nats");
    Set("ok_frac", checks_.OkFraction(), "fraction");
    samples_["repeats"] = static_cast<int64_t>(runs.size());
    samples_["requests_per_repeat"] = w_.requests;
    samples_["sim_p50_ms"] = s.completed;
    samples_["sim_p99_ms"] = s.completed;
  }

  void ServeLayers() {
    Stopwatch datagen;
    const ServeInputs in = MakeServeInputs(w_, seed_);
    Set("datagen.s", datagen.ElapsedSeconds(), "s");

    // Untraced/traced pairs, as in TrainLayers.
    std::vector<double> overhead;
    ServeRun untraced, traced;
    CritPathResult path;
    Stopwatch watch;
    do {
      Tracer tracer;
      CritPathRecorder critpath;
      const bool traced_first = overhead.size() % 2 == 1;
      ServeRun t;
      if (traced_first) t = RunServe(w_, in, seed_, &tracer, &critpath);
      ServeRun u = RunServe(w_, in, seed_, nullptr, nullptr);
      if (!traced_first) t = RunServe(w_, in, seed_, &tracer, &critpath);
      CheckServeRun(u, overhead.empty() ? u : untraced, "untraced run");
      CheckServeRun(t, u, "traced run (passivity)");
      if (!u.status.ok() || !t.status.ok()) return;
      overhead.push_back((t.SetupSeconds() + t.run_s) /
                             (u.SetupSeconds() + u.run_s) -
                         1.0);
      if (overhead.size() == 1) {
        Result<CritPathResult> extracted =
            ExtractCriticalPath(critpath.Snapshot());
        checks_.Expect(extracted.ok(), "critical path extracts");
        if (!extracted.ok()) return;
        path = std::move(*extracted);
        untraced = std::move(u);
        traced = std::move(t);
      }
    } while (watch.ElapsedSeconds() < o_.seconds && overhead.size() < 10);
    CheckServedScores(traced, in);

    const FleetSummary& s = traced.summary;
    const double batches = static_cast<double>(s.batches);
    // Host times from the untraced run, as in TrainLayers.
    Set("serve.run_s", untraced.run_s, "s");
    Set("serve.install_s", untraced.install_s, "s");
    Set("serve.queue_ms", traced.queue_ms, "sim_ms");
    Set("serve.scatter_ms", traced.scatter_ms, "sim_ms");
    Set("serve.compute_ms", traced.compute_ms, "sim_ms");
    Set("serve.gather_ms", traced.gather_ms, "sim_ms");
    Set("serve.batches", batches, "count");
    Set("serve.wire_bytes_per_req", s.bytes_per_request, "bytes");
    // The serving plane has no engine iterations or master-clock phases; the
    // router's batches stand in for iterations in the per-iteration splits.
    Set("simnet.bytes_per_iter", static_cast<double>(traced.bytes) / batches,
        "bytes");
    Set("simnet.msgs_per_iter", static_cast<double>(traced.messages) / batches,
        "count");
    Set("obs.trace_overhead_frac", Median(overhead), "fraction");
    SetBlame(path, 0.0, batches);

    Set("model.init_s", ProbeModelInit(w_.model, w_.model_features, seed_),
        "s");
    Set("storage.transform_s", ProbeServeSplit(w_, in.queries), "s");
    const double ns_per_nnz =
        ProbeForwardNsPerNnz(w_.model, in.queries, in.model.weights);
    Set("kernels.fwd_ns_per_nnz", ns_per_nnz, "ns");
    Set("kernels.est_share",
        ns_per_nnz * static_cast<double>(traced.served_nnz) /
            (1e9 * untraced.run_s),
        "fraction");
    samples_["pairs"] = static_cast<int64_t>(overhead.size());
    samples_["serve.requests"] = s.completed;
  }

  Options o_;
  const Workload& w_;
  uint64_t seed_;
  Checks checks_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, int64_t> samples_;
};

int Main(int argc, char** argv) {
  Options o;
  FlagParser flags;
  flags.AddString("workload", &o.workload,
                  "col-lr-kdd12 | ps-fm-kdd12 | mllibstar-lr-kdd12 | "
                  "serve-fleet");
  flags.AddInt64("seed", &o.seed, "workload seed (data, training, arrivals)");
  flags.AddDouble("seconds", &o.seconds, "measurement budget in seconds");
  flags.AddInt64("trace", &o.trace, "0: end-to-end metrics, 1: per-layer");
  flags.AddString("git_rev", &o.git_rev, "revision recorded in provenance");
  const Status st = flags.Parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (w.name == o.workload) workload = &w;
  }
  if (!st.ok() || workload == nullptr || o.seed < 0 || !(o.seconds > 0.0) ||
      (o.trace != 0 && o.trace != 1)) {
    std::fprintf(stderr, "%s\n",
                 st.ok() ? "bad --workload, --seed, --seconds or --trace"
                         : st.ToString().c_str());
    flags.PrintUsage(argv[0]);
    return 2;
  }
  if (!Bench::Optimized()) {
    std::fprintf(stderr,
                 "warning: hostbench was built without optimization; host "
                 "times are not representative\n");
  }
  Bench bench(o, *workload);
  bench.Run();
  bench.Print();
  return 0;
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) { return colsgd::Main(argc, argv); }
