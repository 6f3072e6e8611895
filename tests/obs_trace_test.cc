// Tests for the obs subsystem: metrics primitives, byte conservation between
// the trace and the network's TrafficStats, the passivity guarantee (tracing
// changes no simulated time and no trained bit), the master-clock phase
// decomposition, the trace-reader round trip, and the SimObserver stream
// (several observers on one run).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "engine/trainer.h"
#include "obs/bench/timeseries.h"
#include "obs/critpath/critpath.h"
#include "obs/critpath/dag_json.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "obs/trace_reader.h"
#include "serve/fleet.h"
#include "serve/workload.h"

namespace colsgd {
namespace {

Dataset TestData(uint64_t rows = 1000, uint64_t features = 300,
                 const std::string& model = "lr") {
  SyntheticSpec spec = TinySpec();
  spec.num_rows = rows;
  spec.num_features = features;
  if (model.rfind("mlr", 0) == 0) {
    spec.num_classes = std::stoi(model.substr(3));
  }
  return GenerateSynthetic(spec);
}

ClusterSpec Cluster(int workers = 4) {
  ClusterSpec spec = ClusterSpec::Cluster1();
  spec.num_workers = workers;
  return spec;
}

TrainConfig Config(const std::string& model = "lr") {
  TrainConfig config;
  config.model = model;
  config.learning_rate = 0.5;
  config.batch_size = 64;
  config.block_rows = 128;
  return config;
}

// ---- metrics primitives ---------------------------------------------------

TEST(HistogramTest, BucketsAndStats) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0 (<= 1)
  h.Observe(1.0);    // bucket 0 (boundary is inclusive)
  h.Observe(5.0);    // bucket 1
  h.Observe(1000.0); // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 0u);
  EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(MetricsRegistryTest, StablePointersAndDeterministicOrder) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("zzz");
  registry.GetCounter("aaa")->Add(7);
  c->Increment();
  EXPECT_EQ(registry.GetCounter("zzz"), c);  // same object on re-lookup
  EXPECT_EQ(c->value(), 1u);
  // Iteration is name-sorted regardless of creation order.
  std::vector<std::string> names;
  for (const auto& [name, counter] : registry.counters()) {
    names.push_back(name);
  }
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "aaa");
  EXPECT_EQ(names[1], "zzz");
  registry.Clear();
  EXPECT_TRUE(registry.counters().empty());
}

TEST(MetricsRegistryTest, HistogramKeepsFirstBounds) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("x", {1.0, 2.0});
  EXPECT_EQ(registry.GetHistogram("x", {99.0}), h);
  EXPECT_EQ(h->bounds().size(), 2u);
}

// ---- byte conservation ----------------------------------------------------

struct EngineModelCase {
  const char* engine;
  const char* model;
};

std::string CaseName(const testing::TestParamInfo<EngineModelCase>& info) {
  return std::string(info.param.engine) + "_" + info.param.model;
}

class ByteConservationTest : public testing::TestWithParam<EngineModelCase> {};

// Every byte the network counted must appear in exactly one net.send trace
// event, and vice versa — per node and in total, including loading traffic.
TEST_P(ByteConservationTest, TraceBytesMatchTrafficStatsExactly) {
  const EngineModelCase& param = GetParam();
  Dataset data = TestData(1000, 300, param.model);
  auto engine = MakeEngine(param.engine, Cluster(), Config(param.model));

  Tracer tracer;
  engine->set_tracer(&tracer);  // before Setup: loading traffic counts too
  ASSERT_TRUE(engine->Setup(data).ok());
  for (int64_t iter = 0; iter < 3; ++iter) {
    ASSERT_TRUE(engine->RunIteration(iter).ok());
  }

  const SimNetwork& net = engine->runtime().net();
  std::map<uint32_t, uint64_t> sent_bytes, received_bytes;
  std::map<uint32_t, uint64_t> sent_messages, received_messages;
  uint64_t total_bytes = 0, total_messages = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (std::string(event.name) != "net.send") continue;
    sent_bytes[event.node] += event.bytes;
    received_bytes[event.peer] += event.bytes;
    sent_messages[event.node]++;
    received_messages[event.peer]++;
    total_bytes += event.bytes;
    total_messages++;
  }

  const TrafficStats total = net.TotalStats();
  EXPECT_EQ(total_bytes, total.bytes_sent);
  EXPECT_EQ(total_bytes, total.bytes_received);
  EXPECT_EQ(total_messages, total.messages_sent);
  for (int node = 0; node < net.num_nodes(); ++node) {
    const NodeId id = static_cast<NodeId>(node);
    EXPECT_EQ(sent_bytes[id], net.stats(id).bytes_sent)
        << "bytes_sent mismatch at node " << node;
    EXPECT_EQ(received_bytes[id], net.stats(id).bytes_received)
        << "bytes_received mismatch at node " << node;
    EXPECT_EQ(sent_messages[id], net.stats(id).messages_sent)
        << "messages_sent mismatch at node " << node;
    EXPECT_EQ(received_messages[id], net.stats(id).messages_received)
        << "messages_received mismatch at node " << node;
  }
  // The aggregated counters see the same traffic.
  EXPECT_EQ(tracer.metrics().GetCounter("net.bytes")->value(), total_bytes);
  EXPECT_EQ(tracer.metrics().GetCounter("net.messages")->value(),
            total_messages);
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesAndModels, ByteConservationTest,
    testing::Values(EngineModelCase{"columnsgd", "lr"},
                    EngineModelCase{"columnsgd", "fm4"},
                    EngineModelCase{"columnsgd", "mlr3"},
                    EngineModelCase{"mllib", "lr"},
                    EngineModelCase{"mllib", "fm4"},
                    EngineModelCase{"mllib", "mlr3"},
                    EngineModelCase{"mllib_star", "lr"},
                    EngineModelCase{"mllib_star", "fm4"},
                    EngineModelCase{"mllib_star", "mlr3"},
                    EngineModelCase{"petuum", "lr"},
                    EngineModelCase{"petuum", "fm4"},
                    EngineModelCase{"petuum", "mlr3"},
                    EngineModelCase{"mxnet", "lr"},
                    EngineModelCase{"mxnet", "fm4"},
                    EngineModelCase{"mxnet", "mlr3"}),
    CaseName);

// ---- passivity ------------------------------------------------------------

class TracePassivityTest : public testing::TestWithParam<const char*> {};

// Attaching a tracer changes no simulated clock and no trained bit.
TEST_P(TracePassivityTest, TracedRunIsBitIdenticalToUntraced) {
  const char* engine_name = GetParam();
  Dataset data = TestData();

  auto plain = MakeEngine(engine_name, Cluster(), Config());
  ASSERT_TRUE(plain->Setup(data).ok());
  auto traced = MakeEngine(engine_name, Cluster(), Config());
  Tracer tracer;
  traced->set_tracer(&tracer);
  ASSERT_TRUE(traced->Setup(data).ok());

  for (int64_t iter = 0; iter < 3; ++iter) {
    ASSERT_TRUE(plain->RunIteration(iter).ok());
    ASSERT_TRUE(traced->RunIteration(iter).ok());
  }

  const std::vector<double> w_plain = plain->FullModel();
  const std::vector<double> w_traced = traced->FullModel();
  ASSERT_EQ(w_plain.size(), w_traced.size());
  for (size_t i = 0; i < w_plain.size(); ++i) {
    ASSERT_EQ(w_plain[i], w_traced[i]) << "weight " << i << " diverged";
  }
  for (int node = 0; node < plain->runtime().net().num_nodes(); ++node) {
    EXPECT_EQ(plain->runtime().clock(static_cast<NodeId>(node)),
              traced->runtime().clock(static_cast<NodeId>(node)))
        << "clock " << node << " diverged";
  }
  EXPECT_FALSE(tracer.events().empty());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, TracePassivityTest,
                         testing::Values("columnsgd", "mllib", "mllib_star",
                                         "petuum", "mxnet"));

class RecorderPassivityTest : public testing::TestWithParam<const char*> {};

// The benchmark time-series recorder holds the same contract as the tracer:
// attaching it changes no simulated clock and no trained bit.
TEST_P(RecorderPassivityTest, RecordedRunIsBitIdenticalToPlain) {
  const char* engine_name = GetParam();
  Dataset data = TestData();

  auto plain = MakeEngine(engine_name, Cluster(), Config());
  ASSERT_TRUE(plain->Setup(data).ok());
  auto recorded = MakeEngine(engine_name, Cluster(), Config());
  Tracer tracer;
  TimeSeriesRecorder recorder;
  recorded->set_tracer(&tracer);  // tracer + recorder together, as BenchRunner
  recorded->set_recorder(&recorder);
  ASSERT_TRUE(recorded->Setup(data).ok());
  const uint64_t setup_bytes =
      recorded->runtime().net().TotalStats().bytes_sent;

  for (int64_t iter = 0; iter < 3; ++iter) {
    ASSERT_TRUE(plain->RunIteration(iter).ok());
    ASSERT_TRUE(recorded->RunIteration(iter).ok());
  }

  const std::vector<double> w_plain = plain->FullModel();
  const std::vector<double> w_recorded = recorded->FullModel();
  ASSERT_EQ(w_plain.size(), w_recorded.size());
  for (size_t i = 0; i < w_plain.size(); ++i) {
    ASSERT_EQ(w_plain[i], w_recorded[i]) << "weight " << i << " diverged";
  }
  for (int node = 0; node < plain->runtime().net().num_nodes(); ++node) {
    EXPECT_EQ(plain->runtime().clock(static_cast<NodeId>(node)),
              recorded->runtime().clock(static_cast<NodeId>(node)))
        << "clock " << node << " diverged";
  }

  // The recorder saw every iteration, with monotone sim time and the same
  // traffic total the network reports.
  ASSERT_EQ(recorder.samples().size(), 3u);
  uint64_t recorded_bytes = 0;
  double last_time = 0.0;
  for (const TimeSeriesSample& sample : recorder.samples()) {
    EXPECT_GE(sample.sim_time, last_time);
    last_time = sample.sim_time;
    EXPECT_GT(sample.iter_seconds, 0.0);
    recorded_bytes += sample.bytes_on_wire;
  }
  EXPECT_EQ(recorded_bytes,
            recorded->runtime().net().TotalStats().bytes_sent - setup_bytes);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, RecorderPassivityTest,
                         testing::Values("columnsgd", "mllib", "mllib_star",
                                         "petuum", "mxnet"));

// ---- phase decomposition --------------------------------------------------

class PhaseDecompositionTest : public testing::TestWithParam<const char*> {};

// The phase breakdown tiles each iteration's master-clock delta: no gaps, no
// double counting, to float-rounding precision.
TEST_P(PhaseDecompositionTest, PhasesSumToMasterClockDelta) {
  Dataset data = TestData();
  TrainConfig config = Config();
  config.sched_overhead = 0.05;  // a recognizable serialization share
  auto engine = MakeEngine(GetParam(), Cluster(), config);
  Tracer tracer;
  engine->set_tracer(&tracer);  // RunTraining calls Setup itself

  RunOptions options;
  options.iterations = 4;
  options.eval_every = 0;
  TrainResult result = RunTraining(engine.get(), data, options);
  ASSERT_TRUE(result.status.ok());

  ASSERT_EQ(result.phase_trace.size(), 4u);
  double total = 0.0;
  for (const IterationPhases& iter : result.phase_trace) {
    EXPECT_GT(iter.end, iter.start);
    EXPECT_NEAR(iter.phases.total(), iter.end - iter.start, 1e-9)
        << "iteration " << iter.iteration << " has unattributed time";
    // Serialization is exactly the configured driver overhead: the only
    // master-clock advance inside the serialization bracket.
    EXPECT_NEAR(iter.phases[Phase::kSerialization], 0.05, 1e-12);
    // No faults, no checkpoints in this run.
    EXPECT_DOUBLE_EQ(iter.phases[Phase::kRecovery], 0.0);
    EXPECT_DOUBLE_EQ(iter.phases[Phase::kCheckpoint], 0.0);
    total += iter.phases.total();
  }
  EXPECT_NEAR(result.phase_totals.total(), total, 1e-9);
  EXPECT_NEAR(total, result.train_time, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, PhaseDecompositionTest,
                         testing::Values("columnsgd", "mllib", "mllib_star",
                                         "petuum", "mxnet"));

// RowSGD with known dimensions: each phase matches its first-principles
// value, not just the sum. m features * 8 bytes broadcast + gradient pushes
// dominate the wire phase.
TEST(PhaseDecompositionTest, RowSgdPhasesMatchHandComputedModel) {
  Dataset data = TestData(1000, 300);
  TrainConfig config = Config();
  config.sched_overhead = 0.01;
  auto engine = MakeEngine("mllib", Cluster(4), config);
  Tracer tracer;
  engine->set_tracer(&tracer);
  ASSERT_TRUE(engine->Setup(data).ok());
  ASSERT_TRUE(engine->RunIteration(0).ok());

  ASSERT_EQ(tracer.iterations().size(), 1u);
  const IterationPhases& iter = tracer.iterations()[0];
  EXPECT_NEAR(iter.phases.total(), iter.end - iter.start, 1e-9);
  EXPECT_NEAR(iter.phases[Phase::kSerialization], 0.01, 1e-12);
  // The master's compute phase is exactly its traced in-iteration compute
  // blocks (K-gradient aggregation + model update) — loading-time blocks
  // recorded before iter.start don't count.
  double master_compute = 0.0;
  for (const TraceEvent& event : tracer.events()) {
    // track check: the phase segment on the master's phase track is also
    // named "compute" — only raw events count here.
    if (std::string(event.name) == "compute" && event.node == 0 &&
        event.track == TraceTrack::kEvents && event.ts >= iter.start) {
      master_compute += event.dur;
    }
  }
  EXPECT_NEAR(iter.phases[Phase::kCompute], master_compute, 1e-12);
  // Everything else this engine pays on the master is waiting for gradient
  // pushes to arrive.
  EXPECT_NEAR(iter.phases[Phase::kWire],
              (iter.end - iter.start) - 0.01 - master_compute, 1e-9);
  EXPECT_GT(iter.phases[Phase::kWire], 0.0);
}

// Fault + checkpoint time lands in the recovery / checkpoint buckets.
TEST(PhaseDecompositionTest, FaultsAndCheckpointsAreAttributed) {
  Dataset data = TestData();
  auto engine = MakeEngine("columnsgd", Cluster(), Config());
  FaultConfig faults;
  FaultEvent failure;
  failure.iteration = 1;
  failure.worker = 2;
  failure.kind = FaultKind::kWorkerFailure;
  faults.plan = FaultPlan::Scripted({failure});
  faults.checkpoint.every = 2;
  engine->set_faults(std::move(faults));
  Tracer tracer;
  engine->set_tracer(&tracer);
  ASSERT_TRUE(engine->Setup(data).ok());
  for (int64_t iter = 0; iter < 4; ++iter) {
    ASSERT_TRUE(engine->RunIteration(iter).ok());
  }

  ASSERT_EQ(tracer.iterations().size(), 4u);
  for (const IterationPhases& iter : tracer.iterations()) {
    EXPECT_NEAR(iter.phases.total(), iter.end - iter.start, 1e-9);
  }
  EXPECT_DOUBLE_EQ(tracer.iterations()[0].phases[Phase::kRecovery], 0.0);
  EXPECT_GT(tracer.iterations()[1].phases[Phase::kRecovery], 0.0);
  // Checkpoints fire on iterations 1 and 3 (every=2 checkpoints after the
  // 2nd and 4th iteration complete).
  EXPECT_GT(tracer.iterations()[1].phases[Phase::kCheckpoint], 0.0);
  EXPECT_GT(tracer.iterations()[3].phases[Phase::kCheckpoint], 0.0);
  EXPECT_EQ(tracer.metrics().GetCounter("fault.worker")->value(), 1u);
  EXPECT_EQ(tracer.metrics().GetCounter("checkpoint")->value(), 2u);
}

class SspPhaseDecompositionTest : public testing::TestWithParam<const char*> {
};

// Runs `iterations` SSP iterations at the given slack, asserts the tiling
// invariant on every iteration, and returns the total ssp.wait seconds.
double SspRunAndCheckTiling(const char* engine_name, int slack,
                            int iterations) {
  Dataset data = TestData();
  TrainConfig config = Config();
  // Tiny scheduler bracket: the gate stall must not hide inside it (the
  // one-way network latency alone is 100 us).
  config.sched_overhead = 1e-5;
  config.ssp.enabled = true;
  config.ssp.slack = slack;
  auto engine = MakeEngine(engine_name, Cluster(), config);

  // Rotating stragglers desynchronize the workers so the gate binds.
  FaultPlanConfig plan;
  plan.seed = 9;
  plan.stragglers.mode = StragglerSpec::Mode::kRotating;
  plan.stragglers.level = 4.0;
  FaultConfig faults;
  faults.plan = FaultPlan(plan);
  EXPECT_TRUE(engine->set_faults(faults).ok());
  Tracer tracer;
  engine->set_tracer(&tracer);

  RunOptions options;
  options.iterations = iterations;
  options.eval_every = 0;
  TrainResult result = RunTraining(engine.get(), data, options);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();

  EXPECT_EQ(result.phase_trace.size(), static_cast<size_t>(iterations));
  double total = 0.0;
  double ssp_wait = 0.0;
  for (const IterationPhases& iter : result.phase_trace) {
    EXPECT_NEAR(iter.phases.total(), iter.end - iter.start, 1e-9)
        << "iteration " << iter.iteration << " has unattributed time";
    EXPECT_NEAR(iter.phases[Phase::kSerialization], 1e-5, 1e-12);
    EXPECT_GE(iter.phases[Phase::kSspWait], 0.0);
    EXPECT_DOUBLE_EQ(iter.phases[Phase::kRecovery], 0.0);
    ssp_wait += iter.phases[Phase::kSspWait];
    total += iter.phases.total();
  }
  EXPECT_NEAR(result.phase_totals.total(), total, 1e-9);
  // The final pipeline drain (FinishTraining) advances the master clock
  // after the last OnIterationEnd: train_time includes it, while the phase
  // accounting stops at the last iteration boundary.
  EXPECT_LE(total, result.train_time + 1e-9);
  return ssp_wait;
}

// Under bounded staleness the master's stall time gets its own ssp.wait
// phase and the tiling invariant is unchanged: every iteration's phase
// breakdown still sums to its master-clock delta at 1e-9. At slack 0 the
// gate binds every iteration (the stall is visible); raising the slack lets
// the pipeline absorb it.
TEST_P(SspPhaseDecompositionTest, SspWaitTilesWithTheOtherPhases) {
  const double stall_s0 = SspRunAndCheckTiling(GetParam(), /*slack=*/0, 6);
  const double stall_s2 = SspRunAndCheckTiling(GetParam(), /*slack=*/2, 6);
  EXPECT_GT(stall_s0, 0.0) << "slack-0 gate stall should be visible";
  // Slack never adds stall; whether it removes any depends on whether the
  // straggler's own request round-trip (slack-independent) dominates. The
  // strict end-to-end speedup is asserted in ssp_accounting_test.
  EXPECT_LE(stall_s2, stall_s0) << "slack must not add gate stall";
}

INSTANTIATE_TEST_SUITE_P(SspEngines, SspPhaseDecompositionTest,
                         testing::Values("columnsgd", "petuum", "mxnet"));

// ---- exporter / reader round trip -----------------------------------------

TEST(TraceRoundTripTest, ExportedJsonParsesBackLosslessly) {
  Dataset data = TestData();
  auto engine = MakeEngine("columnsgd", Cluster(), Config());
  Tracer tracer;
  engine->set_tracer(&tracer);
  ASSERT_TRUE(engine->Setup(data).ok());
  ASSERT_TRUE(engine->RunIteration(0).ok());

  const std::string json = ChromeTraceJson(tracer);
  Result<ParsedTrace> parsed = ParseChromeTraceJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Every recorded event reappears (metadata lines are filtered out).
  ASSERT_EQ(parsed->events.size(), tracer.events().size());
  EXPECT_EQ(parsed->process_names.at(0), "master");
  EXPECT_EQ(parsed->process_names.at(1), "worker 0");

  uint64_t trace_bytes = 0, parsed_bytes = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (std::string(event.name) == "net.send") trace_bytes += event.bytes;
  }
  for (size_t i = 0; i < parsed->events.size(); ++i) {
    const ParsedTraceEvent& event = parsed->events[i];
    const TraceEvent& original = tracer.events()[i];
    EXPECT_EQ(event.name, std::string(original.name));
    EXPECT_EQ(event.ph, original.ph);
    EXPECT_EQ(event.pid, original.node);
    EXPECT_NEAR(event.ts_us, original.ts * 1e6, 5e-7);
    if (event.name == "net.send") {
      parsed_bytes += event.ArgUint("bytes");
      EXPECT_EQ(event.ArgUint("to"), original.peer);
      EXPECT_EQ(event.ArgBool("control"), original.control);
    }
  }
  EXPECT_EQ(parsed_bytes, trace_bytes);
  EXPECT_EQ(trace_bytes, engine->runtime().net().TotalStats().bytes_sent);
}

TEST(TraceRoundTripTest, ReaderRejectsGarbage) {
  EXPECT_FALSE(ParseChromeTraceJson("not json").ok());
  EXPECT_FALSE(ParseChromeTraceJson("{\"traceEvents\":").ok());
  // One net.send event with each field well formed, then with one field
  // not: a bare-token number, trailing garbage, a string timestamp.
  const std::string event =
      "{\"name\":\"net.send\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
      "\"dur\":1.5,";
  EXPECT_TRUE(ParseChromeTraceJson("{\"traceEvents\":[" + event +
                                   "\"ts\":2,\"args\":{\"bytes\":12}}]}")
                  .ok());
  for (const std::string& bad :
       {"{\"traceEvents\":[" + event + "\"ts\":2,\"args\":{\"bytes\":12abc}}]}",
        "{\"traceEvents\":[" + event + "\"ts\":2,\"args\":{}}]} garbage",
        "{\"traceEvents\":[" + event + "\"ts\":\"abc\",\"args\":{}}]}"}) {
    const Result<ParsedTrace> parsed = ParseChromeTraceJson(bad);
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << bad;
  }
}

// ---- the SimObserver stream ------------------------------------------------

// One observed run: an engine or, with `engine` null, an R = 2 ServeFleet.
struct StreamCase {
  const char* name;
  const char* engine;
  int staleness;  // -1: BSP
  double jitter;
  bool faults;  // a worker failure on iteration 1, checkpoints every 2
};

std::string StreamCaseName(const testing::TestParamInfo<StreamCase>& info) {
  return info.param.name;
}

// Where a test attaches its observers: the engine's or fleet's typed
// setters, or the runtime's Observe.
struct Target {
  Engine* engine = nullptr;
  ServeFleet* fleet = nullptr;

  void set_tracer(Tracer* tracer) {
    engine != nullptr ? engine->set_tracer(tracer) : fleet->set_tracer(tracer);
  }
  void set_critpath(CritPathRecorder* critpath) {
    engine != nullptr ? engine->set_critpath(critpath)
                      : fleet->set_critpath(critpath);
  }
  ClusterRuntime& runtime() {
    return engine != nullptr ? engine->runtime() : fleet->runtime();
  }
};

// What the simulation produced, for comparing an observed run with its
// unobserved twin.
struct StreamOutcome {
  std::vector<double> model;   // engines: FullModel()
  uint64_t responses = 0;      // fleets: Fingerprint()
  std::vector<double> clocks;  // every node
  TrafficStats traffic;
  int64_t iterations = 0;
};

constexpr int64_t kStreamIterations = 6;

StreamOutcome RunStreamCase(const StreamCase& c,
                            const std::function<void(Target&)>& attach) {
  StreamOutcome out;
  Target target;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ServeFleet> fleet;
  Dataset data;
  if (c.engine != nullptr) {
    data = TestData();
    TrainConfig config = Config();
    config.ssp.enabled = c.staleness >= 0;
    config.ssp.slack = c.staleness;
    config.ssp.compute_jitter = c.jitter;
    engine = MakeEngine(c.engine, Cluster(), config);
    if (c.faults) {
      FaultEvent failure;
      failure.iteration = 1;
      failure.worker = 2;
      failure.kind = FaultKind::kWorkerFailure;
      FaultConfig faults;
      faults.plan = FaultPlan::Scripted({failure});
      faults.checkpoint.every = 2;
      EXPECT_TRUE(engine->set_faults(std::move(faults)).ok());
    }
    target.engine = engine.get();
    attach(target);
    EXPECT_TRUE(engine->Setup(data).ok());
    for (int64_t iter = 0; iter < kStreamIterations; ++iter) {
      EXPECT_TRUE(engine->RunIteration(iter).ok());
    }
    EXPECT_TRUE(engine->FinishTraining().ok());
    out.model = engine->FullModel();
    out.iterations = kStreamIterations;
  } else {
    SyntheticSpec spec;
    spec.num_rows = 150;
    spec.num_features = 120;
    spec.avg_nnz_per_row = 10.0;
    spec.seed = 77;
    data = GenerateSynthetic(spec);
    FleetConfig config;
    config.replicas = 2;
    config.serve.num_shards = 4;
    config.straggle_group = 1;  // so that hedges fire
    config.straggle_level = 3.0;
    fleet = std::make_unique<ServeFleet>(ClusterSpec::Cluster1(), config,
                                         &data);
    target.fleet = fleet.get();
    attach(target);
    EXPECT_TRUE(fleet->Install(PlantedModel("lr", spec.num_features, 5)).ok());
    WorkloadConfig workload;
    workload.rate = 3000.0;
    workload.num_requests = 400;
    workload.seed = 21;
    EXPECT_TRUE(fleet->Run(GenerateArrivals(workload, data.num_rows())).ok());
    out.responses = fleet->Fingerprint();
  }
  ClusterRuntime& runtime = target.runtime();
  for (int n = 0; n < runtime.net().num_nodes(); ++n) {
    out.clocks.push_back(runtime.clock(static_cast<NodeId>(n)));
  }
  out.traffic = runtime.net().TotalStats();
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return false;
  }
  return true;
}

// The phase rows of `tracer`, every double as its bits.
std::vector<double> PhaseRows(const Tracer& tracer) {
  std::vector<double> rows;
  for (const IterationPhases& row : tracer.iterations()) {
    rows.push_back(static_cast<double>(row.iteration));
    rows.push_back(row.start);
    rows.push_back(row.end);
    for (double seconds : row.phases.seconds) rows.push_back(seconds);
  }
  return rows;
}

void ExpectSameEvents(const Tracer& a, const Tracer& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    const TraceEvent& x = a.events()[i];
    const TraceEvent& y = b.events()[i];
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_STREQ(x.name, y.name);
    EXPECT_EQ(x.ph, y.ph);
    EXPECT_EQ(x.node, y.node);
    EXPECT_EQ(x.track, y.track);
    EXPECT_EQ(x.peer, y.peer);
    EXPECT_EQ(x.bytes, y.bytes);
    EXPECT_EQ(x.flops, y.flops);
    EXPECT_EQ(x.control, y.control);
    EXPECT_EQ(x.iteration, y.iteration);
    EXPECT_TRUE(SameBits({x.ts, x.dur, x.rx_start, x.rx_done},
                         {y.ts, y.dur, y.rx_start, y.rx_done}));
  }
}

// Overrides every event and counts it; reads nothing else.
class CountingObserver : public SimObserver {
 public:
  void OnAttach(const SimShape&) override { ++attach; }
  void OnCompute(uint32_t, double, double, uint64_t) override { ++compute; }
  void OnMemTouch(uint32_t, double, double, uint64_t) override { ++mem; }
  void OnLocal(uint32_t, double) override { ++local; }
  void OnSetClock(uint32_t, double) override { ++set_clock; }
  void OnSyncClock(uint32_t, double) override { ++sync_clock; }
  void OnBarrier(double) override { ++barrier; }
  void OnSend(uint32_t, uint32_t, uint64_t bytes, bool, double, double,
              double, double, double) override {
    ++sends;
    sent_bytes += bytes;
  }
  void OnComputeSpan(uint32_t, double, double, uint64_t) override {
    ++compute_span;
  }
  void OnInstant(const char*, uint32_t, double, int64_t) override {
    ++instant;
  }
  void OnSpan(const char*, uint32_t, double, double, uint64_t,
              int64_t) override {
    ++span;
  }
  void OnIterationBegin(int64_t, double) override { ++begin; }
  void OnPhase(Phase, double) override { ++phase; }
  void OnIterationEnd(double) override { ++end; }

  int64_t attach = 0, compute = 0, mem = 0, local = 0, set_clock = 0,
          sync_clock = 0, barrier = 0, sends = 0, compute_span = 0,
          instant = 0, span = 0, begin = 0, phase = 0, end = 0;
  uint64_t sent_bytes = 0;
};

class SimObserverTest : public testing::TestWithParam<StreamCase> {};

// Two tracers on one run (impossible with one tracer pointer per layer) see
// the same stream: equal events, phase rows and Chrome-trace bytes.
TEST_P(SimObserverTest, TwoTracersRecordTheSameTrace) {
  Tracer a;
  Tracer b;
  RunStreamCase(GetParam(), [&](Target& target) {
    target.set_tracer(&a);
    target.runtime().Observe(&b);
  });
  ASSERT_FALSE(a.events().empty());
  ExpectSameEvents(a, b);
  EXPECT_TRUE(SameBits(PhaseRows(a), PhaseRows(b)));
  EXPECT_EQ(a.iterations().size(), b.iterations().size());
  EXPECT_EQ(ChromeTraceJson(a), ChromeTraceJson(b));
}

// The tracer and the critpath recorder do not see each other: attaching
// them in either order gives the same trace bytes and the same DAG.
TEST_P(SimObserverTest, AttachOrderChangesNoTraceByteAndNoDag) {
  Tracer tracer_first;
  CritPathRecorder critpath_second;
  RunStreamCase(GetParam(), [&](Target& target) {
    target.set_tracer(&tracer_first);
    target.set_critpath(&critpath_second);
  });
  Tracer tracer_second;
  CritPathRecorder critpath_first;
  RunStreamCase(GetParam(), [&](Target& target) {
    target.set_critpath(&critpath_first);
    target.set_tracer(&tracer_second);
  });
  EXPECT_EQ(ChromeTraceJson(tracer_first), ChromeTraceJson(tracer_second));
  const CritDag dag = critpath_second.Snapshot();
  EXPECT_FALSE(dag.ops.empty());
  EXPECT_EQ(CritDagFingerprint(dag),
            CritDagFingerprint(critpath_first.Snapshot()));
}

// An observer of every event, beside both recorders, moves no trained bit,
// no clock and no byte, and counts exactly what the network and the
// iteration loop did.
TEST_P(SimObserverTest, CountingObserverSeesEveryMessageAndChangesNothing) {
  const StreamOutcome plain = RunStreamCase(GetParam(), [](Target&) {});
  Tracer tracer;
  CritPathRecorder critpath;
  CountingObserver counter;
  const StreamOutcome observed = RunStreamCase(GetParam(), [&](Target& t) {
    t.set_tracer(&tracer);
    t.runtime().Observe(&counter);
    t.set_critpath(&critpath);
  });
  EXPECT_TRUE(SameBits(plain.model, observed.model));
  EXPECT_EQ(plain.responses, observed.responses);
  EXPECT_TRUE(SameBits(plain.clocks, observed.clocks));
  EXPECT_EQ(plain.traffic.messages_sent, observed.traffic.messages_sent);
  EXPECT_EQ(plain.traffic.bytes_sent, observed.traffic.bytes_sent);
  EXPECT_EQ(plain.traffic.messages_received,
            observed.traffic.messages_received);
  EXPECT_EQ(plain.traffic.bytes_received, observed.traffic.bytes_received);

  EXPECT_EQ(counter.attach, 1);
  EXPECT_GT(counter.sends, 0);
  EXPECT_EQ(counter.sends,
            static_cast<int64_t>(observed.traffic.messages_sent));
  EXPECT_EQ(counter.sent_bytes, observed.traffic.bytes_sent);
  EXPECT_EQ(counter.begin, observed.iterations);
  EXPECT_EQ(counter.end, observed.iterations);
  EXPECT_GT(counter.compute + counter.compute_span, 0);
  if (GetParam().engine != nullptr) {
    EXPECT_GT(counter.phase, 0);
  } else {
    EXPECT_GT(counter.span, 0);  // serve.batch, serve.route, serve.hedge
  }
  if (GetParam().faults) {
    EXPECT_GT(counter.instant, 0);  // fault.worker
    EXPECT_GT(counter.barrier, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, SimObserverTest,
    testing::Values(StreamCase{"columnsgd_bsp", "columnsgd", -1, 0.0, false},
                    StreamCase{"columnsgd_ssp1", "columnsgd", 1, 0.0, false},
                    StreamCase{"mxnet_bsp", "mxnet", -1, 0.0, false},
                    StreamCase{"mxnet_ssp2_jitter", "mxnet", 2, 0.3, false},
                    StreamCase{"mllib_star_faults", "mllib_star", -1, 0.0,
                               true},
                    StreamCase{"fleet_r2", nullptr, -1, 0.0, false}),
    StreamCaseName);

}  // namespace
}  // namespace colsgd
