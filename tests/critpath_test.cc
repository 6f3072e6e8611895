// Causal critical-path analysis (DESIGN.md §16):
//  * Conservation: the extracted critical path tiles the makespan exactly —
//    |path length - makespan| <= 1e-9 with zero unexplained gaps — for every
//    engine x model pair under BSP, SSP, heavy stragglers, and crash/recovery.
//  * Passivity: attaching the recorder changes no trained bit and no
//    simulated clock.
//  * Determinism: two identical runs produce fingerprint-identical DAGs, and
//    the JSON round trip preserves the fingerprint.
//  * What-if fidelity: retimed predictions match real re-runs of the changed
//    cluster (straggler removal within 1%, NIC speedup, SSP slack bump).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "engine/trainer.h"
#include "obs/critpath/analysis.h"
#include "obs/critpath/critpath.h"
#include "obs/critpath/dag_json.h"
#include "obs/critpath/retime.h"

namespace colsgd {
namespace {

Dataset TestData(const std::string& model_name = "lr") {
  SyntheticSpec spec = TinySpec();
  spec.num_rows = 2000;
  spec.num_features = 403;
  if (model_name.rfind("mlr", 0) == 0) {
    spec.num_classes = std::stoi(model_name.substr(3));
  }
  return GenerateSynthetic(spec);
}

ClusterSpec Cluster(int workers) {
  ClusterSpec spec = ClusterSpec::Cluster1();
  spec.num_workers = workers;
  return spec;
}

TrainConfig Config(const std::string& model) {
  TrainConfig config;
  config.model = model;
  config.learning_rate = 0.3;
  config.batch_size = 50;
  config.block_rows = 128;
  return config;
}

FaultConfig RotatingStragglers() {
  FaultPlanConfig fc;
  fc.seed = 7;
  fc.stragglers.mode = StragglerSpec::Mode::kRotating;
  fc.stragglers.level = 5.0;
  FaultConfig faults;
  faults.plan = FaultPlan(fc);
  return faults;
}

FaultConfig PersistentStraggler(int worker) {
  FaultPlanConfig fc;
  fc.seed = 7;
  fc.stragglers.mode = StragglerSpec::Mode::kPersistent;
  fc.stragglers.workers = {worker};
  fc.stragglers.level = 5.0;
  FaultConfig faults;
  faults.plan = FaultPlan(fc);
  return faults;
}

struct RunOutcome {
  CritDag dag;  // empty unless recorded
  std::vector<double> model;
  double makespan = 0.0;
  std::vector<double> clocks;  // master + workers
};

RunOutcome RunEngine(const std::string& engine_name, const std::string& model_name,
               int workers, int iterations, const TrainConfig& config,
               const FaultConfig* faults, bool record,
               const ClusterSpec* cluster = nullptr) {
  Dataset d = TestData(model_name);
  const ClusterSpec spec = cluster != nullptr ? *cluster : Cluster(workers);
  std::unique_ptr<Engine> engine = MakeEngine(engine_name, spec, config);
  CritPathRecorder recorder;
  if (record) engine->set_critpath(&recorder);
  if (faults != nullptr) {
    EXPECT_TRUE(engine->set_faults(*faults).ok());
  }
  EXPECT_TRUE(engine->Setup(d).ok());
  for (int i = 0; i < iterations; ++i) {
    EXPECT_TRUE(engine->RunIteration(i).ok());
  }
  EXPECT_TRUE(engine->FinishTraining().ok());

  RunOutcome out;
  out.model = engine->FullModel();
  out.makespan = engine->runtime().MaxClock();
  for (int n = 0; n <= workers; ++n) {
    out.clocks.push_back(engine->runtime().clock(static_cast<NodeId>(n)));
  }
  if (record) out.dag = recorder.Snapshot();
  return out;
}

void ExpectConserved(const CritDag& dag, const std::string& label) {
  Result<CritPathResult> path = ExtractCriticalPath(dag);
  ASSERT_TRUE(path.ok()) << label << ": " << path.status().ToString();
  EXPECT_EQ(path->exact_misses, 0) << label;
  EXPECT_LE(std::fabs(path->PathLength() - dag.Makespan()), 1e-9)
      << label << ": path " << path->PathLength() << " vs makespan "
      << dag.Makespan();
  EXPECT_FALSE(path->steps.empty()) << label;
}

// --- Conservation: path length tiles the makespan to 1e-9 -----------------

class CritPathConservationTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(CritPathConservationTest, SspSlackZeroAndTwoUnderStragglers) {
  const auto& [engine_name, model_name] = GetParam();
  const FaultConfig faults = RotatingStragglers();
  for (int slack : {0, 2}) {
    TrainConfig config = Config(model_name);
    config.ssp.enabled = true;
    config.ssp.slack = slack;
    RunOutcome run = RunEngine(engine_name, model_name, 4, 8, config, &faults,
                         /*record=*/true);
    ExpectConserved(run.dag, engine_name + "/" + model_name + " ssp slack " +
                                 std::to_string(slack));
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndModels, CritPathConservationTest,
    ::testing::Values(std::make_tuple("columnsgd", "lr"),
                      std::make_tuple("columnsgd", "svm"),
                      std::make_tuple("columnsgd", "mlr3"),
                      std::make_tuple("columnsgd", "fm4"),
                      std::make_tuple("columnsgd", "mlp8"),
                      std::make_tuple("petuum", "lr"),
                      std::make_tuple("petuum", "svm"),
                      std::make_tuple("petuum", "mlr3"),
                      std::make_tuple("petuum", "fm4"),
                      std::make_tuple("mxnet", "lr"),
                      std::make_tuple("mxnet", "svm"),
                      std::make_tuple("mxnet", "mlr3"),
                      std::make_tuple("mxnet", "fm4")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST(CritPathConservationTest, BspAllEnginesCleanAndStraggled) {
  const FaultConfig straggler = PersistentStraggler(0);
  for (const char* engine :
       {"columnsgd", "mllib", "mllib_star", "petuum", "mxnet"}) {
    const TrainConfig config = Config("lr");
    RunOutcome clean =
        RunEngine(engine, "lr", 4, 8, config, nullptr, /*record=*/true);
    ExpectConserved(clean.dag, std::string(engine) + " bsp clean");
    RunOutcome straggled =
        RunEngine(engine, "lr", 4, 8, config, &straggler, /*record=*/true);
    ExpectConserved(straggled.dag, std::string(engine) + " bsp straggler");
  }
}

TEST(CritPathConservationTest, CrashRecoveryWithCheckpoints) {
  for (const char* engine : {"columnsgd", "mllib"}) {
    FaultConfig faults;
    faults.plan =
        FaultPlan::Scripted({{10, 1, FaultKind::kWorkerFailure}});
    faults.checkpoint.every = 5;
    const TrainConfig config = Config("lr");
    RunOutcome run = RunEngine(engine, "lr", 4, 20, config, &faults,
                         /*record=*/true);
    ExpectConserved(run.dag, std::string(engine) + " crash/recovery");
    Result<CritPathResult> path = ExtractCriticalPath(run.dag);
    ASSERT_TRUE(path.ok());
    // A straggler-free crash run still spends time somewhere besides compute.
    EXPECT_GT(path->makespan, 0.0);
  }
}

// --- Passivity: attaching the recorder is invisible to the simulation -----

TEST(CritPathPassivityTest, RecorderChangesNoBitNoClock) {
  const FaultConfig faults = RotatingStragglers();
  for (const char* engine : {"columnsgd", "petuum"}) {
    TrainConfig config = Config("lr");
    config.ssp.enabled = true;
    config.ssp.slack = 1;
    RunOutcome plain = RunEngine(engine, "lr", 4, 8, config, &faults,
                           /*record=*/false);
    RunOutcome recorded = RunEngine(engine, "lr", 4, 8, config, &faults,
                              /*record=*/true);
    EXPECT_EQ(plain.model, recorded.model) << engine;
    ASSERT_EQ(plain.clocks.size(), recorded.clocks.size());
    for (size_t n = 0; n < plain.clocks.size(); ++n) {
      EXPECT_EQ(plain.clocks[n], recorded.clocks[n]) << engine << " node "
                                                     << n;
    }
    EXPECT_EQ(plain.makespan, recorded.makespan) << engine;
  }
}

// --- Determinism + serialization ------------------------------------------

TEST(CritPathDagTest, FingerprintDeterministicAcrossRuns) {
  const FaultConfig faults = RotatingStragglers();
  TrainConfig config = Config("lr");
  config.ssp.enabled = true;
  config.ssp.slack = 2;
  RunOutcome a = RunEngine("columnsgd", "lr", 4, 8, config, &faults, true);
  RunOutcome b = RunEngine("columnsgd", "lr", 4, 8, config, &faults, true);
  EXPECT_EQ(a.dag.ops.size(), b.dag.ops.size());
  EXPECT_EQ(CritDagFingerprint(a.dag), CritDagFingerprint(b.dag));
}

TEST(CritPathDagTest, JsonRoundTripPreservesFingerprint) {
  const TrainConfig config = Config("lr");
  RunOutcome run = RunEngine("columnsgd", "lr", 4, 6, config, nullptr, true);
  const std::string path = "critpath_test_roundtrip.json";
  ASSERT_TRUE(WriteCritDagFile(run.dag, path).ok());
  Result<CritDag> reread = ReadCritDagFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(reread->ops.size(), run.dag.ops.size());
  EXPECT_EQ(CritDagFingerprint(*reread), CritDagFingerprint(run.dag));
  ExpectConserved(*reread, "reread dag");
}

// --- Hostile DAG files ------------------------------------------------------

// A copy of `json` with the number at `path` (object keys and array indexes,
// as text) replaced by `value`.
JsonValue Edited(const JsonValue& json, const std::vector<std::string>& path,
                 double value, size_t depth = 0) {
  if (depth == path.size()) return JsonValue::Number(value);
  if (json.is_array()) {
    JsonValue out = JsonValue::Array();
    const size_t index = std::stoul(path[depth]);
    for (size_t i = 0; i < json.array().size(); ++i) {
      out.Append(i == index ? Edited(json.array()[i], path, value, depth + 1)
                            : json.array()[i]);
    }
    return out;
  }
  JsonValue out = JsonValue::Object();
  for (const auto& [key, member] : json.members()) {
    out.Set(key, key == path[depth] ? Edited(member, path, value, depth + 1)
                                    : member);
  }
  return out;
}

// A recorded SSP run of `engine` under stragglers. ColumnSGD's has queued
// messages, message terms and keyed broadcast rows; the sparse-pull PS's
// also has clock and stamp terms.
const CritDag& RecordedDag(const std::string& engine = "columnsgd") {
  static std::map<std::string, CritDag> dags;
  auto it = dags.find(engine);
  if (it == dags.end()) {
    TrainConfig config = Config("lr");
    config.ssp.enabled = true;
    config.ssp.slack = 2;
    const FaultConfig faults = RotatingStragglers();
    it = dags.emplace(engine, RunEngine(engine, "lr", 4, 6, config, &faults,
                                        true).dag)
             .first;
  }
  return it->second;
}

// The index of the first op of `dag` that `pred` accepts.
template <class Pred>
size_t FirstOp(const CritDag& dag, Pred pred) {
  for (size_t i = 0; i < dag.ops.size(); ++i) {
    if (pred(dag.ops[i])) return i;
  }
  ADD_FAILURE() << "the recorded DAG has no such op";
  return 0;
}

size_t FirstOfKind(const CritDag& dag, CritOpKind kind) {
  return FirstOp(dag, [&](const CritOp& op) { return op.kind == kind; });
}

// The JSON path of the first term of kind `kind` in `dag`.
std::vector<std::string> FirstTermPath(const CritDag& dag, CritCauseKind kind) {
  for (size_t i = 0; i < dag.ops.size(); ++i) {
    const std::vector<CritTerm>& terms = dag.ops[i].terms;
    for (size_t t = 0; t < terms.size(); ++t) {
      if (terms[t].kind != kind) continue;
      const bool msg = dag.ops[i].kind == CritOpKind::kMsg;
      return {"ops", std::to_string(i), msg ? "16" : "4", std::to_string(t)};
    }
  }
  ADD_FAILURE() << "the recorded DAG has no such term";
  return {};
}

double NotMsgOp(const CritDag& dag) {
  return static_cast<double>(FirstOp(
      dag, [](const CritOp& op) { return op.kind != CritOpKind::kMsg; }));
}

// `dag` with `path` set to `value` must fail to load with a critdag
// InvalidArgument, which `colsgd_critpath` reports with exit 1.
void ExpectRejected(const CritDag& dag, std::vector<std::string> path,
                    double value, const std::string& field = "") {
  if (!field.empty()) path.push_back(field);
  std::string where;
  for (const std::string& part : path) where += "/" + part;
  SCOPED_TRACE(where + " = " + std::to_string(value));
  const Result<CritDag> read =
      CritDagFromJson(Edited(CritDagJson(dag), path, value));
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsInvalidArgument());
  EXPECT_EQ(read.status().message().rfind("critdag: ", 0), 0u)
      << read.status().message();
}

TEST(CritPathDagTest, UntouchedDagLoadsWithItsFingerprint) {
  for (const std::string engine : {"columnsgd", "mxnet"}) {
    SCOPED_TRACE(engine);
    const CritDag& dag = RecordedDag(engine);
    const Result<CritDag> reread = CritDagFromJson(CritDagJson(dag));
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    EXPECT_EQ(CritDagFingerprint(*reread), CritDagFingerprint(dag));
  }
  EXPECT_FALSE(RecordedDag().keyed.empty());
  // Another node in range is a valid edit: the checks reject only what
  // names no node.
  const CritDag& dag = RecordedDag();
  const size_t op = FirstOfKind(dag, CritOpKind::kLocal);
  const Result<CritDag> moved = CritDagFromJson(Edited(
      CritDagJson(dag), {"ops", std::to_string(op), "1"}, dag.num_nodes - 1.0));
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(moved->ops[op].node, dag.num_nodes - 1);
}

TEST(CritPathDagTest, RejectsOpNodeOutsideTheCluster) {
  const CritDag& dag = RecordedDag();
  const std::string op = std::to_string(FirstOfKind(dag, CritOpKind::kLocal));
  for (const double node : {1e8, -5.0, double(dag.num_nodes), 0.5, 0x1p32}) {
    ExpectRejected(dag, {"ops", op, "1"}, node);
  }
}

TEST(CritPathDagTest, RejectsOpKindThatIsNoKind) {
  const CritDag& dag = RecordedDag();
  const std::string op = std::to_string(FirstOfKind(dag, CritOpKind::kLocal));
  // 256 and 1e300 had read as kind 0 (kCompute); 7 is unused.
  for (const double kind : {7.0, 256.0, 1e300, -1.0, 2.5}) {
    ExpectRejected(dag, {"ops", op, "0"}, kind);
  }
}

TEST(CritPathDagTest, RejectsMsgDestinationOutsideTheCluster) {
  const CritDag& dag = RecordedDag();
  const std::string msg = std::to_string(FirstOfKind(dag, CritOpKind::kMsg));
  for (const double to : {-1.0, double(dag.num_nodes), 1.5}) {
    ExpectRejected(dag, {"ops", msg, "2"}, to);
  }
}

TEST(CritPathDagTest, RejectsTailNodeThatIsNeitherNoneNorANode) {
  const CritDag& dag = RecordedDag();
  const std::string msg = std::to_string(FirstOfKind(dag, CritOpKind::kMsg));
  for (const double node : {-2.0, double(dag.num_nodes), 1e300}) {
    ExpectRejected(dag, {"ops", msg, "15"}, node);
  }
}

TEST(CritPathDagTest, RejectsQueuePredecessorThatIsNoEarlierMsg) {
  const CritDag& dag = RecordedDag();
  const size_t msg = FirstOfKind(dag, CritOpKind::kMsg);
  for (const std::string field : {"12", "13"}) {  // prev_out, prev_in
    for (const double ref : {double(msg), NotMsgOp(dag), -5.0}) {
      ExpectRejected(dag, {"ops", std::to_string(msg)}, ref, field);
    }
  }
}

TEST(CritPathDagTest, RejectsTermKindThatIsNoKind) {
  const CritDag& dag = RecordedDag();
  for (const double kind : {5.0, -1.0, 1e300}) {
    ExpectRejected(dag, FirstTermPath(dag, CritCauseKind::kMsg), kind, "0");
  }
}

TEST(CritPathDagTest, RejectsTermAddNodeThatIsNeitherNoneNorANode) {
  const CritDag& dag = RecordedDag();
  for (const double node : {-2.0, double(dag.num_nodes)}) {
    ExpectRejected(dag, FirstTermPath(dag, CritCauseKind::kMsg), node, "5");
  }
}

TEST(CritPathDagTest, RejectsMsgTermThatNamesNoEarlierMsg) {
  const CritDag& dag = RecordedDag();
  const std::vector<std::string> term = FirstTermPath(dag, CritCauseKind::kMsg);
  const double own = std::stod(term[1]);
  for (const double ref : {own, NotMsgOp(dag), -2.0, 1e19}) {
    ExpectRejected(dag, term, ref, "1");
  }
}

TEST(CritPathDagTest, RejectsClockAndStampTermsThatNameNoNode) {
  // A kClock term's ref and a kStamp term's ref2 are nodes; a kClock ref of
  // 1e8 had segfaulted `colsgd_critpath --what_if`.
  const CritDag& dag = RecordedDag("mxnet");
  for (const double node : {-1.0, double(dag.num_nodes), 1e8}) {
    ExpectRejected(dag, FirstTermPath(dag, CritCauseKind::kClock), node, "1");
    ExpectRejected(dag, FirstTermPath(dag, CritCauseKind::kStamp), node, "2");
  }
}

TEST(CritPathDagTest, RejectsKeyedRowThatNamesNoMsg) {
  const CritDag& dag = RecordedDag();
  const double past_end = static_cast<double>(dag.ops.size());
  for (const double msg : {NotMsgOp(dag), past_end, -3.0}) {
    ExpectRejected(dag, {"keyed", "0", "2"}, msg);
  }
}

// The fields below index nothing, but a cast of an out-of-range double to
// their types is undefined; `"num_workers": 1e300` had loaded, and
// `colsgd_critpath --check` had printed "-2147483648 workers".
TEST(CritPathDagTest, RejectsNumWorkersOutsideTheCluster) {
  const CritDag& dag = RecordedDag();
  for (const double workers : {1e300, -1.0, double(dag.num_nodes), 2.5}) {
    ExpectRejected(dag, {"num_workers"}, workers);
  }
}

TEST(CritPathDagTest, RejectsControlBytesOutOfRange) {
  const CritDag& dag = RecordedDag();
  for (const double bytes : {-5.0, 0x1p64, 1e300, 0.5}) {
    ExpectRejected(dag, {"net", "control_bytes"}, bytes);
  }
}

TEST(CritPathDagTest, RejectsAdvanceFlopsOutOfRange) {
  const CritDag& dag = RecordedDag();
  const std::string op = std::to_string(FirstOfKind(dag, CritOpKind::kCompute));
  for (const double flops : {-1.0, 0x1p64, 1.5}) {
    ExpectRejected(dag, {"ops", op, "3"}, flops);
  }
}

TEST(CritPathDagTest, RejectsMsgBytesOutOfRange) {
  const CritDag& dag = RecordedDag();
  const std::string msg = std::to_string(FirstOfKind(dag, CritOpKind::kMsg));
  for (const double bytes : {-1.0, 0x1p64, 1e300}) {
    ExpectRejected(dag, {"ops", msg, "3"}, bytes);
  }
}

TEST(CritPathDagTest, RejectsStampAndGateTermRefsOutOfRange) {
  // A kStamp term's stamp id (ref) and a kGate term's group and tick (ref,
  // ref2) are int64s.
  const std::vector<std::string> stamp =
      FirstTermPath(RecordedDag("mxnet"), CritCauseKind::kStamp);
  const std::vector<std::string> gate =
      FirstTermPath(RecordedDag(), CritCauseKind::kGate);
  for (const double ref : {0x1p63, -0x1p64, 1e300, 0.5}) {
    ExpectRejected(RecordedDag("mxnet"), stamp, ref, "1");
    ExpectRejected(RecordedDag(), gate, ref, "1");
    ExpectRejected(RecordedDag(), gate, ref, "2");
  }
}

TEST(CritPathDagTest, RejectsKeyedRowGroupOrTickOutOfRange) {
  const CritDag& dag = RecordedDag();
  for (const std::string field : {"0", "1"}) {  // group, tick
    for (const double value : {0x1p63, -1e300, 2.5}) {
      ExpectRejected(dag, {"keyed", "0"}, value, field);
    }
  }
  // The extremes of the range still load.
  const Result<CritDag> edge = CritDagFromJson(
      Edited(Edited(CritDagJson(dag), {"keyed", "0", "0"}, -0x1p63),
             {"num_workers"}, dag.num_nodes - 1.0));
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge->keyed[0].group, INT64_MIN);
  EXPECT_EQ(edge->num_workers, static_cast<int32_t>(dag.num_nodes) - 1);
}

// --- What-if retiming fidelity --------------------------------------------

TEST(CritPathWhatIfTest, IdentityReplayReproducesMakespan) {
  const FaultConfig faults = RotatingStragglers();
  for (const char* engine : {"columnsgd", "petuum"}) {
    TrainConfig config = Config("lr");
    config.ssp.enabled = true;
    config.ssp.slack = 1;
    RunOutcome run = RunEngine(engine, "lr", 4, 8, config, &faults, true);
    Result<RetimeResult> replay = Retime(run.dag, WhatIf{});
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_DOUBLE_EQ(replay->makespan, run.dag.Makespan()) << engine;
  }
}

TEST(CritPathWhatIfTest, StragglerRemovalPredictsCleanRunWithinOnePercent) {
  const FaultConfig straggler = PersistentStraggler(0);
  const TrainConfig config = Config("lr");
  RunOutcome straggled =
      RunEngine("columnsgd", "lr", 4, 8, config, &straggler, /*record=*/true);
  RunOutcome clean =
      RunEngine("columnsgd", "lr", 4, 8, config, nullptr, /*record=*/false);
  ASSERT_GT(straggled.makespan, clean.makespan);

  WhatIf what_if;
  what_if.straggler_scale.assign(straggled.dag.num_nodes, 1.0);
  what_if.straggler_scale[1] = 0.0;  // worker 0 = node 1
  Result<RetimeResult> predicted = Retime(straggled.dag, what_if);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_LE(std::fabs(predicted->makespan - clean.makespan),
            0.01 * clean.makespan)
      << "predicted " << predicted->makespan << " actual " << clean.makespan;
}

TEST(CritPathWhatIfTest, BandwidthDoublingPredictsFasterNetRun) {
  const TrainConfig config = Config("lr");
  RunOutcome base = RunEngine("columnsgd", "lr", 4, 8, config, nullptr, true);

  ClusterSpec fast = Cluster(4);
  fast.net.bandwidth *= 2.0;
  RunOutcome actual = RunEngine("columnsgd", "lr", 4, 8, config, nullptr,
                          /*record=*/false, &fast);
  ASSERT_LT(actual.makespan, base.makespan);

  WhatIf what_if;
  what_if.bandwidth_scale = 2.0;
  Result<RetimeResult> predicted = Retime(base.dag, what_if);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_LE(std::fabs(predicted->makespan - actual.makespan),
            0.01 * actual.makespan)
      << "predicted " << predicted->makespan << " actual " << actual.makespan;
}

TEST(CritPathWhatIfTest, SlackBumpPredictsLooserSspRun) {
  // Engine decisions (which records drain together) differ under a real
  // slack change, so this is the documented approximation: 5% tolerance.
  const FaultConfig faults = RotatingStragglers();
  TrainConfig slack1 = Config("lr");
  slack1.ssp.enabled = true;
  slack1.ssp.slack = 1;
  RunOutcome base = RunEngine("columnsgd", "lr", 4, 8, slack1, &faults, true);

  TrainConfig slack2 = Config("lr");
  slack2.ssp.enabled = true;
  slack2.ssp.slack = 2;
  RunOutcome actual =
      RunEngine("columnsgd", "lr", 4, 8, slack2, &faults, /*record=*/false);

  WhatIf what_if;
  what_if.slack_delta = 1;
  Result<RetimeResult> predicted = Retime(base.dag, what_if);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_LE(std::fabs(predicted->makespan - actual.makespan),
            0.05 * actual.makespan)
      << "predicted " << predicted->makespan << " actual " << actual.makespan;
  // Looser slack never slows the run down.
  EXPECT_LE(predicted->makespan, base.dag.Makespan() * (1.0 + 1e-12));
}

TEST(CritPathWhatIfTest, NegativeSlackDeltaRejected) {
  const TrainConfig config = Config("lr");
  RunOutcome run = RunEngine("columnsgd", "lr", 4, 4, config, nullptr, true);
  WhatIf what_if;
  what_if.slack_delta = -1;
  EXPECT_FALSE(Retime(run.dag, what_if).ok());
}

// --- Blame sanity ----------------------------------------------------------

TEST(CritPathBlameTest, PersistentStragglerDominatesBlame) {
  const FaultConfig straggler = PersistentStraggler(0);
  const TrainConfig config = Config("lr");
  RunOutcome run = RunEngine("columnsgd", "lr", 4, 8, config, &straggler, true);
  Result<CritPathResult> path = ExtractCriticalPath(run.dag);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  const double straggler_blame = path->BlameSeconds(BlameKind::kStraggler);
  // Level-5 straggling on the critical worker should own most of the path.
  EXPECT_GT(straggler_blame, 0.5 * path->makespan);
  // And the straggler seconds should be charged to worker 0 (node 1).
  double node1 = 0.0, others = 0.0;
  for (const auto& [key, seconds] : path->blame) {
    if (key.first != static_cast<int>(BlameKind::kStraggler)) continue;
    if (key.second == 1) {
      node1 += seconds;
    } else {
      others += seconds;
    }
  }
  EXPECT_GT(node1, others);
}

}  // namespace
}  // namespace colsgd
