// Online-serving driver (DESIGN.md §13, §17): load-tests the column-sharded
// serving plane on the simulated cluster and prints the SLO accounting.
//
// Two modes:
//
//  * load test (default): installs a model — planted weights, or a v2
//    CRC-sealed image from --model_file — and serves an open-loop Poisson,
//    burst, diurnal, or flash-crowd workload against a synthetic query log.
//    With --replicas > 1 the requests go through the replicated fleet
//    (health-routed, hedging router over R shard groups) instead of a
//    single frontend:
//
//      colsgd_serve --model lr --shards 4 --rate 4000 --requests 2000
//      colsgd_serve --arrivals burst --burst_factor 8 --slo_latency 0.005
//      colsgd_serve --fail_at 0.2 --fail_shard 1   # failover drill
//      colsgd_serve --replicas 2 --straggle_group 1 --straggle_level 5
//      colsgd_serve --replicas 3 --group_fail_at 0.2 --fail_group 0
//      colsgd_serve --arrivals flash --flash_factor 6 --replicas 2
//
//  * train-and-serve (--train_iters > 0): trains an engine with periodic
//    checkpointing, then replays the checkpoint stream into the serving
//    plane — the first checkpoint is the bring-up install and every later
//    one arrives as a hot swap at its training-time offset, so responses
//    span model generations without a single request being dropped:
//
//      colsgd_serve --train_iters 30 --checkpoint_every 5 --rate 2000
//
// Per-request latency decompositions (queue/scatter/compute/gather) can be
// dumped with --records_csv for offline analysis.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "datagen/synthetic.h"
#include "engine/trainer.h"
#include "linalg/kernels/calibrate.h"
#include "linalg/kernels/kernels.h"
#include "model/factory.h"
#include "obs/critpath/dag_json.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/fleet.h"

namespace colsgd {
namespace {

SavedModel PlantedModel(const std::string& model_name, uint64_t num_features,
                        uint64_t seed) {
  std::unique_ptr<ModelSpec> spec = MakeModel(model_name);
  const int wpf = spec->weights_per_feature();
  SavedModel model;
  model.model_name = model_name;
  model.num_features = num_features;
  model.weights.resize(num_features * static_cast<uint64_t>(wpf));
  for (uint64_t slot = 0; slot < model.weights.size(); ++slot) {
    model.weights[slot] = 0.05 * GaussianFromHash(slot + 1, seed);
  }
  model.shared.resize(spec->num_shared_params());
  for (size_t i = 0; i < model.shared.size(); ++i) {
    model.shared[i] = 0.01 * GaussianFromHash(0x51a3edULL + i, seed);
  }
  return model;
}

const char* StatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kCompleted: return "completed";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kTimedOut: return "timed_out";
  }
  return "?";
}

void DumpRecordsCsv(const std::string& path,
                    const std::vector<RequestRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  COLSGD_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f,
               "id,row,arrival,status,generation,batch,dispatch,completion,"
               "queue_s,scatter_s,compute_s,gather_s,score\n");
  for (const RequestRecord& rec : records) {
    std::fprintf(f,
                 "%llu,%u,%.9f,%s,%lld,%lld,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f,"
                 "%.17g\n",
                 static_cast<unsigned long long>(rec.id), rec.row, rec.arrival,
                 StatusName(rec.status),
                 static_cast<long long>(rec.generation),
                 static_cast<long long>(rec.batch), rec.dispatch,
                 rec.completion, rec.queue_s, rec.scatter_s, rec.compute_s,
                 rec.gather_s, rec.score);
  }
  std::fclose(f);
  std::printf("records: %s\n", path.c_str());
}

void PrintSummary(const ServeSummary& s,
                  const std::vector<RequestRecord>& records,
                  const std::vector<GenerationInfo>& generations) {
  std::printf("offered %lld  completed %lld  rejected %lld  timed_out %lld  "
              "batches %lld\n",
              static_cast<long long>(s.offered),
              static_cast<long long>(s.completed),
              static_cast<long long>(s.rejected),
              static_cast<long long>(s.timed_out),
              static_cast<long long>(s.batches));
  std::printf("makespan %.6f s  throughput %.1f req/s\n", s.makespan,
              s.throughput);
  std::printf("latency mean %.3f ms  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  "
              "max %.3f ms\n",
              s.latency_mean * 1e3, s.latency_p50 * 1e3, s.latency_p95 * 1e3,
              s.latency_p99 * 1e3, s.latency_max * 1e3);
  std::printf("wire %llu bytes in %llu messages  (%.1f bytes/request)\n",
              static_cast<unsigned long long>(s.wire_bytes),
              static_cast<unsigned long long>(s.wire_messages),
              s.bytes_per_request);
  std::printf("swaps %lld completed, %lld failed, stall %.6f s\n",
              static_cast<long long>(s.swaps_completed),
              static_cast<long long>(s.swaps_failed), s.swap_stall_seconds);
  std::printf("failovers %lld (%.6f s)  slo_violation_fraction %.4f\n",
              static_cast<long long>(s.failovers), s.failover_seconds,
              s.slo_violation_fraction);

  std::map<int64_t, int64_t> per_generation;
  for (const RequestRecord& rec : records) {
    if (rec.status == RequestStatus::kCompleted) ++per_generation[rec.generation];
  }
  std::printf("generations served:");
  for (const auto& [generation, count] : per_generation) {
    std::printf("  g%lld: %lld", static_cast<long long>(generation),
                static_cast<long long>(count));
  }
  std::printf("\n");
  for (const GenerationInfo& info : generations) {
    std::printf("  install %s gen %lld (iter %lld) %.6f -> %.6f s\n",
                info.ok ? "ok  " : "FAIL",
                static_cast<long long>(info.generation),
                static_cast<long long>(info.trained_iterations),
                info.install_start, info.install_done);
  }
}

void PrintFleetExtras(const FleetSummary& s) {
  std::printf("fleet: %d replica group(s)  per-group completed:", s.replicas);
  for (size_t g = 0; g < s.group_completed.size(); ++g) {
    std::printf("  g%zu: %lld", g,
                static_cast<long long>(s.group_completed[g]));
  }
  std::printf("\n");
  std::printf("hedges %lld fired, %lld won, %lld cancelled, %lld suppressed  "
              "(%llu hedge bytes)\n",
              static_cast<long long>(s.hedges_fired),
              static_cast<long long>(s.hedge_wins),
              static_cast<long long>(s.hedges_cancelled),
              static_cast<long long>(s.hedges_suppressed),
              static_cast<unsigned long long>(s.hedge_bytes));
  std::printf("redispatches %lld  group_down_events %lld\n",
              static_cast<long long>(s.redispatches),
              static_cast<long long>(s.group_down_events));
}

int RunDriver(int argc, char** argv) {
  std::string model = "lr";
  std::string model_file;
  std::string records_csv;
  ServeConfig serve;
  WorkloadConfig workload;
  int64_t shards = serve.num_shards;
  int64_t workload_seed = static_cast<int64_t>(workload.seed);
  int64_t query_rows = 2000;
  int64_t query_features = 1000;
  int64_t query_seed = 99;
  int64_t model_seed = 7;
  double fail_at = 0.0;
  int64_t fail_shard = 0;
  // The serving plane; its router flags need --replicas > 1.
  FleetConfig fleet_config;
  int64_t replicas = 1;
  int64_t straggle_group = fleet_config.straggle_group;
  double group_fail_at = 0.0;
  int64_t fail_group = 0;
  // Train-and-serve.
  std::string engine_name = "columnsgd";
  int64_t train_iters = 0;
  int64_t checkpoint_every = 5;
  int64_t train_rows = 4000;
  double learning_rate = 0.5;
  int64_t batch_size = 256;

  FlagParser flags;
  flags.AddString("model", &model, "model family (lr, svm, fm<F>, mlr<C>)");
  flags.AddString("model_file", &model_file,
                  "serve a v2 model image instead of planted weights");
  flags.AddInt64("shards", &shards, "number of shard servers");
  flags.AddString("partitioner", &serve.partitioner, "column partitioner");
  flags.AddInt64("max_batch", &serve.max_batch, "requests per batch");
  flags.AddDouble("max_delay", &serve.max_delay,
                  "max seconds the oldest request waits for a batch");
  flags.AddInt64("queue_capacity", &serve.queue_capacity,
                 "admission queue bound");
  flags.AddDouble("reply_timeout", &serve.reply_timeout,
                  "gather timeout when a shard is dead");
  flags.AddDouble("slo_latency", &serve.slo_latency,
                  "per-request latency objective, seconds");
  flags.AddString("arrivals", &workload.arrivals,
                  "poisson | burst | diurnal | flash");
  flags.AddDouble("rate", &workload.rate, "base arrival rate, req/s");
  flags.AddInt64("requests", &workload.num_requests, "number of requests");
  flags.AddInt64("workload_seed", &workload_seed, "arrival process seed");
  flags.AddDouble("burst_period", &workload.burst_period, "seconds");
  flags.AddDouble("burst_duration", &workload.burst_duration, "seconds");
  flags.AddDouble("burst_factor", &workload.burst_factor, "rate multiplier");
  flags.AddDouble("diurnal_period", &workload.diurnal_period,
                  "seconds per simulated day");
  flags.AddDouble("diurnal_amplitude", &workload.diurnal_amplitude,
                  "peak-to-base swing in [0, 1]");
  flags.AddDouble("diurnal_phase", &workload.diurnal_phase,
                  "fraction of a period in [0, 1)");
  flags.AddDouble("flash_at", &workload.flash_at,
                  "flash-crowd start, seconds");
  flags.AddDouble("flash_duration", &workload.flash_duration, "seconds");
  flags.AddDouble("flash_factor", &workload.flash_factor, "rate multiplier");
  flags.AddInt64("replicas", &replicas,
                 "shard-group replicas; > 1 serves through the fleet "
                 "router (DESIGN.md §17)");
  flags.AddBool("hedging", &fleet_config.hedging,
                "fleet: duplicate slow batches to a second group");
  flags.AddDouble("hedge_factor", &fleet_config.hedge_factor,
                  "fleet: budget = factor x note round-trip quantile");
  flags.AddDouble("hedge_quantile", &fleet_config.hedge_quantile,
                  "fleet: round-trip quantile the hedge budget tracks");
  flags.AddDouble("hedge_min_budget", &fleet_config.hedge_min_budget,
                  "fleet: hedge budget floor, seconds");
  flags.AddInt64("straggle_group", &straggle_group,
                 "fleet: make this group a straggler (-1 disables)");
  flags.AddDouble("straggle_level", &fleet_config.straggle_level,
                  "fleet: straggler level L (extra time = L x task time)");
  flags.AddDouble("group_fail_at", &group_fail_at,
                  "fleet: lose a whole group at this time (0 disables)");
  flags.AddInt64("fail_group", &fail_group,
                 "fleet: which group --group_fail_at kills");
  flags.AddInt64("query_rows", &query_rows, "query log rows");
  flags.AddInt64("query_features", &query_features, "query log dimension");
  flags.AddInt64("query_seed", &query_seed, "query log seed");
  flags.AddInt64("model_seed", &model_seed, "planted-weight seed");
  flags.AddDouble("fail_at", &fail_at,
                  "kill a shard at this simulated time (0 disables)");
  flags.AddInt64("fail_shard", &fail_shard, "which shard --fail_at kills");
  flags.AddString("engine", &engine_name, "training engine (train-and-serve)");
  flags.AddInt64("train_iters", &train_iters,
                 "train this many iterations first, then serve the "
                 "checkpoint stream (0 = plain load test)");
  flags.AddInt64("checkpoint_every", &checkpoint_every,
                 "checkpoint cadence while training");
  flags.AddInt64("train_rows", &train_rows, "training dataset rows");
  flags.AddDouble("learning_rate", &learning_rate, "SGD step size");
  flags.AddInt64("batch_size", &batch_size, "training mini-batch size");
  flags.AddString("records_csv", &records_csv,
                  "dump per-request latency decompositions here");
  std::string kernel_mode = "scalar";
  std::string calibration_path;
  flags.AddString("kernel", &kernel_mode,
                  "executed kernel mode (DESIGN.md §18): scalar | simd | "
                  "threaded; scores are bitwise-identical across modes");
  flags.AddString("calibration", &calibration_path,
                  "price simulated compute at the measured kernel rates "
                  "from this colsgd_calibrate profile");
  std::string trace_out;
  std::string phase_csv;
  std::string dag_out;
  flags.AddString("trace_out", &trace_out,
                  "write a Chrome trace of the serving run here");
  flags.AddString("phase_csv", &phase_csv,
                  "write the per-iteration phase CSV here (needs tracing)");
  flags.AddString("dag_out", &dag_out,
                  "write the causal critical-path DAG here");
  // The values before parsing, so the check below can tell a flag that was
  // given from one left at its default.
  const std::vector<std::pair<std::string, std::string>> defaults =
      flags.Values();
  kernels::KernelMode kmode = kernels::KernelMode::kScalar;
  flags.ParseOrExit(argc, argv, [&]() -> Status {
    const std::vector<std::pair<std::string, std::string>> values =
        flags.Values();
    // The first of `names` given on the command line, or "".
    auto first_given = [&](std::initializer_list<const char*> names) {
      for (const char* name : names) {
        for (size_t i = 0; i < values.size(); ++i) {
          if (values[i].first == name && values[i] != defaults[i]) {
            return "--" + values[i].first;
          }
        }
      }
      return std::string();
    };
    COLSGD_ASSIGN_OR_RETURN(std::unique_ptr<ModelSpec> spec,
                            CreateModel(model));
    if (!spec->SupportsStatScore()) {
      return Status::InvalidArgument(
          model + " cannot score from statistics alone; it is not servable");
    }
    COLSGD_RETURN_NOT_OK(CreatePartitioner(serve.partitioner, 1, 1).status());
    if (!kernels::ParseKernelMode(kernel_mode, &kmode)) {
      return Status::InvalidArgument(
          "--kernel must be scalar|simd|threaded, got '" + kernel_mode + "'");
    }
    if (shards < 1 || shards > std::numeric_limits<int>::max() ||
        replicas < 1 || replicas > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument(
          "--shards and --replicas must be positive ints");
    }
    serve.num_shards = static_cast<int>(shards);
    COLSGD_RETURN_NOT_OK(ServeConfig::Validate(serve));
    workload.seed = static_cast<uint64_t>(workload_seed);
    COLSGD_RETURN_NOT_OK(WorkloadConfig::Validate(workload));
    for (const char* name :
         {"burst_period", "burst_duration", "burst_factor", "diurnal_period",
          "diurnal_amplitude", "diurnal_phase", "flash_at", "flash_duration",
          "flash_factor"}) {
      const std::string flag = name;
      const std::string process = flag.substr(0, flag.find('_'));
      if (process != workload.arrivals && !first_given({name}).empty()) {
        return Status::InvalidArgument("--" + flag + " shapes --arrivals " +
                                       process);
      }
    }
    if (query_rows < 1 || query_features < 1) {
      return Status::InvalidArgument(
          "--query_rows and --query_features must be at least 1");
    }
    if (!model_file.empty()) {
      if (train_iters != 0) {
        return Status::InvalidArgument(
            "--model_file and --train_iters each name the model to serve; "
            "pass one");
      }
      const std::string given =
          first_given({"model", "model_seed", "query_features"});
      if (!given.empty()) {
        return Status::InvalidArgument(
            given + " does not apply to --model_file: the image brings the "
            "model and its dimension");
      }
    }

    if (!(fail_at >= 0.0) || !(group_fail_at >= 0.0)) {
      return Status::InvalidArgument(
          "--fail_at and --group_fail_at must not be negative (0 disables)");
    }
    if (fail_at == 0.0 && !first_given({"fail_shard"}).empty()) {
      return Status::InvalidArgument("--fail_shard needs --fail_at");
    }
    if (fail_shard < 0 || fail_shard >= shards) {
      return Status::InvalidArgument("--fail_shard must be in [0, --shards)");
    }
    if (replicas == 1) {
      const std::string given = first_given(
          {"hedging", "hedge_factor", "hedge_quantile", "hedge_min_budget",
           "straggle_group", "straggle_level", "group_fail_at", "fail_group"});
      if (!given.empty()) {
        return Status::InvalidArgument(
            given + " configures the fleet router, so it needs --replicas > 1");
      }
    } else {
      if (!dag_out.empty()) {
        return Status::InvalidArgument(
            "--dag_out records the single frontend, so it needs --replicas 1");
      }
      if (group_fail_at == 0.0 && !first_given({"fail_group"}).empty()) {
        return Status::InvalidArgument("--fail_group needs --group_fail_at");
      }
      if (fail_group < 0 || fail_group >= replicas) {
        return Status::InvalidArgument(
            "--fail_group must be in [0, --replicas)");
      }
      if (straggle_group < -1 || straggle_group >= replicas ||
          (straggle_group == -1) != (fleet_config.straggle_level == 0.0)) {
        return Status::InvalidArgument(
            "--straggle_group (in [0, --replicas)) and --straggle_level "
            "(positive) go together");
      }
      if (!fleet_config.hedging) {
        const std::string given = first_given(
            {"hedge_factor", "hedge_quantile", "hedge_min_budget"});
        if (!given.empty()) {
          return Status::InvalidArgument(given +
                                         " tunes hedging, so it needs "
                                         "--hedging");
        }
      }
    }
    fleet_config.replicas = static_cast<int>(replicas);
    fleet_config.routing = replicas > 1;
    fleet_config.serve = serve;
    fleet_config.straggle_group = static_cast<int>(straggle_group);
    COLSGD_RETURN_NOT_OK(FleetConfig::Validate(fleet_config));

    if (train_iters < 0) {
      return Status::InvalidArgument(
          "--train_iters must not be negative (0 serves without training)");
    }
    if (train_iters == 0) {
      const std::string given =
          first_given({"engine", "checkpoint_every", "train_rows",
                       "learning_rate", "batch_size"});
      if (!given.empty()) {
        return Status::InvalidArgument(given +
                                       " configures training, so it needs "
                                       "--train_iters");
      }
      return Status::OK();
    }
    const std::vector<std::string>& engines = EngineNames();
    if (std::find(engines.begin(), engines.end(), engine_name) ==
        engines.end()) {
      return Status::InvalidArgument("unknown engine: " + engine_name);
    }
    if (checkpoint_every < 1 || checkpoint_every > train_iters) {
      return Status::InvalidArgument(
          "--checkpoint_every must be in [1, --train_iters], so that a "
          "checkpoint completes");
    }
    if (train_rows < 1 || batch_size < 1) {
      return Status::InvalidArgument(
          "--train_rows and --batch_size must be at least 1");
    }
    // Zero leaves the model as it is and a negative step climbs the loss.
    if (!std::isfinite(learning_rate) || learning_rate <= 0.0) {
      return Status::InvalidArgument(
          "--learning_rate must be a finite number above 0");
    }
    return Status::OK();
  });
  kernels::SetMode(kmode);

  ClusterSpec base_cluster = ClusterSpec::Cluster1();
  if (!calibration_path.empty()) {
    Result<kernels::CalibrationProfile> loaded =
        kernels::LoadCalibrationProfile(calibration_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 2;
    }
    base_cluster.compute = kernels::ComputeModelFromCalibration(*loaded);
    base_cluster.mem_bandwidth = loaded->mem_bandwidth_bytes_per_s;
    std::printf("kernel: mode=%s, compute priced by %s (calibrated on %s "
                "kernels: %.2f GFLOP/s, %.2f GB/s)\n",
                kernels::KernelModeName(kmode), calibration_path.c_str(),
                loaded->kernel_mode.c_str(),
                loaded->flops_per_second / 1e9,
                loaded->mem_bandwidth_bytes_per_s / 1e9);
  } else {
    std::printf("kernel: mode=%s, compute priced at the Cluster1 preset "
                "(%.2f GFLOP/s)\n",
                kernels::KernelModeName(kmode),
                base_cluster.compute.flops_per_second / 1e9);
  }

  // The query log the requests reference.
  SyntheticSpec query_spec;
  query_spec.name = "queries";
  query_spec.num_rows = static_cast<uint64_t>(query_rows);
  query_spec.num_features = static_cast<uint64_t>(query_features);
  query_spec.avg_nnz_per_row = 15.0;
  query_spec.seed = static_cast<uint64_t>(query_seed);

  // The checkpoint stream to serve: (serving-time offset, model, provenance).
  struct Generation {
    double at = 0.0;
    SavedModel model;
    int64_t iterations = 0;
  };
  std::vector<Generation> stream;

  if (train_iters > 0) {
    SyntheticSpec train_spec = query_spec;
    train_spec.name = "train";
    train_spec.num_rows = static_cast<uint64_t>(train_rows);
    train_spec.seed = static_cast<uint64_t>(query_seed) + 1;
    const Dataset train_data = GenerateSynthetic(train_spec);

    ClusterSpec cluster = base_cluster;
    cluster.num_workers = serve.num_shards;
    TrainConfig config;
    config.model = model;
    config.learning_rate = learning_rate;
    config.batch_size = static_cast<size_t>(batch_size);
    config.partitioner = serve.partitioner;
    std::unique_ptr<Engine> engine =
        MakeEngine(engine_name, cluster, config);
    FaultConfig faults;
    faults.checkpoint.every = checkpoint_every;
    faults.checkpoint.keep = 2;
    COLSGD_CHECK_OK(engine->set_faults(std::move(faults)));
    const Status setup = engine->Setup(train_data);
    if (!setup.ok()) {
      // E.g. mlr<C> on the ±1-labelled synthetic training rows.
      std::fprintf(stderr, "%s\n", setup.ToString().c_str());
      return 1;
    }

    // Poll the checkpoint store as training advances; every newly completed
    // generation joins the serving stream at its training-clock offset.
    int64_t seen = 0;
    double first_at = -1.0;
    for (int64_t iter = 0; iter < train_iters; ++iter) {
      COLSGD_CHECK_OK(engine->RunIteration(iter));
      CheckpointStore& store = engine->checkpoint_store();
      if (store.completed_iterations() > seen) {
        const SavedModel* latest = store.Latest();
        COLSGD_CHECK(latest != nullptr);
        seen = store.completed_iterations();
        const double now = engine->runtime().MaxClock();
        if (first_at < 0.0) first_at = now;
        stream.push_back(Generation{now - first_at, *latest, seen});
      }
    }
    COLSGD_CHECK(!stream.empty())
        << "--checkpoint_every <= --train_iters completes a checkpoint";
    std::printf("trained %lld iterations (%s), %zu checkpoint generation(s)\n",
                static_cast<long long>(train_iters), engine_name.c_str(),
                stream.size());
  } else if (!model_file.empty()) {
    Result<SavedModel> loaded = ReadModelFile(model_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    stream.push_back(Generation{0.0, loaded.ValueOrDie(), 0});
    // Serve the image's own dimension.
    query_spec.num_features = stream[0].model.num_features;
  } else {
    stream.push_back(Generation{
        0.0,
        PlantedModel(model, query_spec.num_features,
                     static_cast<uint64_t>(model_seed)),
        0});
  }

  const Dataset queries = GenerateSynthetic(query_spec);
  const std::vector<ServeRequest> arrivals =
      GenerateArrivals(workload, queries.num_rows());
  Tracer tracer;
  CritPathRecorder critpath;

  // One replica is the single frontend, without a router tier. The causal
  // DAG recorder covers that pipeline only (the validate step rejects
  // --dag_out beside --replicas > 1): the routed fleet's eager cross-group
  // execution has no DAG story yet.
  if (group_fail_at > 0.0) {
    // Tighten the heartbeat so detection lands inside a short load test.
    fleet_config.detector.heartbeat_interval = 0.01;
    fleet_config.detector.heartbeat_timeout = 0.04;
  }
  ServeFleet fleet(base_cluster, fleet_config, &queries);
  if (!trace_out.empty() || !phase_csv.empty()) fleet.set_tracer(&tracer);
  if (!dag_out.empty()) fleet.set_critpath(&critpath);
  COLSGD_CHECK_OK(fleet.Install(stream[0].model, stream[0].iterations));
  for (size_t i = 1; i < stream.size(); ++i) {
    fleet.ScheduleSwap(stream[i].at, stream[i].model, stream[i].iterations);
  }
  if (fail_at > 0.0) {
    fleet.ScheduleShardFailure(fail_at, /*group=*/0,
                               static_cast<int>(fail_shard));
  }
  if (group_fail_at > 0.0) {
    fleet.ScheduleGroupFailure(group_fail_at, static_cast<int>(fail_group));
  }
  COLSGD_CHECK_OK(fleet.Run(arrivals));
  const FleetSummary summary = fleet.Summarize();
  PrintSummary(summary, fleet.records(), fleet.group(0).registry().history());
  if (fleet_config.routing) PrintFleetExtras(summary);
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(fleet.Fingerprint()));
  if (!records_csv.empty()) DumpRecordsCsv(records_csv, fleet.records());
  if (!trace_out.empty()) {
    COLSGD_CHECK_OK(WriteChromeTrace(tracer, trace_out));
    std::printf("trace: %s (%zu events)\n", trace_out.c_str(),
                tracer.events().size());
  }
  if (!phase_csv.empty()) {
    COLSGD_CHECK_OK(WritePhaseCsv(tracer, phase_csv));
    std::printf("phase CSV: %s\n", phase_csv.c_str());
  }
  if (!dag_out.empty()) {
    const CritDag dag = critpath.Snapshot();
    COLSGD_CHECK_OK(WriteCritDagFile(dag, dag_out));
    std::printf("causal DAG: %s (%zu ops, fingerprint %08x)\n",
                dag_out.c_str(), dag.ops.size(), CritDagFingerprint(dag));
  }
  return 0;
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) { return colsgd::RunDriver(argc, argv); }
