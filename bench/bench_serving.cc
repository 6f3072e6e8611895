// Serving-plane benchmark (DESIGN.md §13, §17): latency, throughput, wire
// cost, and SLO accounting of the column-sharded online-inference frontend
// and the replicated serving fleet behind it.
//
// Measured configurations on a planted LR/FM model over a synthetic query
// log. Single frontend (ServeFleet with routing off):
//
//   lr/poisson    steady Poisson load at --rate on 4 shards;
//   lr/burst      the same base rate with 8x flash-crowd bursts — queueing
//                 delay appears in p95/p99 while p50 barely moves;
//   fm8/poisson   a factorization machine (9 stats/point vs the GLM's 1):
//                 bigger gathers, more shard compute;
//   lr/swap       steady load with two hot model swaps mid-run — zero
//                 requests dropped; swap_stall measures the frontend time
//                 spent orchestrating installs;
//   lr/failover   a shard killed mid-run: the affected batch times out,
//                 the replacement is re-shipped the active partition, and
//                 the SLO-violation fraction bounds the blast radius.
//
// Replicated fleet (ServeFleet, DESIGN.md §17):
//
//   fleet/r1..r3         the R sweep: what a replica costs (throughput,
//                        p99, bytes/request) at steady load;
//   fleet/straggle       a level-5 straggled group with hedging OFF — the
//                        tail the router cannot fix;
//   fleet/hedge          the same straggled fleet with hedging ON — the
//                        hedge win fraction vs the duplicate-byte overhead;
//   fleet/flash          a 6x flash crowd against R=2 — the degradation
//                        ladder (shed load, bounded SLO damage);
//   fleet/group_loss     a whole group lost mid-run: drained to survivors
//                        with zero timeouts;
//   fleet/swap_r2, _r3   two coordinated hot swaps — swap stall vs fleet
//                        size (every group installs concurrently).
//
// All metrics are lower-is-better (us_per_request instead of throughput).
// Per-request series (latency and its queue/scatter/compute/gather tiling)
// are emitted for the steady-state configuration.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_runner.h"
#include "common/rng.h"
#include "datagen/synthetic.h"
#include "model/factory.h"
#include "serve/fleet.h"

namespace colsgd {
namespace {

struct ServingCase {
  std::string name;
  std::string model = "lr";
  std::string arrivals = "poisson";
  int64_t swaps = 0;
  double fail_at = 0.0;  // 0 = no shard failure
  // Fleet knobs (replicas == 0 runs the single frontend, without a router).
  int replicas = 0;
  bool hedging = true;
  int straggle_group = -1;
  double straggle_level = 0.0;
  double group_fail_at = 0.0;  // fraction of the horizon; 0 = no group loss
};

void FillCommonMetrics(const ServeSummary& s, BenchResult* result) {
  result->metrics["us_per_request"] =
      s.throughput > 0.0 ? 1e6 / s.throughput : 0.0;
  result->metrics["latency_mean"] = s.latency_mean;
  result->metrics["latency_p50"] = s.latency_p50;
  result->metrics["latency_p95"] = s.latency_p95;
  result->metrics["latency_p99"] = s.latency_p99;
  result->metrics["bytes_per_request"] = s.bytes_per_request;
  result->metrics["reject_fraction"] =
      s.offered > 0 ? static_cast<double>(s.rejected) /
                          static_cast<double>(s.offered)
                    : 0.0;
  result->metrics["timeout_fraction"] =
      s.offered > 0 ? static_cast<double>(s.timed_out) /
                          static_cast<double>(s.offered)
                    : 0.0;
  result->metrics["slo_violation_fraction"] = s.slo_violation_fraction;
  result->metrics["swap_stall_seconds"] = s.swap_stall_seconds;
  result->metrics["failover_seconds"] = s.failover_seconds;
}

void PrintCaseLine(const std::string& name, const ServeSummary& s) {
  std::printf(
      "%-18s completed %lld/%lld  p50 %.3f ms  p99 %.3f ms  %.1f B/req  "
      "slo_viol %.4f\n",
      name.c_str(), static_cast<long long>(s.completed),
      static_cast<long long>(s.offered), s.latency_p50 * 1e3,
      s.latency_p99 * 1e3, s.bytes_per_request, s.slo_violation_fraction);
}

void RunCase(const ServingCase& bench_case, const Dataset& queries,
             int64_t shards, int64_t requests, double rate, uint64_t seed,
             bool emit_series, bench::BenchRunner* runner) {
  ServeConfig serve;
  serve.num_shards = static_cast<int>(shards);
  WorkloadConfig workload;
  workload.arrivals = bench_case.arrivals;
  workload.rate = rate;
  workload.num_requests = requests;
  workload.seed = seed;
  const double horizon = static_cast<double>(requests) / rate;
  if (bench_case.arrivals == "flash") {
    workload.flash_at = 0.35 * horizon;
    workload.flash_duration = 0.20 * horizon;
    workload.flash_factor = 6.0;
  }
  const SavedModel model =
      PlantedModel(bench_case.model, queries.num_features, seed + 1);
  const std::vector<ServeRequest> arrivals =
      GenerateArrivals(workload, queries.num_rows());

  BenchResult* result = runner->AddResult(bench_case.name);
  result->env["model"] = bench_case.model;
  result->env["arrivals"] = bench_case.arrivals;
  result->env["shards"] = std::to_string(shards);
  result->env["requests"] = std::to_string(requests);
  result->env["rate"] = std::to_string(rate);
  result->env["seed"] = std::to_string(seed);

  FleetConfig config;
  config.replicas = std::max(bench_case.replicas, 1);
  config.routing = bench_case.replicas > 0;
  config.serve = serve;
  config.hedging = bench_case.hedging;
  config.straggle_group = bench_case.straggle_group;
  config.straggle_level = bench_case.straggle_level;
  if (bench_case.straggle_level > 0.0) {
    // A persistent straggler poisons the upper quantiles of the mixed
    // round-trip window; the budget tracks the median instead.
    config.hedge_quantile = 0.5;
    config.hedge_min_budget = 1e-3;
  }
  if (bench_case.group_fail_at > 0.0) {
    // Tighten the heartbeat so detection lands inside the short run.
    config.detector.heartbeat_interval = 0.01;
    config.detector.heartbeat_timeout = 0.04;
  }
  ServeFleet fleet(ClusterSpec::Cluster1(), config, &queries);
  COLSGD_CHECK_OK(fleet.Install(model));
  for (int64_t s = 0; s < bench_case.swaps; ++s) {
    fleet.ScheduleSwap(
        horizon * static_cast<double>(s + 1) /
            static_cast<double>(bench_case.swaps + 1),
        PlantedModel(bench_case.model, queries.num_features, seed + 2 + s),
        /*trained_iterations=*/(s + 1) * 10);
  }
  if (bench_case.fail_at > 0.0) {
    fleet.ScheduleShardFailure(bench_case.fail_at * horizon, /*group=*/0,
                               /*shard=*/1);
  }
  if (bench_case.group_fail_at > 0.0) {
    fleet.ScheduleGroupFailure(bench_case.group_fail_at * horizon,
                               /*group=*/0);
  }
  COLSGD_CHECK_OK(fleet.Run(arrivals));
  const FleetSummary s = fleet.Summarize();
  FillCommonMetrics(s, result);
  if (config.routing) {
    result->env["replicas"] = std::to_string(bench_case.replicas);
    result->metrics["hedge_fire_fraction"] =
        s.batches > 0 ? static_cast<double>(s.hedges_fired) /
                            static_cast<double>(s.batches)
                      : 0.0;
    result->metrics["hedge_win_fraction"] =
        s.hedges_fired > 0 ? static_cast<double>(s.hedge_wins) /
                                 static_cast<double>(s.hedges_fired)
                           : 0.0;
    result->metrics["hedge_byte_overhead"] =
        s.wire_bytes > 0 ? static_cast<double>(s.hedge_bytes) /
                               static_cast<double>(s.wire_bytes)
                         : 0.0;
    result->metrics["redispatches"] = static_cast<double>(s.redispatches);
    result->metrics["group_down_events"] =
        static_cast<double>(s.group_down_events);
  }
  if (emit_series) {
    auto& series = result->series;
    for (const RequestRecord& rec : fleet.records()) {
      if (rec.status != RequestStatus::kCompleted) continue;
      series["arrival"].push_back(rec.arrival);
      series["latency"].push_back(rec.completion - rec.arrival);
      series["queue_s"].push_back(rec.queue_s);
      series["scatter_s"].push_back(rec.scatter_s);
      series["compute_s"].push_back(rec.compute_s);
      series["gather_s"].push_back(rec.gather_s);
    }
  }
  PrintCaseLine(bench_case.name, s);
}

int Main(int argc, char** argv) {
  int64_t requests = 2000;
  double rate = 4000.0;
  int64_t shards = 4;
  int64_t query_rows = 1000;
  int64_t query_features = 1000;
  int64_t seed = 1;
  std::string bench_out;

  FlagParser flags;
  flags.AddInt64("requests", &requests, "requests per configuration");
  flags.AddDouble("rate", &rate, "base arrival rate, req/s");
  flags.AddInt64("shards", &shards, "shard servers");
  flags.AddInt64("query_rows", &query_rows, "query log rows");
  flags.AddInt64("query_features", &query_features, "query log dimension");
  flags.AddInt64("seed", &seed, "workload / planted-model seed");
  bench::AddBenchOutFlag(&flags, &bench_out);
  flags.ParseOrExit(argc, argv);

  SyntheticSpec spec;
  spec.name = "queries";
  spec.num_rows = static_cast<uint64_t>(query_rows);
  spec.num_features = static_cast<uint64_t>(query_features);
  spec.avg_nnz_per_row = 15.0;
  spec.seed = 99;
  const Dataset queries = GenerateSynthetic(spec);

  bench::BenchRunner runner("serving", bench_out);
  runner.suite().env["requests"] = std::to_string(requests);
  runner.suite().env["rate"] = std::to_string(rate);
  runner.suite().env["shards"] = std::to_string(shards);

  ServingCase r1{"fleet/r1"};
  r1.replicas = 1;
  ServingCase r2{"fleet/r2"};
  r2.replicas = 2;
  ServingCase r3{"fleet/r3"};
  r3.replicas = 3;
  ServingCase straggle{"fleet/straggle"};
  straggle.replicas = 2;
  straggle.hedging = false;
  straggle.straggle_group = 1;
  straggle.straggle_level = 5.0;
  ServingCase hedge{"fleet/hedge"};
  hedge.replicas = 2;
  hedge.straggle_group = 1;
  hedge.straggle_level = 5.0;
  ServingCase flash{"fleet/flash"};
  flash.replicas = 2;
  flash.arrivals = "flash";
  ServingCase group_loss{"fleet/group_loss"};
  group_loss.replicas = 2;
  group_loss.group_fail_at = 0.4;
  ServingCase swap_r2{"fleet/swap_r2"};
  swap_r2.replicas = 2;
  swap_r2.swaps = 2;
  ServingCase swap_r3{"fleet/swap_r3"};
  swap_r3.replicas = 3;
  swap_r3.swaps = 2;

  const std::vector<ServingCase> cases = {
      {"lr/poisson", "lr", "poisson", 0, 0.0},
      {"lr/burst", "lr", "burst", 0, 0.0},
      {"fm8/poisson", "fm8", "poisson", 0, 0.0},
      {"lr/swap", "lr", "poisson", 2, 0.0},
      {"lr/failover", "lr", "poisson", 0, 0.4},
      r1, r2, r3, straggle, hedge, flash, group_loss, swap_r2, swap_r3,
  };
  for (const ServingCase& bench_case : cases) {
    RunCase(bench_case, queries, shards, requests, rate,
            static_cast<uint64_t>(seed),
            /*emit_series=*/bench_case.name == "lr/poisson", &runner);
  }
  COLSGD_CHECK_OK(runner.Finish());
  return 0;
}

}  // namespace
}  // namespace colsgd

int main(int argc, char** argv) { return colsgd::Main(argc, argv); }
