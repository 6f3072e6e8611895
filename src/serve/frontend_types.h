// Shared serving-plane types: configuration, per-request records, failover
// records, and run summaries (DESIGN.md §13, §17), used by the shard-group
// executor (serve/group.h) and the fleet that drives it (serve/fleet.h).
#ifndef COLSGD_SERVE_FRONTEND_TYPES_H_
#define COLSGD_SERVE_FRONTEND_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "common/status.h"

namespace colsgd {

/// \brief 0-based position of the nearest-rank q-quantile in an ascending
/// sample of n >= 1 values: rank ceil(q * n), clamped to [1, n], minus one.
/// The serving plane's latency percentiles and hedge budget all use it.
size_t NearestRankIndex(size_t n, double q);

struct ServeConfig {
  int num_shards = 4;
  std::string partitioner = "round_robin";
  int64_t max_batch = 8;
  double max_delay = 2e-3;       // seconds the oldest request may wait
  int64_t queue_capacity = 64;   // admitted-but-unserved bound
  double reply_timeout = 0.050;  // gather timeout when a shard is dead
  double slo_latency = 0.010;    // per-request latency objective

  static Status Validate(const ServeConfig& config);
};

enum class RequestStatus : uint8_t {
  kCompleted = 0,
  kRejected = 1,  // admission queue full at arrival
  kTimedOut = 2,  // batch hit a dead shard; no reply within reply_timeout
};

/// \brief The full story of one request. For completed requests,
/// queue_s + scatter_s + compute_s + gather_s == completion - arrival.
struct RequestRecord {
  uint64_t id = 0;
  uint32_t row = 0;
  double arrival = 0.0;
  RequestStatus status = RequestStatus::kRejected;
  int64_t generation = -1;  // model generation the response was scored with
  double score = std::numeric_limits<double>::quiet_NaN();
  int64_t batch = -1;
  double dispatch = std::numeric_limits<double>::quiet_NaN();
  double completion = std::numeric_limits<double>::quiet_NaN();
  double queue_s = 0.0;    // arrival -> batch dispatch
  double scatter_s = 0.0;  // dispatch compute + slices on the wire
  double compute_s = 0.0;  // last shard finishes computeStat
  double gather_s = 0.0;   // partials on the wire + frontend reduce
};

/// \brief One shard failure the serving plane survived.
struct FailoverRecord {
  int shard = -1;
  double failed_at = 0.0;    // scheduled failure time
  double detected_at = 0.0;  // reply timeout expired
  double recovered_at = 0.0; // replacement finished loading the partition
  uint64_t reinstall_bytes = 0;
  int64_t requests_timed_out = 0;
};

struct ServeSummary {
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  int64_t timed_out = 0;
  int64_t batches = 0;
  double makespan = 0.0;    // last completion (simulated seconds)
  double throughput = 0.0;  // completed / makespan
  double latency_mean = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double latency_max = 0.0;
  uint64_t wire_bytes = 0;
  uint64_t wire_messages = 0;
  double bytes_per_request = 0.0;  // wire bytes / completed
  int64_t swaps_completed = 0;     // hot swaps (initial bring-up excluded)
  int64_t swaps_failed = 0;        // images rejected by CRC validation
  double swap_stall_seconds = 0.0;
  int64_t failovers = 0;
  double failover_seconds = 0.0;  // detection + re-install, summed
  /// Fraction of offered requests that missed the SLO: completed above
  /// slo_latency, timed out, or rejected.
  double slo_violation_fraction = 0.0;
};

/// \brief Bit pattern of a double with every NaN collapsed to the quiet
/// canonical one, so response fingerprints are stable across NaN payloads.
uint64_t CanonicalDoubleBits(double value);

}  // namespace colsgd

#endif  // COLSGD_SERVE_FRONTEND_TYPES_H_
