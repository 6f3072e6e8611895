// The serving plane: R shard groups behind a health-routed, hedging router
// (DESIGN.md §17), or, with routing off, one group behind the single
// frontend's admission loop (DESIGN.md §13).
//
// Topology on one shared ClusterRuntime: the router runs on the master
// (node 0); group g owns a contiguous block of worker nodes — its frontend
// at worker g*(S+1) and shard k at worker g*(S+1)+1+k — and one extra node
// is the client ingress. Each group is a full column-sharded copy of the
// model (serve/group.h), installed from the same CRC-sealed image, so any
// group answers any batch with bitwise-identical scores.
//
// The router runs the PR 5 admission loop (max_batch / max_delay / bounded
// queue with explicit, wire-charged rejections) and adds three fleet
// behaviors:
//
//  * Routing: each batch picks a group by power-of-two-choices on
//    least-outstanding batches among groups the router believes healthy.
//    Health is heartbeat-based (FailureDetector): a whole-group loss is
//    invisible to the router for WorkerDetectionDelay() seconds, during
//    which forwards to the dead group are lost on the wire.
//  * Hedging: when a batch's completion note has not returned within a
//    budget frozen at dispatch (hedge_factor x a quantile of recent note
//    round-trips, floored at hedge_min_budget), a duplicate is sent to a
//    second group. First valid completion wins; the late response is
//    cancelled at the router but its bytes were already charged. A hedge
//    is valid only if it scored against the same model generation the
//    primary was pinned to — the generation barrier — so no client ever
//    sees a response assembled across a swap.
//  * Failover: a batch that hits a group with dead shards fails at that
//    group's reply timeout (the group self-heals, PR 5 semantics) and the
//    router re-dispatches it to another group — zero wrong answers, and
//    with R >= 2 zero timeouts. A whole-group loss additionally drains
//    every batch outstanding on the group to survivors at detection time
//    and re-installs the group before routing to it again.
//
// Cross-tier traffic (forwards, completion notes, client responses,
// rejections) uses SimNetwork::SendUnqueued: groups execute eagerly at
// forward-arrival time, so their Send calls are issued out of chronological
// order across groups, and the shared receiver-NIC queue would otherwise
// order unrelated messages by call order instead of by time. Intra-group
// bulk traffic (scatter/gather/installs) stays on the queued path, where
// per-group serialization keeps call order chronological.
//
// With routing disabled (requires replicas == 1) there is no router tier:
// group 0's frontend is the master node, shard k is worker k, and Run
// drives the group with the single frontend's admission loop. A batch
// dispatches when it fills to max_batch requests or the oldest admitted
// request has waited max_delay, whichever is earlier — but never before
// the frontend is free (it serves one batch at a time). Requests take no
// route hop, completion note or response hop, and a batch that hits a dead
// shard times out instead of re-dispatching, so this is a different
// protocol from a routed fleet of one group, not a special case of it.
//
// Either way, per completed request the end-to-end latency decomposes
// exactly into queue / scatter / compute / gather segments
// (tests/serve_test.cc pins the tiling to 1e-9), and the run is
// bit-deterministic in (config, arrivals, scheduled events): route and
// hedge decisions draw from a dedicated seeded RNG stream, attaching a
// Tracer changes no simulated timestamp, and Fingerprint() hashes every
// response.
#ifndef COLSGD_SERVE_FLEET_H_
#define COLSGD_SERVE_FLEET_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fault/failure_detector.h"
#include "common/rng.h"
#include "serve/frontend_types.h"
#include "serve/group.h"
#include "serve/workload.h"

namespace colsgd {

struct FleetConfig {
  int replicas = 2;          // R: number of shard groups
  ServeConfig serve;         // per-group shape (shards, batching, SLO)
  bool routing = true;       // false: the single frontend (R == 1)
  bool hedging = true;
  double hedge_quantile = 0.95;  // note round-trip quantile the budget tracks
  double hedge_factor = 2.0;     // budget = factor x quantile
  double hedge_min_budget = 2e-3;   // seconds; floor while the window warms up
  int64_t hedge_min_samples = 20;   // no hedging before this many notes
  int max_redispatch = 4;        // failed-batch re-dispatch attempts
  int straggle_group = -1;      // make one group a straggler ...
  double straggle_level = 0.0;  // ... at this level (extra time = L x task
                                // time, the trainer's straggler definition)
  FailureDetectorConfig detector;
  uint64_t seed = 1;  // route / hedge tie-breaking stream

  static Status Validate(const FleetConfig& config);
};

/// \brief Per-request routing story, parallel to records().
struct FleetRequestInfo {
  int group = -1;     // group that produced the delivered response
  int attempts = 0;   // dispatches, hedges included
  bool hedged = false;
  bool hedge_won = false;
};

struct FleetSummary : ServeSummary {
  int replicas = 0;
  int64_t hedges_fired = 0;
  int64_t hedge_wins = 0;        // delivered response came from the hedge
  int64_t hedges_cancelled = 0;  // late duplicate responses discarded
  int64_t hedges_suppressed = 0; // barrier or no eligible second group
  uint64_t hedge_bytes = 0;      // wire bytes attributable to hedges
  int64_t redispatches = 0;      // failed-batch re-dispatches (hedges excl.)
  int64_t group_down_events = 0; // whole-group losses detected
  std::vector<int64_t> group_completed;  // responses delivered per group
};

class ServeFleet {
 public:
  /// \param queries the query log every group scores from; must outlive
  /// the fleet.
  ServeFleet(const ClusterSpec& cluster_spec, const FleetConfig& config,
             const Dataset* queries);
  ~ServeFleet();

  /// \brief Installs the initial model (generation 0) on every group,
  /// charging the image distribution and per-group bring-up transfers.
  /// Must be called once before Run; rejects unservable models and
  /// dimension mismatches.
  Status Install(const SavedModel& model, int64_t trained_iterations = 0);

  /// \brief Schedules a hot swap at `time` (or, without routing, the next
  /// batch boundary after it). With routing, the router CRC-validates the
  /// image ONCE, then ships it to every group; a corrupt image is rejected
  /// at the router and no group is touched. Without routing, the single
  /// frontend validates, shards and ships it itself. Each group flips when
  /// its own install completes: in-flight and queued requests are never
  /// dropped, and batches dispatched before the flip keep scoring against
  /// the previous generation (double-buffered).
  void ScheduleSwapImage(double time, std::vector<uint8_t> image,
                         int64_t trained_iterations);
  void ScheduleSwap(double time, const SavedModel& model,
                    int64_t trained_iterations);

  /// \brief Schedules one shard of one group to die. The group learns of
  /// it when a batch's gather times out, then re-installs the active
  /// generation's partition on the replacement; with routing, the router
  /// re-dispatches the failed batch, without it the batch's requests time
  /// out — never a wrong answer.
  void ScheduleShardFailure(double time, int group, int shard);

  /// \brief Schedules a whole-group loss at `time` (routing only): every
  /// shard and the group's frontend die together. The router learns of it
  /// only after the heartbeat window
  /// (FailureDetector::WorkerDetectionDelay), drains the group's
  /// outstanding batches to survivors, and re-installs the group.
  void ScheduleGroupFailure(double time, int group);

  /// \brief Serves `arrivals` (sorted by time) to completion. With routing,
  /// scheduled swaps and group-loss detections drain even when the workload
  /// finishes first, so the fleet returns at a healthy steady state with
  /// every scheduled fault accounted.
  Status Run(const std::vector<ServeRequest>& arrivals);

  const std::vector<RequestRecord>& records() const { return records_; }
  /// \brief Routing story per request, parallel to records(). Empty
  /// without routing.
  const std::vector<FleetRequestInfo>& request_infos() const {
    return infos_;
  }
  const std::vector<FailoverRecord>& failovers() const { return failovers_; }

  FleetSummary Summarize() const;

  /// \brief CRC32C over every response (id, status, generation, score bits,
  /// completion bits) in arrival order; with routing, each response also
  /// folds in its serving group, attempt count and hedged flag. Equal
  /// across runs of the same seed.
  uint64_t Fingerprint() const;

  ClusterRuntime& runtime() { return *runtime_; }
  /// \brief Group `g`'s executor (registries and generations for tests).
  const ShardGroup& group(int g) const { return *groups_[g]; }
  /// \brief The client-ingress endpoint responses and rejection replies
  /// are charged to.
  NodeId ingress() const { return ingress_; }
  void set_tracer(Tracer* tracer) { runtime_->set_tracer(tracer); }
  void set_critpath(CritPathRecorder* critpath) {
    runtime_->set_critpath(critpath);
  }

 private:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  struct Attempt {
    int group = -1;
    bool is_hedge = false;
    bool lost = false;     // forward landed on a dead group: no note ever
    bool closed = false;   // note processed (or drained)
    double note_arrival = kNever;      // simulation-known, router acts at it
    double response_arrival = kNever;  // ingress-side arrival when served
    double forward_sent = 0.0;
    BatchOutcome outcome;  // outcome.served == false for FailBatch / lost
  };

  struct FleetBatch {
    int64_t id = -1;
    std::vector<size_t> indices;  // records_ slots
    std::vector<uint32_t> rows;
    std::vector<Attempt> attempts;
    int dispatch_count = 0;  // primaries + redispatches (hedges excluded)
    bool hedged = false;
    double hedge_fire = kNever;  // armed at primary dispatch
    int64_t pinned_generation = -1;  // generation barrier anchor
    bool resolved = false;
  };

  struct ScheduledFleetSwap {
    double time = 0.0;
    std::vector<uint8_t> image;
    int64_t trained_iterations = 0;
    bool done = false;
  };
  struct ScheduledGroupLoss {
    double time = 0.0;
    double detect_at = 0.0;
    int group = -1;
    bool done = false;
  };

  /// \brief Groups the router would route to at router-clock `t`.
  std::vector<int> HealthyGroups(double t) const;
  /// \brief Power-of-two-choices over `healthy` (least outstanding, tie ->
  /// seeded coin flip); `exclude` removes one group (hedge target
  /// selection).
  int PickGroup(const std::vector<int>& healthy, int exclude);

  /// \brief Forwards `batch` to `group` at router time `t`; the group
  /// executes eagerly at forward arrival and the completion note (if any)
  /// becomes a pending router event.
  void Forward(FleetBatch* batch, int group, double t, bool is_hedge);
  void ProcessNote(FleetBatch* batch, size_t attempt_index);
  void FireHedge(FleetBatch* batch);
  void Redispatch(FleetBatch* batch, double t);
  void ResolveServed(FleetBatch* batch, size_t attempt_index);
  void ResolveTimedOut(FleetBatch* batch, double t);
  void ProcessSwapEvent(ScheduledFleetSwap* swap);
  void ProcessGroupLossDetection(ScheduledGroupLoss* loss);
  /// \brief Current hedge budget, or kNever while the window warms up.
  double HedgeBudget();

  /// \brief The router's event loop over the filled records_.
  void RunRouted(const std::vector<ServeRequest>& arrivals);
  /// \brief The single frontend's admission loop on group 0.
  void RunUnrouted(const std::vector<ServeRequest>& arrivals);

  FleetConfig config_;
  std::unique_ptr<ClusterRuntime> runtime_;
  std::vector<std::unique_ptr<ShardGroup>> groups_;
  const Dataset* queries_;
  NodeId ingress_ = 0;
  FailureDetector detector_;
  Rng route_rng_;

  std::string model_name_;     // router-side validation anchor
  uint64_t num_features_ = 0;

  std::vector<ScheduledFleetSwap> fleet_swaps_;
  std::vector<ScheduledGroupLoss> group_losses_;

  // Router state during Run.
  std::vector<int64_t> outstanding_;   // forwards minus processed notes
  std::vector<double> down_at_;        // group death time (kNever: alive)
  std::vector<double> healthy_at_;     // router routes again from here
  std::vector<double> note_samples_;   // rolling note round-trip window
  std::vector<double> hedge_scratch_;  // HedgeBudget's selection buffer
  size_t note_sample_next_ = 0;
  std::vector<FleetBatch> batches_store_;

  std::vector<RequestRecord> records_;
  std::vector<FleetRequestInfo> infos_;
  std::vector<FailoverRecord> failovers_;
  std::vector<int64_t> group_completed_;
  int64_t batch_ids_ = 0;
  int64_t swaps_failed_ = 0;           // rejected at the router
  int64_t hedges_fired_ = 0;
  int64_t hedge_wins_ = 0;
  int64_t hedges_cancelled_ = 0;
  int64_t hedges_suppressed_ = 0;
  uint64_t hedge_bytes_ = 0;
  int64_t redispatches_ = 0;
  int64_t group_down_events_ = 0;
  bool ran_ = false;
};

}  // namespace colsgd

#endif  // COLSGD_SERVE_FLEET_H_
