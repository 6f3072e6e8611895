// One replicated shard group of the serving plane (DESIGN.md §13, §17).
//
// A ShardGroup is a full column-sharded copy of the model: one frontend
// node plus `num_shards` shard-server nodes on a shared ClusterRuntime. It
// owns the group's generation registry (double-buffered hot swap), the
// shard liveness state, and the scatter/compute/gather execution of one
// batch, charging exactly the bytes and flops of the single-frontend plane.
// The fleet (serve/fleet.h) drives one group with the single frontend's
// admission loop, or R of them behind a router.
//
// The group is deliberately passive: it has no event loop. The caller
// (admission loop or fleet router) decides when a batch is ready and calls
// ServeBatch/FailBatch; scheduled swaps and shard failures fire through
// ProcessEventsUpTo exactly as simulated time passes them.
#ifndef COLSGD_SERVE_GROUP_H_
#define COLSGD_SERVE_GROUP_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "serve/frontend_types.h"
#include "serve/inference.h"
#include "serve/registry.h"

namespace colsgd {

/// \brief Everything one batch execution produced, timing and scores.
/// The caller turns this into RequestRecords; the group never sees request
/// identities, only query rows.
struct BatchOutcome {
  bool served = false;  // false: dead shards, the batch timed out
  int64_t generation = -1;
  std::vector<double> scores;   // per row, bitwise == offline kernel
  double dispatch = 0.0;        // frontend clock when execution began
  double scatter_end = 0.0;     // last slice landed on its shard
  double compute_end = 0.0;     // last shard finished computeStat
  double completion = 0.0;      // frontend reduce done (served) or the
                                // reply-timeout detection time (failed)
  uint64_t wire_bytes = 0;      // bytes this execution put on the wire
};

class ShardGroup {
 public:
  /// \param runtime shared simulated cluster; must outlive the group.
  /// \param frontend node id of this group's frontend.
  /// \param shards node ids of the shard servers, shard k at shards[k].
  /// \param queries the query log batches reference; must outlive the group.
  ShardGroup(ClusterRuntime* runtime, NodeId frontend,
             std::vector<NodeId> shards, const ServeConfig& config,
             const Dataset* queries);

  /// \brief Installs the initial model (generation 0), prepared by
  /// PrepareServableModel, at the current frontend clock, charging the
  /// bring-up transfers. The group keeps the model's spec and partitioner
  /// for every later generation.
  void Install(const ServableModel& model, int64_t trained_iterations);

  /// \brief Schedules a hot swap of a serialized (possibly damaged) image;
  /// it fires through ProcessEventsUpTo, where the frontend validates and
  /// shards it (ParseSwapImage).
  void ScheduleSwapImage(double time, std::vector<uint8_t> image,
                         int64_t trained_iterations);

  /// \brief Installs an image the router already validated and sharded,
  /// starting no earlier than `earliest_start`. Charges the partition sweep
  /// and shard transfers; returns the install-done time.
  double ApplyValidatedSwap(double earliest_start,
                            std::shared_ptr<const ShardedModelImage> image,
                            int64_t trained_iterations);

  /// \brief Schedules shard `shard` to die at simulated time `time`.
  void ScheduleShardFailure(double time, int shard);

  /// \brief Fires scheduled swaps/failures whose time has come (<= t).
  /// Chronological; ties kill before they heal.
  void ProcessEventsUpTo(double t);

  /// \brief Serves one batch of query rows whose inputs are ready at the
  /// frontend at `t_ready` (caller syncs admission; the group syncs the
  /// frontend clock to t_ready itself). `batch_tag` labels the trace span.
  BatchOutcome ServeBatch(const std::vector<uint32_t>& rows, double t_ready,
                          int64_t batch_tag);

  /// \brief A batch that would hit dead shards: frames and scatters
  /// normally (the frontend does not know yet), then the reply timeout
  /// declares it dead. Returns outcome with served=false and completion at
  /// the detection time. Does NOT re-install; call ReinstallDeadShards.
  BatchOutcome FailBatch(const std::vector<uint32_t>& rows, double t_ready);

  /// \brief Ships the active generation's partition to every dead shard's
  /// replacement, starting at `detected`. Returns one FailoverRecord per
  /// re-installed shard; the group is fully alive afterwards.
  std::vector<FailoverRecord> ReinstallDeadShards(double detected);

  std::vector<int> DeadShards() const;
  bool HasDeadShards() const { return !DeadShards().empty(); }

  /// \brief Makes this a straggled group: every served batch takes
  /// `level` x its task time EXTRA — the paper's straggler definition
  /// (cluster/fault/fault_plan.h), applied to the whole serve path since a
  /// slow node drags its scatter, compute, and gather alike. 0 (default)
  /// serves at full speed.
  void set_straggle_level(double level) { straggle_level_ = level; }

  NodeId frontend() const { return frontend_; }
  const GenerationRegistry& registry() const { return registry_; }
  bool has_model() const { return registry_.has_active(); }
  double swap_stall_seconds() const { return swap_stall_seconds_; }

 private:
  struct ScheduledSwap {
    double time = 0.0;
    std::vector<uint8_t> image;
    int64_t trained_iterations = 0;
    bool done = false;
  };
  struct ScheduledFailure {
    double time = 0.0;
    int shard = -1;
    bool done = false;
  };

  /// \brief Sends shard `shard` its partition of `image` and charges the
  /// shard's write of it; returns the install message's bytes.
  uint64_t ShipPartition(const ShardedModelImage& image, int shard);

  /// \brief Ships `image` to the shard servers starting at the current
  /// frontend clock; returns the time the last shard finished loading.
  double TransferImage(const ShardedModelImage& image);

  /// \brief Ships `image` and registers it as the next generation, begun at
  /// `start`; later installs wait for its transfers. Returns the
  /// install-done time.
  double InstallImage(double start,
                      std::shared_ptr<const ShardedModelImage> image,
                      int64_t trained_iterations);

  /// \brief Syncs the frontend to the start of a swap due at `earliest`:
  /// installs are serialized, so not before the previous one's transfers
  /// land. Flips any install that completed by then.
  double BeginSwap(double earliest);

  /// \brief Validates, shards, and ships one scheduled swap image.
  void ProcessSwap(ScheduledSwap* swap);

  /// \brief Charges a batch's admission and framing on the frontend, splits
  /// query rows `rows` into the scorer's per-shard slices and sends each
  /// slice to its shard, adding the bytes to `out`. Returns the last
  /// slice's arrival (no earlier than the frontend clock).
  double DispatchAndScatter(const std::vector<uint32_t>& rows,
                            BatchOutcome* out);

  ClusterRuntime* runtime_;
  NodeId frontend_;
  std::vector<NodeId> shards_;
  ServeConfig config_;
  const Dataset* queries_;
  GenerationRegistry registry_;

  ServableModel model_;  // generation 0; swaps must match its family

  std::vector<ScheduledSwap> swaps_;
  std::vector<ScheduledFailure> failures_;
  std::vector<bool> shard_alive_;
  std::vector<double> shard_failed_at_;

  // Batch execution scratch, reused across batches.
  std::vector<SparseVectorView> row_views_;
  ShardBatchScorer scorer_;

  double last_install_done_ = 0.0;  // serializes installs
  double swap_stall_seconds_ = 0.0;
  double straggle_level_ = 0.0;
};

}  // namespace colsgd

#endif  // COLSGD_SERVE_GROUP_H_
