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

  /// \brief Installs the initial model (generation 0) at the current
  /// frontend clock, charging the bring-up transfers. Rejects unservable
  /// models and dimension mismatches.
  Status Install(const SavedModel& model, int64_t trained_iterations);

  /// \brief Schedules a hot swap of a serialized (possibly damaged) image;
  /// it fires through ProcessEventsUpTo with CRC validation on the frontend.
  void ScheduleSwapImage(double time, std::vector<uint8_t> image,
                         int64_t trained_iterations);

  /// \brief Installs an already-validated model starting no earlier than
  /// `earliest_start` (fleet path: the router validated the image once and
  /// shipped it here). Charges the partition sweep and shard transfers;
  /// returns the install-done time.
  double ApplyValidatedSwap(double earliest_start, const SavedModel& model,
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
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const GenerationRegistry& registry() const { return registry_; }
  const ModelSpec& spec() const { return *spec_; }
  bool has_model() const { return registry_.has_active(); }
  double swap_stall_seconds() const { return swap_stall_seconds_; }
  double last_install_done() const { return last_install_done_; }

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

  /// \brief Ships `image` to the shard servers starting at the current
  /// frontend clock; returns the time the last shard finished loading.
  double TransferImage(const ShardedModelImage& image);

  /// \brief Validates, shards, and ships one scheduled swap image.
  void ProcessSwap(ScheduledSwap* swap);

  /// \brief Splits query rows `rows` into the scorer's per-shard slices.
  void SplitBatch(const std::vector<uint32_t>& rows);

  ClusterRuntime* runtime_;
  NodeId frontend_;
  std::vector<NodeId> shards_;
  ServeConfig config_;
  const Dataset* queries_;
  GenerationRegistry registry_;

  std::unique_ptr<ModelSpec> spec_;
  std::unique_ptr<ColumnPartitioner> partitioner_;
  std::string model_name_;  // active model family; swaps must match

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
