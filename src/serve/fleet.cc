#include "serve/fleet.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <utility>

#include "common/crc32c.h"
#include "serve/wire.h"

namespace colsgd {

namespace {

/// \brief Rolling window of note round-trips the hedge budget tracks. Small
/// on purpose: the budget should follow load shifts within a simulated run.
constexpr size_t kNoteWindow = 64;

/// \brief Generation the router BELIEVES group serves at time `t`: the
/// newest install it orchestrated whose transfers had completed. Pure
/// (history scan), unlike GenerationRegistry::ActiveAt, so router-side
/// checks never disturb the group's own flip state.
int64_t GenerationBelievedActive(const ShardGroup& group, double t) {
  int64_t active = -1;
  for (const GenerationInfo& info : group.registry().history()) {
    if (info.ok && info.install_done <= t) active = info.generation;
  }
  return active;
}

/// \brief Records request `i` of batch `batch` as served by `out`, its
/// response reaching the client at `completion`. The segments tile
/// completion - arrival; with routing, queue_s absorbs routing (and any
/// failed attempts) and gather_s the response hop to the client.
void RecordServed(const BatchOutcome& out, size_t i, int64_t batch,
                  double completion, RequestRecord* rec) {
  rec->status = RequestStatus::kCompleted;
  rec->generation = out.generation;
  rec->score = out.scores[i];
  rec->batch = batch;
  rec->dispatch = out.dispatch;
  rec->completion = completion;
  rec->queue_s = out.dispatch - rec->arrival;
  rec->scatter_s = out.scatter_end - out.dispatch;
  rec->compute_s = out.compute_end - out.scatter_end;
  rec->gather_s = completion - out.compute_end;
}

void RecordTimedOut(int64_t batch, double dispatch, double completion,
                    RequestRecord* rec) {
  rec->status = RequestStatus::kTimedOut;
  rec->batch = batch;
  rec->dispatch = dispatch;
  rec->completion = completion;
  rec->queue_s = dispatch - rec->arrival;
}

}  // namespace

Status FleetConfig::Validate(const FleetConfig& config) {
  Status st = ServeConfig::Validate(config.serve);
  if (!st.ok()) return st;
  if (config.replicas < 1) {
    return Status::InvalidArgument("replicas must be >= 1");
  }
  if (!config.routing && config.replicas != 1) {
    return Status::InvalidArgument(
        "routing can only be disabled for a single-group fleet");
  }
  if (!(config.hedge_quantile > 0.0) || config.hedge_quantile > 1.0) {
    return Status::InvalidArgument("hedge_quantile must be in (0, 1]");
  }
  if (!(config.hedge_factor >= 1.0)) {
    return Status::InvalidArgument("hedge_factor must be >= 1");
  }
  if (!(config.hedge_min_budget > 0.0)) {
    return Status::InvalidArgument("hedge_min_budget must be positive");
  }
  if (config.hedge_min_samples < 1) {
    return Status::InvalidArgument("hedge_min_samples must be >= 1");
  }
  if (config.max_redispatch < 0) {
    return Status::InvalidArgument("max_redispatch must be >= 0");
  }
  if (config.straggle_group >= config.replicas) {
    return Status::InvalidArgument("straggle_group beyond the fleet");
  }
  if (!(config.straggle_level >= 0.0)) {
    return Status::InvalidArgument("straggle_level must be >= 0");
  }
  return Status::OK();
}

ServeFleet::ServeFleet(const ClusterSpec& cluster_spec,
                       const FleetConfig& config, const Dataset* queries)
    : config_(config),
      queries_(queries),
      detector_(config.detector),
      route_rng_(Rng(config.seed).Split(0xF1EE7ULL)) {
  COLSGD_CHECK_OK(FleetConfig::Validate(config));
  COLSGD_CHECK(queries != nullptr);
  // The router is the master node; group g owns the contiguous worker block
  // [g*(S+1), (g+1)*(S+1)): frontend first, then its S shard servers.
  // Without routing, the single frontend is the master node and shard k is
  // worker k. One extra endpoint is the client ingress.
  const int shards_per_group = config.serve.num_shards;
  const int first_shard = config.routing ? 1 : 0;
  ClusterSpec spec = cluster_spec;
  spec.num_workers = config.replicas * (shards_per_group + first_shard);
  runtime_ = std::make_unique<ClusterRuntime>(spec, /*extra_nodes=*/1);
  ingress_ = runtime_->extra_node(0);
  for (int g = 0; g < config.replicas; ++g) {
    const int base = g * (shards_per_group + first_shard);
    const NodeId frontend =
        config.routing ? runtime_->worker_node(base) : runtime_->master();
    std::vector<NodeId> shards;
    shards.reserve(static_cast<size_t>(shards_per_group));
    for (int k = 0; k < shards_per_group; ++k) {
      shards.push_back(runtime_->worker_node(base + first_shard + k));
    }
    groups_.push_back(std::make_unique<ShardGroup>(
        runtime_.get(), frontend, std::move(shards), config.serve, queries));
    if (g == config.straggle_group) {
      groups_.back()->set_straggle_level(config.straggle_level);
    }
  }
  outstanding_.assign(static_cast<size_t>(config.replicas), 0);
  down_at_.assign(static_cast<size_t>(config.replicas), kNever);
  healthy_at_.assign(static_cast<size_t>(config.replicas), 0.0);
  group_completed_.assign(static_cast<size_t>(config.replicas), 0);
}

ServeFleet::~ServeFleet() = default;

Status ServeFleet::Install(const SavedModel& model,
                           int64_t trained_iterations) {
  if (groups_[0]->has_model()) {
    return Status::FailedPrecondition(
        "a model is already installed; use ScheduleSwap");
  }
  // Checked and sharded once, before any bytes move: every group installs
  // the same image, so none can be left half-installed.
  COLSGD_ASSIGN_OR_RETURN(
      served_, PrepareServableModel(model, config_.serve.partitioner,
                                    config_.serve.num_shards,
                                    queries_->num_features));
  if (!config_.routing) {
    groups_[0]->Install(served_, trained_iterations);
    return Status::OK();
  }
  // Bring-up: ship the sealed image from the router to every group's
  // frontend, then the group installs it (generation 0).
  const std::vector<uint8_t> image = SerializeModel(model);
  const NodeId router = runtime_->master();
  for (auto& group : groups_) {
    const double arrival = runtime_->net().SendUnqueued(
        router, group->frontend(), image.size(), runtime_->clock(router));
    runtime_->SyncClockTo(group->frontend(), arrival);
    group->Install(served_, trained_iterations);
  }
  return Status::OK();
}

void ServeFleet::ScheduleSwapImage(double time, std::vector<uint8_t> image,
                                   int64_t trained_iterations) {
  COLSGD_CHECK(!ran_) << "schedule swaps before Run";
  if (!config_.routing) {
    // The single frontend validates the image itself when the swap fires.
    groups_[0]->ScheduleSwapImage(time, std::move(image), trained_iterations);
    return;
  }
  ScheduledFleetSwap swap;
  swap.time = time;
  swap.image = std::move(image);
  swap.trained_iterations = trained_iterations;
  fleet_swaps_.push_back(std::move(swap));
}

void ServeFleet::ScheduleSwap(double time, const SavedModel& model,
                              int64_t trained_iterations) {
  ScheduleSwapImage(time, SerializeModel(model), trained_iterations);
}

void ServeFleet::ScheduleShardFailure(double time, int group, int shard) {
  COLSGD_CHECK(!ran_) << "schedule failures before Run";
  COLSGD_CHECK_GE(group, 0);
  COLSGD_CHECK_LT(group, config_.replicas);
  groups_[static_cast<size_t>(group)]->ScheduleShardFailure(time, shard);
}

void ServeFleet::ScheduleGroupFailure(double time, int group) {
  COLSGD_CHECK(!ran_) << "schedule failures before Run";
  COLSGD_CHECK(config_.routing) << "whole-group loss needs the routing tier";
  COLSGD_CHECK_GE(group, 0);
  COLSGD_CHECK_LT(group, config_.replicas);
  // Every shard dies with the frontend; the shard deaths are what the
  // re-install at detection time repairs.
  for (int k = 0; k < config_.serve.num_shards; ++k) {
    groups_[static_cast<size_t>(group)]->ScheduleShardFailure(time, k);
  }
  ScheduledGroupLoss loss;
  loss.time = time;
  loss.detect_at = time + detector_.WorkerDetectionDelay();
  loss.group = group;
  group_losses_.push_back(loss);
  down_at_[static_cast<size_t>(group)] =
      std::min(down_at_[static_cast<size_t>(group)], time);
}

std::vector<int> ServeFleet::HealthyGroups(double t) const {
  // Router belief, not ground truth: a dead group stays "healthy" until its
  // heartbeat detection fires (down_at_ is only consulted by the eager
  // delivery path, never by routing).
  std::vector<int> healthy;
  for (int g = 0; g < config_.replicas; ++g) {
    if (healthy_at_[static_cast<size_t>(g)] <= t) healthy.push_back(g);
  }
  return healthy;
}

int ServeFleet::PickGroup(const std::vector<int>& healthy, int exclude) {
  std::vector<int> candidates;
  candidates.reserve(healthy.size());
  for (int g : healthy) {
    if (g != exclude) candidates.push_back(g);
  }
  if (candidates.empty()) return -1;
  if (candidates.size() == 1) return candidates[0];
  // Power of two choices: two DISTINCT uniform draws, least outstanding
  // wins. Ties break by a coin flip from the route stream — at low load
  // every group is idle and a positional tie-break would send the whole
  // fleet's traffic to one group.
  const size_t i = route_rng_.NextBounded(candidates.size());
  size_t j = route_rng_.NextBounded(candidates.size() - 1);
  if (j >= i) ++j;
  const int a = candidates[i];
  const int b = candidates[j];
  if (outstanding_[static_cast<size_t>(a)] !=
      outstanding_[static_cast<size_t>(b)]) {
    return outstanding_[static_cast<size_t>(a)] <
                   outstanding_[static_cast<size_t>(b)]
               ? a
               : b;
  }
  return route_rng_.NextBounded(2) == 0 ? a : b;
}

double ServeFleet::HedgeBudget() {
  if (static_cast<int64_t>(note_samples_.size()) < config_.hedge_min_samples) {
    return kNever;
  }
  // Selects the nearest-rank order statistic without sorting the window
  // (hedge_min_samples >= 1, so it is not empty).
  hedge_scratch_.assign(note_samples_.begin(), note_samples_.end());
  const auto nth = hedge_scratch_.begin() +
                   static_cast<std::ptrdiff_t>(NearestRankIndex(
                       hedge_scratch_.size(), config_.hedge_quantile));
  std::nth_element(hedge_scratch_.begin(), nth, hedge_scratch_.end());
  return std::max(config_.hedge_factor * *nth, config_.hedge_min_budget);
}

void ServeFleet::Forward(FleetBatch* batch, int group, double t,
                         bool is_hedge) {
  const NodeId router = runtime_->master();
  ShardGroup& target = *groups_[static_cast<size_t>(group)];
  const NodeId fg = target.frontend();
  Attempt attempt;
  attempt.group = group;
  attempt.is_hedge = is_hedge;
  attempt.forward_sent = t;
  const uint64_t forward_bytes = RouteMessageBytes(batch->rows.size());
  const double forward_arrival =
      runtime_->net().SendUnqueued(router, fg, forward_bytes, t);
  if (is_hedge) {
    hedge_bytes_ += forward_bytes;
  } else {
    ++batch->dispatch_count;
  }
  ++outstanding_[static_cast<size_t>(group)];

  if (forward_arrival >= down_at_[static_cast<size_t>(group)]) {
    // Whole-group loss: the frontend is dead, the forward vanishes. The
    // router only learns at heartbeat detection, which drains the slot.
    attempt.lost = true;
    batch->attempts.push_back(std::move(attempt));
    return;
  }
  target.ProcessEventsUpTo(forward_arrival);
  if (target.HasDeadShards()) {
    // Single-shard failure: the group fails the batch at its reply timeout
    // and self-heals (pre-fleet semantics); the fail note triggers a router
    // re-dispatch instead of a client-visible timeout.
    BatchOutcome out = target.FailBatch(batch->rows, forward_arrival);
    std::vector<FailoverRecord> recovered =
        target.ReinstallDeadShards(out.completion);
    for (FailoverRecord& fo : recovered) failovers_.push_back(fo);
    attempt.note_arrival = runtime_->net().SendUnqueued(
        fg, router, kReplyNoteBytes, out.completion);
    if (is_hedge) hedge_bytes_ += out.wire_bytes + kReplyNoteBytes;
    attempt.outcome = std::move(out);
    batch->attempts.push_back(std::move(attempt));
    return;
  }
  BatchOutcome out = target.ServeBatch(batch->rows, forward_arrival, batch->id);
  // Response straight to the client, completion note to the router — back
  // to back on the frontend's NIC, so note order mirrors response order.
  const uint64_t response_bytes = ResponseMessageBytes(batch->rows.size());
  attempt.response_arrival =
      runtime_->net().SendUnqueued(fg, ingress_, response_bytes,
                                   out.completion);
  attempt.note_arrival = runtime_->net().SendUnqueued(
      fg, router, kReplyNoteBytes, out.completion);
  if (is_hedge) {
    hedge_bytes_ += out.wire_bytes + response_bytes + kReplyNoteBytes;
  } else {
    // The generation barrier anchor: a hedge may only substitute for this
    // response if it scored against the same generation.
    batch->pinned_generation = out.generation;
  }
  attempt.outcome = std::move(out);
  batch->attempts.push_back(std::move(attempt));
}

void ServeFleet::ResolveServed(FleetBatch* batch, size_t attempt_index) {
  const Attempt& attempt = batch->attempts[attempt_index];
  batch->resolved = true;
  if (attempt.is_hedge) ++hedge_wins_;
  group_completed_[static_cast<size_t>(attempt.group)] +=
      static_cast<int64_t>(batch->indices.size());
  for (size_t i = 0; i < batch->indices.size(); ++i) {
    RecordServed(attempt.outcome, i, batch->id, attempt.response_arrival,
                 &records_[batch->indices[i]]);
    FleetRequestInfo& info = infos_[batch->indices[i]];
    info.group = attempt.group;
    info.attempts = static_cast<int>(batch->attempts.size());
    info.hedged = batch->hedged;
    info.hedge_won = attempt.is_hedge;
  }
}

void ServeFleet::ResolveTimedOut(FleetBatch* batch, double t) {
  batch->resolved = true;
  const Attempt& first = batch->attempts.front();
  const double dispatch =
      first.lost ? first.forward_sent : first.outcome.dispatch;
  for (size_t idx : batch->indices) {
    RecordTimedOut(batch->id, dispatch, t, &records_[idx]);
    FleetRequestInfo& info = infos_[idx];
    info.group = -1;
    info.attempts = static_cast<int>(batch->attempts.size());
    info.hedged = batch->hedged;
  }
}

void ServeFleet::Redispatch(FleetBatch* batch, double t) {
  batch->hedge_fire = kNever;  // hedging covers first attempts only
  if (batch->dispatch_count > config_.max_redispatch) {
    ResolveTimedOut(batch, t);
    return;
  }
  ++redispatches_;
  Route(batch);
}

int ServeFleet::Route(FleetBatch* batch) {
  const NodeId router = runtime_->master();
  std::vector<int> healthy = HealthyGroups(runtime_->clock(router));
  while (healthy.empty()) {
    // Every group is mid-recovery: stall until the first re-install lands.
    double wake = kNever;
    for (double h : healthy_at_) {
      if (h > runtime_->clock(router)) wake = std::min(wake, h);
    }
    COLSGD_CHECK(wake < kNever) << "no group will ever recover";
    runtime_->SyncClockTo(router, wake);
    healthy = HealthyGroups(runtime_->clock(router));
  }
  runtime_->ChargeCompute(router, kRouteFlopsPerBatch);
  const int group = PickGroup(healthy, -1);
  Forward(batch, group, runtime_->clock(router), /*is_hedge=*/false);
  return group;
}

void ServeFleet::ProcessNote(FleetBatch* batch, size_t attempt_index) {
  Attempt& attempt = batch->attempts[attempt_index];
  const NodeId router = runtime_->master();
  runtime_->SyncClockTo(router, attempt.note_arrival);
  runtime_->ChargeCompute(router, kRouteFlopsPerNote);
  COLSGD_CHECK_GT(outstanding_[static_cast<size_t>(attempt.group)], 0);
  --outstanding_[static_cast<size_t>(attempt.group)];
  attempt.closed = true;
  if (attempt.outcome.served) {
    // Router-observed round trip feeds the hedge budget window.
    const double sample = attempt.note_arrival - attempt.forward_sent;
    if (note_samples_.size() < kNoteWindow) {
      note_samples_.push_back(sample);
    } else {
      note_samples_[note_sample_next_] = sample;
      note_sample_next_ = (note_sample_next_ + 1) % kNoteWindow;
    }
  }
  if (batch->resolved) {
    // Late duplicate of a decided race: the response already reached the
    // client and is discarded there; its bytes were charged regardless.
    if (attempt.outcome.served) ++hedges_cancelled_;
    return;
  }
  if (attempt.outcome.served) {
    const bool barrier_ok =
        !attempt.is_hedge || batch->pinned_generation < 0 ||
        attempt.outcome.generation == batch->pinned_generation;
    if (barrier_ok) {
      ResolveServed(batch, attempt_index);
      return;
    }
    // Generation barrier: the hedge raced a hot swap and scored against a
    // different generation than the primary; its response is discarded.
    ++hedges_cancelled_;
  }
  // Failed attempt (or discarded hedge): re-dispatch once nothing else is
  // in flight for this batch. Lost forwards count as in flight — the
  // router cannot tell silence from slowness until detection.
  bool pending = false;
  for (const Attempt& a : batch->attempts) {
    if (!a.closed) pending = true;
  }
  if (!pending) Redispatch(batch, runtime_->clock(router));
}

void ServeFleet::FireHedge(FleetBatch* batch) {
  const double fire = batch->hedge_fire;
  batch->hedge_fire = kNever;
  const NodeId router = runtime_->master();
  runtime_->SyncClockTo(router, fire);
  runtime_->ChargeCompute(router, kRouteFlopsPerBatch);
  const int primary = batch->attempts.front().group;
  const std::vector<int> healthy = HealthyGroups(runtime_->clock(router));
  const int target = PickGroup(healthy, primary);
  if (target < 0) {
    ++hedges_suppressed_;  // no second group to hedge to
    return;
  }
  if (GenerationBelievedActive(*groups_[static_cast<size_t>(target)], fire) !=
      GenerationBelievedActive(*groups_[static_cast<size_t>(primary)],
                               fire)) {
    // Generation barrier, router side: mid-swap the groups diverge, and a
    // duplicate would race the flip. Cheaper to absorb the tail than to
    // fire a hedge the response-side barrier would discard anyway.
    ++hedges_suppressed_;
    runtime_->Instant("serve.hedge_suppressed", router, fire);
    return;
  }
  batch->hedged = true;
  ++hedges_fired_;
  Forward(batch, target, runtime_->clock(router), /*is_hedge=*/true);
  runtime_->Span("serve.hedge", router, fire, runtime_->clock(router) - fire,
                 RouteMessageBytes(batch->rows.size()), target);
}

void ServeFleet::ProcessSwapEvent(ScheduledFleetSwap* swap) {
  swap->done = true;
  const NodeId router = runtime_->master();
  const double start = std::max(swap->time, runtime_->clock(router));
  runtime_->SyncClockTo(router, start);
  // The router validates the sealed image ONCE (CRC scan), so a corrupt
  // image is rejected before any group is touched — no group ever installs
  // a generation its siblings rejected. A valid image is sharded once too,
  // and every group installs that same image.
  runtime_->ChargeMemTouch(router, swap->image.size());
  Result<std::shared_ptr<const ShardedModelImage>> image =
      ParseSwapImage(swap->image, served_);
  if (!image.ok()) {
    ++swaps_failed_;
    runtime_->Instant("serve.swap_rejected", router, runtime_->clock(router));
    return;
  }
  double last_done = start;
  for (auto& group : groups_) {
    const double arrival = runtime_->net().SendUnqueued(
        router, group->frontend(), swap->image.size(),
        runtime_->clock(router));
    last_done = std::max(
        last_done, group->ApplyValidatedSwap(arrival, image.ValueOrDie(),
                                             swap->trained_iterations));
  }
  runtime_->Span("serve.swap", router, start, last_done - start,
                 swap->image.size());
}

void ServeFleet::ProcessGroupLossDetection(ScheduledGroupLoss* loss) {
  loss->done = true;
  const NodeId router = runtime_->master();
  const double detected = std::max(loss->detect_at, runtime_->clock(router));
  runtime_->SyncClockTo(router, detected);
  runtime_->ChargeCompute(router, kRouteFlopsPerNote);
  ++group_down_events_;
  const int g = loss->group;
  // The router stops routing to the lost group first, so the drain below
  // re-dispatches to survivors only: a forward back into the group would be
  // lost again, with no later detection left to drain it.
  healthy_at_[static_cast<size_t>(g)] = kNever;
  // Drain: every batch still outstanding on the lost group either moves to
  // a survivor or — if a hedge already answered it — just frees its slot.
  int64_t drained = 0;
  for (FleetBatch& batch : batches_store_) {
    bool released = false;
    for (Attempt& attempt : batch.attempts) {
      if (attempt.group == g && attempt.lost && !attempt.closed) {
        attempt.closed = true;
        COLSGD_CHECK_GT(outstanding_[static_cast<size_t>(g)], 0);
        --outstanding_[static_cast<size_t>(g)];
        released = true;
      }
    }
    if (!released || batch.resolved) continue;
    bool pending = false;
    for (const Attempt& attempt : batch.attempts) {
      if (!attempt.closed) pending = true;
    }
    if (!pending) {
      Redispatch(&batch, runtime_->clock(router));
      ++drained;
    }
  }
  // Recover: replacement nodes take over the group's identities and the
  // active generation is re-installed from the new frontend. The router
  // routes to the group again only once the re-install lands.
  ShardGroup& group = *groups_[static_cast<size_t>(g)];
  group.ProcessEventsUpTo(detected);
  runtime_->SyncClockTo(group.frontend(), detected);
  std::vector<FailoverRecord> recovered = group.ReinstallDeadShards(detected);
  double healthy = detected;
  for (FailoverRecord& fo : recovered) {
    healthy = std::max(healthy, fo.recovered_at);
    failovers_.push_back(fo);
  }
  healthy_at_[static_cast<size_t>(g)] = healthy;
  double next_down = kNever;
  for (const ScheduledGroupLoss& other : group_losses_) {
    if (!other.done && other.group == g) {
      next_down = std::min(next_down, other.time);
    }
  }
  down_at_[static_cast<size_t>(g)] = next_down;
  runtime_->Span("serve.group_drain", router, detected,
                 runtime_->clock(router) - detected,
                 static_cast<uint64_t>(drained), g);
}

Status ServeFleet::Run(const std::vector<ServeRequest>& arrivals) {
  if (ran_) return Status::FailedPrecondition("Run may be called once");
  if (!groups_[0]->has_model()) {
    return Status::FailedPrecondition("no model installed");
  }
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (i > 0 && arrivals[i].arrival < arrivals[i - 1].arrival) {
      return Status::InvalidArgument("arrivals must be sorted by time");
    }
    if (arrivals[i].row >= queries_->num_rows()) {
      return Status::InvalidArgument("request row beyond the query dataset");
    }
  }
  ran_ = true;

  records_.clear();
  records_.reserve(arrivals.size());
  for (const ServeRequest& req : arrivals) {
    RequestRecord rec;
    rec.id = req.id;
    rec.row = req.row;
    rec.arrival = req.arrival;
    records_.push_back(rec);
  }
  if (config_.routing) {
    RunRouted(arrivals);
  } else {
    RunUnrouted(arrivals);
  }
  return Status::OK();
}

void ServeFleet::Admit(const std::vector<ServeRequest>& arrivals,
                       size_t index, std::deque<Pending>* queue) {
  const ServeRequest& req = arrivals[index];
  if (static_cast<int64_t>(queue->size()) < config_.serve.queue_capacity) {
    queue->push_back(Pending{index, req.row, req.arrival});
    return;
  }
  // Shedding is not free: the record keeps its default kRejected status AND
  // the frontend (or router) answers the client with one control-sized
  // rejection, charged on the wire exactly once. The reply cannot leave
  // before the request arrived or while earlier traffic still occupies the
  // NIC (SendUnqueued resolves the latter).
  const NodeId master = runtime_->master();
  const double t_send = std::max(runtime_->clock(master), req.arrival);
  runtime_->net().SendUnqueued(master, ingress_, kRejectMessageBytes, t_send);
}

double ServeFleet::BatchDue(const std::deque<Pending>& queue) const {
  if (static_cast<int64_t>(queue.size()) >= config_.serve.max_batch) {
    return queue[static_cast<size_t>(config_.serve.max_batch) - 1].arrival;
  }
  return queue.front().arrival + config_.serve.max_delay;
}

void ServeFleet::RunUnrouted(const std::vector<ServeRequest>& arrivals) {
  ShardGroup& group = *groups_[0];
  const NodeId master = runtime_->master();
  std::deque<Pending> queue;
  size_t next = 0;
  while (next < arrivals.size() || !queue.empty()) {
    if (queue.empty()) {
      // Idle: jump to the next arrival (events due before it fire first).
      const ServeRequest& req = arrivals[next];
      group.ProcessEventsUpTo(req.arrival);
      queue.push_back(Pending{next, req.row, req.arrival});
      ++next;
      continue;
    }
    // Tentative dispatch moment of the batch at the head of the queue —
    // never before the frontend is free.
    const double t_dispatch =
        std::max(runtime_->clock(master), BatchDue(queue));
    // Any arrival strictly before the dispatch moment is admitted (or
    // rejected) first; admitting may fill the batch and pull the dispatch
    // earlier, so recompute from the top.
    if (next < arrivals.size() && arrivals[next].arrival < t_dispatch) {
      Admit(arrivals, next++, &queue);
      continue;
    }
    // Dispatch. Due swaps/failures fire first; install work may push the
    // frontend past the trigger, which the queue segment absorbs.
    group.ProcessEventsUpTo(t_dispatch);
    const double t_batch = std::max(t_dispatch, runtime_->clock(master));
    runtime_->SyncClockTo(master, t_batch);
    const size_t take =
        std::min(queue.size(), static_cast<size_t>(config_.serve.max_batch));
    std::vector<Pending> batch(queue.begin(),
                               queue.begin() + static_cast<long>(take));
    queue.erase(queue.begin(), queue.begin() + static_cast<long>(take));
    std::vector<uint32_t> rows;
    rows.reserve(batch.size());
    for (const Pending& p : batch) rows.push_back(p.row);
    if (!group.HasDeadShards()) {
      const BatchOutcome out = group.ServeBatch(rows, t_batch, batch_ids_);
      group_completed_[0] += static_cast<int64_t>(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        RecordServed(out, i, batch_ids_, out.completion,
                     &records_[batch[i].index]);
      }
    } else {
      const BatchOutcome out = group.FailBatch(rows, t_batch);
      for (const Pending& p : batch) {
        RecordTimedOut(batch_ids_, out.dispatch, out.completion,
                       &records_[p.index]);
      }
      std::vector<FailoverRecord> recovered =
          group.ReinstallDeadShards(out.completion);
      for (FailoverRecord& fo : recovered) {
        fo.requests_timed_out = static_cast<int64_t>(batch.size());
        failovers_.push_back(fo);
      }
    }
    ++batch_ids_;
  }
}

void ServeFleet::RunRouted(const std::vector<ServeRequest>& arrivals) {
  infos_.assign(arrivals.size(), FleetRequestInfo{});
  const NodeId router = runtime_->master();
  std::deque<Pending> queue;
  size_t next = 0;
  size_t scan_from = 0;  // first batch that may still hold live events

  auto open_work = [&]() -> bool {
    while (scan_from < batches_store_.size()) {
      const FleetBatch& batch = batches_store_[scan_from];
      bool live = !batch.resolved;
      for (const Attempt& attempt : batch.attempts) {
        if (!attempt.closed && !attempt.lost) live = true;
      }
      if (live) return true;
      ++scan_from;
    }
    return false;
  };
  // Scheduled control-plane events (swaps, loss detections) drain even if
  // the workload finishes first — the heartbeat detector keeps ticking and
  // a swap still ships, so Run returns with the fleet at a healthy steady
  // state and every scheduled fault exactly accounted.
  auto pending_events = [&]() -> bool {
    for (const ScheduledGroupLoss& loss : group_losses_) {
      if (!loss.done) return true;
    }
    for (const ScheduledFleetSwap& s : fleet_swaps_) {
      if (!s.done) return true;
    }
    return false;
  };

  // open_work() runs first on every iteration, so the cursor never lags
  // while arrivals remain and each event scans only the batches in flight.
  // Skipping is exact: a dead batch offers no note or hedge event, and
  // nothing reopens it (DESIGN.md §17).
  while (open_work() || next < arrivals.size() || !queue.empty() ||
         pending_events()) {
    // ---- Candidate events, chronological with a fixed tie order:
    // completion note < group-loss detection < fleet swap < hedge timer <
    // batch dispatch < request arrival (an arrival AT the dispatch moment
    // joins the next batch, the pre-fleet admission rule).
    double t_note = kNever;
    size_t note_batch = 0, note_attempt = 0;
    double t_hedge = kNever;
    size_t hedge_batch = 0;
    for (size_t bi = scan_from; bi < batches_store_.size(); ++bi) {
      const FleetBatch& batch = batches_store_[bi];
      for (size_t ai = 0; ai < batch.attempts.size(); ++ai) {
        const Attempt& attempt = batch.attempts[ai];
        if (!attempt.closed && !attempt.lost &&
            attempt.note_arrival < t_note) {
          t_note = attempt.note_arrival;
          note_batch = bi;
          note_attempt = ai;
        }
      }
      if (!batch.resolved && batch.hedge_fire < t_hedge) {
        t_hedge = batch.hedge_fire;
        hedge_batch = bi;
      }
    }
    double t_detect = kNever;
    ScheduledGroupLoss* detect = nullptr;
    for (ScheduledGroupLoss& loss : group_losses_) {
      if (!loss.done && loss.detect_at < t_detect) {
        t_detect = loss.detect_at;
        detect = &loss;
      }
    }
    double t_swap = kNever;
    ScheduledFleetSwap* swap = nullptr;
    for (ScheduledFleetSwap& s : fleet_swaps_) {
      if (!s.done && s.time < t_swap) {
        t_swap = s.time;
        swap = &s;
      }
    }
    const double t_arrival =
        next < arrivals.size() ? arrivals[next].arrival : kNever;
    const double t_dispatch =
        queue.empty() ? kNever
                      : std::max(BatchDue(queue), runtime_->clock(router));

    const double times[6] = {t_note,  t_detect,   t_swap,
                             t_hedge, t_dispatch, t_arrival};
    int best = 0;
    for (int e = 1; e < 6; ++e) {
      if (times[e] < times[best]) best = e;
    }
    COLSGD_CHECK(times[best] < kNever) << "router event loop stalled";

    switch (best) {
      case 0:
        ProcessNote(&batches_store_[note_batch], note_attempt);
        break;
      case 1:
        ProcessGroupLossDetection(detect);
        break;
      case 2:
        ProcessSwapEvent(swap);
        break;
      case 3:
        FireHedge(&batches_store_[hedge_batch]);
        break;
      case 4: {
        runtime_->SyncClockTo(router, t_dispatch);
        const size_t take = std::min(
            queue.size(), static_cast<size_t>(config_.serve.max_batch));
        FleetBatch batch;
        batch.id = batch_ids_++;
        batch.indices.reserve(take);
        batch.rows.reserve(take);
        for (size_t i = 0; i < take; ++i) {
          batch.indices.push_back(queue[i].index);
          batch.rows.push_back(queue[i].row);
        }
        queue.erase(queue.begin(), queue.begin() + static_cast<long>(take));
        batches_store_.push_back(std::move(batch));
        FleetBatch* b = &batches_store_.back();
        const int group = Route(b);
        if (config_.hedging) {
          const double budget = HedgeBudget();
          if (budget < kNever) {
            b->hedge_fire = b->attempts.front().forward_sent + budget;
          }
        }
        runtime_->Span("serve.route", router, t_dispatch,
                       runtime_->clock(router) - t_dispatch,
                       RouteMessageBytes(b->rows.size()), group);
        break;
      }
      case 5:
        Admit(arrivals, next++, &queue);
        break;
    }
  }
}

FleetSummary ServeFleet::Summarize() const {
  FleetSummary s;
  s.replicas = config_.replicas;
  s.offered = static_cast<int64_t>(records_.size());
  std::vector<double> latencies;
  int64_t slo_violations = 0;
  double last_completion = 0.0;
  for (const RequestRecord& rec : records_) {
    switch (rec.status) {
      case RequestStatus::kCompleted: {
        ++s.completed;
        const double latency = rec.completion - rec.arrival;
        latencies.push_back(latency);
        if (latency > config_.serve.slo_latency) ++slo_violations;
        last_completion = std::max(last_completion, rec.completion);
        break;
      }
      case RequestStatus::kRejected:
        ++s.rejected;
        ++slo_violations;
        break;
      case RequestStatus::kTimedOut:
        ++s.timed_out;
        ++slo_violations;
        last_completion = std::max(last_completion, rec.completion);
        break;
    }
  }
  s.batches = batch_ids_;
  s.makespan = last_completion;
  s.throughput = last_completion > 0.0
                     ? static_cast<double>(s.completed) / last_completion
                     : 0.0;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    double sum = 0.0;
    for (double l : latencies) sum += l;
    s.latency_mean = sum / static_cast<double>(latencies.size());
    s.latency_p50 = latencies[NearestRankIndex(latencies.size(), 0.50)];
    s.latency_p95 = latencies[NearestRankIndex(latencies.size(), 0.95)];
    s.latency_p99 = latencies[NearestRankIndex(latencies.size(), 0.99)];
    s.latency_max = latencies.back();
  }
  const TrafficStats total = runtime_->net().TotalStats();
  s.wire_bytes = total.bytes_sent;
  s.wire_messages = total.messages_sent;
  s.bytes_per_request =
      s.completed > 0
          ? static_cast<double>(s.wire_bytes) / static_cast<double>(s.completed)
          : 0.0;
  // Every valid image installs on every group, group 0 included; a routed
  // fleet's corrupt images stop at the router, the single frontend's land
  // in its history as failed installs.
  for (const GenerationInfo& info : groups_[0]->registry().history()) {
    if (!info.ok) {
      ++s.swaps_failed;
    } else if (info.generation > 0) {
      ++s.swaps_completed;  // generation 0 is bring-up, not a swap
    }
  }
  s.swaps_failed += swaps_failed_;
  for (const auto& group : groups_) {
    s.swap_stall_seconds += group->swap_stall_seconds();
  }
  s.failovers = static_cast<int64_t>(failovers_.size());
  for (const FailoverRecord& fo : failovers_) {
    s.failover_seconds += fo.recovered_at - fo.failed_at;
  }
  s.slo_violation_fraction =
      s.offered > 0 ? static_cast<double>(slo_violations) /
                          static_cast<double>(s.offered)
                    : 0.0;
  s.hedges_fired = hedges_fired_;
  s.hedge_wins = hedge_wins_;
  s.hedges_cancelled = hedges_cancelled_;
  s.hedges_suppressed = hedges_suppressed_;
  s.hedge_bytes = hedge_bytes_;
  s.redispatches = redispatches_;
  s.group_down_events = group_down_events_;
  s.group_completed = group_completed_;
  return s;
}

uint64_t ServeFleet::Fingerprint() const {
  uint32_t crc = 0;
  for (size_t i = 0; i < records_.size(); ++i) {
    const RequestRecord& rec = records_[i];
    crc = ExtendCrc32c(crc, &rec.id, sizeof(rec.id));
    const uint8_t status = static_cast<uint8_t>(rec.status);
    crc = ExtendCrc32c(crc, &status, sizeof(status));
    crc = ExtendCrc32c(crc, &rec.generation, sizeof(rec.generation));
    const uint64_t score_bits = CanonicalDoubleBits(rec.score);
    crc = ExtendCrc32c(crc, &score_bits, sizeof(score_bits));
    const uint64_t completion_bits = CanonicalDoubleBits(rec.completion);
    crc = ExtendCrc32c(crc, &completion_bits, sizeof(completion_bits));
    if (!config_.routing) continue;
    const FleetRequestInfo& info = infos_[i];
    const int32_t group = info.group;
    crc = ExtendCrc32c(crc, &group, sizeof(group));
    const int32_t attempts = info.attempts;
    crc = ExtendCrc32c(crc, &attempts, sizeof(attempts));
    const uint8_t hedged = info.hedged ? 1 : 0;
    crc = ExtendCrc32c(crc, &hedged, sizeof(hedged));
  }
  return crc;
}

}  // namespace colsgd
