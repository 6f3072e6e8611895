#include "serve/frontend.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "serve/wire.h"

namespace colsgd {

size_t NearestRankIndex(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return rank - 1;
}

Status ServeConfig::Validate(const ServeConfig& config) {
  if (config.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (config.max_batch < 1) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  if (!(config.max_delay >= 0.0)) {
    return Status::InvalidArgument("max_delay must be >= 0");
  }
  if (config.queue_capacity < config.max_batch) {
    return Status::InvalidArgument(
        "queue_capacity must be >= max_batch (a full batch must fit)");
  }
  if (!(config.reply_timeout > 0.0)) {
    return Status::InvalidArgument("reply_timeout must be positive");
  }
  if (!(config.slo_latency > 0.0)) {
    return Status::InvalidArgument("slo_latency must be positive");
  }
  return Status::OK();
}

ServeFrontend::ServeFrontend(const ClusterSpec& cluster_spec,
                             const ServeConfig& config, const Dataset* queries)
    : config_(config), queries_(queries) {
  COLSGD_CHECK_OK(ServeConfig::Validate(config));
  COLSGD_CHECK(queries != nullptr);
  COLSGD_CHECK_GT(queries->num_rows(), 0u);
  // The serving cluster reuses the training plane's machine model: the
  // frontend is the master node, shard server k is worker node k+1, and one
  // extra endpoint is the client ingress (rejection replies land there).
  ClusterSpec spec = cluster_spec;
  spec.num_workers = config.num_shards;
  runtime_ = std::make_unique<ClusterRuntime>(spec, /*extra_nodes=*/1);
  ingress_ = runtime_->extra_node(0);
  std::vector<NodeId> shards;
  shards.reserve(static_cast<size_t>(config.num_shards));
  for (int k = 0; k < config.num_shards; ++k) {
    shards.push_back(runtime_->worker_node(k));
  }
  group_ = std::make_unique<ShardGroup>(runtime_.get(), runtime_->master(),
                                        std::move(shards), config, queries);
}

Status ServeFrontend::Install(const SavedModel& model,
                              int64_t trained_iterations) {
  return group_->Install(model, trained_iterations);
}

void ServeFrontend::ScheduleSwapImage(double time, std::vector<uint8_t> image,
                                      int64_t trained_iterations) {
  COLSGD_CHECK(!ran_) << "schedule swaps before Run";
  group_->ScheduleSwapImage(time, std::move(image), trained_iterations);
}

void ServeFrontend::ScheduleSwap(double time, const SavedModel& model,
                                 int64_t trained_iterations) {
  ScheduleSwapImage(time, SerializeModel(model), trained_iterations);
}

void ServeFrontend::ScheduleShardFailure(double time, int shard) {
  COLSGD_CHECK(!ran_) << "schedule failures before Run";
  group_->ScheduleShardFailure(time, shard);
}

Status ServeFrontend::Run(const std::vector<ServeRequest>& arrivals) {
  if (ran_) return Status::FailedPrecondition("Run may be called once");
  if (!group_->has_model()) {
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

  const NodeId master = runtime_->master();
  std::deque<Pending> queue;
  size_t next = 0;
  while (next < arrivals.size() || !queue.empty()) {
    if (queue.empty()) {
      // Idle: jump to the next arrival (events due before it fire first).
      const ServeRequest& req = arrivals[next];
      group_->ProcessEventsUpTo(req.arrival);
      queue.push_back(Pending{next, req.id, req.row, req.arrival});
      ++next;
      continue;
    }
    // Tentative dispatch moment of the batch at the head of the queue:
    // the instant it filled, or the oldest request's deadline — but never
    // before the frontend is free.
    const double free_at = runtime_->clock(master);
    double trigger;
    if (static_cast<int64_t>(queue.size()) >= config_.max_batch) {
      trigger = queue[static_cast<size_t>(config_.max_batch) - 1].arrival;
    } else {
      trigger = queue.front().arrival + config_.max_delay;
    }
    const double t_dispatch = std::max(free_at, trigger);
    // Any arrival strictly before the dispatch moment is admitted (or
    // rejected) first; admitting may fill the batch and pull the dispatch
    // earlier, so recompute from the top.
    if (next < arrivals.size() && arrivals[next].arrival < t_dispatch) {
      const ServeRequest& req = arrivals[next];
      if (static_cast<int64_t>(queue.size()) < config_.queue_capacity) {
        queue.push_back(Pending{next, req.id, req.row, req.arrival});
      } else {
        // Shedding is not free: the record keeps its default kRejected
        // status AND the frontend answers the client with one control-sized
        // rejection, charged on the wire exactly once. The reply cannot
        // leave before the request arrived or while earlier traffic still
        // occupies the NIC (SendUnqueued resolves the latter).
        const double t_send = std::max(runtime_->clock(master), req.arrival);
        runtime_->net().SendUnqueued(master, ingress_, kRejectMessageBytes,
                                     t_send);
        ++reject_messages_;
      }
      ++next;
      continue;
    }
    // Dispatch. Due swaps/failures fire first; install work may push the
    // frontend past the trigger, which the queue segment absorbs.
    group_->ProcessEventsUpTo(t_dispatch);
    const double t_batch = std::max(t_dispatch, runtime_->clock(master));
    runtime_->SyncClockTo(master, t_batch);
    const size_t take =
        std::min(queue.size(), static_cast<size_t>(config_.max_batch));
    std::vector<Pending> batch(queue.begin(),
                               queue.begin() + static_cast<long>(take));
    queue.erase(queue.begin(), queue.begin() + static_cast<long>(take));
    std::vector<uint32_t> rows;
    rows.reserve(batch.size());
    for (const Pending& p : batch) rows.push_back(p.row);
    if (!group_->HasDeadShards()) {
      const BatchOutcome out = group_->ServeBatch(rows, t_batch, batches_);
      for (size_t i = 0; i < batch.size(); ++i) {
        RequestRecord& rec = records_[batch[i].index];
        rec.status = RequestStatus::kCompleted;
        rec.generation = out.generation;
        rec.score = out.scores[i];
        rec.batch = batches_;
        rec.dispatch = out.dispatch;
        rec.completion = out.completion;
        rec.queue_s = out.dispatch - rec.arrival;
        rec.scatter_s = out.scatter_end - out.dispatch;
        rec.compute_s = out.compute_end - out.scatter_end;
        rec.gather_s = out.completion - out.compute_end;
      }
    } else {
      const BatchOutcome out = group_->FailBatch(rows, t_batch);
      for (const Pending& p : batch) {
        RequestRecord& rec = records_[p.index];
        rec.status = RequestStatus::kTimedOut;
        rec.batch = batches_;
        rec.dispatch = out.dispatch;
        rec.completion = out.completion;
        rec.queue_s = out.dispatch - rec.arrival;
      }
      std::vector<FailoverRecord> recovered =
          group_->ReinstallDeadShards(out.completion);
      for (FailoverRecord& fo : recovered) {
        fo.requests_timed_out = static_cast<int64_t>(batch.size());
        failovers_.push_back(fo);
      }
    }
    ++batches_;
  }
  return Status::OK();
}

ServeSummary ServeFrontend::Summarize() const {
  ServeSummary s;
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
        if (latency > config_.slo_latency) ++slo_violations;
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
  s.batches = batches_;
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
  for (const GenerationInfo& info : group_->registry().history()) {
    if (!info.ok) {
      ++s.swaps_failed;
    } else if (info.generation > 0) {
      ++s.swaps_completed;  // generation 0 is bring-up, not a swap
    }
  }
  s.swap_stall_seconds = group_->swap_stall_seconds();
  s.failovers = static_cast<int64_t>(failovers_.size());
  for (const FailoverRecord& fo : failovers_) {
    s.failover_seconds += fo.recovered_at - fo.failed_at;
  }
  s.slo_violation_fraction =
      s.offered > 0 ? static_cast<double>(slo_violations) /
                          static_cast<double>(s.offered)
                    : 0.0;
  return s;
}

uint64_t ServeFrontend::Fingerprint() const {
  uint32_t crc = 0;
  for (const RequestRecord& rec : records_) {
    crc = ExtendCrc32c(crc, &rec.id, sizeof(rec.id));
    const uint8_t status = static_cast<uint8_t>(rec.status);
    crc = ExtendCrc32c(crc, &status, sizeof(status));
    crc = ExtendCrc32c(crc, &rec.generation, sizeof(rec.generation));
    const uint64_t score_bits = CanonicalDoubleBits(rec.score);
    crc = ExtendCrc32c(crc, &score_bits, sizeof(score_bits));
    const uint64_t completion_bits = CanonicalDoubleBits(rec.completion);
    crc = ExtendCrc32c(crc, &completion_bits, sizeof(completion_bits));
  }
  return crc;
}

uint64_t CanonicalDoubleBits(double value) {
  if (std::isnan(value)) return 0x7ff8000000000000ULL;
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace colsgd
