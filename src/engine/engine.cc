// Fault handling shared by every engine: the template-method half of
// Engine::RunIteration. Engines supply only the recovery actions
// (RecoverWorkerFailure, ChargeCheckpointGather); detection, retry backoff,
// checkpoint cost accounting, and RecoveryMetrics bookkeeping live here so
// the four engines are measured identically (Fig. 13's comparison hinges on
// that).
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "engine/api.h"
#include "simnet/frame.h"

namespace colsgd {

Status Engine::RunIteration(int64_t iteration) {
  // Telemetry baselines, read before the iteration body so the sample holds
  // per-iteration deltas. Everything here is a read of simulation state —
  // attaching a recorder changes no simulated time and no trained bit.
  const bool recording = recorder_ != nullptr;
  const double start_clock = runtime_->clock(runtime_->master());
  TrafficStats traffic_before;
  std::vector<uint64_t> node_bytes_before;
  RecoveryMetrics recovery_before;
  size_t phase_rows_before = 0;
  if (recording) {
    traffic_before = runtime_->net().TotalStats();
    const int nodes = runtime_->net().num_nodes();
    node_bytes_before.reserve(nodes);
    for (int n = 0; n < nodes; ++n) {
      node_bytes_before.push_back(
          runtime_->net().stats(static_cast<NodeId>(n)).bytes_sent);
    }
    recovery_before = recovery_;
    if (tracer_ != nullptr) phase_rows_before = tracer_->iterations().size();
  }
  last_grad_sq_ = std::numeric_limits<double>::quiet_NaN();

  // Time before the engine body's first phase mark (i.e. ProcessFaults) is
  // charged to kRecovery; see Tracer::OnIterationBegin.
  for (SimObserver* o : runtime_->observers()) {
    o->OnIterationBegin(iteration, runtime_->clock(runtime_->master()));
  }
  Status status = Status::OK();
  if (config_.ssp.enabled &&
      (!faults_.plan.MembershipAt(iteration).empty() ||
       !faults_.plan.EventsAt(iteration).empty())) {
    // A fault or membership event fires this iteration: fence the SSP
    // pipeline first so recovery and reconfiguration always see a fully
    // synchronized model (every sent update applied exactly once). The
    // drain's master-clock time is tiled to ssp.wait.
    TracePhase(Phase::kSspWait);
    status = DrainSsp(iteration);
  }
  if (status.ok()) status = ProcessMembership(iteration);
  if (status.ok()) {
    ProcessFaults(iteration);
    status = DoRunIteration(iteration);
  }
  if (status.ok() && config_.ssp.enabled &&
      checkpoints_.ShouldCheckpoint(iteration)) {
    // Same fence before a checkpoint: FullModel must not capture a
    // mixed-staleness snapshot.
    TracePhase(Phase::kSspWait);
    status = DrainSsp(iteration);
  }
  if (status.ok()) {
    TracePhase(Phase::kCheckpoint);
    status = MaybeCheckpoint(iteration);
  }
  for (SimObserver* o : runtime_->observers()) {
    o->OnIterationEnd(runtime_->clock(runtime_->master()));
  }

  if (recording && status.ok()) {
    TimeSeriesSample sample;
    sample.iteration = iteration;
    sample.sim_time = runtime_->clock(runtime_->master());
    sample.iter_seconds = sample.sim_time - start_clock;
    sample.batch_loss = last_batch_loss_;
    sample.grad_norm =
        std::isnan(last_grad_sq_)
            ? std::numeric_limits<double>::quiet_NaN()
            : std::sqrt(last_grad_sq_);
    const TrafficStats traffic_after = runtime_->net().TotalStats();
    sample.bytes_on_wire = traffic_after.bytes_sent - traffic_before.bytes_sent;
    sample.messages =
        traffic_after.messages_sent - traffic_before.messages_sent;
    sample.bytes_sent_per_node.reserve(node_bytes_before.size());
    for (size_t n = 0; n < node_bytes_before.size(); ++n) {
      sample.bytes_sent_per_node.push_back(
          runtime_->net().stats(static_cast<NodeId>(n)).bytes_sent -
          node_bytes_before[n]);
    }
    if (tracer_ != nullptr &&
        tracer_->iterations().size() > phase_rows_before) {
      sample.has_phases = true;
      sample.phases = tracer_->iterations().back().phases;
    }
    sample.task_failures =
        recovery_.task_failures - recovery_before.task_failures;
    sample.worker_failures =
        recovery_.worker_failures - recovery_before.worker_failures;
    sample.checkpoints =
        recovery_.checkpoints_taken - recovery_before.checkpoints_taken;
    sample.recovery_seconds =
        (recovery_.recovery_seconds - recovery_before.recovery_seconds) +
        (recovery_.detection_seconds - recovery_before.detection_seconds);
    sample.messages_corrupted =
        recovery_.messages_corrupted - recovery_before.messages_corrupted;
    sample.retransmits = recovery_.retransmits - recovery_before.retransmits;
    sample.partition_blocked_sends = recovery_.partition_blocked_sends -
                                     recovery_before.partition_blocked_sends;
    recorder_->Record(std::move(sample));
  }
  return status;
}

void Engine::ProcessFaults(int64_t iteration) {
  if (!faults_.plan.has_failures()) return;
  const std::vector<FaultEvent> events = faults_.plan.EventsAt(iteration);
  if (events.empty()) return;

  // Multiple task failures of the same worker in one iteration back off
  // exponentially (attempt counter resets every iteration).
  std::vector<int> attempts(runtime_->total_workers(), 0);
  for (const FaultEvent& event : events) {
    if (event.worker < 0 || event.worker >= runtime_->total_workers()) {
      continue;
    }
    if (detector_.departed(event.worker)) {
      // The rank already left the cluster (crash removal or clean
      // decommission): nothing to detect, nothing to retry. Charging the
      // heartbeat window or backoff here would be the spurious recovery
      // path the detector satellite exists to prevent.
      ++recovery_.faults_on_departed_workers;
      continue;
    }
    if (event.kind == FaultKind::kTaskFailure) {
      ++recovery_.task_failures;
      const double delay = detector_.TaskRetryDelay(attempts[event.worker]++);
      const NodeId node = runtime_->worker_node(event.worker);
      runtime_->Instant("fault.task", node, runtime_->clock(node), iteration);
      runtime_->Span("recovery.retry", node, runtime_->clock(node), delay, 0,
                     iteration);
      runtime_->AdvanceClock(node, delay);
      recovery_.recovery_seconds += delay;
      continue;
    }
    // Worker failure: the master only learns of the death after a heartbeat
    // window, then drives the engine-specific repair; BSP makes everyone
    // wait for it. Recovery time and bytes are measured, not modeled.
    ++recovery_.worker_failures;
    const double detection = detector_.WorkerDetectionDelay();
    runtime_->Instant("fault.worker", runtime_->worker_node(event.worker),
                      runtime_->clock(runtime_->master()), iteration);
    runtime_->Span("recovery.detect", runtime_->master(),
                   runtime_->clock(runtime_->master()), detection, 0,
                   iteration);
    runtime_->AdvanceClock(runtime_->master(), detection);
    recovery_.detection_seconds += detection;
    // The cluster stalls until the master has declared the death and
    // rescheduled; repair work starts from this common point, so the barrier
    // after the repair measures the repair alone.
    runtime_->Barrier();

    const TrafficStats before = runtime_->net().TotalStats();
    const SimTime repair_start = runtime_->clock(runtime_->master());
    RecoverWorkerFailure(event);
    runtime_->Barrier();
    recovery_.recovery_seconds +=
        runtime_->clock(runtime_->master()) - repair_start;
    const TrafficStats after = runtime_->net().TotalStats();
    recovery_.bytes_retransferred += after.bytes_sent - before.bytes_sent;
    runtime_->Span("recovery.repair", runtime_->worker_node(event.worker),
                   repair_start,
                   runtime_->clock(runtime_->master()) - repair_start,
                   after.bytes_sent - before.bytes_sent, iteration);
  }
}

Status Engine::ProcessMembership(int64_t iteration) {
  if (!faults_.plan.has_membership()) return Status::OK();
  const std::vector<MembershipChange> changes =
      faults_.plan.MembershipAt(iteration);
  for (const MembershipChange& change : changes) {
    // Membership changes are master-coordinated barriers: everyone reaches
    // the reconfiguration point, the master runs the (cheap, planned)
    // control exchange, the engine moves state, and the cluster resumes
    // from a common clock.
    runtime_->Barrier();
    const TrafficStats before = runtime_->net().TotalStats();
    const SimTime start = runtime_->clock(runtime_->master());
    runtime_->AdvanceClock(runtime_->master(),
                           detector_.PlannedHandoffDelay());
    COLSGD_RETURN_NOT_OK(ApplyMembershipChange(change));
    runtime_->Barrier();
    const TrafficStats after = runtime_->net().TotalStats();
    recovery_.membership_seconds +=
        runtime_->clock(runtime_->master()) - start;
    recovery_.membership_bytes_moved += after.bytes_sent - before.bytes_sent;
    runtime_->Span(
        change.kind == MembershipChange::Kind::kGrow ? "membership.grow"
                                                     : "membership.shrink",
        runtime_->master(), start, runtime_->clock(runtime_->master()) - start,
        after.bytes_sent - before.bytes_sent, iteration);
  }
  return Status::OK();
}

Status Engine::MaybeCheckpoint(int64_t iteration) {
  if (!checkpoints_.ShouldCheckpoint(iteration)) return Status::OK();
  const SimTime start = runtime_->clock(runtime_->master());

  SavedModel model;
  model.model_name = config_.model;
  model.weights = FullModel();
  model.shared = SharedCheckpointParams();
  const int wpf = model_->weights_per_feature();
  model.num_features = model.weights.size() / static_cast<uint64_t>(wpf);

  ChargeCheckpointGather();
  const CheckpointFault fault = faults_.plan.CheckpointFaultAt(iteration);
  COLSGD_RETURN_NOT_OK(checkpoints_.Save(
      model, iteration + 1, fault,
      faults_.plan.CheckpointDamageDraw(iteration)));
  if (fault != CheckpointFault::kNone) {
    ++recovery_.checkpoints_corrupted;
    runtime_->Instant(fault == CheckpointFault::kTornWrite
                          ? "fault.ckpt_torn"
                          : "fault.ckpt_bitrot",
                      runtime_->master(), runtime_->clock(runtime_->master()),
                      iteration);
  }
  runtime_->AdvanceClock(runtime_->master(),
                         static_cast<double>(checkpoints_.bytes()) /
                             faults_.checkpoint.disk_bandwidth);
  runtime_->Barrier();  // BSP: the next iteration dispatches after the write

  ++recovery_.checkpoints_taken;
  recovery_.checkpoint_bytes += checkpoints_.bytes();
  recovery_.checkpoint_seconds += runtime_->clock(runtime_->master()) - start;
  runtime_->Span("checkpoint", runtime_->master(), start,
                 runtime_->clock(runtime_->master()) - start,
                 checkpoints_.bytes(), iteration);
  return Status::OK();
}

void Engine::SendLostCopies(NodeId from, NodeId to, uint64_t wire_bytes,
                            int64_t iteration) {
  const int ifrom = static_cast<int>(from);
  const int ito = static_cast<int>(to);
  if (faults_.plan.LinkPartitioned(iteration, ifrom, ito)) {
    // Severed link: every copy attempted during the outage is lost on the
    // wire while the sender backs off exponentially; the copy sent after
    // the last backoff crosses when connectivity flickers back (bounded
    // brown-out, not a livelock — see DESIGN.md §10).
    const int attempts = detector_.config().partition_retry_limit;
    for (int a = 0; a < attempts; ++a) {
      runtime_->Instant("fault.partition", from, runtime_->clock(from),
                        iteration);
      runtime_->net().Send(from, to, wire_bytes, runtime_->clock(from));
      runtime_->AdvanceClock(from, detector_.RetransmitDelay(a));
      ++recovery_.retransmits;
      recovery_.bytes_retransferred += wire_bytes;
    }
    ++recovery_.partition_blocked_sends;
  }
  if (faults_.plan.DropMessage(iteration, ifrom, ito)) {
    // The lost copy occupies the sender's NIC and the wire but never syncs
    // the receiver; the sender retransmits after the ack timeout.
    runtime_->Instant("fault.drop", from, runtime_->clock(from), iteration);
    runtime_->net().Send(from, to, wire_bytes, runtime_->clock(from));
    runtime_->AdvanceClock(from, detector_.ack_timeout());
    ++recovery_.messages_dropped;
    ++recovery_.retransmits;
    recovery_.bytes_retransferred += wire_bytes;
  }
}

SimTime Engine::SendWithFaults(NodeId from, NodeId to, uint64_t bytes,
                               int64_t iteration) {
  // Under a wire-integrity plan every data-plane message carries the frame
  // header + CRC32C trailer and the receiver pays an O(bytes) verification
  // sweep; fault-free plans keep the unframed protocol bit-for-bit (the
  // charging rule that keeps clean baselines and the golden trace stable).
  const bool framed = faults_.plan.wire_integrity();
  const uint64_t wire_bytes = framed ? bytes + kFrameOverheadBytes : bytes;
  SendLostCopies(from, to, wire_bytes, iteration);
  if (framed && faults_.plan.CorruptMessage(iteration, static_cast<int>(from),
                                            static_cast<int>(to))) {
    // The corrupted copy arrives in full, fails the receiver's CRC sweep,
    // and is NACK'd back; the sender then retransmits a clean copy. The
    // flipped payload is never handed to the engine — detection is what the
    // trailer guarantees (tests/simnet_test.cc pins it on real frames).
    runtime_->Instant("fault.corrupt", to, runtime_->clock(to), iteration);
    runtime_->Send(from, to, wire_bytes);
    runtime_->ChargeMemTouch(to, wire_bytes);  // CRC sweep finds the damage
    runtime_->Send(to, from, kNackBytes);      // control-sized NACK
    ++recovery_.messages_corrupted;
    ++recovery_.retransmits;
    recovery_.bytes_retransferred += wire_bytes;
  }
  const SimTime arrival = runtime_->Send(from, to, wire_bytes);
  if (framed) {
    runtime_->ChargeMemTouch(to, wire_bytes);  // CRC sweep passes
  }
  return arrival;
}

SimTime Engine::GatedSendWithFaults(NodeId from, NodeId to, uint64_t bytes,
                                    int64_t iteration) {
  // The SSP delivery path: identical fault processes and byte counts to
  // SendWithFaults, but the receiver's clock is never synchronized — the
  // message lands in a mailbox and the consumer picks it up when its own
  // clock passes the returned availability time. Receiver-side CRC sweeps
  // under wire integrity are folded into that availability instead of the
  // receiver's clock (the consumer pays them implicitly by not seeing the
  // update earlier); the sender still blocks on NACKs, which are genuine
  // round trips.
  const bool framed = faults_.plan.wire_integrity();
  const uint64_t wire_bytes = framed ? bytes + kFrameOverheadBytes : bytes;
  const double sweep_seconds =
      framed ? static_cast<double>(wire_bytes) / cluster_spec_.mem_bandwidth
             : 0.0;
  SendLostCopies(from, to, wire_bytes, iteration);
  if (framed && faults_.plan.CorruptMessage(iteration, static_cast<int>(from),
                                            static_cast<int>(to))) {
    // The corrupted copy arrives, fails the receiver's CRC sweep, and is
    // NACK'd back at arrival + sweep; the sender blocks on the NACK (it
    // cannot know to retransmit earlier) and then sends a clean copy.
    runtime_->Instant("fault.corrupt", to, runtime_->clock(to), iteration);
    const SimTime bad_arrival =
        runtime_->net().Send(from, to, wire_bytes, runtime_->clock(from));
    if (critpath_ != nullptr) {
      // The NACK leaves when the receiver's CRC sweep over the corrupted
      // copy finishes, not at any node's clock.
      critpath_->AnnotateNextSend(
          {critpath_->MsgTerm(critpath_->last_msg(), sweep_seconds)}, 0.0, -1);
    }
    const SimTime nack_arrival =
        runtime_->net().Send(to, from, kNackBytes, bad_arrival + sweep_seconds);
    runtime_->SyncClockTo(from, nack_arrival);
    ++recovery_.messages_corrupted;
    ++recovery_.retransmits;
    recovery_.bytes_retransferred += wire_bytes;
  }
  const SimTime arrival =
      runtime_->net().Send(from, to, wire_bytes, runtime_->clock(from));
  if (critpath_ != nullptr) {
    critpath_->SetLastMsgAvail(arrival + sweep_seconds);
  }
  return arrival + sweep_seconds;
}

double Engine::SspJitterLevel(int64_t iteration, int worker) const {
  const double jitter = config_.ssp.compute_jitter;
  if (jitter <= 0.0) return 0.0;
  // Stateless hash draw, keyed exactly like the fault plan's probabilistic
  // processes so double runs replay bit-identically.
  const uint64_t h = SplitMix64(
      SplitMix64(config_.seed ^ 0x55AA55AA11EEULL) ^
      SplitMix64(static_cast<uint64_t>(iteration) * 0x9e3779b97f4a7c15ULL +
                 static_cast<uint64_t>(worker)));
  return jitter * (static_cast<double>(h >> 11) * 0x1.0p-53);
}

}  // namespace colsgd
