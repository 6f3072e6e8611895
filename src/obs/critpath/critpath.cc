#include "obs/critpath/critpath.h"

namespace colsgd {

void CritPathRecorder::OnAttach(const SimShape& shape) {
  const size_t num_nodes = shape.num_nodes;
  now_.assign(shape.clocks, shape.clocks + num_nodes);
  num_workers_ = shape.num_workers;
  latency_ = shape.latency;
  bandwidth_ = shape.bandwidth;
  overhead_ = shape.per_message_overhead;
  control_bytes_ = shape.control_bytes;
  ops_.clear();
  keyed_.clear();
  stamps_.clear();
  avail_of_.assign(num_nodes, {});
  last_out_.assign(num_nodes, -1);
  last_in_.assign(num_nodes, -1);
  last_change_.assign(num_nodes, -1);
  last_msg_ = -1;
  pending_advance_.active = false;
  pending_gate_.active = false;
  pending_set_.active = false;
  pending_send_.active = false;
}

void CritPathRecorder::OnAdvance(uint32_t node, double seconds,
                                 CritOpKind kind, uint64_t flops) {
  CritOp op;
  op.kind = kind;
  op.node = node;
  op.seconds = seconds;
  op.flops = flops;
  op.prev = now_[node];
  now_[node] += seconds;
  op.t = now_[node];
  last_change_[node] = static_cast<int64_t>(ops_.size());
  ops_.push_back(std::move(op));
}

CritTerm CritPathRecorder::Classify(uint32_t node, double t) const {
  const auto& avail = avail_of_[node];
  const auto it = avail.find(Bits(t));
  if (it != avail.end()) {
    CritTerm term;
    term.kind = CritCauseKind::kMsg;
    term.ref = it->second;
    term.value = t;
    return term;
  }
  const uint64_t bits = Bits(t);
  // Among nodes holding this exact value, cite the one that acquired it
  // first — causes then always point backward in the log (see last_change_).
  int64_t origin = -1;
  int64_t origin_change = 0;
  for (uint32_t n = 0; n < now_.size(); ++n) {
    if (n != node && Bits(now_[n]) == bits &&
        (origin < 0 || last_change_[n] < origin_change)) {
      origin = n;
      origin_change = last_change_[n];
    }
  }
  if (origin >= 0) {
    CritTerm term;
    term.kind = CritCauseKind::kClock;
    term.ref = origin;
    term.value = t;
    return term;
  }
  CritTerm term;
  term.kind = CritCauseKind::kAbs;
  term.value = t;
  return term;
}

void CritPathRecorder::EmitSet(uint32_t node, double t) {
  CritOp op;
  op.kind = CritOpKind::kSet;
  op.node = node;
  op.prev = now_[node];
  op.t = t;
  op.terms.push_back(Classify(node, t));
  now_[node] = t;
  last_change_[node] = static_cast<int64_t>(ops_.size());
  ops_.push_back(std::move(op));
}

void CritPathRecorder::OnSetClock(uint32_t node, double t) {
  if (pending_advance_.active && pending_advance_.node == node) {
    const PendingAdvance p = pending_advance_;
    pending_advance_.active = false;
    // Verify the engine's left-associated arithmetic bit-for-bit; on any
    // mismatch fall through to a classified set so the log stays exact.
    const double predicted =
        (now_[node] + p.compute_seconds) + p.straggler_seconds;
    if (Bits(predicted) == Bits(t)) {
      OnAdvance(node, p.compute_seconds, CritOpKind::kCompute, p.flops);
      if (p.straggler_seconds != 0.0) {
        OnAdvance(node, p.straggler_seconds, CritOpKind::kStraggler, 0);
      }
      // Replay the exact association: (clock + compute) + straggler.
      now_[node] = t;
      if (!ops_.empty()) ops_.back().t = t;
      return;
    }
  }
  if (pending_gate_.active && pending_gate_.node == node) {
    const PendingGate p = pending_gate_;
    pending_gate_.active = false;
    CritOp op;
    op.kind = CritOpKind::kSet;
    op.node = node;
    op.prev = now_[node];
    op.t = t;
    CritTerm term;
    term.kind = CritCauseKind::kGate;
    term.ref = p.group;
    term.ref2 = p.tick;
    term.value = p.value;
    op.terms.push_back(term);
    now_[node] = t;
    last_change_[node] = static_cast<int64_t>(ops_.size());
    ops_.push_back(std::move(op));
    return;
  }
  if (pending_set_.active && pending_set_.node == node) {
    PendingSet p = std::move(pending_set_);
    pending_set_.active = false;
    CritOp op;
    op.kind = CritOpKind::kSet;
    op.node = node;
    op.prev = now_[node];
    op.t = t;
    op.terms = std::move(p.terms);
    now_[node] = t;
    last_change_[node] = static_cast<int64_t>(ops_.size());
    ops_.push_back(std::move(op));
    return;
  }
  if (Bits(t) == Bits(now_[node])) return;  // no-op set
  EmitSet(node, t);
}

void CritPathRecorder::OnSyncClock(uint32_t node, double t) {
  if (t <= now_[node]) return;  // no-op under max semantics
  EmitSet(node, t);
}

void CritPathRecorder::OnBarrier(double t) {
  CritOp op;
  op.kind = CritOpKind::kBarrier;
  op.t = t;
  uint32_t top = 0;
  for (uint32_t n = 1; n < now_.size(); ++n) {
    if (now_[n] > now_[top]) top = n;
  }
  op.node = top;
  for (uint32_t n = 0; n < now_.size(); ++n) {
    if (Bits(now_[n]) != Bits(t)) {
      last_change_[n] = static_cast<int64_t>(ops_.size());
    }
    now_[n] = t;
  }
  ops_.push_back(std::move(op));
}

void CritPathRecorder::OnSend(uint32_t from, uint32_t to, uint64_t bytes,
                              bool control, double sender_time,
                              double tx_start, double tx_done, double rx_start,
                              double rx_done) {
  CritOp op;
  op.kind = CritOpKind::kMsg;
  op.node = from;
  op.to = to;
  op.bytes = bytes;
  op.control = control;
  op.sender_time = sender_time;
  op.tx_start = tx_start;
  op.tx_done = tx_done;
  op.rx_start = rx_start;
  op.rx_done = rx_done;
  op.avail = rx_done;
  op.sender_is_clock = Bits(sender_time) == Bits(now_[from]);
  // Queueing state: tx_start > sender_time means the out NIC was busy with
  // the previous send from this node; for bulk receives, rx_start above
  // (arrival - wire) means the in NIC was still draining the previous one.
  if (tx_start > sender_time) op.prev_out = last_out_[from];
  if (!control) {
    const double wire = static_cast<double>(bytes) / bandwidth_;
    const double arrival = tx_done + latency_;
    if (rx_start > arrival - wire) op.prev_in = last_in_[to];
  }
  if (pending_send_.active) {
    op.terms = std::move(pending_send_.terms);
    op.tail_seconds = pending_send_.tail_seconds;
    op.tail_node = pending_send_.tail_node;
    pending_send_.active = false;
  }
  const int64_t idx = static_cast<int64_t>(ops_.size());
  last_out_[from] = idx;
  if (!control) last_in_[to] = idx;
  last_msg_ = idx;
  avail_of_[to][Bits(rx_done)] = idx;
  ops_.push_back(std::move(op));
}

void CritPathRecorder::AnnotateAdvance(uint32_t node, double compute_seconds,
                                       uint64_t flops,
                                       double straggler_seconds) {
  pending_advance_ = {true, node, compute_seconds, flops, straggler_seconds};
}

void CritPathRecorder::AnnotateGate(uint32_t node, int64_t group, int64_t tick,
                                    double gate_value) {
  pending_gate_ = {true, node, group, tick, gate_value};
}

void CritPathRecorder::AnnotateSet(uint32_t node,
                                   std::vector<CritTerm> terms) {
  pending_set_.active = true;
  pending_set_.node = node;
  pending_set_.terms = std::move(terms);
}

void CritPathRecorder::AnnotateNextSend(std::vector<CritTerm> terms,
                                        double tail_seconds,
                                        int32_t tail_node) {
  pending_send_.active = true;
  pending_send_.terms = std::move(terms);
  pending_send_.tail_seconds = tail_seconds;
  pending_send_.tail_node = tail_node;
}

int64_t CritPathRecorder::StampClock(uint32_t node) {
  CritOp op;
  op.kind = CritOpKind::kStamp;
  op.node = node;
  op.t = now_[node];
  stamps_.push_back(ops_.size());
  ops_.push_back(std::move(op));
  return static_cast<int64_t>(stamps_.size()) - 1;
}

void CritPathRecorder::SetLastMsgAvail(double avail) {
  if (last_msg_ < 0) return;
  CritOp& op = ops_[static_cast<size_t>(last_msg_)];
  op.avail = avail;
  avail_of_[op.to][Bits(avail)] = last_msg_;
}

void CritPathRecorder::KeyAvail(int64_t group, int64_t tick, int64_t msg) {
  keyed_.push_back({group, tick, msg});
}

CritTerm CritPathRecorder::MsgTerm(int64_t msg, double add_seconds,
                                   int32_t add_node) const {
  CritTerm term;
  term.kind = CritCauseKind::kMsg;
  term.ref = msg;
  term.value = msg >= 0 ? ops_[static_cast<size_t>(msg)].avail : 0.0;
  term.add_seconds = add_seconds;
  term.add_node = add_node;
  return term;
}

CritTerm CritPathRecorder::ClockTerm(uint32_t node) const {
  CritTerm term;
  term.kind = CritCauseKind::kClock;
  term.ref = node;
  term.value = now_[node];
  return term;
}

CritTerm CritPathRecorder::StampTerm(int64_t stamp, double add_seconds,
                                     int32_t add_node) const {
  CritTerm term;
  term.kind = CritCauseKind::kStamp;
  term.ref = stamp;
  const CritOp& op = ops_[stamps_[static_cast<size_t>(stamp)]];
  term.ref2 = op.node;
  term.value = op.t;
  term.add_seconds = add_seconds;
  term.add_node = add_node;
  return term;
}

CritDag CritPathRecorder::Snapshot() const {
  CritDag dag;
  dag.num_nodes = static_cast<uint32_t>(now_.size());
  dag.num_workers = num_workers_;
  dag.net_latency = latency_;
  dag.net_bandwidth = bandwidth_;
  dag.net_overhead = overhead_;
  dag.control_bytes = control_bytes_;
  dag.ops = ops_;
  dag.keyed = keyed_;
  dag.final_clocks = now_;
  return dag;
}

}  // namespace colsgd
