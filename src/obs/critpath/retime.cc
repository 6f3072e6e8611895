#include "obs/critpath/retime.h"

#include <algorithm>
#include <map>

namespace colsgd {
namespace {

double ScaleFor(const std::vector<double>& scales, uint32_t node) {
  return node < scales.size() ? scales[node] : 1.0;
}

class Replayer {
 public:
  Replayer(const CritDag& dag, const WhatIf& w) : dag_(dag), w_(w) {
    c_.assign(dag.num_nodes, 0.0);
    out_free_.assign(dag.num_nodes, 0.0);
    in_free_.assign(dag.num_nodes, 0.0);
    msg_avail_.assign(dag.ops.size(), 0.0);
    stamp_vals_.reserve(64);
    for (const CritKeyedAvail& k : dag.keyed) {
      keyed_msg_[{k.group, k.tick}] = k.msg;
    }
  }

  RetimeResult Run() {
    for (size_t i = 0; i < dag_.ops.size(); ++i) {
      const CritOp& op = dag_.ops[i];
      switch (op.kind) {
        case CritOpKind::kCompute:
          c_[op.node] += op.seconds * ScaleFor(w_.compute_scale, op.node);
          break;
        case CritOpKind::kMem:
          c_[op.node] += op.seconds * w_.mem_scale;
          break;
        case CritOpKind::kLocal:
          c_[op.node] += op.seconds * ScaleFor(w_.local_scale, op.node);
          break;
        case CritOpKind::kStraggler:
          c_[op.node] += op.seconds * ScaleFor(w_.straggler_scale, op.node);
          break;
        case CritOpKind::kMsg:
          ReplaySend(i, op);
          break;
        case CritOpKind::kSet: {
          double t = c_[op.node];
          for (const CritTerm& term : op.terms) {
            t = std::max(t, Resolve(term));
          }
          c_[op.node] = t;
          break;
        }
        case CritOpKind::kBarrier: {
          double t = 0.0;
          for (double v : c_) t = std::max(t, v);
          std::fill(c_.begin(), c_.end(), t);
          break;
        }
        case CritOpKind::kStamp:
          stamp_vals_.push_back(c_[op.node]);
          break;
      }
    }
    RetimeResult result;
    result.final_clocks = c_;
    for (double v : c_) result.makespan = std::max(result.makespan, v);
    return result;
  }

 private:
  double Resolve(const CritTerm& term) const {
    double base;
    switch (term.kind) {
      case CritCauseKind::kMsg:
        base = term.ref >= 0 ? msg_avail_[static_cast<size_t>(term.ref)]
                             : term.value;
        break;
      case CritCauseKind::kClock:
        base = c_[static_cast<size_t>(term.ref)];
        break;
      case CritCauseKind::kStamp:
        base = term.ref >= 0 &&
                       static_cast<size_t>(term.ref) < stamp_vals_.size()
                   ? stamp_vals_[static_cast<size_t>(term.ref)]
                   : term.value;
        break;
      case CritCauseKind::kGate: {
        const auto it = keyed_msg_.find({term.ref, term.ref2 - w_.slack_delta});
        base = it != keyed_msg_.end() && it->second >= 0
                   ? msg_avail_[static_cast<size_t>(it->second)]
                   : 0.0;  // pre-history tick: no constraint
        break;
      }
      case CritCauseKind::kAbs:
      default:
        base = term.value;  // anchored: external events keep their time
        break;
    }
    double add = term.add_seconds;
    if (term.add_node >= 0) {
      add *= ScaleFor(w_.compute_scale, static_cast<uint32_t>(term.add_node));
    }
    return base + add;
  }

  void ReplaySend(size_t idx, const CritOp& op) {
    double sender;
    if (op.sender_is_clock) {
      sender = c_[op.node];
    } else if (!op.terms.empty()) {
      sender = 0.0;
      for (const CritTerm& term : op.terms) {
        sender = std::max(sender, Resolve(term));
      }
      double tail = op.tail_seconds;
      if (op.tail_node >= 0) {
        tail *=
            ScaleFor(w_.compute_scale, static_cast<uint32_t>(op.tail_node));
      }
      sender += tail;
    } else {
      sender = op.sender_time;  // unannotated exogenous send: anchored
    }
    // SimNetwork::Send arithmetic under the scaled network.
    const double wire = static_cast<double>(op.bytes) /
                        (dag_.net_bandwidth * w_.bandwidth_scale);
    const double overhead = dag_.net_overhead * w_.overhead_scale;
    const double latency = dag_.net_latency * w_.latency_scale;
    const double start = std::max(out_free_[op.node], sender);
    const double tx_done = start + overhead + wire;
    out_free_[op.node] = tx_done;
    const double arrival = tx_done + latency;
    double rx_done;
    if (op.control) {
      rx_done = arrival;
    } else {
      const double rx_start = std::max(in_free_[op.to], arrival - wire);
      rx_done = std::max(arrival, rx_start + wire);
      in_free_[op.to] = rx_done;
    }
    // Receiver-side sweep (deserialization) rides along, mem-scaled.
    msg_avail_[idx] = rx_done + (op.avail - op.rx_done) * w_.mem_scale;
  }

  const CritDag& dag_;
  const WhatIf& w_;
  std::vector<double> c_;
  std::vector<double> out_free_;
  std::vector<double> in_free_;
  std::vector<double> msg_avail_;
  std::vector<double> stamp_vals_;
  std::map<std::pair<int64_t, int64_t>, int64_t> keyed_msg_;
};

}  // namespace

Result<RetimeResult> Retime(const CritDag& dag, const WhatIf& what_if) {
  if (what_if.slack_delta < 0) {
    return Status::InvalidArgument(
        "retime: slack_delta must be >= 0 (a tighter slack would gate on "
        "broadcasts recorded later in the log)");
  }
  if (dag.num_nodes == 0) {
    return Status::InvalidArgument("retime: empty DAG");
  }
  Replayer replayer(dag, what_if);
  return replayer.Run();
}

}  // namespace colsgd
