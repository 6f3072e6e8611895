#include "obs/critpath/analysis.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

namespace colsgd {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// One tile of a node's rebuilt timeline. blame < 0 marks a wait whose cause
/// lives in `op`'s terms (barrier waits synthesize a clock-chase term).
struct Seg {
  double start = 0.0;
  double end = 0.0;
  int blame = -1;
  int64_t op = -1;
  CritTerm cause;  // wait segments only
  bool has_cause = false;
};

struct Timeline {
  std::vector<Seg> segs;
  std::unordered_map<uint64_t, size_t> by_end;  // end bits -> latest index
  void Push(Seg seg) {
    // Zero-length segments (no-op waits, zero-cost advances) carry no time
    // and would self-map in by_end, stalling the walk at a fixed t.
    if (seg.end == seg.start) return;
    by_end[Bits(seg.end)] = segs.size();
    segs.push_back(std::move(seg));
  }
};

BlameKind AdvanceBlame(CritOpKind kind) {
  switch (kind) {
    case CritOpKind::kCompute:
      return BlameKind::kCompute;
    case CritOpKind::kMem:
      return BlameKind::kMem;
    case CritOpKind::kStraggler:
      return BlameKind::kStraggler;
    default:
      return BlameKind::kLocal;
  }
}

/// Picks the binding term: the one whose (base + compute tail) is largest.
const CritTerm* TopTerm(const std::vector<CritTerm>& terms) {
  const CritTerm* top = nullptr;
  double best = 0.0;
  for (const CritTerm& term : terms) {
    const double total = term.value + term.add_seconds;
    if (top == nullptr || total > best) {
      top = &term;
      best = total;
    }
  }
  return top;
}

class Walker {
 public:
  explicit Walker(const CritDag& dag) : dag_(dag) {
    for (const CritKeyedAvail& k : dag.keyed) {
      keyed_[{k.group, k.tick}] = k.msg;
    }
  }

  Result<CritPathResult> Run() {
    BuildTimelines();
    CritPathResult result;
    result.makespan = dag_.Makespan();
    for (uint32_t n = 0; n < dag_.final_clocks.size(); ++n) {
      if (dag_.final_clocks[n] == result.makespan) {
        result.makespan_node = n;
        break;
      }
    }
    node_ = result.makespan_node;
    t_ = result.makespan;
    // 2 * ops is a loose upper bound on path steps for well-formed logs
    // (every step consumes a distinct timeline segment or message stage).
    const int64_t cap =
        16 * static_cast<int64_t>(dag_.ops.size()) + (1 << 20);
    int64_t iters = 0;
    while (t_ > 0.0) {
      if (++iters > cap) {
        return Status::InvalidArgument(
            "critical-path walk did not terminate (cyclic cause chain?)");
      }
      if (!Step()) break;
    }
    result.steps = std::move(steps_);
    result.exact_misses = exact_misses_;
    for (const PathStep& step : result.steps) {
      result.blame[{static_cast<int>(step.kind), step.node}] += step.length();
    }
    return result;
  }

 private:
  void BuildTimelines() {
    timelines_.assign(dag_.num_nodes, Timeline());
    std::vector<double> c(dag_.num_nodes, 0.0);
    for (size_t i = 0; i < dag_.ops.size(); ++i) {
      const CritOp& op = dag_.ops[i];
      switch (op.kind) {
        case CritOpKind::kCompute:
        case CritOpKind::kMem:
        case CritOpKind::kLocal:
        case CritOpKind::kStraggler: {
          Seg seg;
          seg.start = c[op.node];
          seg.end = op.t;
          seg.blame = static_cast<int>(AdvanceBlame(op.kind));
          seg.op = static_cast<int64_t>(i);
          timelines_[op.node].Push(seg);
          c[op.node] = op.t;
          break;
        }
        case CritOpKind::kSet: {
          if (op.t > op.prev) {
            Seg seg;
            seg.start = op.prev;
            seg.end = op.t;
            seg.op = static_cast<int64_t>(i);
            if (const CritTerm* top = TopTerm(op.terms)) {
              seg.cause = *top;
              seg.has_cause = true;
            }
            timelines_[op.node].Push(seg);
          }
          c[op.node] = op.t;
          break;
        }
        case CritOpKind::kBarrier: {
          for (uint32_t n = 0; n < dag_.num_nodes; ++n) {
            if (c[n] < op.t) {
              Seg seg;
              seg.start = c[n];
              seg.end = op.t;
              seg.op = static_cast<int64_t>(i);
              seg.cause.kind = CritCauseKind::kClock;
              seg.cause.ref = op.node;  // the last-arriving node
              seg.cause.value = op.t;
              seg.has_cause = true;
              timelines_[n].Push(seg);
            }
            c[n] = op.t;
          }
          break;
        }
        case CritOpKind::kMsg:
        case CritOpKind::kStamp:
          break;
      }
    }
  }

  void Emit(double t0, double t1, BlameKind kind, uint32_t node, int64_t op) {
    if (t1 <= t0) return;
    PathStep step;
    step.t0 = t0;
    step.t1 = t1;
    step.kind = kind;
    step.node = node;
    step.op = op;
    steps_.push_back(step);
  }

  /// Dispatches one cause term at time t_ == term base (+ already-emitted
  /// tail). Returns false when the walk terminated.
  bool FollowTerm(const CritTerm& term, uint32_t at_node) {
    switch (term.kind) {
      case CritCauseKind::kMsg:
        return WalkMsg(term.ref, MsgStage::kAvail);
      case CritCauseKind::kClock:
        node_ = static_cast<uint32_t>(term.ref);
        return true;
      case CritCauseKind::kStamp:
        node_ = static_cast<uint32_t>(term.ref2);
        return true;
      case CritCauseKind::kGate: {
        const auto it = keyed_.find({term.ref, term.ref2});
        if (it != keyed_.end() && it->second >= 0) {
          return WalkMsg(it->second, MsgStage::kAvail);
        }
        Emit(0.0, t_, BlameKind::kExternal, at_node, -1);
        t_ = 0.0;
        return false;
      }
      case CritCauseKind::kAbs:
        Emit(0.0, t_, BlameKind::kExternal, at_node, -1);
        t_ = 0.0;
        return false;
    }
    return false;
  }

  enum class MsgStage { kAvail, kRxDone, kTxDone, kTxStart };

  /// Decomposes a message chain backward from t_ (entering at `stage`),
  /// recursing through NIC queue predecessors, until the walk exits onto a
  /// sender timeline or an absolute anchor. Interior stage boundaries only
  /// need to telescope — path length stays exact by construction.
  bool WalkMsg(int64_t msg, MsgStage stage) {
    while (true) {
      const CritOp& op = dag_.ops[static_cast<size_t>(msg)];
      switch (stage) {
        case MsgStage::kAvail: {
          if (op.avail > op.rx_done) {
            Emit(op.rx_done, t_, BlameKind::kSweep, op.to, msg);
            t_ = op.rx_done;
          }
          stage = MsgStage::kRxDone;
          break;
        }
        case MsgStage::kRxDone: {
          if (op.control) {
            Emit(op.tx_done, t_, BlameKind::kLink, op.node, msg);
            t_ = op.tx_done;
            stage = MsgStage::kTxDone;
            break;
          }
          const double arrival = op.tx_done + dag_.net_latency;
          if (op.rx_done > arrival) {
            // Receive-bound: the in NIC drained for the full wire time.
            Emit(op.rx_start, t_, BlameKind::kNicIn, op.to, msg);
            t_ = op.rx_start;
            if (op.prev_in >= 0) {
              msg = op.prev_in;  // queued behind the previous receive
              stage = MsgStage::kRxDone;
              break;
            }
            // rx_start == arrival - wire == tx_start + overhead + latency.
            const double mid = std::max(op.tx_start, t_ - dag_.net_latency);
            Emit(mid, t_, BlameKind::kLink, op.node, msg);
            Emit(op.tx_start, mid, BlameKind::kNicOut, op.node, msg);
            t_ = op.tx_start;
            stage = MsgStage::kTxStart;
            break;
          }
          // Arrival-bound: first byte and last byte limited by the link.
          Emit(op.tx_done, t_, BlameKind::kLink, op.node, msg);
          t_ = op.tx_done;
          stage = MsgStage::kTxDone;
          break;
        }
        case MsgStage::kTxDone: {
          Emit(op.tx_start, t_, BlameKind::kNicOut, op.node, msg);
          t_ = op.tx_start;
          stage = MsgStage::kTxStart;
          break;
        }
        case MsgStage::kTxStart: {
          if (op.prev_out >= 0) {
            msg = op.prev_out;  // out NIC busy with the previous send
            stage = MsgStage::kTxDone;
            break;
          }
          if (op.sender_is_clock) {
            node_ = op.node;
            return true;  // continue on the sender's timeline
          }
          if (const CritTerm* top = TopTerm(op.terms)) {
            // Annotated exogenous send: sender_time == max(terms) + tail.
            const double base = std::min(top->value, t_);
            const uint32_t tail_node = op.tail_node >= 0
                                           ? static_cast<uint32_t>(op.tail_node)
                                           : op.node;
            Emit(base, t_, BlameKind::kCompute, tail_node, msg);
            t_ = base;
            return FollowTerm(*top, op.node);
          }
          Emit(0.0, t_, BlameKind::kExternal, op.node, msg);
          t_ = 0.0;
          return false;
        }
      }
    }
  }

  /// One step of the node-timeline walk.
  bool Step() {
    Timeline& line = timelines_[node_];
    const auto it = line.by_end.find(Bits(t_));
    if (it == line.by_end.end()) {
      // No segment ends exactly here: patch the gap down to the nearest
      // earlier boundary (or to zero) so the path keeps tiling.
      double best = 0.0;
      bool found = false;
      for (auto seg = line.segs.rbegin(); seg != line.segs.rend(); ++seg) {
        if (seg->end < t_) {
          best = seg->end;
          found = true;
          break;
        }
      }
      ++exact_misses_;
      Emit(best, t_, BlameKind::kExternal, node_, -1);
      t_ = best;
      return found && t_ > 0.0;
    }
    const Seg& seg = line.segs[it->second];
    if (seg.blame >= 0) {
      Emit(seg.start, t_, static_cast<BlameKind>(seg.blame), node_, seg.op);
      t_ = seg.start;
      return true;
    }
    if (!seg.has_cause) {
      Emit(seg.start, t_, BlameKind::kExternal, node_, seg.op);
      t_ = seg.start;
      return true;
    }
    const CritTerm& cause = seg.cause;
    if (cause.kind == CritCauseKind::kAbs) {
      // External anchor: the wait itself is the story; stay on this node.
      Emit(seg.start, t_, BlameKind::kExternal, node_, seg.op);
      t_ = seg.start;
      return true;
    }
    const double total = std::min(cause.value + cause.add_seconds, t_);
    if (total < t_) {
      // The binding term under-explains the target (partial annotation);
      // patch with an external slice so the path still telescopes.
      Emit(total, t_, BlameKind::kExternal, node_, seg.op);
      t_ = total;
    }
    if (cause.add_seconds > 0.0) {
      const double base = std::min(cause.value, t_);
      const uint32_t tail_node = cause.add_node >= 0
                                     ? static_cast<uint32_t>(cause.add_node)
                                     : node_;
      Emit(base, t_, BlameKind::kCompute, tail_node, seg.op);
      t_ = base;
    }
    return FollowTerm(cause, node_);
  }

  const CritDag& dag_;
  std::vector<Timeline> timelines_;
  std::map<std::pair<int64_t, int64_t>, int64_t> keyed_;
  std::vector<PathStep> steps_;
  uint32_t node_ = 0;
  double t_ = 0.0;
  int64_t exact_misses_ = 0;
};

}  // namespace

const char* BlameKindName(BlameKind kind) {
  switch (kind) {
    case BlameKind::kCompute:
      return "compute";
    case BlameKind::kStraggler:
      return "straggler";
    case BlameKind::kMem:
      return "mem";
    case BlameKind::kLocal:
      return "local";
    case BlameKind::kNicOut:
      return "nic.out";
    case BlameKind::kLink:
      return "link";
    case BlameKind::kNicIn:
      return "nic.in";
    case BlameKind::kSweep:
      return "sweep";
    case BlameKind::kExternal:
      return "external";
  }
  return "?";
}

double CritPathResult::PathLength() const {
  // Compensated summation: conservation is asserted at 1e-9 and paths can
  // have tens of thousands of segments.
  double sum = 0.0, comp = 0.0;
  for (const PathStep& step : steps) {
    const double y = step.length() - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  return sum;
}

double CritPathResult::BlameSeconds(BlameKind kind) const {
  double total = 0.0;
  for (const auto& [key, seconds] : blame) {
    if (key.first == static_cast<int>(kind)) total += seconds;
  }
  return total;
}

Result<CritPathResult> ExtractCriticalPath(const CritDag& dag) {
  if (dag.num_nodes == 0 || dag.final_clocks.size() != dag.num_nodes) {
    return Status::InvalidArgument("critpath: empty or inconsistent DAG");
  }
  Walker walker(dag);
  return walker.Run();
}

}  // namespace colsgd
