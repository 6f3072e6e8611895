// Causal critical-path recorder (DESIGN.md §16).
//
// A CritPathRecorder is one subscriber to the SimObserver event stream
// (obs/observer.h), like the Tracer. It passively mirrors every clock
// mutation into a flat *op log*: compute/mem/local advances, wire transfers
// with their exact NIC queueing state, barriers, and clock sets/syncs with a
// *cause* (which message's delivery, which node's clock, which SSP gate, or
// an external anchor explains the new timestamp). The simulator is
// single-threaded, so log order == program order == causal order; that makes
// the log both a DAG (ops + cause edges) and an exactly replayable schedule.
//
// Passivity: the recorder only reads simulation state. Attaching it changes
// no simulated timestamp and no trained bit (tests/critpath_test.cc pins
// this bitwise, like the tracer's passivity test).
#ifndef COLSGD_OBS_CRITPATH_CRITPATH_H_
#define COLSGD_OBS_CRITPATH_CRITPATH_H_

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "obs/observer.h"

namespace colsgd {

/// \brief Op kinds in the causal log. The first four are clock *advances*
/// (duration charged on one node); the rest are events. The values are
/// written to colsgd.critdag/v1 files; 7 is unused.
enum class CritOpKind : uint8_t {
  kCompute = 0,    // ChargeCompute (scaled by what-if compute_scale)
  kMem = 1,        // ChargeMemTouch (scaled by mem_scale)
  kLocal = 2,      // AdvanceClock: sched overhead, timeouts, disk
  kStraggler = 3,  // annotated straggler/jitter tail of a compute advance
  kMsg = 4,        // one SimNetwork::Send with full timing + queueing state
  kSet = 5,        // set_clock / SyncClockTo with cause terms (max semantics)
  kBarrier = 6,    // all clocks -> max
  kStamp = 8,      // named clock capture (e.g. PS ssp_applied_time_ mirror)
};

/// \brief Cause-term kinds for kSet ops and annotated sends.
enum class CritCauseKind : uint8_t {
  kMsg = 0,    // delivery of ops[ref] (its avail time)
  kClock = 1,  // another node's clock at this log position (ref = node)
  kStamp = 2,  // stamp ref (ref = stamp id, ref2 = stamped node)
  kGate = 3,   // SSP gate: keyed broadcast avail (ref = group, ref2 = tick)
  kAbs = 4,    // absolute/external anchor (serving arrivals)
};

/// \brief One cause term: the set/send time is max over terms of
/// (resolved base + add_seconds), where add_seconds is a compute tail
/// charged on add_node (scaled by its what-if compute_scale).
struct CritTerm {
  CritCauseKind kind = CritCauseKind::kAbs;
  int64_t ref = -1;
  int64_t ref2 = -1;
  double value = 0.0;  // resolved base at record time
  double add_seconds = 0.0;
  int32_t add_node = -1;
};

/// \brief One op. Fields are kind-dependent (see CritOpKind); unused fields
/// keep their defaults so serialization can stay compact per kind.
struct CritOp {
  CritOpKind kind = CritOpKind::kLocal;
  uint32_t node = 0;  // advance/set/stamp node; msg: sender. barrier: top.
  // Advances:
  double seconds = 0.0;
  uint64_t flops = 0;
  // kSet / kBarrier / kStamp:
  double t = 0.0;     // target time (stamp: captured clock)
  double prev = 0.0;  // node clock before the set (wait = [prev, t])
  std::vector<CritTerm> terms;
  // kMsg:
  uint32_t to = 0;
  uint64_t bytes = 0;
  bool control = false;
  bool sender_is_clock = false;  // sender_time == sender's tracked clock
  double sender_time = 0.0, tx_start = 0.0, tx_done = 0.0;
  double rx_start = 0.0, rx_done = 0.0;
  double avail = 0.0;  // delivery-usable time (rx_done + receiver sweep)
  int64_t prev_out = -1;  // out-NIC queue predecessor (if tx was queued)
  int64_t prev_in = -1;   // in-NIC queue predecessor (if rx was queued)
  double tail_seconds = 0.0;  // annotated send: sender = max(terms) + tail
  int32_t tail_node = -1;
};

/// \brief SSP broadcast key: the engine keys message avail times by
/// (group, tick) so the retimer can resolve slack-shifted gates.
struct CritKeyedAvail {
  int64_t group = 0;
  int64_t tick = 0;
  int64_t msg = -1;
};

/// \brief A self-contained snapshot of one recorded run: the op log plus the
/// cluster/network shape needed to replay it. Serializable (dag_json.h).
struct CritDag {
  uint32_t num_nodes = 0;
  int32_t num_workers = 0;
  double net_latency = 0.0;
  double net_bandwidth = 0.0;
  double net_overhead = 0.0;
  uint64_t control_bytes = 256;
  std::vector<CritOp> ops;
  std::vector<CritKeyedAvail> keyed;
  std::vector<double> final_clocks;

  double Makespan() const {
    double m = 0.0;
    for (double c : final_clocks) m = m > c ? m : c;
    return m;
  }
};

/// \brief Passive causal recorder. Attached with ClusterRuntime::Observe (or
/// Engine/ServeFleet::set_critpath), it records every clock event and every
/// message; engines add optional annotations (Annotate*) that make
/// exogenous timestamps replayable.
class CritPathRecorder : public SimObserver {
 public:
  /// \brief Binds the recorder to a cluster's current clocks (normally all
  /// 0) and network shape, and clears the log.
  void OnAttach(const SimShape& shape) override;

  // --- clock events (read-only) -------------------------------------------
  void OnCompute(uint32_t node, double, double seconds,
                 uint64_t flops) override {
    OnAdvance(node, seconds, CritOpKind::kCompute, flops);
  }
  void OnMemTouch(uint32_t node, double, double seconds,
                  uint64_t bytes) override {
    OnAdvance(node, seconds, CritOpKind::kMem, bytes);
  }
  void OnLocal(uint32_t node, double seconds) override {
    OnAdvance(node, seconds, CritOpKind::kLocal, 0);
  }
  void OnSetClock(uint32_t node, double t) override;
  void OnSyncClock(uint32_t node, double t) override;
  void OnBarrier(double t) override;
  void OnSend(uint32_t from, uint32_t to, uint64_t bytes, bool control,
              double sender_time, double tx_start, double tx_done,
              double rx_start, double rx_done) override;

  // --- engine annotations (optional; improve blame + what-if fidelity) ----
  /// \brief The next set_clock on `node` is a self-clocked compute advance:
  /// target == ((clock + compute_seconds) + straggler_seconds) exactly
  /// (left-associated, matching the engines' arithmetic). Falls back to a
  /// classified kSet if the target does not match bit-for-bit.
  void AnnotateAdvance(uint32_t node, double compute_seconds, uint64_t flops,
                       double straggler_seconds);
  /// \brief The next set_clock on `node` is an SSP gate
  /// max(clock, gate_value) where gate_value is the keyed (group, tick)
  /// broadcast avail (tick < 0: no constraint).
  void AnnotateGate(uint32_t node, int64_t group, int64_t tick,
                    double gate_value);
  /// \brief The next set_clock on `node` is max(clock, terms...).
  void AnnotateSet(uint32_t node, std::vector<CritTerm> terms);
  /// \brief The next SimNetwork::Send has an exogenous sender_time equal to
  /// max(terms) + tail_seconds, with the tail charged on tail_node.
  void AnnotateNextSend(std::vector<CritTerm> terms, double tail_seconds,
                        int32_t tail_node);
  /// \brief Captures `node`'s clock as a stamp; returns the stamp id.
  int64_t StampClock(uint32_t node);
  /// \brief Overrides the last message's delivery-usable time (e.g. arrival
  /// + deserialization sweep for mailbox-delivered SSP broadcasts).
  void SetLastMsgAvail(double avail);
  /// \brief Keys a message's avail by (group, tick) for gate resolution.
  void KeyAvail(int64_t group, int64_t tick, int64_t msg);

  // --- term builders (resolve values from current recorder state) ---------
  int64_t last_msg() const { return last_msg_; }
  CritTerm MsgTerm(int64_t msg, double add_seconds = 0.0,
                   int32_t add_node = -1) const;
  CritTerm ClockTerm(uint32_t node) const;
  CritTerm StampTerm(int64_t stamp, double add_seconds = 0.0,
                     int32_t add_node = -1) const;

  /// \brief Copies the log into a self-contained, serializable snapshot.
  CritDag Snapshot() const;

 private:
  void OnAdvance(uint32_t node, double seconds, CritOpKind kind,
                 uint64_t flops);
  static uint64_t Bits(double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  }
  /// Classifies an unannotated set/sync target: message delivery on this
  /// node, another node's clock, or an external absolute anchor.
  CritTerm Classify(uint32_t node, double t) const;
  void EmitSet(uint32_t node, double t);

  std::vector<double> now_;
  int num_workers_ = 0;
  double latency_ = 0.0, bandwidth_ = 0.0, overhead_ = 0.0;
  uint64_t control_bytes_ = 256;

  std::vector<CritOp> ops_;
  std::vector<CritKeyedAvail> keyed_;
  std::vector<size_t> stamps_;  // stamp id -> op index
  // Per destination node: bit pattern of a delivery time -> message index.
  std::vector<std::unordered_map<uint64_t, int64_t>> avail_of_;
  std::vector<int64_t> last_out_;  // last msg occupying node's out NIC
  std::vector<int64_t> last_in_;   // last bulk msg occupying node's in NIC
  // Op index at which each node's clock last changed. Classify prefers the
  // *earliest* holder of a clock value so cause chains always point backward
  // in the log — two nodes synced to the same value can otherwise cite each
  // other and trap the critical-path walk in a zero-progress cycle.
  std::vector<int64_t> last_change_;
  int64_t last_msg_ = -1;

  // Pending annotations, consumed by the next matching hook.
  struct PendingAdvance {
    bool active = false;
    uint32_t node = 0;
    double compute_seconds = 0.0;
    uint64_t flops = 0;
    double straggler_seconds = 0.0;
  } pending_advance_;
  struct PendingGate {
    bool active = false;
    uint32_t node = 0;
    int64_t group = 0;
    int64_t tick = 0;
    double value = 0.0;
  } pending_gate_;
  struct PendingSet {
    bool active = false;
    uint32_t node = 0;
    std::vector<CritTerm> terms;
  } pending_set_;
  struct PendingSend {
    bool active = false;
    std::vector<CritTerm> terms;
    double tail_seconds = 0.0;
    int32_t tail_node = -1;
  } pending_send_;
};

}  // namespace colsgd

#endif  // COLSGD_OBS_CRITPATH_CRITPATH_H_
