// The passive event stream of a simulated run (DESIGN.md §8). SimNetwork,
// ClusterRuntime, the engines and the serving plane emit each event once, to
// every attached SimObserver; the Tracer (obs/trace.h) and the critical-path
// recorder (obs/critpath/critpath.h) are two of them. Observers only read
// what they are handed, so attaching any number of them changes no simulated
// timestamp and no trained bit. Attach once, before Setup, with
// ClusterRuntime::Observe; there is no detach.
//
// Layering: simnet/network.h and cluster/cluster.h include this header, so it
// uses plain uint32_t/double instead of the NodeId/SimTime aliases.
#ifndef COLSGD_OBS_OBSERVER_H_
#define COLSGD_OBS_OBSERVER_H_

#include <cstddef>
#include <cstdint>

namespace colsgd {

/// \brief Categories of master-clock time within one iteration.
enum class Phase : int {
  kSerialization = 0,  // driver dispatch + task/message serialization
  kCompute,            // master-side compute (reduceStat, model update)
  kWire,               // master waits on network arrivals (gather/pushes)
  kBarrier,            // BSP barrier waits
  kRecovery,           // fault detection + engine repair
  kCheckpoint,         // checkpoint gather + stable-storage write
  kSspWait,            // bounded-staleness stall: slack gate + drain waits
  kNumPhases,
};

/// \brief The cluster an observer is attached to. `clocks` (the current
/// clock of each node) is valid only during OnAttach.
struct SimShape {
  const double* clocks = nullptr;
  size_t num_nodes = 0;
  int num_workers = 0;
  double latency = 0.0, bandwidth = 0.0, per_message_overhead = 0.0;
  uint64_t control_bytes = 0;  // largest message on the control-plane path
};

/// \brief One subscriber. Every event is a no-op by default; an observer
/// overrides the ones it records.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// \brief Called once, by ClusterRuntime::Observe.
  virtual void OnAttach(const SimShape& /*shape*/) {}

  // Clock events, each fired before the clock write it describes: compute
  // and a dense-memory sweep charged from `start`; a local advance (overhead,
  // a timeout, a disk access); a set to `t`; a sync to max(clock, `t`); a
  // BSP barrier that moves every clock to `t`.
  virtual void OnCompute(uint32_t /*node*/, double /*start*/,
                         double /*seconds*/, uint64_t /*flops*/) {}
  virtual void OnMemTouch(uint32_t /*node*/, double /*start*/,
                          double /*seconds*/, uint64_t /*bytes*/) {}
  virtual void OnLocal(uint32_t /*node*/, double /*seconds*/) {}
  virtual void OnSetClock(uint32_t /*node*/, double /*t*/) {}
  virtual void OnSyncClock(uint32_t /*node*/, double /*t*/) {}
  virtual void OnBarrier(double /*t*/) {}
  /// \brief One message sent at `sender_time`: `tx_start`..`tx_done` is the
  /// sender's outbound-NIC occupancy after queueing, `rx_start`..`rx_done`
  /// the receiver's inbound one (empty for control frames).
  virtual void OnSend(uint32_t /*from*/, uint32_t /*to*/, uint64_t /*bytes*/,
                      bool /*control*/, double /*sender_time*/,
                      double /*tx_start*/, double /*tx_done*/,
                      double /*rx_start*/, double /*rx_done*/) {}

  // Engine and serving events. OnComputeSpan is compute that moves no clock
  // by itself: ColumnSGD's backup-race winner and the PS SSP server lookup.
  // Names of instants and spans have static storage duration.
  virtual void OnComputeSpan(uint32_t /*node*/, double /*start*/,
                             double /*seconds*/, uint64_t /*flops*/) {}
  virtual void OnInstant(const char* /*name*/, uint32_t /*node*/,
                         double /*ts*/, int64_t /*iteration*/) {}
  virtual void OnSpan(const char* /*name*/, uint32_t /*node*/,
                      double /*start*/, double /*seconds*/,
                      uint64_t /*bytes*/, int64_t /*iteration*/) {}
  virtual void OnIterationBegin(int64_t /*iteration*/,
                                double /*master_clock*/) {}
  virtual void OnPhase(Phase /*phase*/, double /*master_clock*/) {}
  virtual void OnIterationEnd(double /*master_clock*/) {}
};

}  // namespace colsgd

#endif  // COLSGD_OBS_OBSERVER_H_
