// Simulated-time tracing for the cluster simulator.
//
// A Tracer records what the simulation *did* — every message on the wire,
// every compute block, every barrier/fault/recovery/checkpoint — on the
// simulated clocks, never on host wall time. It is one subscriber to the
// SimObserver event stream (obs/observer.h): it overrides the events it
// records and reads nothing else, so attaching one changes no simulated
// timestamp and no trained bit (tests/obs_trace_test.cc pins this).
//
// Two views of a run:
//
//  * the raw event list (events()), exportable as Chrome trace_event JSON
//    (obs/export.h) for chrome://tracing / Perfetto;
//  * the per-iteration PHASE breakdown (iterations()): the master-clock
//    delta of each iteration decomposed into serialization / compute / wire
//    / barrier / recovery / checkpoint segments. Engines bracket their
//    iteration body with phase marks (OnPhase); every master-clock advance
//    between two marks is charged to the phase of the earlier mark, so the
//    phases sum to the iteration's master-clock delta *exactly* (DESIGN.md
//    §8 says when each category is charged).
#ifndef COLSGD_OBS_TRACE_H_
#define COLSGD_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/observer.h"

namespace colsgd {

const char* PhaseName(Phase phase);

/// \brief Seconds of master-clock time per phase.
struct PhaseBreakdown {
  double seconds[static_cast<int>(Phase::kNumPhases)] = {};

  double& operator[](Phase p) { return seconds[static_cast<int>(p)]; }
  double operator[](Phase p) const { return seconds[static_cast<int>(p)]; }
  double total() const {
    double t = 0.0;
    for (double s : seconds) t += s;
    return t;
  }
};

/// \brief One iteration's master-clock window and its phase decomposition.
/// Invariant (when the engine brackets every segment): phases.total() ==
/// end - start to the last bit of double rounding.
struct IterationPhases {
  int64_t iteration = 0;
  double start = 0.0;  // master clock when RunIteration began
  double end = 0.0;    // master clock when RunIteration returned
  PhaseBreakdown phases;
};

/// \brief Track (exported Chrome tid) an event renders on.
enum class TraceTrack : uint8_t {
  kEvents = 0,  // raw simulation events of one node
  kPhases = 1,  // iteration + phase spans (master only)
};

/// \brief One recorded event. `name` must have static storage duration
/// (the tracer stores the pointer, not a copy). Payload fields are
/// meaningful per event name; unused ones stay at their defaults.
struct TraceEvent {
  const char* name = "";
  char ph = 'i';  // Chrome trace phase: 'X' span, 'i' instant
  uint32_t node = 0;
  TraceTrack track = TraceTrack::kEvents;
  double ts = 0.0;   // simulated seconds
  double dur = 0.0;  // 'X' events only

  uint32_t peer = 0;        // net.send: receiving node
  uint64_t bytes = 0;       // net.send / mem.touch / checkpoint payload
  uint64_t flops = 0;       // compute
  bool control = false;     // net.send took the control-plane path
  double rx_start = 0.0;    // net.send: receiver inbound-NIC busy window
  double rx_done = 0.0;     //   (rx_start == rx_done for control frames)
  int64_t iteration = -1;   // engine-level events
};

/// \brief Records simulated-time events and aggregates metrics. Attached
/// with ClusterRuntime::Observe (or Engine/ServeFleet::set_tracer); it is not
/// owned and must outlive the runtime it observes.
class Tracer : public SimObserver {
 public:
  Tracer() = default;

  /// \brief Binds node-id semantics for exports: node 0 is the master,
  /// nodes 1..num_workers are workers, anything above is a co-located
  /// server endpoint.
  void OnAttach(const SimShape& shape) override {
    num_nodes_ = static_cast<int>(shape.num_nodes);
    num_workers_ = shape.num_workers;
  }
  int num_nodes() const { return num_nodes_; }
  int num_workers() const { return num_workers_; }
  /// \brief Display name of a node ("master", "worker 3", "server 1").
  std::string NodeName(uint32_t node) const;

  // ---- Raw events: one net.send, compute, mem.touch or barrier each ------

  void OnSend(uint32_t from, uint32_t to, uint64_t bytes, bool control,
              double sender_time, double tx_start, double tx_done,
              double rx_start, double rx_done) override;
  void OnCompute(uint32_t node, double start, double seconds,
                 uint64_t flops) override;
  void OnComputeSpan(uint32_t node, double start, double seconds,
                     uint64_t flops) override {
    OnCompute(node, start, seconds, flops);
  }
  void OnMemTouch(uint32_t node, double start, double seconds,
                  uint64_t bytes) override;
  void OnBarrier(double t) override;

  // ---- Engine-level events: each also bumps the counter of its name ------

  void OnInstant(const char* name, uint32_t node, double ts,
                 int64_t iteration) override;
  void OnSpan(const char* name, uint32_t node, double start, double seconds,
              uint64_t bytes, int64_t iteration) override;

  // ---- Master-timeline phase accounting (engines) ------------------------

  /// \brief Opens iteration `iteration` at master clock `master_clock`; time
  /// until the first phase mark is charged to kRecovery (RunIteration fires
  /// faults before the engine body runs).
  void OnIterationBegin(int64_t iteration, double master_clock) override;
  /// \brief Charges master-clock time since the previous mark to the
  /// previous mark's phase, then opens `phase`. No-op outside an iteration.
  void OnPhase(Phase phase, double master_clock) override;
  /// \brief Closes the open phase and the iteration; emits the iteration +
  /// phase spans and feeds the phase histograms.
  void OnIterationEnd(double master_clock) override;

  // ---- Results -----------------------------------------------------------

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<IterationPhases>& iterations() const {
    return iteration_rows_;
  }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  void Clear();

 private:
  void ClosePhase(double now);

  std::vector<TraceEvent> events_;
  std::vector<IterationPhases> iteration_rows_;
  MetricsRegistry metrics_;
  int num_nodes_ = 0;
  int num_workers_ = 0;

  bool in_iteration_ = false;
  IterationPhases current_;
  Phase current_phase_ = Phase::kRecovery;
  double phase_start_ = 0.0;
};

}  // namespace colsgd

#endif  // COLSGD_OBS_TRACE_H_
