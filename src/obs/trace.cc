#include "obs/trace.h"

#include "common/check.h"

namespace colsgd {

namespace {
// Static storage for phase-span event names (TraceEvent keeps the pointer).
constexpr const char* kPhaseNames[static_cast<int>(Phase::kNumPhases)] = {
    "serialization", "compute",    "wire",     "barrier",
    "recovery",      "checkpoint", "ssp.wait",
};
}  // namespace

const char* PhaseName(Phase phase) {
  const int i = static_cast<int>(phase);
  COLSGD_CHECK_GE(i, 0);
  COLSGD_CHECK_LT(i, static_cast<int>(Phase::kNumPhases));
  return kPhaseNames[i];
}

std::string Tracer::NodeName(uint32_t node) const {
  if (node == 0) return "master";
  if (num_workers_ > 0 && node > static_cast<uint32_t>(num_workers_)) {
    return "server " + std::to_string(node - num_workers_ - 1);
  }
  return "worker " + std::to_string(node - 1);
}

void Tracer::OnSend(uint32_t from, uint32_t to, uint64_t bytes, bool control,
                    double /*sender_time*/, double tx_start, double tx_done,
                    double rx_start, double rx_done) {
  TraceEvent event;
  event.name = "net.send";
  event.ph = 'X';
  event.node = from;
  event.ts = tx_start;
  event.dur = tx_done - tx_start;
  event.peer = to;
  event.bytes = bytes;
  event.control = control;
  event.rx_start = rx_start;
  event.rx_done = rx_done;
  events_.push_back(event);

  metrics_.GetCounter("net.messages")->Increment();
  metrics_.GetCounter("net.bytes")->Add(bytes);
  if (control) metrics_.GetCounter("net.control.messages")->Increment();
  metrics_.GetHistogram("net.send.bytes", DefaultBytesBuckets())
      ->Observe(static_cast<double>(bytes));
}

void Tracer::OnCompute(uint32_t node, double start, double seconds,
                       uint64_t flops) {
  TraceEvent event;
  event.name = "compute";
  event.ph = 'X';
  event.node = node;
  event.ts = start;
  event.dur = seconds;
  event.flops = flops;
  events_.push_back(event);

  metrics_.GetCounter("compute.blocks")->Increment();
  metrics_.GetCounter("compute.flops")->Add(flops);
  metrics_.GetHistogram("compute.seconds")->Observe(seconds);
}

void Tracer::OnMemTouch(uint32_t node, double start, double seconds,
                        uint64_t bytes) {
  TraceEvent event;
  event.name = "mem.touch";
  event.ph = 'X';
  event.node = node;
  event.ts = start;
  event.dur = seconds;
  event.bytes = bytes;
  events_.push_back(event);

  metrics_.GetCounter("mem.touch.bytes")->Add(bytes);
}

void Tracer::OnBarrier(double t) {
  TraceEvent event;
  event.name = "barrier";
  event.ph = 'i';
  event.node = 0;
  event.ts = t;
  events_.push_back(event);

  metrics_.GetCounter("barrier.count")->Increment();
}

void Tracer::OnInstant(const char* name, uint32_t node, double ts,
                       int64_t iteration) {
  TraceEvent event;
  event.name = name;
  event.ph = 'i';
  event.node = node;
  event.ts = ts;
  event.iteration = iteration;
  events_.push_back(event);

  metrics_.GetCounter(name)->Increment();
}

void Tracer::OnSpan(const char* name, uint32_t node, double start,
                    double seconds, uint64_t bytes, int64_t iteration) {
  TraceEvent event;
  event.name = name;
  event.ph = 'X';
  event.node = node;
  event.ts = start;
  event.dur = seconds;
  event.bytes = bytes;
  event.iteration = iteration;
  events_.push_back(event);

  metrics_.GetCounter(name)->Increment();
}

void Tracer::OnIterationBegin(int64_t iteration, double master_clock) {
  COLSGD_CHECK(!in_iteration_) << "OnIterationBegin without OnIterationEnd";
  in_iteration_ = true;
  current_ = IterationPhases{};
  current_.iteration = iteration;
  current_.start = master_clock;
  current_phase_ = Phase::kRecovery;
  phase_start_ = master_clock;
}

void Tracer::ClosePhase(double now) {
  const double dur = now - phase_start_;
  if (dur > 0.0) {
    current_.phases[current_phase_] += dur;
    TraceEvent event;
    event.name = PhaseName(current_phase_);
    event.ph = 'X';
    event.node = 0;  // master timeline
    event.track = TraceTrack::kPhases;
    event.ts = phase_start_;
    event.dur = dur;
    event.iteration = current_.iteration;
    events_.push_back(event);
  }
  phase_start_ = now;
}

void Tracer::OnPhase(Phase phase, double master_clock) {
  if (!in_iteration_) return;
  ClosePhase(master_clock);
  current_phase_ = phase;
}

void Tracer::OnIterationEnd(double master_clock) {
  if (!in_iteration_) return;
  ClosePhase(master_clock);
  current_.end = master_clock;
  in_iteration_ = false;

  TraceEvent event;
  event.name = "iteration";
  event.ph = 'X';
  event.node = 0;
  event.track = TraceTrack::kPhases;
  event.ts = current_.start;
  event.dur = current_.end - current_.start;
  event.iteration = current_.iteration;
  events_.push_back(event);

  metrics_.GetCounter("iterations")->Increment();
  metrics_.GetHistogram("iter.seconds")
      ->Observe(current_.end - current_.start);
  for (int p = 0; p < static_cast<int>(Phase::kNumPhases); ++p) {
    const double seconds = current_.phases.seconds[p];
    if (seconds > 0.0) {
      metrics_
          .GetHistogram(std::string("iter.phase.") +
                        kPhaseNames[p])
          ->Observe(seconds);
    }
  }
  iteration_rows_.push_back(current_);
}

void Tracer::Clear() {
  events_.clear();
  iteration_rows_.clear();
  metrics_.Clear();
  in_iteration_ = false;
}

}  // namespace colsgd
