// Clock-gated delivery bookkeeping for bounded-staleness (SSP) execution.
//
// Under BSP every message delivery synchronizes the receiver's scalar clock
// (ClusterRuntime::Send jumps it forward to the arrival time) — the receiver
// is modeled as blocking on the message. SSP breaks that assumption: an
// update broadcast must land in a consumer's mailbox without stalling it,
// and the consumer only waits when the staleness bound forces it to. This
// header holds the two pieces of state that make that deterministic:
//
//  * SspClockTable — per-entity logical clocks with the slack gate
//    (min_clock >= my_clock - s) evaluated over a fixed entity set, so every
//    engine asks the same question the same way;
//  * SspArrivalLog — per-entity arrival times of pipeline entries, indexed
//    by logical clock, so "which updates are visible at simulated time T"
//    is a pure function of recorded arrivals (no event queue needed — the
//    simulator stays single-threaded and bit-deterministic).
//
// Engines own the semantics (what an "update" is, what applying it costs);
// this header only answers ordering questions.
#ifndef COLSGD_SIMNET_SSP_GATE_H_
#define COLSGD_SIMNET_SSP_GATE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "simnet/network.h"

namespace colsgd {

/// \brief Per-entity logical clocks with the SSP slack gate. Entities are
/// dense indices (ColumnSGD: feature groups; PS: workers).
class SspClockTable {
 public:
  SspClockTable() = default;
  explicit SspClockTable(size_t entities) : clocks_(entities, 0) {}

  void Reset(size_t entities) { clocks_.assign(entities, 0); }
  size_t size() const { return clocks_.size(); }

  int64_t clock(size_t entity) const { return clocks_[entity]; }
  void SetClock(size_t entity, int64_t clock) { clocks_[entity] = clock; }

  /// \brief Slowest logical clock across all entities.
  int64_t MinClock() const {
    int64_t min = std::numeric_limits<int64_t>::max();
    for (int64_t c : clocks_) min = c < min ? c : min;
    return clocks_.empty() ? 0 : min;
  }

  /// \brief The SSP progress gate: may `entity` start tick `clock` under
  /// `slack`? True iff every entity has finished tick clock - 1 - slack,
  /// i.e. min_clock >= clock - slack.
  bool MayStart(size_t entity, int64_t clock, int slack) const {
    (void)entity;
    return MinClock() >= clock - static_cast<int64_t>(slack);
  }

 private:
  std::vector<int64_t> clocks_;
};

/// \brief Arrival times of pipeline entries per consumer, indexed by the
/// entry's logical clock. Arrivals from one producer are monotone in clock
/// (same outbound NIC), so "visible at time T" is a prefix.
class SspArrivalLog {
 public:
  SspArrivalLog() = default;
  explicit SspArrivalLog(size_t consumers) : arrivals_(consumers) {}

  void Reset(size_t consumers) {
    arrivals_.assign(consumers, std::vector<SimTime>());
  }
  size_t consumers() const { return arrivals_.size(); }

  /// \brief Records the arrival of the entry for `clock` at `consumer`.
  /// Entries must be recorded in clock order per consumer.
  void Record(size_t consumer, int64_t clock, SimTime arrival) {
    std::vector<SimTime>& log = arrivals_[consumer];
    COLSGD_CHECK_EQ(static_cast<int64_t>(log.size()), clock)
        << "SSP arrivals must be recorded in clock order";
    log.push_back(arrival);
  }

  /// \brief Arrival time of the entry for `clock` at `consumer`; 0 for
  /// negative clocks (before the run, trivially available).
  SimTime ArrivalOf(size_t consumer, int64_t clock) const {
    if (clock < 0) return 0.0;
    return arrivals_[consumer][static_cast<size_t>(clock)];
  }

 private:
  std::vector<std::vector<SimTime>> arrivals_;
};

}  // namespace colsgd

#endif  // COLSGD_SIMNET_SSP_GATE_H_
