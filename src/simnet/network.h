// Deterministic network simulation.
//
// The paper's headline results are communication-bound, so the fidelity that
// matters is byte-accurate accounting of what crosses each NIC. The model:
//
//  * every node has one full-duplex NIC with `bandwidth` bytes/s each way;
//  * a send occupies the sender's outbound NIC for
//    `per_message_overhead + bytes/bandwidth` seconds (the overhead term
//    models serialization + protocol cost per message, which is what makes
//    many-small-messages dispatch slow, cf. Naive-ColumnSGD in Fig. 7);
//  * propagation adds `latency` seconds;
//  * the receiver's inbound NIC then serializes arrivals at `bandwidth`
//    (this is the master bottleneck in RowSGD: K workers push m-dimensional
//    gradients in parallel but the master drains them one after another).
//
// All times are simulated seconds (double). The simulation is single-threaded
// and bit-deterministic.
#ifndef COLSGD_SIMNET_NETWORK_H_
#define COLSGD_SIMNET_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "obs/observer.h"

namespace colsgd {

using NodeId = uint32_t;
using SimTime = double;  // seconds

/// \brief Link parameters of a cluster.
struct NetworkConfig {
  double latency = 100e-6;             // one-way propagation, seconds
  double bandwidth = 125e6;            // bytes/second each direction
  double per_message_overhead = 5e-6;  // per-message fixed sender cost

  /// \brief 1 Gbps links, like the paper's Cluster 1.
  static NetworkConfig Gbps1() {
    return NetworkConfig{100e-6, 125e6, 5e-6};
  }
  /// \brief 10 Gbps links, like the paper's Cluster 2.
  static NetworkConfig Gbps10() {
    return NetworkConfig{50e-6, 1250e6, 2e-6};
  }
};

/// \brief Per-node traffic counters.
struct TrafficStats {
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};

/// \brief Messages up to this size are control-plane traffic (task
/// dispatches, pull requests): they are charged sender overhead and latency
/// but skip the receiver's bulk-data queue, as small frames interleave with
/// in-flight bulk streams on a real network.
constexpr uint64_t kControlMessageBytes = 256;

/// \brief Byte- and time-accurate point-to-point network between N nodes.
class SimNetwork {
 public:
  SimNetwork(int num_nodes, const NetworkConfig& config)
      : config_(config),
        out_nic_free_(num_nodes, 0.0),
        in_nic_free_(num_nodes, 0.0),
        stats_(num_nodes) {}

  int num_nodes() const { return static_cast<int>(out_nic_free_.size()); }
  const NetworkConfig& config() const { return config_; }

  /// \brief Adds a (non-owning) observer that sees every message. Observing
  /// is passive: it never changes a simulated timestamp. ClusterRuntime's
  /// Observe also binds the observer to the cluster's shape.
  void Observe(SimObserver* observer) { observers_.push_back(observer); }
  const std::vector<SimObserver*>& observers() const { return observers_; }

  /// \brief Simulates sending `bytes` from `from` (whose local clock reads
  /// `sender_time`) to `to`. Returns the simulated time at which the message
  /// is fully available at the receiver.
  SimTime Send(NodeId from, NodeId to, uint64_t bytes, SimTime sender_time) {
    COLSGD_CHECK_LT(from, out_nic_free_.size());
    COLSGD_CHECK_LT(to, in_nic_free_.size());
    COLSGD_CHECK_NE(from, to);
    const double wire_time = static_cast<double>(bytes) / config_.bandwidth;
    // Outbound NIC occupancy at the sender.
    SimTime start = std::max(out_nic_free_[from], sender_time);
    SimTime tx_done = start + config_.per_message_overhead + wire_time;
    out_nic_free_[from] = tx_done;
    // Propagation, then inbound NIC occupancy at the receiver. Control-sized
    // messages slip past queued bulk data.
    SimTime arrival = tx_done + config_.latency;
    SimTime rx_start = arrival;
    SimTime rx_done = arrival;
    if (bytes > kControlMessageBytes) {
      rx_start = std::max(in_nic_free_[to], arrival - wire_time);
      rx_done = std::max(arrival, rx_start + wire_time);
      in_nic_free_[to] = rx_done;
    }

    stats_[from].messages_sent++;
    stats_[from].bytes_sent += bytes;
    stats_[to].messages_received++;
    stats_[to].bytes_received += bytes;
    for (SimObserver* observer : observers_) {
      observer->OnSend(from, to, bytes, bytes <= kControlMessageBytes,
                       sender_time, start, tx_done, rx_start, rx_done);
    }
    return rx_done;
  }

  /// \brief Like Send, but the receiver-side bulk queue is skipped no matter
  /// the size. For fan-out endpoints that stand in for many independent
  /// clients (the serving ingress): modelling millions of user downlinks as
  /// one shared NIC would serialize unrelated responses, so only sender
  /// occupancy, propagation, and the byte counters are charged.
  SimTime SendUnqueued(NodeId from, NodeId to, uint64_t bytes,
                       SimTime sender_time) {
    COLSGD_CHECK_LT(from, out_nic_free_.size());
    COLSGD_CHECK_LT(to, in_nic_free_.size());
    COLSGD_CHECK_NE(from, to);
    const double wire_time = static_cast<double>(bytes) / config_.bandwidth;
    SimTime start = std::max(out_nic_free_[from], sender_time);
    SimTime tx_done = start + config_.per_message_overhead + wire_time;
    out_nic_free_[from] = tx_done;
    SimTime arrival = tx_done + config_.latency;

    stats_[from].messages_sent++;
    stats_[from].bytes_sent += bytes;
    stats_[to].messages_received++;
    stats_[to].bytes_received += bytes;
    for (SimObserver* observer : observers_) {
      observer->OnSend(from, to, bytes, /*control=*/true, sender_time, start,
                       tx_done, arrival, arrival);
    }
    return arrival;
  }

  const TrafficStats& stats(NodeId node) const {
    COLSGD_CHECK_LT(node, stats_.size());
    return stats_[node];
  }

  /// \brief Sum of traffic over all nodes.
  TrafficStats TotalStats() const {
    TrafficStats total;
    for (const auto& s : stats_) {
      total.messages_sent += s.messages_sent;
      total.messages_received += s.messages_received;
      total.bytes_sent += s.bytes_sent;
      total.bytes_received += s.bytes_received;
    }
    return total;
  }

  void ResetStats() {
    for (auto& s : stats_) s = TrafficStats{};
  }

 private:
  NetworkConfig config_;
  std::vector<SimTime> out_nic_free_;
  std::vector<SimTime> in_nic_free_;
  std::vector<TrafficStats> stats_;
  std::vector<SimObserver*> observers_;
};

}  // namespace colsgd

#endif  // COLSGD_SIMNET_NETWORK_H_
