// Simulated BSP cluster runtime: one master plus K workers, each with a
// simulated clock, connected by a SimNetwork. Engines (ColumnSGD, RowSGD,
// PS, MLlib*) are written against this runtime.
#ifndef COLSGD_CLUSTER_CLUSTER_H_
#define COLSGD_CLUSTER_CLUSTER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "simnet/compute_model.h"
#include "simnet/network.h"

namespace colsgd {

/// \brief Static description of a simulated cluster.
struct ClusterSpec {
  int num_workers = 8;
  NetworkConfig net = NetworkConfig::Gbps1();
  ComputeModel compute = ComputeModel::Cluster1Worker();
  /// Effective memory bandwidth for dense buffer sweeps (bytes/s). Charged
  /// when an engine touches O(m) state per iteration (e.g. MXNet's dense
  /// gradient buffers).
  double mem_bandwidth = 5e9;
  /// Per-node memory budget in bytes; engines that materialize more than
  /// this fail with OutOfMemory (reproduces Table V's MXNet OOM).
  uint64_t node_memory_budget = 4ull << 30;
  /// Elastic membership (DESIGN.md §14): ranks beyond num_workers up to
  /// max_workers exist as pre-provisioned spares — they get clocks and NICs
  /// so a mid-run grow can activate them, but engines address only active
  /// workers. 0 (the default) means a fixed cluster of num_workers and
  /// changes nothing.
  int max_workers = 0;

  /// \brief The paper's Cluster 1: 8 machines, 2 CPUs, 32 GB, 1 Gbps.
  static ClusterSpec Cluster1() {
    ClusterSpec spec;
    spec.num_workers = 8;
    spec.net = NetworkConfig::Gbps1();
    spec.compute = ComputeModel::Cluster1Worker();
    spec.node_memory_budget = 32ull << 30;
    return spec;
  }

  /// \brief The paper's Cluster 2: 40 machines, 8 CPUs, 50 GB, 10 Gbps.
  static ClusterSpec Cluster2(int num_workers = 40) {
    ClusterSpec spec;
    spec.num_workers = num_workers;
    spec.net = NetworkConfig::Gbps10();
    spec.compute = ComputeModel::Cluster2Worker();
    spec.node_memory_budget = 50ull << 30;
    return spec;
  }
};

/// \brief Live state of a simulated cluster: clocks and network.
///
/// Node ids: node 0 is the master; worker k (0-based) is node k+1. Parameter
/// servers, when an engine uses them, are co-located with workers.
class ClusterRuntime {
 public:
  /// \param extra_nodes additional simulated endpoints beyond master +
  /// workers, e.g. co-located parameter-server threads that compute and
  /// communicate concurrently with the worker thread on the same machine
  /// (they get their own clock and NIC; see DESIGN.md calibration notes).
  explicit ClusterRuntime(const ClusterSpec& spec, int extra_nodes = 0)
      : spec_(spec),
        total_workers_(std::max(spec.num_workers, spec.max_workers)),
        net_(total_workers_ + 1 + extra_nodes, spec.net),
        clocks_(total_workers_ + 1 + extra_nodes, 0.0) {}

  const ClusterSpec& spec() const { return spec_; }
  SimNetwork& net() { return net_; }
  int num_workers() const { return spec_.num_workers; }

  /// \brief Attaches a (non-owning) observer (obs/observer.h) to the runtime
  /// and its network, once, before Setup; it must outlive the runtime.
  void Observe(SimObserver* observer) {
    COLSGD_CHECK(observer != nullptr);
    observer->OnAttach(SimShape{clocks_.data(), clocks_.size(),
                                spec_.num_workers, spec_.net.latency,
                                spec_.net.bandwidth,
                                spec_.net.per_message_overhead,
                                kControlMessageBytes});
    net_.Observe(observer);
  }
  const std::vector<SimObserver*>& observers() const {
    return net_.observers();
  }

  /// \brief Emits a named instant to every observer.
  void Instant(const char* name, NodeId node, SimTime ts,
               int64_t iteration = -1) {
    for (SimObserver* o : observers()) o->OnInstant(name, node, ts, iteration);
  }
  /// \brief Emits a named span to every observer.
  void Span(const char* name, NodeId node, SimTime start, double seconds,
            uint64_t bytes = 0, int64_t iteration = -1) {
    for (SimObserver* o : observers()) {
      o->OnSpan(name, node, start, seconds, bytes, iteration);
    }
  }

  NodeId master() const { return 0; }
  NodeId worker_node(int k) const {
    COLSGD_CHECK_GE(k, 0);
    COLSGD_CHECK_LT(k, total_workers_);
    return static_cast<NodeId>(k + 1);
  }
  /// \brief Worker slots with simulated endpoints, active or spare
  /// (== num_workers unless the spec provisions elastic spares).
  int total_workers() const { return total_workers_; }
  /// \brief The i-th extra endpoint (requires extra_nodes > i at
  /// construction). Extra endpoints sit after ALL worker slots, spares
  /// included, so node ids never shift when membership changes.
  NodeId extra_node(int i) const {
    COLSGD_CHECK_GE(i, 0);
    COLSGD_CHECK_LT(static_cast<size_t>(total_workers_ + 1 + i),
                    clocks_.size());
    return static_cast<NodeId>(total_workers_ + 1 + i);
  }

  SimTime clock(NodeId node) const { return clocks_[node]; }
  void set_clock(NodeId node, SimTime t) {
    for (SimObserver* o : observers()) o->OnSetClock(node, t);
    clocks_[node] = t;
  }
  void AdvanceClock(NodeId node, double seconds) {
    for (SimObserver* o : observers()) o->OnLocal(node, seconds);
    clocks_[node] += seconds;
  }
  /// \brief Moves a node's clock forward to `t` if it is behind (message
  /// arrival / barrier semantics).
  void SyncClockTo(NodeId node, SimTime t) {
    for (SimObserver* o : observers()) o->OnSyncClock(node, t);
    clocks_[node] = std::max(clocks_[node], t);
  }

  /// \brief Charges `flops` of compute on a node's clock.
  void ChargeCompute(NodeId node, uint64_t flops) {
    const double seconds = spec_.compute.SecondsFor(flops);
    for (SimObserver* o : observers()) {
      o->OnCompute(node, clocks_[node], seconds, flops);
    }
    clocks_[node] += seconds;
  }

  /// \brief Charges an O(bytes) dense-memory sweep on a node's clock.
  void ChargeMemTouch(NodeId node, uint64_t bytes) {
    const double seconds = static_cast<double>(bytes) / spec_.mem_bandwidth;
    for (SimObserver* o : observers()) {
      o->OnMemTouch(node, clocks_[node], seconds, bytes);
    }
    clocks_[node] += seconds;
  }

  /// \brief Simulated time at which every node has finished.
  SimTime MaxClock() const {
    return *std::max_element(clocks_.begin(), clocks_.end());
  }

  /// \brief BSP barrier: all clocks jump to the global maximum.
  void Barrier() {
    const SimTime t = MaxClock();
    for (SimObserver* o : observers()) o->OnBarrier(t);
    for (auto& c : clocks_) c = t;
  }

  // ---- Communication patterns -------------------------------------------

  /// \brief Point-to-point send; syncs the receiver clock to message arrival
  /// and returns the arrival time.
  SimTime Send(NodeId from, NodeId to, uint64_t bytes) {
    if (from == to) return clocks_[from];
    SimTime arrival = net_.Send(from, to, bytes, clocks_[from]);
    SyncClockTo(to, arrival);
    return arrival;
  }

  /// \brief Flat broadcast of `bytes` from `from` to all workers. The K
  /// copies leave the sender's NIC back to back — this is what makes a full
  /// model broadcast expensive in RowSGD.
  void BroadcastToWorkers(NodeId from, uint64_t bytes) {
    for (int k = 0; k < num_workers(); ++k) {
      NodeId to = worker_node(k);
      if (to != from) Send(from, to, bytes);
    }
  }

 private:
  ClusterSpec spec_;
  int total_workers_;
  SimNetwork net_;
  std::vector<SimTime> clocks_;
};

}  // namespace colsgd

#endif  // COLSGD_CLUSTER_CLUSTER_H_
