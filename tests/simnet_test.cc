// Tests for the network/compute simulation and the cluster runtime:
// byte-accurate transfer times, NIC serialization, and barriers. (Fault
// injection lives in cluster/fault and is tested in fault_test.cc.)
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "obs/trace.h"
#include "simnet/compute_model.h"
#include "simnet/frame.h"
#include "simnet/network.h"

namespace colsgd {
namespace {

NetworkConfig TestNet() {
  NetworkConfig config;
  config.latency = 1e-3;
  config.bandwidth = 1e6;  // 1 MB/s: easy arithmetic
  config.per_message_overhead = 1e-4;
  return config;
}

TEST(SimNetworkTest, SingleSendTiming) {
  SimNetwork net(2, TestNet());
  // 1000 bytes at 1 MB/s = 1 ms wire time; + 0.1 ms overhead + 1 ms latency.
  const SimTime t = net.Send(0, 1, 1000, 0.0);
  EXPECT_NEAR(t, 1e-4 + 1e-3 + 1e-3, 1e-12);
}

TEST(SimNetworkTest, SenderNicSerializesBackToBackSends) {
  SimNetwork net(3, TestNet());
  const SimTime t1 = net.Send(0, 1, 1000, 0.0);
  const SimTime t2 = net.Send(0, 2, 1000, 0.0);
  // The second message waits for the first to clear the outbound NIC.
  EXPECT_NEAR(t2 - t1, 1e-4 + 1e-3, 1e-12);
}

TEST(SimNetworkTest, ReceiverNicSerializesConcurrentArrivals) {
  SimNetwork net(3, TestNet());
  // Two senders transmit simultaneously to node 2; the receiver drains them
  // at link bandwidth, so the second is ~1 wire-time later.
  const SimTime t1 = net.Send(0, 2, 1000, 0.0);
  const SimTime t2 = net.Send(1, 2, 1000, 0.0);
  EXPECT_GE(t2, t1 + 1e-3 - 1e-9);
}

TEST(SimNetworkTest, LaterSenderTimeDelaysDelivery) {
  SimNetwork net(2, TestNet());
  const SimTime t = net.Send(0, 1, 100, 5.0);
  EXPECT_GT(t, 5.0);
}

TEST(SimNetworkTest, TrafficStatsAccumulate) {
  SimNetwork net(2, TestNet());
  net.Send(0, 1, 500, 0.0);
  net.Send(0, 1, 700, 0.0);
  EXPECT_EQ(net.stats(0).messages_sent, 2u);
  EXPECT_EQ(net.stats(0).bytes_sent, 1200u);
  EXPECT_EQ(net.stats(1).messages_received, 2u);
  EXPECT_EQ(net.stats(1).bytes_received, 1200u);
  EXPECT_EQ(net.TotalStats().bytes_sent, 1200u);
  net.ResetStats();
  EXPECT_EQ(net.TotalStats().bytes_sent, 0u);
}

TEST(SimNetworkTest, ControlMessagesBypassBulkQueue) {
  SimNetwork net(3, TestNet());
  // Queue a lot of bulk data into node 2's inbound NIC...
  SimTime bulk_done = 0.0;
  for (int i = 0; i < 20; ++i) {
    bulk_done = net.Send(0, 2, 100000, 0.0);
  }
  // ...then a tiny control frame from another node arrives promptly instead
  // of waiting behind ~2 seconds of queued bulk.
  const SimTime control = net.Send(1, 2, 64, 0.0);
  EXPECT_LT(control, 0.01);
  EXPECT_GT(bulk_done, 1.0);
}

TEST(SimNetworkTest, BulkMessagesDoQueueAtReceiver) {
  SimNetwork net(3, TestNet());
  const SimTime first = net.Send(0, 2, 100000, 0.0);
  const SimTime second = net.Send(1, 2, 100000, 0.0);
  // Second bulk transfer drains after the first (0.1s wire each).
  EXPECT_GE(second, first + 0.1 - 1e-9);
}

TEST(SimNetworkTest, ControlBoundaryIsExactlyKControlMessageBytes) {
  // A message of exactly kControlMessageBytes (256) takes the control path;
  // one byte more takes the bulk path. Make the distinction observable by
  // parking bulk data on the receiver's inbound NIC first.
  SimNetwork net(3, TestNet());
  const SimTime bulk_done = net.Send(0, 2, 100000, 0.0);
  EXPECT_NEAR(bulk_done, 1e-4 + 0.1 + 1e-3, 1e-12);  // overhead + wire + lat

  // 256 bytes from node 1: slips past the queued bulk. Exact timing:
  // overhead + 256 us wire + 1 ms latency, inbound NIC ignored.
  const SimTime control = net.Send(1, 2, kControlMessageBytes, 0.0);
  EXPECT_NEAR(control, 1e-4 + 256e-6 + 1e-3, 1e-12);
  EXPECT_LT(control, bulk_done);

  // 257 bytes (second send on node 1's outbound NIC): waits for the queued
  // bulk to drain, then occupies the inbound NIC for its own wire time.
  const SimTime bulk = net.Send(1, 2, kControlMessageBytes + 1, 0.0);
  EXPECT_NEAR(bulk, bulk_done + 257e-6, 1e-12);
}

TEST(SimNetworkTest, BackToBackBulkSerializesOnInboundNicExactly) {
  // Two 100 kB messages from different senders, started simultaneously,
  // arrive together but drain one after the other: the second is delivered
  // exactly one wire time after the first.
  SimNetwork net(3, TestNet());
  const SimTime first = net.Send(0, 2, 100000, 0.0);
  const SimTime second = net.Send(1, 2, 100000, 0.0);
  EXPECT_NEAR(first, 1e-4 + 0.1 + 1e-3, 1e-12);
  EXPECT_NEAR(second, first + 0.1, 1e-12);
}

TEST(SimNetworkTest, TracerSeesControlFlagAndRxWindow) {
  SimNetwork net(3, TestNet());
  Tracer tracer;
  net.Observe(&tracer);
  const SimTime control_done = net.Send(0, 2, kControlMessageBytes, 0.0);
  const SimTime bulk_done = net.Send(1, 2, kControlMessageBytes + 1, 0.0);

  ASSERT_EQ(tracer.events().size(), 2u);
  const TraceEvent& control = tracer.events()[0];
  EXPECT_STREQ(control.name, "net.send");
  EXPECT_TRUE(control.control);
  EXPECT_EQ(control.bytes, kControlMessageBytes);
  EXPECT_EQ(control.node, 0u);
  EXPECT_EQ(control.peer, 2u);
  // Control messages skip the inbound queue: zero-width receive window.
  EXPECT_DOUBLE_EQ(control.rx_start, control.rx_done);
  EXPECT_DOUBLE_EQ(control.rx_done, control_done);

  const TraceEvent& bulk = tracer.events()[1];
  EXPECT_FALSE(bulk.control);
  EXPECT_EQ(bulk.bytes, kControlMessageBytes + 1);
  EXPECT_DOUBLE_EQ(bulk.rx_done, bulk_done);
  EXPECT_GT(bulk.rx_done, bulk.rx_start);
}

TEST(SimNetworkTest, TracerDoesNotChangeTiming) {
  SimNetwork plain(3, TestNet());
  SimNetwork traced(3, TestNet());
  Tracer tracer;
  traced.Observe(&tracer);
  for (int i = 0; i < 10; ++i) {
    const uint64_t bytes = 64 + 1000 * static_cast<uint64_t>(i);
    EXPECT_DOUBLE_EQ(plain.Send(0, 2, bytes, 0.0),
                     traced.Send(0, 2, bytes, 0.0));
    EXPECT_DOUBLE_EQ(plain.Send(1, 2, bytes, 0.0),
                     traced.Send(1, 2, bytes, 0.0));
  }
  EXPECT_EQ(tracer.events().size(), 20u);
  EXPECT_EQ(tracer.metrics().GetCounter("net.messages")->value(), 20);
}

TEST(SimNetworkTest, SelfSendDies) {
  SimNetwork net(2, TestNet());
  EXPECT_DEATH(net.Send(0, 0, 10, 0.0), "CHECK failed");
}

TEST(ComputeModelTest, SecondsForFlops) {
  ComputeModel cm{1e9, 0.0};
  EXPECT_DOUBLE_EQ(cm.SecondsFor(2e9), 2.0);
  ComputeModel with_overhead{1e9, 0.5};
  EXPECT_DOUBLE_EQ(with_overhead.SecondsFor(0), 0.5);
}

TEST(FlopCounterTest, AddsAndResets) {
  FlopCounter fc;
  fc.Add(10);
  fc.Add(5);
  EXPECT_EQ(fc.flops(), 15u);
  fc.Reset();
  EXPECT_EQ(fc.flops(), 0u);
}

TEST(ClusterRuntimeTest, TopologyAndClocks) {
  ClusterSpec spec = ClusterSpec::Cluster1();
  ClusterRuntime runtime(spec);
  EXPECT_EQ(runtime.num_workers(), 8);
  EXPECT_EQ(runtime.master(), 0u);
  EXPECT_EQ(runtime.worker_node(0), 1u);
  EXPECT_EQ(runtime.worker_node(7), 8u);
  EXPECT_DOUBLE_EQ(runtime.clock(0), 0.0);
  runtime.AdvanceClock(1, 2.5);
  EXPECT_DOUBLE_EQ(runtime.clock(1), 2.5);
  runtime.SyncClockTo(1, 1.0);  // behind: no-op
  EXPECT_DOUBLE_EQ(runtime.clock(1), 2.5);
  runtime.SyncClockTo(1, 3.0);
  EXPECT_DOUBLE_EQ(runtime.clock(1), 3.0);
}

TEST(ClusterRuntimeTest, BarrierLiftsAllClocks) {
  ClusterRuntime runtime(ClusterSpec::Cluster1());
  runtime.AdvanceClock(3, 7.0);
  runtime.Barrier();
  for (int n = 0; n <= runtime.num_workers(); ++n) {
    EXPECT_DOUBLE_EQ(runtime.clock(n), 7.0);
  }
}

TEST(ClusterRuntimeTest, SendSyncsReceiverClock) {
  ClusterSpec spec;
  spec.num_workers = 2;
  spec.net = TestNet();
  ClusterRuntime runtime(spec);
  const SimTime arrival = runtime.Send(runtime.master(), 1, 1000);
  EXPECT_DOUBLE_EQ(runtime.clock(1), arrival);
  EXPECT_GT(arrival, 0.0);
}

TEST(ClusterRuntimeTest, BroadcastSerializesThroughSenderNic) {
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.net = TestNet();
  ClusterRuntime runtime(spec);
  runtime.BroadcastToWorkers(runtime.master(), 1000);
  // Worker 4's copy leaves the master NIC last: ~4 wire-times + latency.
  const double wire = 1e-3 + 1e-4;
  EXPECT_NEAR(runtime.clock(runtime.worker_node(3)), 4 * wire + 1e-3, 1e-9);
}

TEST(ClusterRuntimeTest, ChargeComputeUsesComputeModel) {
  ClusterSpec spec;
  spec.compute = ComputeModel{1e9, 0.0};
  ClusterRuntime runtime(spec);
  runtime.ChargeCompute(1, 5e8);
  EXPECT_DOUBLE_EQ(runtime.clock(1), 0.5);
}

TEST(ClusterRuntimeTest, ChargeMemTouchUsesMemBandwidth) {
  ClusterSpec spec;
  spec.mem_bandwidth = 1e9;
  ClusterRuntime runtime(spec);
  runtime.ChargeMemTouch(2, 5e8);
  EXPECT_DOUBLE_EQ(runtime.clock(2), 0.5);
}

TEST(NetworkConfigTest, ClusterPresetsMatchPaper) {
  // Cluster 1: 1 Gbps = 125 MB/s; Cluster 2: 10 Gbps.
  EXPECT_DOUBLE_EQ(NetworkConfig::Gbps1().bandwidth, 125e6);
  EXPECT_DOUBLE_EQ(NetworkConfig::Gbps10().bandwidth, 1250e6);
  EXPECT_EQ(ClusterSpec::Cluster1().num_workers, 8);
  EXPECT_EQ(ClusterSpec::Cluster2().num_workers, 40);
  EXPECT_EQ(ClusterSpec::Cluster2(20).num_workers, 20);
}

TEST(FrameTest, RoundTripsAndMeasuresOverhead) {
  const std::vector<uint8_t> payload = {1, 2, 3, 250, 0, 42};
  const std::vector<uint8_t> frame = FrameMessage(payload);
  EXPECT_EQ(frame.size(), payload.size() + kFrameOverheadBytes);
  const Result<std::vector<uint8_t>> back = VerifyFrame(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.ValueOrDie(), payload);
  // The empty payload frames and verifies too.
  ASSERT_TRUE(VerifyFrame(FrameMessage({})).ok());
}

TEST(FrameTest, DetectsEverySingleBitFlip) {
  std::vector<uint8_t> payload(48);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 13);
  }
  const std::vector<uint8_t> clean = FrameMessage(payload);
  // Flip every bit of the whole frame — header, payload, and trailer — and
  // require the verifier to reject each damaged copy.
  for (size_t bit = 0; bit < clean.size() * 8; ++bit) {
    std::vector<uint8_t> damaged = clean;
    FlipBit(&damaged, bit);
    EXPECT_FALSE(VerifyFrame(damaged).ok()) << "bit " << bit;
  }
}

TEST(FrameTest, RejectsTruncationAndBadMagic) {
  const std::vector<uint8_t> frame = FrameMessage({7, 7, 7});
  std::vector<uint8_t> truncated(frame.begin(), frame.end() - 1);
  EXPECT_FALSE(VerifyFrame(truncated).ok());
  EXPECT_FALSE(VerifyFrame({}).ok());
  EXPECT_FALSE(VerifyFrame({1, 2, 3}).ok());  // shorter than the overhead
}

TEST(FrameTest, FlipBitWrapsOutOfRangeIndex) {
  std::vector<uint8_t> data = {0, 0};
  FlipBit(&data, 16);  // == bit 0 after wrap
  EXPECT_EQ(data[0], 1);
  EXPECT_EQ(data[1], 0);
}

}  // namespace
}  // namespace colsgd
