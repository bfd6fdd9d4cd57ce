// Fabric tests: wire-latency calibration (against the paper's raw numbers), bandwidth
// occupancy, traffic accounting, queue pairs, RDMA verbs and rkey authorization, and node
// failure behaviour.

#include <gtest/gtest.h>

#include <vector>

#include "src/fabric/network.h"
#include "src/fabric/queue_pair.h"

namespace fractos {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : net_(&loop_) {
    n0_ = net_.add_node("n0");
    n1_ = net_.add_node("n1");
  }

  EventLoop loop_;
  Network net_;
  uint32_t n0_, n1_;
};

TEST_F(FabricTest, WireLatencyCalibration) {
  // Table 3: raw loopback RTT 2.42us -> one way 1.21us; server on sNIC 3.68us -> 1.84us.
  // Fig. 5: 1-byte RDMA round trip 3.3us -> cross-node one way 1.65us.
  const Endpoint h0{n0_, Loc::kHost}, s0{n0_, Loc::kSnic}, h1{n1_, Loc::kHost};
  EXPECT_EQ(net_.wire_latency(h0, h0).ns(), 1210);
  EXPECT_EQ(net_.wire_latency(h0, s0).ns(), 1840);
  EXPECT_EQ(net_.wire_latency(h0, h1).ns(), 1650);
  EXPECT_EQ(net_.wire_latency(s0, h1).ns(), 1650);
}

TEST_F(FabricTest, SendDeliversAfterLatency) {
  bool got = false;
  net_.send(Endpoint{n0_, Loc::kHost}, Endpoint{n1_, Loc::kHost}, Traffic::kControl, {1, 2, 3},
            [&](Payload bytes) {
              got = true;
              EXPECT_EQ(bytes.size(), 3u);
            });
  loop_.run();
  EXPECT_TRUE(got);
  // 3 bytes + 66-byte header at 1.25 B/ns = 55 ns serialization, + 1650 ns latency.
  EXPECT_EQ(loop_.now().ns(), 1650 + 55);
}

TEST_F(FabricTest, BandwidthOccupancySerializesMessages) {
  // Two 1 MiB messages on the same egress: the second waits for the first's serialization.
  const uint64_t size = 1 << 20;
  std::vector<int64_t> arrivals;
  for (int i = 0; i < 2; ++i) {
    net_.send(Endpoint{n0_, Loc::kHost}, Endpoint{n1_, Loc::kHost}, Traffic::kData,
              std::vector<uint8_t>(size),
              [&](Payload) { arrivals.push_back(loop_.now().ns()); });
  }
  loop_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const int64_t serialization = arrivals[1] - arrivals[0];
  // One message of 1 MiB + headers takes ~ (1 MiB + 256*66 B) / 1.25 B/ns ~ 852 us.
  EXPECT_NEAR(static_cast<double>(serialization), (1048576 + 256 * 66) / 1.25, 100.0);
}

TEST_F(FabricTest, ThroughputApproachesLineRate) {
  // Pump 64 MiB in 256 KiB messages: total time ~ bytes / 1.25 B/ns.
  const uint64_t msg = 256 << 10;
  const int count = 256;
  int received = 0;
  for (int i = 0; i < count; ++i) {
    net_.send(Endpoint{n0_, Loc::kHost}, Endpoint{n1_, Loc::kHost}, Traffic::kData,
              std::vector<uint8_t>(msg), [&](Payload) { ++received; });
  }
  loop_.run();
  EXPECT_EQ(received, count);
  const double goodput = static_cast<double>(msg) * count / static_cast<double>(loop_.now().ns());
  EXPECT_GT(goodput, 1.15);  // >92% of 1.25 B/ns despite header overhead
  EXPECT_LT(goodput, 1.25);
}

TEST_F(FabricTest, TrafficCountersByCategory) {
  net_.send(Endpoint{n0_, Loc::kHost}, Endpoint{n1_, Loc::kHost}, Traffic::kControl,
            std::vector<uint8_t>(10), [](Payload) {});
  net_.send(Endpoint{n0_, Loc::kHost}, Endpoint{n0_, Loc::kHost}, Traffic::kData,
            std::vector<uint8_t>(100), [](Payload) {});
  loop_.run();
  const TrafficCounters& c = net_.counters();
  EXPECT_EQ(c.control_messages(), 1u);
  EXPECT_EQ(c.data_messages(), 1u);
  EXPECT_EQ(c.total_cross_messages(), 1u);  // loopback not counted as cross
  EXPECT_EQ(c.bytes[0], 10u + 66u);
  EXPECT_EQ(c.bytes[1], 100u + 66u);
  net_.reset_counters();
  EXPECT_EQ(net_.counters().total_messages(), 0u);
}

TEST_F(FabricTest, LargeMessageChargesHeaderPerMtuSegment) {
  const uint64_t size = 10000;  // 3 segments at 4096 MTU
  net_.send(Endpoint{n0_, Loc::kHost}, Endpoint{n1_, Loc::kHost}, Traffic::kData,
            std::vector<uint8_t>(size), [](Payload) {});
  loop_.run();
  EXPECT_EQ(net_.counters().bytes[1], size + 3 * 66);
}

TEST_F(FabricTest, RdmaReadMovesRealBytes) {
  Node& target = net_.node(n1_);
  const PoolId pool = target.add_pool(4096);
  for (int i = 0; i < 16; ++i) {
    target.pool(pool)[static_cast<size_t>(i)] = static_cast<uint8_t>(i * 3);
  }
  Result<Payload> got = ErrorCode::kInternal;
  net_.rdma_read(Endpoint{n0_, Loc::kHost}, n1_, RdmaKey{}, pool, 0, 16,
                 [&](Result<Payload> r) { got = std::move(r); });
  loop_.run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().bytes()[5], 15);
  // Round trip: ~2 * 1.65us for a small payload.
  EXPECT_NEAR(static_cast<double>(loop_.now().ns()), 3300 + 2 * 66 / 1.25 + 16 / 1.25, 30.0);
}

TEST_F(FabricTest, RdmaWriteMovesRealBytes) {
  Node& target = net_.node(n1_);
  const PoolId pool = target.add_pool(4096);
  Status got = ErrorCode::kInternal;
  net_.rdma_write(Endpoint{n0_, Loc::kHost}, n1_, RdmaKey{}, pool, 100, {7, 8, 9},
                  [&](Status s) { got = s; });
  loop_.run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(target.pool(pool)[101], 8);
}

TEST_F(FabricTest, RdmaAuthorizerDeniesAndKeyIsForwarded) {
  Node& target = net_.node(n1_);
  const PoolId pool = target.add_pool(4096);
  RdmaKey seen{};
  target.set_rdma_authorizer(
      [&](const RdmaKey& key, PoolId, uint64_t, uint64_t, bool is_write) -> Status {
        seen = key;
        return is_write ? Status(ErrorCode::kPermissionDenied) : ok_status();
      });
  Status ws = ok_status();
  net_.rdma_write(Endpoint{n0_, Loc::kHost}, n1_, RdmaKey{9, 77, 3}, pool, 0, {1},
                  [&](Status s) { ws = s; });
  loop_.run();
  EXPECT_EQ(ws.error(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(seen.controller, 9u);
  EXPECT_EQ(seen.object, 77u);
  EXPECT_EQ(seen.generation, 3u);
  EXPECT_EQ(target.pool(pool)[0], 0);  // nothing written

  Result<Payload> rs = ErrorCode::kInternal;
  net_.rdma_read(Endpoint{n0_, Loc::kHost}, n1_, RdmaKey{}, pool, 0, 1,
                 [&](Result<Payload> r) { rs = std::move(r); });
  loop_.run();
  EXPECT_TRUE(rs.ok());
}

TEST_F(FabricTest, RdmaOutOfRangeFails) {
  Node& target = net_.node(n1_);
  const PoolId pool = target.add_pool(128);
  Result<Payload> got = ErrorCode::kInternal;
  net_.rdma_read(Endpoint{n0_, Loc::kHost}, n1_, RdmaKey{}, pool, 100, 100,
                 [&](Result<Payload> r) { got = std::move(r); });
  loop_.run();
  EXPECT_EQ(got.error(), ErrorCode::kOutOfRange);
}

TEST_F(FabricTest, ThirdPartyRdmaTransfersDirectly) {
  const uint32_t n2 = net_.add_node("n2");
  Node& src = net_.node(n1_);
  Node& dst = net_.node(n2);
  const PoolId sp = src.add_pool(1024);
  const PoolId dp = dst.add_pool(1024);
  for (int i = 0; i < 64; ++i) {
    src.pool(sp)[static_cast<size_t>(i)] = static_cast<uint8_t>(0x40 + i);
  }
  Status got = ErrorCode::kInternal;
  net_.reset_counters();
  net_.rdma_third_party(Endpoint{n0_, Loc::kHost}, Network::RdmaSide{n1_, RdmaKey{}, sp, 0},
                        Network::RdmaSide{n2, RdmaKey{}, dp, 128}, 64,
                        [&](Status s) { got = s; });
  loop_.run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(dst.pool(dp)[128], 0x40);
  EXPECT_EQ(dst.pool(dp)[191], 0x40 + 63);
  // Exactly one data-bearing leg: 3 messages total (request, data, completion).
  EXPECT_EQ(net_.counters().data_messages(), 3u);
}

TEST_F(FabricTest, FailedNodeDropsMessages) {
  net_.node(n1_).fail();
  bool delivered = false;
  bool dropped = false;
  net_.send(Endpoint{n0_, Loc::kHost}, Endpoint{n1_, Loc::kHost}, Traffic::kControl, {1},
            [&](Payload) { delivered = true; }, [&]() { dropped = true; });
  loop_.run();
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(dropped);
}

TEST_F(FabricTest, NodeFailedWhileMessageInFlight) {
  bool delivered = false;
  bool dropped = false;
  net_.send(Endpoint{n0_, Loc::kHost}, Endpoint{n1_, Loc::kHost}, Traffic::kControl, {1},
            [&](Payload) { delivered = true; }, [&]() { dropped = true; });
  net_.node(n1_).fail();  // before delivery fires
  loop_.run();
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(dropped);
}

TEST_F(FabricTest, RdmaToFailedNodeFails) {
  Node& target = net_.node(n1_);
  const PoolId pool = target.add_pool(128);
  target.fail();
  Result<Payload> got = ErrorCode::kInternal;
  net_.rdma_read(Endpoint{n0_, Loc::kHost}, n1_, RdmaKey{}, pool, 0, 16,
                 [&](Result<Payload> r) { got = std::move(r); });
  loop_.run();
  EXPECT_EQ(got.error(), ErrorCode::kChannelClosed);
}

class QueuePairTest : public FabricTest {};

TEST_F(QueuePairTest, BidirectionalOrderedDelivery) {
  QueuePair a(&net_, Endpoint{n0_, Loc::kHost});
  QueuePair b(&net_, Endpoint{n1_, Loc::kHost});
  QueuePair::connect(a, b);
  std::vector<uint8_t> seen;
  b.set_receive_handler([&](Payload bytes) { seen.push_back(bytes.bytes()[0]); });
  a.set_receive_handler([](Payload) {});
  for (uint8_t i = 0; i < 5; ++i) {
    a.send(Traffic::kControl, {i});
  }
  loop_.run();
  EXPECT_EQ(seen, (std::vector<uint8_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(b.remote(), (Endpoint{n0_, Loc::kHost}));
}

TEST_F(QueuePairTest, SeverNotifiesPeerOnce) {
  QueuePair a(&net_, Endpoint{n0_, Loc::kHost});
  QueuePair b(&net_, Endpoint{n1_, Loc::kHost});
  QueuePair::connect(a, b);
  a.set_receive_handler([](Payload) {});
  b.set_receive_handler([](Payload) {});
  int severed = 0;
  b.set_severed_handler([&]() { ++severed; });
  int own_severed = 0;
  a.set_severed_handler([&]() { ++own_severed; });
  a.sever();
  a.sever();  // idempotent
  loop_.run();
  EXPECT_EQ(severed, 1);
  EXPECT_EQ(own_severed, 1);  // the severing end hears its own sever too
  EXPECT_TRUE(a.severed());
  EXPECT_TRUE(b.severed());
}

TEST_F(QueuePairTest, SendsAfterSeverAreDropped) {
  QueuePair a(&net_, Endpoint{n0_, Loc::kHost});
  QueuePair b(&net_, Endpoint{n1_, Loc::kHost});
  QueuePair::connect(a, b);
  int got = 0;
  b.set_receive_handler([&](Payload) { ++got; });
  a.sever();
  a.send(Traffic::kControl, {1});
  a.send(Traffic::kData, {2});
  loop_.run();
  EXPECT_EQ(got, 0);
  // Post-sever sends are counted, not silently lost.
  EXPECT_EQ(a.dropped(), 2u);
}

TEST_F(QueuePairTest, SendToFailedNodeCountsDrop) {
  QueuePair a(&net_, Endpoint{n0_, Loc::kHost});
  QueuePair b(&net_, Endpoint{n1_, Loc::kHost});
  QueuePair::connect(a, b);
  b.set_receive_handler([](Payload) {});
  net_.node(n1_).fail();
  a.send(Traffic::kControl, {1});
  loop_.run();
  EXPECT_EQ(a.dropped(), 1u);
}

class LossyQueuePairTest : public FabricTest {
 protected:
  void install(double control_drop) {
    FaultPlan plan;
    plan.seed = 99;
    plan.drop_prob[0] = control_drop;
    net_.install_fault_injector(plan);
  }
};

TEST_F(LossyQueuePairTest, ReliableDeliveryUnderHeavyDrop) {
  install(0.3);
  QueuePair a(&net_, Endpoint{n0_, Loc::kHost});
  QueuePair b(&net_, Endpoint{n1_, Loc::kHost});
  QueuePair::connect(a, b);
  // ACKs are lossy too; a generous budget keeps the pair below the sever horizon.
  a.set_retry_policy(Duration::micros(30), 20);
  b.set_retry_policy(Duration::micros(30), 20);
  std::vector<uint8_t> seen;
  b.set_receive_handler([&](Payload bytes) { seen.push_back(bytes.bytes()[0]); });
  a.set_receive_handler([](Payload) {});
  std::vector<uint8_t> want;
  for (uint8_t i = 0; i < 40; ++i) {
    a.send(Traffic::kControl, {i});
    want.push_back(i);
  }
  loop_.run();
  // Exactly-once, in-order delivery despite a 30% drop rate on every packet (data and ACK).
  EXPECT_EQ(seen, want);
  EXPECT_FALSE(a.severed());
  EXPECT_GT(a.retransmits(), 0u);
  EXPECT_GT(net_.fault_injector()->counters().dropped[0], 0u);
  EXPECT_EQ(a.unacked(), 0u);
}

TEST_F(LossyQueuePairTest, ExhaustedRetryBudgetSeversPair) {
  install(1.0);  // black-hole link: nothing gets through, the RC budget must give up
  QueuePair a(&net_, Endpoint{n0_, Loc::kHost});
  QueuePair b(&net_, Endpoint{n1_, Loc::kHost});
  QueuePair::connect(a, b);
  a.set_retry_policy(Duration::micros(10), 4);
  a.set_receive_handler([](Payload) {});
  b.set_receive_handler([](Payload) {});
  int peer_severed = 0;
  b.set_severed_handler([&]() { ++peer_severed; });
  int own_severed = 0;
  a.set_severed_handler([&]() { ++own_severed; });
  a.send(Traffic::kControl, {1});
  loop_.run();
  EXPECT_TRUE(a.severed());
  EXPECT_TRUE(b.severed());
  EXPECT_EQ(peer_severed, 1);
  EXPECT_EQ(own_severed, 1);  // exhaustion reaches the exhausted end's own owner
  EXPECT_GT(a.dropped(), 0u);
  EXPECT_EQ(a.retransmits(), 3u);  // budget 4 = 1 initial + 3 retries
}

TEST_F(LossyQueuePairTest, DatagramModeHasNoRetransmission) {
  install(1.0);
  QueuePair a(&net_, Endpoint{n0_, Loc::kHost});
  QueuePair b(&net_, Endpoint{n1_, Loc::kHost});
  QueuePair::connect(a, b);
  a.set_mode(QueuePair::Mode::kDatagram);
  b.set_mode(QueuePair::Mode::kDatagram);
  int got = 0;
  b.set_receive_handler([&](Payload) { ++got; });
  a.set_receive_handler([](Payload) {});
  a.send(Traffic::kControl, {1});
  loop_.run();
  // UD semantics: the drop is final — no retry, no sever, the pair stays usable.
  EXPECT_EQ(got, 0);
  EXPECT_EQ(a.retransmits(), 0u);
  EXPECT_FALSE(a.severed());
}

TEST_F(FabricTest, FaultScheduleIsSeedDeterministic) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.drop_prob[0] = 0.2;
  plan.dup_prob[0] = 0.1;
  plan.jitter_prob[0] = 0.3;
  FaultInjector x(plan), y(plan);
  for (int i = 0; i < 200; ++i) {
    const auto vx = x.on_message(n0_, n1_, Traffic::kControl, Time::from_ns(i));
    const auto vy = y.on_message(n0_, n1_, Traffic::kControl, Time::from_ns(i));
    ASSERT_EQ(vx.drop, vy.drop);
    ASSERT_EQ(vx.duplicate, vy.duplicate);
    ASSERT_EQ(vx.extra_delay.ns(), vy.extra_delay.ns());
  }
  EXPECT_TRUE(x.counters() == y.counters());
  EXPECT_GT(x.counters().total_injected(), 0u);
}

}  // namespace
}  // namespace fractos
