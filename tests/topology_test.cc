// Topology tests: deterministic ECMP routing, per-endpoint-pair FIFO across multi-hop
// routes, PFC-bounded switch queue occupancy with ECN/pause accounting, rack-local traffic
// counters, topology-link fault injection, and — critically — that the default
// single-switch topology is bit-identical to the pre-topology flat model.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/system.h"
#include "src/fabric/network.h"
#include "src/fabric/topology.h"

namespace fractos {
namespace {

// A small fat tree: 2 racks x 2 nodes, 2 spines.
class FatTreeTest : public ::testing::Test {
 protected:
  FatTreeTest() : net_(&loop_, FabricParams{}, TopologySpec::fat_tree(2, 2)) {
    for (int i = 0; i < 4; ++i) {
      ids_.push_back(net_.add_node("n" + std::to_string(i)));
    }
  }

  Endpoint host(uint32_t i) const { return Endpoint{ids_[i], Loc::kHost}; }

  EventLoop loop_;
  Network net_;
  std::vector<uint32_t> ids_;
};

TEST_F(FatTreeTest, RackAssignmentFollowsNodeIds) {
  const Topology& topo = net_.topology();
  EXPECT_FALSE(topo.flat());
  EXPECT_EQ(topo.num_racks(), 2u);
  EXPECT_EQ(topo.num_spines(), 2u);
  EXPECT_EQ(topo.rack_of(0), 0u);
  EXPECT_EQ(topo.rack_of(1), 0u);
  EXPECT_EQ(topo.rack_of(2), 1u);
  EXPECT_EQ(topo.rack_of(3), 1u);
  EXPECT_TRUE(topo.same_rack(0, 1));
  EXPECT_FALSE(topo.same_rack(1, 2));
}

TEST_F(FatTreeTest, EcmpRoutingIsDeterministicAndSpreads) {
  Topology& topo = net_.topology();
  // Same flow -> same spine, always.
  for (int rep = 0; rep < 4; ++rep) {
    EXPECT_EQ(topo.spine_for(host(0), host(2)), topo.spine_for(host(0), host(2)));
  }
  // Same flow -> identical hop-by-hop route.
  std::vector<Topology::Hop> a, b;
  topo.route(host(0), host(3), &a);
  topo.route(host(0), host(3), &b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sw, b[i].sw);
    EXPECT_EQ(a[i].port, b[i].port);
    EXPECT_EQ(a[i].link_a, b[i].link_a);
    EXPECT_EQ(a[i].link_b, b[i].link_b);
  }
  // Across many distinct flows, both spines carry traffic (the hash spreads).
  bool used[2] = {false, false};
  for (uint32_t s = 0; s < 2; ++s) {
    for (uint32_t d = 2; d < 4; ++d) {
      for (Loc loc : {Loc::kHost, Loc::kSnic}) {
        used[topo.spine_for(Endpoint{s, loc}, Endpoint{d, Loc::kHost})] = true;
      }
    }
  }
  EXPECT_TRUE(used[0]);
  EXPECT_TRUE(used[1]);
}

TEST_F(FatTreeTest, RouteShapes) {
  Topology& topo = net_.topology();
  std::vector<Topology::Hop> hops;
  // Intra-rack: NIC hop + one ToR egress hop, 2 links.
  topo.route(host(0), host(1), &hops);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].sw, nullptr);
  EXPECT_EQ(hops[0].link_a, 0u);
  EXPECT_EQ(hops[0].link_b, Topology::tor_id(0));
  EXPECT_EQ(hops[1].sw->id(), Topology::tor_id(0));
  EXPECT_EQ(hops[1].link_b, 1u);
  EXPECT_EQ(topo.num_links(host(0), host(1)), 2u);
  // Cross-rack: NIC + ToR uplink + spine + destination ToR, 4 links.
  topo.route(host(1), host(2), &hops);
  ASSERT_EQ(hops.size(), 4u);
  const uint32_t s = topo.spine_for(host(1), host(2));
  EXPECT_EQ(hops[1].sw->id(), Topology::tor_id(0));
  EXPECT_EQ(hops[1].link_b, Topology::spine_id(s));
  EXPECT_EQ(hops[2].sw->id(), Topology::spine_id(s));
  EXPECT_EQ(hops[3].sw->id(), Topology::tor_id(1));
  EXPECT_EQ(hops[3].link_b, 2u);
  EXPECT_EQ(topo.num_links(host(1), host(2)), 4u);
  // Same node: no hops.
  topo.route(host(0), Endpoint{ids_[0], Loc::kSnic}, &hops);
  EXPECT_TRUE(hops.empty());
}

TEST_F(FatTreeTest, CrossRackCostsMoreLinksThanIntraRack) {
  const Duration link = net_.topology().spec().sw.link_oneway;
  EXPECT_EQ(net_.wire_latency(host(0), host(1)).ns(), 2 * link.ns());
  EXPECT_EQ(net_.wire_latency(host(0), host(2)).ns(), 4 * link.ns());

  int64_t intra_ns = 0, cross_ns = 0;
  net_.send(host(0), host(1), Traffic::kControl, {1},
            [&](Payload) { intra_ns = loop_.now().ns(); });
  loop_.run();
  const int64_t t0 = loop_.now().ns();
  net_.send(host(0), host(2), Traffic::kControl, {1},
            [&](Payload) { cross_ns = loop_.now().ns() - t0; });
  loop_.run();
  EXPECT_GT(intra_ns, 0);
  EXPECT_GT(cross_ns, intra_ns);
}

TEST_F(FatTreeTest, FifoPreservedPerEndpointPairAcrossMultiHop) {
  // A burst of mixed-size messages over the cross-rack route: delivery order must match
  // send order (monotonic per-port state + one ECMP path per flow = FIFO).
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    const uint64_t size = (i % 5) * 3000 + 1;
    net_.send(host(0), host(3), Traffic::kData, std::vector<uint8_t>(size),
              [&order, i](Payload) { order.push_back(i); });
  }
  loop_.run();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(order[i], i) << "message delivered out of order";
  }
}

TEST_F(FatTreeTest, RackLocalCountersSplitCrossNodeTraffic) {
  net_.send(host(0), host(1), Traffic::kControl, {1, 2}, [](Payload) {});  // intra-rack
  net_.send(host(0), host(2), Traffic::kData, {1, 2, 3}, [](Payload) {});  // cross-rack
  net_.send(host(0), Endpoint{ids_[0], Loc::kSnic}, Traffic::kControl, {1},
            [](Payload) {});  // local: neither cross nor rack-local
  loop_.run();
  const TrafficCounters& c = net_.counters();
  EXPECT_EQ(c.total_messages(), 3u);
  EXPECT_EQ(c.total_cross_messages(), 2u);
  EXPECT_EQ(c.total_rack_local_messages(), 1u);
  EXPECT_EQ(c.total_cross_rack_messages(), 1u);
  EXPECT_EQ(c.rack_local_messages[0], 1u);
  EXPECT_EQ(c.cross_messages[1], 1u);
  EXPECT_GT(c.total_cross_rack_bytes(), 0u);
  EXPECT_LT(c.total_cross_rack_bytes(), c.total_cross_bytes());
}

TEST(SwitchQueueTest, OccupancyBoundedWithEcnAndPauseCounters) {
  // A deliberately shallow port: 16 KiB buffer, 4 KiB ECN threshold. Blasting a burst of
  // frames through one ToR egress port must (a) keep the recorded occupancy within the PFC
  // bound, (b) mark ECN before pausing, (c) charge head-of-line wait.
  SwitchParams sw;
  sw.port_buffer_bytes = 16 << 10;
  sw.ecn_threshold_bytes = 4 << 10;
  EventLoop loop;
  Network net(&loop, FabricParams{}, TopologySpec::fat_tree(2, 1, sw));
  for (int i = 0; i < 4; ++i) {
    net.add_node("n" + std::to_string(i));
  }
  // Both rack-0 nodes shower node 2 (rack 1): every frame funnels through spine port 1 and
  // ToR-1's port to node 2.
  int delivered = 0;
  for (int i = 0; i < 40; ++i) {
    net.send(Endpoint{static_cast<uint32_t>(i % 2), Loc::kHost}, Endpoint{2, Loc::kHost},
             Traffic::kData, std::vector<uint8_t>(4000), [&](Payload) { ++delivered; });
  }
  loop.run();
  EXPECT_EQ(delivered, 40);

  const Topology& topo = net.topology();
  const uint64_t frame = 4000 + 66;  // payload + one header
  EXPECT_LE(topo.max_port_queue_bytes(), sw.port_buffer_bytes);
  EXPECT_GT(topo.max_port_queue_bytes(), 0u);
  EXPECT_GT(topo.total_ecn_marks(), 0u);
  EXPECT_GT(topo.total_pause_events(), 0u);
  // The delivery port (ToR 1 -> node 2) carried every frame, but with equal link bandwidth
  // at every hop the queue builds where the two senders' streams merge — ToR 0's single
  // uplink — and every downstream port sees an already-paced stream (zero extra wait).
  const PortStats& funnel = topo.tor(1).port_stats(0);
  EXPECT_EQ(funnel.messages, 40u);
  EXPECT_EQ(funnel.bytes, 40 * frame);
  EXPECT_LE(funnel.max_queue_bytes, sw.port_buffer_bytes);
  const PortStats& uplink = topo.tor(0).port_stats(2);  // port npr + 0 = the only uplink
  EXPECT_EQ(uplink.messages, 40u);
  EXPECT_GT(uplink.queue_wait_ns, 0);
  EXPECT_EQ(funnel.queue_wait_ns, 0);
}

// The default single-switch topology must take the exact pre-topology code path. This runs
// the same workload three ways — default config, explicit single-switch spec, and a
// from-parts Network — and pins that every timing and counter matches, so the topology
// layer provably cannot shift any recorded bench number.
struct FlatRun {
  int64_t end_ns = 0;
  int64_t first_arrival_ns = 0;
  TrafficCounters traffic;
};

FlatRun run_flat_workload(SystemConfig cfg) {
  System sys(cfg);
  const uint32_t n0 = sys.add_node("a");
  const uint32_t n1 = sys.add_node("b");
  FlatRun out;
  sys.net().send(Endpoint{n0, Loc::kHost}, Endpoint{n1, Loc::kHost}, Traffic::kControl,
                 std::vector<uint8_t>(100),
                 [&](Payload) { out.first_arrival_ns = sys.loop().now().ns(); });
  sys.net().send(Endpoint{n1, Loc::kHost}, Endpoint{n0, Loc::kHost}, Traffic::kData,
                 std::vector<uint8_t>(64 << 10), [](Payload) {});
  sys.net().send(Endpoint{n0, Loc::kHost}, Endpoint{n0, Loc::kSnic}, Traffic::kControl,
                 std::vector<uint8_t>(32), [](Payload) {});
  sys.loop().run();
  out.end_ns = sys.loop().now().ns();
  out.traffic = sys.net().counters();
  return out;
}

TEST(SingleSwitchTest, DefaultTopologyIsBitIdenticalToFlatModel) {
  const FlatRun def = run_flat_workload(SystemConfig{});
  SystemConfig explicit_cfg;
  explicit_cfg.topology = TopologySpec::single_switch();
  const FlatRun explicit_flat = run_flat_workload(explicit_cfg);

  EXPECT_EQ(def.end_ns, explicit_flat.end_ns);
  EXPECT_EQ(def.first_arrival_ns, explicit_flat.first_arrival_ns);
  // Recorded from the pre-topology flat model: 100 B + 66 B header at 1.25 B/ns = 132 ns
  // serialization, + 1650 ns propagation.
  EXPECT_EQ(def.first_arrival_ns, 1650 + 132);
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(def.traffic.messages[c], explicit_flat.traffic.messages[c]);
    EXPECT_EQ(def.traffic.bytes[c], explicit_flat.traffic.bytes[c]);
    EXPECT_EQ(def.traffic.cross_bytes[c], explicit_flat.traffic.cross_bytes[c]);
  }
  // One implicit switch = one rack: every cross-node message is rack-local.
  EXPECT_EQ(def.traffic.total_rack_local_messages(), def.traffic.total_cross_messages());
  EXPECT_EQ(def.traffic.total_rack_local_bytes(), def.traffic.total_cross_bytes());
  EXPECT_EQ(def.traffic.total_cross_rack_bytes(), 0u);
}

TEST(TopologyFaultTest, SpineLinkFlapPartitionsCrossRackTraffic) {
  // Flap BOTH uplinks of rack 0 for a window: cross-rack sends inside the window vanish
  // (deterministic partition drops), intra-rack sends are untouched, and sends after the
  // window heal. RDMA across the partition burns its retry budget and aborts with kTimeout.
  SystemConfig cfg;
  cfg.topology = TopologySpec::fat_tree(2, 2);
  FaultPlan plan;
  plan.flaps.push_back({Topology::tor_id(0), Topology::spine_id(0), Time::from_ns(10'000),
                        Time::from_ns(3'000'000)});
  plan.flaps.push_back({Topology::tor_id(0), Topology::spine_id(1), Time::from_ns(10'000),
                        Time::from_ns(3'000'000)});
  cfg.faults = plan;
  System sys(cfg);
  for (int i = 0; i < 4; ++i) {
    sys.add_node("n" + std::to_string(i));
  }
  Network& net = sys.net();
  EventLoop& loop = sys.loop();

  int before = 0, during_cross = 0, during_intra = 0, after = 0;
  net.send(Endpoint{0, Loc::kHost}, Endpoint{2, Loc::kHost}, Traffic::kControl, {1},
           [&](Payload) { ++before; });
  loop.run();
  ASSERT_EQ(before, 1);

  loop.schedule_at(Time::from_ns(20'000), [&]() {
    net.send(Endpoint{0, Loc::kHost}, Endpoint{2, Loc::kHost}, Traffic::kControl, {1},
             [&](Payload) { ++during_cross; });
    net.send(Endpoint{0, Loc::kHost}, Endpoint{1, Loc::kHost}, Traffic::kControl, {1},
             [&](Payload) { ++during_intra; });
  });
  Result<Payload> rdma_result = ErrorCode::kInternal;
  loop.schedule_at(Time::from_ns(30'000), [&]() {
    const PoolId pool = net.node(2).add_pool(4096);
    net.rdma_read(Endpoint{0, Loc::kHost}, 2, RdmaKey{}, pool, 0, 64,
                  [&](Result<Payload> r) { rdma_result = std::move(r); });
  });
  loop.schedule_at(Time::from_ns(4'000'000), [&]() {
    net.send(Endpoint{0, Loc::kHost}, Endpoint{2, Loc::kHost}, Traffic::kControl, {1},
             [&](Payload) { ++after; });
  });
  loop.run();

  EXPECT_EQ(during_cross, 0) << "cross-rack message crossed a flapped spine link";
  EXPECT_EQ(during_intra, 1) << "intra-rack message must not see the spine flap";
  EXPECT_EQ(after, 1) << "link did not heal after the flap window";
  ASSERT_FALSE(rdma_result.ok());
  EXPECT_EQ(rdma_result.error(), ErrorCode::kTimeout);
  const FaultCounters& f = sys.fault_injector()->counters();
  EXPECT_EQ(f.partition_drops, 1u);
  EXPECT_EQ(f.rdma_aborts, 1u);
  EXPECT_GT(f.rdma_retransmits, 0u);
}

// --- configuration validation --------------------------------------------------------------

TEST(TopologyValidate, RejectsUnevenFatTree) {
  const TopologySpec spec = TopologySpec::fat_tree(/*nodes_per_rack=*/8, /*num_spines=*/2);
  EXPECT_FALSE(spec.validate(16).has_value());
  EXPECT_FALSE(spec.validate(0).has_value());  // unknown size: shape-only checks
  const auto err = spec.validate(20);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("does not divide"), std::string::npos);
  EXPECT_NE(err->find("add 4 node(s)"), std::string::npos);

  TopologySpec no_spines = TopologySpec::fat_tree(8, 2);
  no_spines.num_spines = 0;
  ASSERT_TRUE(no_spines.validate().has_value());
  EXPECT_NE(no_spines.validate()->find("num_spines"), std::string::npos);

  TopologySpec empty_racks = TopologySpec::fat_tree(8, 2);
  empty_racks.nodes_per_rack = 0;
  ASSERT_TRUE(empty_racks.validate().has_value());

  EXPECT_FALSE(TopologySpec::single_switch().validate(17).has_value());
}

// --- hot/bulk lane partition (far-memory tier, DESIGN.md §4k) ------------------------------

TEST(SwitchHotLaneTest, ShareZeroIgnoresLaneArgAndKeepsLaneStatsZero) {
  // hot_lane_share == 0 (the default) must collapse to the single-clock model so every
  // recorded bench number stays bit-identical: the lane argument changes nothing.
  SwitchParams sw;
  Switch plain(1, "plain", sw);
  Switch laned(2, "laned", sw);
  for (int i = 0; i < 8; ++i) {
    const Time enq = Time::from_ns(i * 100);
    Switch::Transit a = plain.traverse(0, enq, 4096, false);
    Switch::Transit b = laned.traverse(0, enq, 4096, true);
    EXPECT_EQ(a.depart.ns(), b.depart.ns());
    EXPECT_EQ(a.queued.ns(), b.queued.ns());
  }
  EXPECT_EQ(laned.port_stats(0).hot_messages, 0u);
  EXPECT_EQ(laned.port_stats(0).hot_bytes, 0u);
  EXPECT_EQ(laned.port_stats(0).messages, 8u);
}

TEST(SwitchHotLaneTest, PartitionGivesEachLaneItsOwnEgressClock) {
  SwitchParams sw;
  sw.hot_lane_share = 0.25;
  Switch s(1, "tor", sw);
  // Saturate the bulk lane with a page-sized burst...
  Switch::Transit bulk = s.traverse(0, Time::from_ns(0), 64 << 10, false);
  EXPECT_GT(bulk.depart.ns(), 0);
  // ...then a cacheline on the hot lane: it never waits behind the bulk backlog.
  Switch::Transit hot = s.traverse(0, Time::from_ns(10), 130, true);
  EXPECT_EQ(hot.queued.ns(), 0);
  EXPECT_LT(hot.depart.ns(), bulk.depart.ns());
  // Strict partition, not priority: the hot lane serializes at share x line rate.
  EXPECT_EQ(hot.depart.ns() - 10,
            transfer_time(130, sw.hot_lane_share * sw.port_bandwidth_bpns).ns());
  // A second bulk frame still queues behind the first on the bulk clock.
  Switch::Transit bulk2 = s.traverse(0, Time::from_ns(10), 64 << 10, false);
  EXPECT_GT(bulk2.queued.ns(), 0);
  const PortStats& st = s.port_stats(0);
  EXPECT_EQ(st.messages, 3u);
  EXPECT_EQ(st.bytes, (64u << 10) + 130u + (64u << 10));
  EXPECT_EQ(st.hot_messages, 1u);
  EXPECT_EQ(st.hot_bytes, 130u);
}

}  // namespace
}  // namespace fractos
