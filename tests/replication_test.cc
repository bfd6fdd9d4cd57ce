// Replicated control plane (DESIGN.md §4h) and SystemConfig::validate coverage.
//
// The replication tests drive a 3-member quorum group for one Controller seat through the
// protocol's load-bearing transitions: steady-state commit, initial snapshot catch-up,
// leader death -> rank-staggered election -> takeover serving, a partitioned minority
// leader refusing mutations until deposed, and an election that must converge while the
// electorate's links flap. Every schedule is deterministic (simulated time, no random
// election timeouts), so each test asserts exact counters and table digests, not ranges.
//
// Note: a running ReplicationGroup keeps a heartbeat timer armed, so these tests drive the
// loop with run_until()/run_until_time() and stop() the surviving groups before draining.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/node_monitor.h"
#include "src/core/replication.h"
#include "src/fabric/topology.h"
#include "src/sim/metrics.h"

namespace fractos {
namespace {

// --- SystemConfig::validate ---------------------------------------------------------------------

// Each rejection test asserts both that validation fails and that the message names the
// offending knob — an error the user cannot act on is as bad as no error.
void expect_rejection(const SystemConfig& cfg, uint32_t num_nodes, const char* needle) {
  const std::optional<std::string> err = cfg.validate(num_nodes);
  ASSERT_TRUE(err.has_value()) << "expected rejection mentioning \"" << needle << "\"";
  EXPECT_NE(err->find(needle), std::string::npos) << *err;
}

TEST(ConfigValidation, DefaultConfigIsSound) {
  SystemConfig cfg;
  EXPECT_FALSE(cfg.validate().has_value());
  EXPECT_FALSE(cfg.validate(16).has_value());
}

TEST(ConfigValidation, SoundFaultPlanIsAccepted) {
  SystemConfig cfg;
  FaultPlan plan;
  plan.drop_prob[0] = 0.01;
  plan.flaps.push_back({0, 1, Time::from_ns(1000), Time::from_ns(2000)});
  plan.outages.push_back({2, Time::from_ns(1000), Time::from_ns(2000)});
  cfg.faults = plan;
  EXPECT_FALSE(cfg.validate(4).has_value());
}

TEST(ConfigValidation, RejectsZeroCongestionWindow) {
  SystemConfig cfg;
  cfg.congestion_window = 0;
  expect_rejection(cfg, 0, "congestion_window");
}

TEST(ConfigValidation, RejectsZeroCopyChunk) {
  SystemConfig cfg;
  cfg.copy_chunk_bytes = 0;
  expect_rejection(cfg, 0, "copy_chunk_bytes");
}

TEST(ConfigValidation, RejectsZeroCapQuota) {
  SystemConfig cfg;
  cfg.cap_quota = 0;
  expect_rejection(cfg, 0, "cap_quota");
}

TEST(ConfigValidation, RejectsNonPositivePeerOpDeadline) {
  SystemConfig cfg;
  cfg.peer_op_deadline = Duration::zero();
  expect_rejection(cfg, 0, "peer_op_deadline");
}

TEST(ConfigValidation, RejectsZeroMtu) {
  SystemConfig cfg;
  cfg.fabric.mtu_bytes = 0;
  expect_rejection(cfg, 0, "fabric.mtu_bytes");
}

TEST(ConfigValidation, RejectsNonPositiveWireBandwidth) {
  SystemConfig cfg;
  cfg.fabric.wire_bandwidth_bpns = 0.0;
  expect_rejection(cfg, 0, "fabric.wire_bandwidth_bpns");
}

TEST(ConfigValidation, RejectsNonPositiveLocalBandwidth) {
  SystemConfig cfg;
  cfg.fabric.local_bandwidth_bpns = -1.0;
  expect_rejection(cfg, 0, "fabric.local_bandwidth_bpns");
}

TEST(ConfigValidation, RejectsDedupTtlShorterThanOpDeadline) {
  SystemConfig cfg;
  cfg.peer_op_dedup_ttl = Duration::micros(500);
  cfg.peer_op_deadline = Duration::millis(1);
  expect_rejection(cfg, 0, "peer_op_dedup_ttl");
}

TEST(ConfigValidation, RejectsReplicationGroupOfOne) {
  SystemConfig cfg;
  cfg.replication_group_size = 1;
  expect_rejection(cfg, 0, "replicates nothing");
}

TEST(ConfigValidation, RejectsQuorumLargerThanCluster) {
  SystemConfig cfg;
  cfg.replication_group_size = 5;
  expect_rejection(cfg, 3, "exceeds the cluster size");
  // Without a known node count the check is deferred, not silently passed-or-failed.
  EXPECT_FALSE(cfg.validate(0).has_value());
}

TEST(ConfigValidation, RejectsLeaseShorterThanHeartbeat) {
  SystemConfig cfg;
  cfg.replication_group_size = 3;
  cfg.replication.lease = Duration::micros(100);
  cfg.replication.heartbeat = Duration::micros(500);
  expect_rejection(cfg, 3, "replication.lease");
}

TEST(ConfigValidation, RejectsElectionStaggerShorterThanHeartbeat) {
  SystemConfig cfg;
  cfg.replication_group_size = 3;
  cfg.replication.election_stagger = Duration::micros(100);
  expect_rejection(cfg, 3, "election_stagger");
}

TEST(ConfigValidation, RejectsSwitchFaultOnSingleSwitchTopology) {
  SystemConfig cfg;
  FaultPlan plan;
  plan.flaps.push_back({0, Topology::tor_id(0), Time::from_ns(0), Time::from_ns(1000)});
  cfg.faults = plan;
  expect_rejection(cfg, 4, "single-switch");
}

TEST(ConfigValidation, RejectsUnknownSpine) {
  SystemConfig cfg;
  cfg.topology = TopologySpec::fat_tree(2, 2);
  FaultPlan plan;
  plan.flaps.push_back(
      {Topology::tor_id(0), Topology::spine_id(3), Time::from_ns(0), Time::from_ns(1000)});
  cfg.faults = plan;
  expect_rejection(cfg, 4, "spine");
}

TEST(ConfigValidation, RejectsToRofUnpopulatedRack) {
  SystemConfig cfg;
  cfg.topology = TopologySpec::fat_tree(2, 2);
  FaultPlan plan;
  plan.flaps.push_back(
      {Topology::tor_id(5), Topology::spine_id(0), Time::from_ns(0), Time::from_ns(1000)});
  cfg.faults = plan;
  expect_rejection(cfg, 4, "ToR of rack 5");
}

TEST(ConfigValidation, RejectsUnknownNodeInFlap) {
  SystemConfig cfg;
  FaultPlan plan;
  plan.flaps.push_back({0, 7, Time::from_ns(0), Time::from_ns(1000)});
  cfg.faults = plan;
  expect_rejection(cfg, 4, "node 7");
}

TEST(ConfigValidation, RejectsInvertedFlapWindow) {
  SystemConfig cfg;
  FaultPlan plan;
  plan.flaps.push_back({0, 1, Time::from_ns(2000), Time::from_ns(1000)});
  cfg.faults = plan;
  expect_rejection(cfg, 2, "end <= start");
}

TEST(ConfigValidation, RejectsOutOfRangeProbability) {
  SystemConfig cfg;
  FaultPlan plan;
  plan.drop_prob[0] = 1.5;
  cfg.faults = plan;
  expect_rejection(cfg, 0, "probabilities");
}

TEST(ConfigValidation, RejectsOutageOfUnknownNode) {
  SystemConfig cfg;
  FaultPlan plan;
  plan.outages.push_back({9, Time::from_ns(0), Time::from_ns(1000)});
  cfg.faults = plan;
  expect_rejection(cfg, 4, "node outage references node 9");
}

TEST(ConfigValidation, RejectsLazyMeshWithReplication) {
  SystemConfig cfg;
  cfg.lazy_controller_mesh = true;
  cfg.replication_group_size = 3;
  const auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("lazy_controller_mesh"), std::string::npos) << *err;
}

TEST(ConfigValidation, RejectsZeroRdmaRetryBudget) {
  SystemConfig cfg;
  FaultPlan plan;
  plan.rdma_retry_budget = 0;
  cfg.faults = plan;
  expect_rejection(cfg, 0, "rdma_retry_budget");
}

// --- replicated control plane -------------------------------------------------------------------

void stop_groups(System& sys, ControllerAddr seat) {
  for (Controller* c : sys.controllers()) {
    if (!c->failed()) {
      if (ReplicationGroup* g = c->replication_group(seat)) {
        g->stop(ErrorCode::kAborted);
      }
    }
  }
}

// Every mutation kind the log carries, committed on the quorum: all three state machines
// converge to the same structural digest, and the commit gate never loses a grant.
TEST(Replication, ReplicatedMutationsConvergeAcrossTheGroup) {
  SystemConfig cfg;
  cfg.replication_group_size = 3;
  System sys(cfg);
  sys.add_node("seat");
  sys.add_node("r1");
  sys.add_node("r2");
  Controller& c1 = sys.add_controller(0, Loc::kHost);
  Controller& c2 = sys.add_controller(1, Loc::kHost);
  Controller& c3 = sys.add_controller(2, Loc::kHost);
  const ControllerAddr seat = c1.addr();
  sys.replicate_controller(c1, {&c2, &c3});

  Process& p = sys.spawn("p", 0, c1, 1 << 20);
  const CapId buf = sys.await_ok(p.memory_create(p.alloc(8192), 8192, Perms::kReadWrite));
  const CapId view = sys.await_ok(p.memory_diminish(buf, 0, 4096, Perms::kRead));
  const CapId child = sys.await_ok(p.cap_create_revtree(buf));
  ASSERT_TRUE(sys.await(p.monitor_receive(child, 7)).ok());
  EXPECT_TRUE(sys.await(p.cap_revoke(view)).ok());
  (void)view;

  // Followers learn the commit index on the next heartbeat round; let it propagate.
  sys.loop().run_until_time(sys.loop().now() + Duration::millis(2));
  const uint64_t d1 = c1.seat_state_digest(seat);
  EXPECT_NE(d1, 0u);
  EXPECT_EQ(d1, c2.seat_state_digest(seat));
  EXPECT_EQ(d1, c3.seat_state_digest(seat));

  ReplicationGroup* g = c1.replication_group(seat);
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->is_leader());
  EXPECT_TRUE(c1.serves_seat(seat));
  EXPECT_FALSE(c2.serves_seat(seat));
  EXPECT_EQ(g->commit_index(), g->applied_index());

  stop_groups(sys, seat);
  sys.loop().run();
}

// Arming replication on a seat that already owns objects ships an initial snapshot: both
// followers install it and report the same digest as the seat before any log entry lands.
TEST(Replication, InitialSnapshotCatchesUpNonEmptySeat) {
  MetricsRegistry metrics;
  SystemConfig cfg;
  cfg.replication_group_size = 3;
  System sys(cfg);
  sys.loop().set_metrics(&metrics);
  sys.add_node("seat");
  sys.add_node("r1");
  sys.add_node("r2");
  Controller& c1 = sys.add_controller(0, Loc::kHost);
  Controller& c2 = sys.add_controller(1, Loc::kHost);
  Controller& c3 = sys.add_controller(2, Loc::kHost);
  const ControllerAddr seat = c1.addr();

  Process& p = sys.spawn("p", 0, c1, 1 << 20);
  const CapId buf = sys.await_ok(p.memory_create(p.alloc(8192), 8192, Perms::kReadWrite));
  ASSERT_NE(sys.await_ok(p.memory_diminish(buf, 0, 4096, Perms::kRead)), kInvalidCap);

  sys.replicate_controller(c1, {&c2, &c3});
  sys.loop().run_until_time(sys.loop().now() + Duration::millis(1));

  const uint64_t d1 = c1.seat_state_digest(seat);
  EXPECT_NE(d1, 0u);
  EXPECT_EQ(d1, c2.seat_state_digest(seat));
  EXPECT_EQ(d1, c3.seat_state_digest(seat));
  EXPECT_EQ(metrics.value("repl.ctrl-2.s" + std::to_string(seat) + ".snapshots_installed"), 1);
  EXPECT_EQ(metrics.value("repl.ctrl-3.s" + std::to_string(seat) + ".snapshots_installed"), 1);

  stop_groups(sys, seat);
  sys.loop().run();
  sys.loop().set_metrics(nullptr);
}

// A snapshot blob the follower's table refuses must not abort its Controller: the follower
// answers need_snapshot, stays tainted and counts the refusal, and the leader's reply
// snapshot (a good one) restores it to the seat's digest.
TEST(Replication, CorruptSnapshotIsRefusedAndReplaced) {
  MetricsRegistry metrics;
  SystemConfig cfg;
  cfg.replication_group_size = 3;
  System sys(cfg);
  sys.loop().set_metrics(&metrics);
  sys.add_node("seat");
  sys.add_node("r1");
  sys.add_node("r2");
  Controller& c1 = sys.add_controller(0, Loc::kHost);
  Controller& c2 = sys.add_controller(1, Loc::kHost);
  Controller& c3 = sys.add_controller(2, Loc::kHost);
  const ControllerAddr seat = c1.addr();

  Process& p = sys.spawn("p", 0, c1, 1 << 20);
  const CapId buf = sys.await_ok(p.memory_create(p.alloc(8192), 8192, Perms::kReadWrite));
  ASSERT_NE(sys.await_ok(p.memory_diminish(buf, 0, 4096, Perms::kRead)), kInvalidCap);
  sys.replicate_controller(c1, {&c2, &c3});
  sys.loop().run_until_time(sys.loop().now() + Duration::millis(1));
  const uint64_t d1 = c1.seat_state_digest(seat);
  ASSERT_EQ(d1, c2.seat_state_digest(seat));

  ReplicationGroup* g2 = c2.replication_group(seat);
  ASSERT_NE(g2, nullptr);
  ReplSnapshotMsg bad;
  bad.seat = seat;
  bad.leader = seat;
  bad.term = g2->term();
  bad.last_index = g2->commit_index();
  bad.last_term = g2->term();
  bad.blob = c1.table().serialize_snapshot();
  ASSERT_GT(bad.blob.size(), 24u);
  bad.blob.resize(bad.blob.size() - 5);  // truncated inside the last object
  g2->on_snapshot(seat, bad);
  const std::string key = "repl.ctrl-2.s" + std::to_string(seat) + ".";
  EXPECT_TRUE(g2->tainted());
  EXPECT_EQ(metrics.value(key + "snapshots_refused"), 1);
  EXPECT_NE(c2.seat_state_digest(seat), d1);

  // The need_snapshot answer draws a fresh snapshot from the leader (a heartbeat answered
  // while the follower is still tainted may draw one more).
  sys.loop().run_until_time(sys.loop().now() + Duration::millis(1));
  EXPECT_FALSE(g2->tainted());
  EXPECT_EQ(c2.seat_state_digest(seat), d1);
  EXPECT_GE(metrics.value(key + "snapshots_installed"), 2);
  EXPECT_EQ(metrics.value(key + "snapshots_refused"), 1);

  stop_groups(sys, seat);
  sys.loop().run();
  sys.loop().set_metrics(nullptr);
}

// A peer's snapshot whose tree links name a missing object, loop or disagree is refused like
// a truncated one: revocation would walk those links. Each blob is the leader's real snapshot
// of a root and its diminished child with one link patched.
TEST(Replication, SnapshotWithBrokenTreeLinkIsRefused) {
  MetricsRegistry metrics;
  SystemConfig cfg;
  cfg.replication_group_size = 3;
  System sys(cfg);
  sys.loop().set_metrics(&metrics);
  sys.add_node("seat");
  sys.add_node("r1");
  sys.add_node("r2");
  Controller& c1 = sys.add_controller(0, Loc::kHost);
  Controller& c2 = sys.add_controller(1, Loc::kHost);
  Controller& c3 = sys.add_controller(2, Loc::kHost);
  const ControllerAddr seat = c1.addr();

  Process& p = sys.spawn("p", 0, c1, 1 << 20);
  const CapId buf = sys.await_ok(p.memory_create(p.alloc(8192), 8192, Perms::kReadWrite));
  ASSERT_NE(sys.await_ok(p.memory_diminish(buf, 0, 4096, Perms::kRead)), kInvalidCap);
  sys.replicate_controller(c1, {&c2, &c3});
  sys.loop().run_until_time(sys.loop().now() + Duration::millis(1));
  ReplicationGroup* g2 = c2.replication_group(seat);
  ASSERT_NE(g2, nullptr);
  ASSERT_EQ(g2->state().total_count(), 2u);

  // The blob: a 20-byte header, then objects 1 (the root) and 2 (its child) of equal size,
  // each with its tree links as u64s at these offsets.
  const std::vector<uint8_t> good = c1.table().serialize_snapshot();
  constexpr size_t kHeader = 20;
  const size_t object_bytes = (good.size() - kHeader) / 2;
  ASSERT_EQ(good.size(), kHeader + 2 * object_bytes);
  constexpr size_t kParent = 10, kFirstChild = 18, kLastChild = 26, kPrevSibling = 34,
                   kNextSibling = 42;
  struct Patch {
    int object;  // 1 or 2
    size_t link;
    ObjectIndex value;
  };
  const Patch patches[] = {
      {1, kFirstChild, 3},                // names an index that is not in the blob
      {2, kNextSibling, 2},               // a sibling cycle
      {2, kParent, 2},                    // its own parent
      {1, kLastChild, kInvalidObject},    // the child list does not end at last_child
      {2, kPrevSibling, 2},               // a first child's prev_sibling is set (to itself)
  };
  const std::string key = "repl.ctrl-2.s" + std::to_string(seat) + ".";
  int64_t refused = 0;
  for (const Patch& patch : patches) {
    ReplSnapshotMsg bad;
    bad.seat = seat;
    bad.leader = seat;
    bad.term = g2->term();
    bad.last_index = g2->commit_index();
    bad.last_term = g2->term();
    bad.blob = good;
    std::memcpy(bad.blob.data() + kHeader + (patch.object - 1) * object_bytes + patch.link,
                &patch.value, sizeof(patch.value));
    g2->on_snapshot(seat, bad);
    EXPECT_TRUE(g2->tainted()) << patch.link;
    EXPECT_EQ(g2->state().total_count(), 0u) << patch.link;
    EXPECT_EQ(metrics.value(key + "snapshots_refused"), ++refused) << patch.link;
  }

  stop_groups(sys, seat);
  sys.loop().run();
  sys.loop().set_metrics(nullptr);
}

// Leader death: the surviving members elect the lowest-ranked replica within the lease
// bound, the new leader finishes establishing (barrier commit), announces itself, and an
// unreplicated fourth Controller's processes keep using the seat's capabilities through it.
TEST(Replication, FailoverElectsReplicaWithinLeaseBound) {
  SystemConfig cfg;
  cfg.replication_group_size = 3;
  System sys(cfg);
  sys.add_node("seat");
  sys.add_node("r1");
  sys.add_node("r2");
  sys.add_node("client");
  Controller& c1 = sys.add_controller(0, Loc::kHost);
  Controller& c2 = sys.add_controller(1, Loc::kHost);
  Controller& c3 = sys.add_controller(2, Loc::kHost);
  Controller& c4 = sys.add_controller(3, Loc::kHost);
  const ControllerAddr seat = c1.addr();
  sys.replicate_controller(c1, {&c2, &c3});

  Process& provider = sys.spawn("provider", 0, c1, 1 << 20);
  Process& holder = sys.spawn("holder", 3, c4, 1 << 20);
  const CapId root =
      sys.await_ok(provider.memory_create(provider.alloc(8192), 8192, Perms::kReadWrite));
  const CapId root_h = sys.bootstrap_grant(provider, root, holder).value();
  const CapId pre = sys.await_ok(holder.cap_create_revtree(root_h));  // committed pre-kill

  const Time killed = sys.loop().now();
  sys.fail_controller(c1);
  ASSERT_TRUE(sys.loop().run_until(
      [&]() { return c2.serves_seat(seat) || c3.serves_seat(seat); }));
  const Duration election = sys.loop().now() - killed;
  EXPECT_LE(election.ns(), cfg.replication.lease.ns());
  // Rank staggering is deterministic: the first replica in member order takes over.
  EXPECT_TRUE(c2.serves_seat(seat));
  EXPECT_FALSE(c3.serves_seat(seat));

  // Let the leader announcement and catch-up traffic land everywhere.
  const Time takeover = sys.loop().now();
  sys.loop().run_until_time(sys.loop().now() + Duration::millis(1));
  std::printf("failover: election %.1f us, announce+catch-up window %.1f us\n",
              static_cast<double>(election.ns()) / 1e3,
              static_cast<double>((sys.loop().now() - takeover).ns()) / 1e3);

  // No committed grant lost: the pre-kill child and the root both derive at the new leader
  // (the client's Controller learned the route from the leader announcement).
  const CapId post = sys.await_ok(holder.cap_create_revtree(root_h));
  EXPECT_NE(post, kInvalidCap);
  const CapId grand = sys.await_ok(holder.cap_create_revtree(pre));
  EXPECT_NE(grand, kInvalidCap);

  // Revocation at the takeover leader invalidates the whole subtree on both survivors.
  EXPECT_TRUE(sys.await(holder.cap_revoke(pre)).ok());
  const Result<CapId> stale = sys.await(holder.cap_create_revtree(grand));
  ASSERT_FALSE(stale.ok());
  // kInvalidCapability when the revocation already erased the object, kRevoked if the
  // holder's Controller still resolves it far enough to see the tombstone.
  EXPECT_TRUE(stale.error() == ErrorCode::kRevoked ||
              stale.error() == ErrorCode::kInvalidCapability)
      << error_code_name(stale.error());

  sys.loop().run_until_time(sys.loop().now() + Duration::millis(2));
  const uint64_t d2 = c2.seat_state_digest(seat);
  EXPECT_NE(d2, 0u);
  EXPECT_EQ(d2, c3.seat_state_digest(seat));

  stop_groups(sys, seat);
  sys.loop().run();
}

// A leader partitioned away from both followers: its lease expires, it refuses mutations
// with kNotLeader (instead of serving stale state), the majority elects a successor, and
// after the partition heals the old leader is deposed and converges — discarding any entry
// it eagerly applied that never committed (log divergence repaired via snapshot).
TEST(Replication, PartitionedMinorityLeaderRefusesToServe) {
  MetricsRegistry metrics;
  SystemConfig cfg;
  cfg.replication_group_size = 3;
  FaultPlan plan;
  plan.seed = 11;
  plan.flaps.push_back({0, 1, Time::from_ns(2'000'000), Time::from_ns(8'000'000)});
  plan.flaps.push_back({0, 2, Time::from_ns(2'000'000), Time::from_ns(8'000'000)});
  cfg.faults = plan;
  System sys(cfg);
  sys.loop().set_metrics(&metrics);
  sys.add_node("seat");
  sys.add_node("r1");
  sys.add_node("r2");
  Controller& c1 = sys.add_controller(0, Loc::kHost);
  Controller& c2 = sys.add_controller(1, Loc::kHost);
  Controller& c3 = sys.add_controller(2, Loc::kHost);
  const ControllerAddr seat = c1.addr();
  sys.replicate_controller(c1, {&c2, &c3});

  Process& p = sys.spawn("p", 0, c1, 1 << 20);
  const CapId buf = sys.await_ok(p.memory_create(p.alloc(8192), 8192, Perms::kReadWrite));

  // Inside the partition while the old lease is still warm: the op is eagerly applied and
  // appended, but the append can reach no follower — the commit gate times out and the
  // client learns the outcome is unknown. (kNotLeader if the lease lapsed first.)
  sys.loop().run_until_time(Time::from_ns(2'500'000));
  const size_t caps_before = c1.cap_space_size(p.pid());
  Future<Result<CapId>> orphan_view = p.memory_diminish(buf, 0, 4096, Perms::kRead);
  Future<Result<CapId>> orphan_endpoint = p.request_create();
  const Result<CapId> orphan = sys.await(std::move(orphan_view));
  ASSERT_FALSE(orphan.ok());
  EXPECT_TRUE(orphan.error() == ErrorCode::kTimeout || orphan.error() == ErrorCode::kNotLeader)
      << error_code_name(orphan.error());
  // A root create installs its endpoint cap before the commit (the root records the cid);
  // the failed commit takes it back.
  const Result<CapId> orphan_root = sys.await(std::move(orphan_endpoint));
  ASSERT_FALSE(orphan_root.ok());
  EXPECT_TRUE(orphan_root.error() == ErrorCode::kTimeout ||
              orphan_root.error() == ErrorCode::kNotLeader)
      << error_code_name(orphan_root.error());
  // Observable only once durable: the Process holds neither orphaned capability.
  EXPECT_EQ(c1.cap_space_size(p.pid()), caps_before);

  // Deep in the partition: the minority leader's lease has expired, the majority side has
  // elected a successor, and the old leader refuses mutations outright.
  sys.loop().run_until_time(Time::from_ns(6'500'000));
  EXPECT_FALSE(c1.serves_seat(seat));
  EXPECT_NE(c2.serves_seat(seat), c3.serves_seat(seat));
  const Result<CapId> refused = sys.await(p.memory_diminish(buf, 0, 4096, Perms::kRead));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), ErrorCode::kNotLeader);

  // Heal. The deposed leader discovers the higher term, taints its eagerly-applied state,
  // and reinstalls from the successor's snapshot: all three digests converge, and the
  // orphaned entry is gone (it never committed anywhere).
  sys.loop().run_until_time(Time::from_ns(14'000'000));
  ReplicationGroup* g1 = c1.replication_group(seat);
  ASSERT_NE(g1, nullptr);
  EXPECT_GE(g1->term(), 2u);
  EXPECT_FALSE(g1->is_leader());
  EXPECT_FALSE(g1->tainted());  // repaired, not stuck
  const uint64_t d = c2.seat_state_digest(seat);
  EXPECT_NE(d, 0u);
  EXPECT_EQ(d, c3.seat_state_digest(seat));
  EXPECT_EQ(d, c1.seat_state_digest(seat));
  EXPECT_GE(
      metrics.value("repl.ctrl-1.s" + std::to_string(seat) + ".snapshots_installed"), 1);

  stop_groups(sys, seat);
  sys.loop().run();
  sys.loop().set_metrics(nullptr);
}

// A revoke on a replicated seat is commit-gated like every other mutation: one that never
// commits sends no cleanup broadcast, so a holder on another Controller keeps its committed
// capability, through the partition and after the heal.
TEST(Replication, UncommittedRevokeLeavesPeerHoldersTheirCaps) {
  SystemConfig cfg;
  cfg.replication_group_size = 3;
  FaultPlan plan;
  plan.seed = 11;
  plan.flaps.push_back({0, 1, Time::from_ns(2'000'000), Time::from_ns(8'000'000)});
  plan.flaps.push_back({0, 2, Time::from_ns(2'000'000), Time::from_ns(8'000'000)});
  cfg.faults = plan;
  System sys(cfg);
  sys.add_node("seat");
  sys.add_node("r1");
  sys.add_node("r2");
  sys.add_node("holder");
  Controller& c1 = sys.add_controller(0, Loc::kHost);
  Controller& c2 = sys.add_controller(1, Loc::kHost);
  Controller& c3 = sys.add_controller(2, Loc::kHost);
  Controller& c4 = sys.add_controller(3, Loc::kHost);
  const ControllerAddr seat = c1.addr();
  sys.replicate_controller(c1, {&c2, &c3});

  Process& p = sys.spawn("p", 0, c1, 1 << 20);
  Process& h = sys.spawn("h", 3, c4, 1 << 20);
  const CapId buf = sys.await_ok(p.memory_create(p.alloc(8192), 8192, Perms::kReadWrite));
  const CapId held = sys.bootstrap_grant(p, buf, h).value();

  // The seat is cut off from both replicas but not from the holder's Controller: a cleanup
  // broadcast would reach it.
  sys.loop().run_until_time(Time::from_ns(2'500'000));
  const Status revoked = sys.await(p.cap_revoke(buf));
  ASSERT_FALSE(revoked.ok());
  EXPECT_TRUE(revoked.error() == ErrorCode::kTimeout || revoked.error() == ErrorCode::kNotLeader)
      << error_code_name(revoked.error());
  sys.loop().run_until_time(Time::from_ns(6'500'000));
  EXPECT_TRUE(c4.inspect_cap(h.pid(), held).ok());

  // Heal: the revoke committed nowhere, so the successor still serves the object.
  sys.loop().run_until_time(Time::from_ns(14'000'000));
  EXPECT_TRUE(c4.inspect_cap(h.pid(), held).ok());
  EXPECT_EQ(c2.seat_state_digest(seat), c1.seat_state_digest(seat));

  stop_groups(sys, seat);
  sys.loop().run();
}

// A root request_create whose endpoint cap does not fit the Process's quota has still applied
// its op to the seat's table; the op is logged all the same, so the followers apply it too and
// the next mutation's index agrees on every member.
TEST(Replication, RefusedEndpointInstallKeepsReplicasInStep) {
  MetricsRegistry metrics;
  SystemConfig cfg;
  cfg.replication_group_size = 3;
  cfg.cap_quota = 2;
  System sys(cfg);
  sys.loop().set_metrics(&metrics);
  sys.add_node("seat");
  sys.add_node("r1");
  sys.add_node("r2");
  Controller& c1 = sys.add_controller(0, Loc::kHost);
  Controller& c2 = sys.add_controller(1, Loc::kHost);
  Controller& c3 = sys.add_controller(2, Loc::kHost);
  const ControllerAddr seat = c1.addr();
  sys.replicate_controller(c1, {&c2, &c3});

  Process& p = sys.spawn("p", 0, c1, 1 << 20);
  const CapId a = sys.await_ok(p.memory_create(p.alloc(4096), 4096, Perms::kReadWrite));
  sys.await_ok(p.memory_create(p.alloc(4096), 4096, Perms::kReadWrite));
  const Result<CapId> refused = sys.await(p.request_create());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), ErrorCode::kResourceExhausted);
  ASSERT_TRUE(sys.await(p.cap_revoke(a)).ok());
  sys.await_ok(p.memory_create(p.alloc(4096), 4096, Perms::kReadWrite));

  sys.loop().run_until_time(sys.loop().now() + Duration::millis(2));
  const uint64_t d = c1.seat_state_digest(seat);
  EXPECT_EQ(d, c2.seat_state_digest(seat));
  EXPECT_EQ(d, c3.seat_state_digest(seat));
  for (const Controller* c : {&c2, &c3}) {
    EXPECT_EQ(metrics.value("repl.ctrl-" + std::to_string(c->addr()) + ".s" +
                            std::to_string(seat) + ".divergence"),
              0);
  }

  stop_groups(sys, seat);
  sys.loop().run();
  sys.loop().set_metrics(nullptr);
}

// Delegating a monitor_delegate'd object mints a tracked child at its owner. A deposed seat
// cannot log one, so it refuses the delegation instead of leaving an unlogged object in its
// table that would set its state apart from the replicas' after the heal.
TEST(Replication, DeposedSeatMintsNoDelegationChild) {
  SystemConfig cfg;
  cfg.replication_group_size = 3;
  FaultPlan plan;
  plan.seed = 11;
  plan.flaps.push_back({0, 1, Time::from_ns(2'000'000), Time::from_ns(8'000'000)});
  plan.flaps.push_back({0, 2, Time::from_ns(2'000'000), Time::from_ns(8'000'000)});
  cfg.faults = plan;
  System sys(cfg);
  sys.add_node("seat");
  sys.add_node("r1");
  sys.add_node("r2");
  Controller& c1 = sys.add_controller(0, Loc::kHost);
  Controller& c2 = sys.add_controller(1, Loc::kHost);
  Controller& c3 = sys.add_controller(2, Loc::kHost);
  const ControllerAddr seat = c1.addr();
  sys.replicate_controller(c1, {&c2, &c3});

  Process& p = sys.spawn("p", 0, c1, 1 << 20);
  const CapId buf = sys.await_ok(p.memory_create(p.alloc(8192), 8192, Perms::kReadWrite));
  ASSERT_TRUE(sys.await(p.monitor_delegate(buf, 5)).ok());

  sys.loop().run_until_time(Time::from_ns(6'500'000));
  ASSERT_FALSE(c1.serves_seat(seat));
  const size_t objects = c1.table().total_count();
  const Result<CapId> refused = sys.await(p.request_create(Process::Args{}.cap(buf)));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), ErrorCode::kNotLeader);
  EXPECT_EQ(c1.table().total_count(), objects);

  sys.loop().run_until_time(Time::from_ns(14'000'000));
  const uint64_t d = c2.seat_state_digest(seat);
  EXPECT_EQ(d, c3.seat_state_digest(seat));
  EXPECT_EQ(d, c1.seat_state_digest(seat));

  stop_groups(sys, seat);
  sys.loop().run();
}

// Leader killed while the surviving members' link is flapping: candidacies stall (votes are
// stuck behind the flap), terms escalate past the split vote, and once the link heals the
// election converges to exactly one serving leader with converged replicas — never two.
TEST(Replication, ElectionConvergesThroughALinkFlap) {
  SystemConfig cfg;
  cfg.replication_group_size = 3;
  FaultPlan plan;
  plan.seed = 13;
  plan.flaps.push_back({1, 2, Time::from_ns(1'000'000), Time::from_ns(4'000'000)});
  cfg.faults = plan;
  System sys(cfg);
  sys.add_node("seat");
  sys.add_node("r1");
  sys.add_node("r2");
  Controller& c1 = sys.add_controller(0, Loc::kHost);
  Controller& c2 = sys.add_controller(1, Loc::kHost);
  Controller& c3 = sys.add_controller(2, Loc::kHost);
  const ControllerAddr seat = c1.addr();
  sys.replicate_controller(c1, {&c2, &c3});

  Process& p = sys.spawn("p", 0, c1, 1 << 20);
  ASSERT_NE(sys.await_ok(p.memory_create(p.alloc(8192), 8192, Perms::kReadWrite)),
            kInvalidCap);

  sys.loop().run_until_time(Time::from_ns(1'200'000));  // flap is active
  sys.fail_controller(c1);
  ASSERT_TRUE(sys.loop().run_until(
      [&]() { return c2.serves_seat(seat) || c3.serves_seat(seat); }));
  // Convergence cannot beat the flap, but must follow it promptly.
  EXPECT_LE(sys.loop().now().ns(), 4'000'000 + 2 * cfg.replication.lease.ns());
  EXPECT_NE(c2.serves_seat(seat), c3.serves_seat(seat));

  sys.loop().run_until_time(sys.loop().now() + Duration::millis(2));
  EXPECT_EQ(c2.seat_state_digest(seat), c3.seat_state_digest(seat));
  EXPECT_NE(c2.seat_state_digest(seat), 0u);

  stop_groups(sys, seat);
  sys.loop().run();
}

}  // namespace
}  // namespace fractos
