// Integration tests of the FractOS core: the Table-1 syscall surface end to end over the
// simulated fabric — latency calibration, data movement, request invocation and composition,
// capability security, monitors, congestion control, and failure translation.

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "src/core/system.h"
#include "src/sim/span.h"

namespace fractos {
namespace {

std::vector<uint8_t> pattern(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return v;
}

// One node, controller on the host CPU, one process: the Table 3 setting.
TEST(CoreLatency, NullOpMatchesTable3OnCpu) {
  System sys;
  const uint32_t n0 = sys.add_node("n0");
  Controller& ctrl = sys.add_controller(n0, Loc::kHost);
  Process& p = sys.spawn("app", n0, ctrl);
  // Warm-up (allocates nothing, but keeps the measurement clean).
  ASSERT_TRUE(sys.await(p.null_op()).ok());
  const Time before = sys.loop().now();
  ASSERT_TRUE(sys.await(p.null_op()).ok());
  const double us = (sys.loop().now() - before).to_us();
  EXPECT_NEAR(us, 3.00, 0.10);  // Table 3: FractOS @ CPU = 3.00 us
}

TEST(CoreLatency, NullOpMatchesTable3OnSnic) {
  System sys;
  const uint32_t n0 = sys.add_node("n0");
  Controller& ctrl = sys.add_controller(n0, Loc::kSnic);
  Process& p = sys.spawn("app", n0, ctrl);
  ASSERT_TRUE(sys.await(p.null_op()).ok());
  const Time before = sys.loop().now();
  ASSERT_TRUE(sys.await(p.null_op()).ok());
  const double us = (sys.loop().now() - before).to_us();
  EXPECT_NEAR(us, 4.50, 0.15);  // Table 3: FractOS @ sNIC = 4.50 us
}

class CoreTwoNodes : public ::testing::Test {
 protected:
  CoreTwoNodes() {
    n0_ = sys_.add_node("n0");
    n1_ = sys_.add_node("n1");
    c0_ = &sys_.add_controller(n0_, Loc::kHost);
    c1_ = &sys_.add_controller(n1_, Loc::kHost);
    a_ = &sys_.spawn("a", n0_, *c0_);
    b_ = &sys_.spawn("b", n1_, *c1_);
  }

  System sys_;
  uint32_t n0_ = 0, n1_ = 0;
  Controller* c0_ = nullptr;
  Controller* c1_ = nullptr;
  Process* a_ = nullptr;
  Process* b_ = nullptr;
};

TEST_F(CoreTwoNodes, MemoryCopyMovesRealDataAcrossNodes) {
  const auto data = pattern(4096);
  const uint64_t src_addr = a_->alloc(4096);
  a_->write_mem(src_addr, data);
  const CapId src = sys_.await_ok(a_->memory_create(src_addr, 4096, Perms::kRead));

  const uint64_t dst_addr = b_->alloc(4096);
  const CapId dst_b = sys_.await_ok(b_->memory_create(dst_addr, 4096, Perms::kReadWrite));
  const CapId dst_a = sys_.bootstrap_grant(*b_, dst_b, *a_).value();

  ASSERT_TRUE(sys_.await(a_->memory_copy(src, dst_a)).ok());
  EXPECT_EQ(b_->read_mem(dst_addr, 4096), data);
}

TEST_F(CoreTwoNodes, MemoryCopyRequiresPermissions) {
  const uint64_t src_addr = a_->alloc(64);
  const uint64_t dst_addr = a_->alloc(64);
  const CapId src_ro = sys_.await_ok(a_->memory_create(src_addr, 64, Perms::kRead));
  const CapId dst_ro = sys_.await_ok(a_->memory_create(dst_addr, 64, Perms::kRead));
  const CapId dst_rw = sys_.await_ok(a_->memory_create(dst_addr, 64, Perms::kReadWrite));
  EXPECT_EQ(sys_.await(a_->memory_copy(src_ro, dst_ro)).error(), ErrorCode::kPermissionDenied);
  EXPECT_TRUE(sys_.await(a_->memory_copy(src_ro, dst_rw)).ok());
}

TEST_F(CoreTwoNodes, MemoryCopyUsesMinSizeSemantics) {
  const uint64_t big_addr = a_->alloc(128);
  const uint64_t small_addr = a_->alloc(64);
  a_->write_mem(big_addr, pattern(128));
  const CapId small = sys_.await_ok(a_->memory_create(small_addr, 64, Perms::kReadWrite));
  const CapId big = sys_.await_ok(a_->memory_create(big_addr, 128, Perms::kReadWrite));
  // big -> small copies the 64-byte prefix (staging-window reuse depends on this).
  ASSERT_TRUE(sys_.await(a_->memory_copy(big, small)).ok());
  EXPECT_EQ(a_->read_mem(small_addr, 64), pattern(64));
  ASSERT_TRUE(sys_.await(a_->memory_copy(small, big)).ok());
}

TEST_F(CoreTwoNodes, MemoryCreateValidatesExtent) {
  auto r = sys_.await(a_->memory_create(a_->heap_size() - 10, 100, Perms::kRead));
  EXPECT_EQ(r.error(), ErrorCode::kOutOfRange);
}

TEST_F(CoreTwoNodes, DiminishedRemoteCapGetsNarrowedView) {
  const uint64_t addr = b_->alloc(4096);
  b_->write_mem(addr, pattern(4096));
  const CapId mem_b = sys_.await_ok(b_->memory_create(addr, 4096, Perms::kReadWrite));
  const CapId mem_a = sys_.bootstrap_grant(*b_, mem_b, *a_).value();
  // a diminishes the remote capability: derivation happens at b's Controller.
  const CapId sub = sys_.await_ok(a_->memory_diminish(mem_a, 1024, 512, Perms::kWrite));
  // Copy from the 512-byte read-only window into a's buffer.
  const uint64_t dst = a_->alloc(512);
  const CapId dst_cap = sys_.await_ok(a_->memory_create(dst, 512, Perms::kReadWrite));
  ASSERT_TRUE(sys_.await(a_->memory_copy(sub, dst_cap)).ok());
  EXPECT_EQ(a_->read_mem(dst, 512), b_->read_mem(addr + 1024, 512));
  // The diminished view must not allow writes (it dropped kWrite).
  EXPECT_EQ(sys_.await(a_->memory_copy(dst_cap, sub)).error(), ErrorCode::kPermissionDenied);
}

TEST_F(CoreTwoNodes, RequestInvokeDeliversImmediatesLocally) {
  Process& b2 = sys_.spawn("b2", n0_, *c0_);
  std::optional<Process::Received> got;
  const CapId ep = sys_.await_ok(
      a_->serve(Process::Args{}.imm_u64(0, 0xcafe), [&](Process::Received r) { got = r; }));
  const CapId ep_b2 = sys_.bootstrap_grant(*a_, ep, b2).value();
  ASSERT_TRUE(sys_.await(b2.request_invoke(ep_b2, Process::Args{}.imm_u64(8, 0xf00d))).ok());
  sys_.loop().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->endpoint, ep);
  EXPECT_EQ(got->imm_u64(0), 0xcafe);   // provider-set arg
  EXPECT_EQ(got->imm_u64(8), 0xf00d);   // invoke-time refinement
}

TEST_F(CoreTwoNodes, RequestInvokeAcrossNodesDelegatesCaps) {
  // b serves; a invokes with a memory capability argument; b uses it for a copy.
  const auto data = pattern(1024, 5);
  const uint64_t a_buf = a_->alloc(1024);
  a_->write_mem(a_buf, data);
  const CapId a_mem = sys_.await_ok(a_->memory_create(a_buf, 1024, Perms::kRead));

  std::optional<Process::Received> got;
  const CapId ep = sys_.await_ok(b_->serve({}, [&](Process::Received r) { got = r; }));
  const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();

  ASSERT_TRUE(sys_.await(a_->request_invoke(ep_a, Process::Args{}.cap(a_mem))).ok());
  const bool delivered = sys_.loop().run_until([&]() { return got.has_value(); });
  ASSERT_TRUE(delivered);
  ASSERT_EQ(got->num_caps(), 1u);
  EXPECT_EQ(got->caps[0].kind, ObjectKind::kMemory);
  EXPECT_EQ(got->caps[0].mem_size, 1024u);
  EXPECT_EQ(got->caps[0].perms, Perms::kRead);

  // The delegated capability works: b copies a's buffer into its own memory.
  const uint64_t b_buf = b_->alloc(1024);
  const CapId b_mem = sys_.await_ok(b_->memory_create(b_buf, 1024, Perms::kReadWrite));
  ASSERT_TRUE(sys_.await(b_->memory_copy(got->cap(0), b_mem)).ok());
  EXPECT_EQ(b_->read_mem(b_buf, 1024), data);
}

TEST_F(CoreTwoNodes, CallSugarRoundTrips) {
  const CapId ep = sys_.await_ok(b_->serve({}, [&](Process::Received r) {
    // Echo service: reply with the received imm + 1 (reply request is the last cap).
    const uint64_t v = r.imm_u64(0).value_or(0);
    b_->request_invoke(r.cap(r.num_caps() - 1), Process::Args{}.imm_u64(0, v + 1));
  }));
  const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();
  auto reply = sys_.await_ok(a_->call(ep_a, Process::Args{}.imm_u64(0, 41)));
  EXPECT_EQ(reply.imm_u64(0), 42u);
}

TEST_F(CoreTwoNodes, DerivedRequestRefinesRemoteBase) {
  std::optional<Process::Received> got;
  const CapId ep = sys_.await_ok(
      b_->serve(Process::Args{}.imm_u64(0, 100), [&](Process::Received r) { got = r; }));
  const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();
  // a derives (refines) the remote request: single message to the owner.
  const CapId derived = sys_.await_ok(a_->request_derive(ep_a, Process::Args{}.imm_u64(8, 200)));
  ASSERT_TRUE(sys_.await(a_->request_invoke(derived, Process::Args{}.imm_u64(16, 300))).ok());
  ASSERT_TRUE(sys_.loop().run_until([&]() { return got.has_value(); }));
  EXPECT_EQ(got->imm_u64(0), 100u);
  EXPECT_EQ(got->imm_u64(8), 200u);
  EXPECT_EQ(got->imm_u64(16), 300u);
}

TEST_F(CoreTwoNodes, RefinementCannotOverwriteInitializedArgs) {
  const CapId ep = sys_.await_ok(b_->serve(Process::Args{}.imm_u64(0, 1), [](Process::Received) {}));
  const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();
  auto r = sys_.await(a_->request_derive(ep_a, Process::Args{}.imm_u64(0, 2)));
  EXPECT_EQ(r.error(), ErrorCode::kArgumentOverlap);
}

TEST_F(CoreTwoNodes, InvokeOnMemoryCapRejected) {
  const CapId mem = sys_.await_ok(a_->memory_create(a_->alloc(64), 64, Perms::kRead));
  EXPECT_EQ(sys_.await(a_->request_invoke(mem)).error(), ErrorCode::kWrongObjectKind);
  EXPECT_EQ(sys_.await(a_->memory_copy(mem, mem)).error(), ErrorCode::kPermissionDenied);
}

TEST_F(CoreTwoNodes, InvalidCidRejectedEverywhere) {
  EXPECT_EQ(sys_.await(a_->request_invoke(12345)).error(), ErrorCode::kInvalidCapability);
  EXPECT_EQ(sys_.await(a_->cap_revoke(12345)).error(), ErrorCode::kInvalidCapability);
  auto r = sys_.await(a_->memory_diminish(777, 0, 1, Perms::kNone));
  EXPECT_EQ(r.error(), ErrorCode::kInvalidCapability);
}

TEST_F(CoreTwoNodes, RevokeRemoteRequestStopsInvocations) {
  int deliveries = 0;
  const CapId ep = sys_.await_ok(b_->serve({}, [&](Process::Received) { ++deliveries; }));
  const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();
  ASSERT_TRUE(sys_.await(a_->request_invoke(ep_a)).ok());
  sys_.loop().run();
  EXPECT_EQ(deliveries, 1);

  // a revokes its (shared) capability: the OBJECT is invalidated at the owner.
  ASSERT_TRUE(sys_.await(a_->cap_revoke(ep_a)).ok());
  sys_.loop().run();

  // b's own endpoint capability was purged by the cleanup broadcast.
  EXPECT_EQ(sys_.await(b_->request_invoke(ep)).error(), ErrorCode::kInvalidCapability);
  EXPECT_EQ(deliveries, 1);
}

TEST_F(CoreTwoNodes, RevtreeChildRevocableIndependently) {
  int deliveries = 0;
  const CapId ep = sys_.await_ok(b_->serve({}, [&](Process::Received) { ++deliveries; }));
  const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();
  const CapId child = sys_.await_ok(a_->cap_create_revtree(ep_a));

  ASSERT_TRUE(sys_.await(a_->request_invoke(child)).ok());
  sys_.loop().run();
  EXPECT_EQ(deliveries, 1);

  ASSERT_TRUE(sys_.await(a_->cap_revoke(child)).ok());
  sys_.loop().run();

  // The base endpoint still works for b (and for a through ep_a).
  ASSERT_TRUE(sys_.await(a_->request_invoke(ep_a)).ok());
  sys_.loop().run();
  EXPECT_EQ(deliveries, 2);
}

TEST_F(CoreTwoNodes, InvokeErrorSurfacesThroughErrorChannel) {
  const CapId ep = sys_.await_ok(b_->serve({}, [](Process::Received) {}));
  const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();
  // b revokes its endpoint; a's capability still names the (now dead) object.
  ASSERT_TRUE(sys_.await(b_->cap_revoke(ep)).ok());
  std::optional<ErrorCode> err;
  a_->set_invoke_error_handler([&](ErrorCode e) { err = e; });
  // The cleanup broadcast may have purged a's entry already; both outcomes are "stopped".
  auto accepted = sys_.await(a_->request_invoke(ep_a));
  sys_.loop().run();
  if (accepted.ok()) {
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(*err, ErrorCode::kRevoked);
  } else {
    EXPECT_EQ(accepted.error(), ErrorCode::kInvalidCapability);
  }
}

TEST_F(CoreTwoNodes, MonitorReceiveFiresAcrossControllers) {
  const CapId ep = sys_.await_ok(b_->serve({}, [](Process::Received) {}));
  const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();
  std::optional<std::pair<uint64_t, bool>> fired;
  a_->set_monitor_handler([&](uint64_t cb, bool mode) { fired = {cb, mode}; });
  ASSERT_TRUE(sys_.await(a_->monitor_receive(ep_a, 321)).ok());
  ASSERT_TRUE(sys_.await(b_->cap_revoke(ep)).ok());
  ASSERT_TRUE(sys_.loop().run_until([&]() { return fired.has_value(); }));
  EXPECT_EQ(fired->first, 321u);
  EXPECT_FALSE(fired->second);  // monitor_receive_cb
}

TEST_F(CoreTwoNodes, MonitorDelegateFiresWhenClientDies) {
  // The GPU-service pattern of Section 3.6: the service creates a per-client Request,
  // monitor_delegate's it, and delegates it; when the client dies, the callback fires.
  const CapId ep = sys_.await_ok(b_->serve({}, [](Process::Received) {}));
  std::optional<std::pair<uint64_t, bool>> fired;
  b_->set_monitor_handler([&](uint64_t cb, bool mode) { fired = {cb, mode}; });
  ASSERT_TRUE(sys_.await(b_->monitor_delegate(ep, 555)).ok());

  // Delegate to a through the normal invoke path (owner-side interception creates the
  // tracked child): b invokes a reply endpoint owned by a, passing ep as a cap argument.
  std::optional<Process::Received> at_a;
  const CapId a_ep = sys_.await_ok(a_->serve({}, [&](Process::Received r) { at_a = r; }));
  const CapId a_ep_b = sys_.bootstrap_grant(*a_, a_ep, *b_).value();
  ASSERT_TRUE(sys_.await(b_->request_invoke(a_ep_b, Process::Args{}.cap(ep))).ok());
  ASSERT_TRUE(sys_.loop().run_until([&]() { return at_a.has_value(); }));
  ASSERT_EQ(at_a->num_caps(), 1u);

  // The delegated capability still works for a.
  ASSERT_TRUE(sys_.await(a_->request_invoke(at_a->cap(0))).ok());
  sys_.loop().run();
  EXPECT_FALSE(fired.has_value());

  // a dies; its controller revokes the tracked child at b; the counter hits zero.
  sys_.fail_process(*a_);
  ASSERT_TRUE(sys_.loop().run_until([&]() { return fired.has_value(); }));
  EXPECT_EQ(fired->first, 555u);
  EXPECT_TRUE(fired->second);  // monitor_delegate_cb
}

TEST_F(CoreTwoNodes, ProcessFailureRevokesItsObjects) {
  const uint64_t addr = a_->alloc(256);
  const CapId mem_a = sys_.await_ok(a_->memory_create(addr, 256, Perms::kReadWrite));
  const CapId mem_b = sys_.bootstrap_grant(*a_, mem_a, *b_).value();
  const uint64_t b_buf = b_->alloc(256);
  const CapId b_mem = sys_.await_ok(b_->memory_create(b_buf, 256, Perms::kReadWrite));

  // Works before the failure.
  ASSERT_TRUE(sys_.await(b_->memory_copy(mem_b, b_mem)).ok());

  sys_.fail_process(*a_);
  sys_.loop().run();  // failure detection + revocations + broadcast

  // After the failure every use fails: either the entry was purged by the broadcast or the
  // RDMA authorization rejects the dead object.
  EXPECT_FALSE(sys_.await(b_->memory_copy(mem_b, b_mem)).ok());
}

TEST_F(CoreTwoNodes, ControllerRestartMakesCapsStale) {
  const CapId ep = sys_.await_ok(b_->serve({}, [](Process::Received) {}));
  const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();

  sys_.fail_controller(*c1_);
  sys_.loop().run();
  sys_.restart_controller(*c1_);

  // Re-meshing exchanged reboot generations, so the stale capability is refused EAGERLY at
  // a's own Controller — no round trip needed (Section 3.6's Lamport-timestamp check).
  EXPECT_EQ(sys_.await(a_->request_invoke(ep_a)).error(), ErrorCode::kStaleCapability);
}

// A restart destroys the Controller's ends of its Process channels while the Processes' ends
// live on, each still waiting for the sever notice of the failure. A sever from such an end
// must reach nothing of the destroyed one.
TEST_F(CoreTwoNodes, SeverAfterRestartReadsNoDestroyedChannelEnd) {
  sys_.fail_controller(*c1_);
  sys_.restart_controller(*c1_);
  b_->fail();
  sys_.loop().run();
  EXPECT_TRUE(b_->failed());
  // The surviving side still works.
  EXPECT_TRUE(sys_.await(a_->null_op()).ok());
}

// The depth-priced local invoke (ControllerPolicy::charge_chain_traversal): a translation-cache
// miss on a delegation chain pays (depth - 1) request traversals before the delivery, and a
// hit pays nothing.
TEST(CoreTranslationPricing, LocalChainPaysItsWalkOnceThenHitsTheCache) {
  SystemConfig cfg;
  cfg.charge_chain_traversal = true;
  cfg.translation_cache_entries = 16;
  System sys(cfg);
  SpanTracer tracer;
  sys.loop().set_span_tracer(&tracer);
  const uint32_t n0 = sys.add_node("n0");
  Controller& ctrl = sys.add_controller(n0, Loc::kHost);
  Process& svc = sys.spawn("svc", n0, ctrl);
  Process& client = sys.spawn("client", n0, ctrl);
  int deliveries = 0;
  const CapId root = sys.await_ok(svc.serve({}, [&](Process::Received) { ++deliveries; }));
  const CapId root_c = sys.bootstrap_grant(svc, root, client).value();
  // root <- mid <- leaf: depth 3, every layer without immediates, so each invoke below moves
  // the same bytes and only the pricing differs.
  const CapId mid = sys.await_ok(client.request_derive(root_c, {}));
  const CapId leaf = sys.await_ok(client.request_derive(mid, {}));
  sys.loop().run();

  // Each invoke is a traced request, so the Controller's translation spans are recorded.
  auto invoke_ns = [&](CapId cid, Process::Args args = {}) {
    const int64_t start = sys.loop().now().ns();
    const uint64_t trace = tracer.start_trace("client", "invoke", sys.loop().now());
    Future<Status> invoked;
    {
      SpanScope scope(tracer.context_of(trace));
      invoked = client.request_invoke(cid, std::move(args));
    }
    const Status s = sys.await(std::move(invoked));
    tracer.end(trace, sys.loop().now());
    const int64_t took = sys.loop().now().ns() - start;
    sys.loop().run();
    return std::make_pair(s, took);
  };
  auto xlate_misses = [&tracer]() {
    size_t n = 0;
    for (const Span& span : tracer.spans()) {
      n += span.kind == SpanKind::kTranslation && span.name() == "xlate-miss" ? 1 : 0;
    }
    return n;
  };
  const auto flat = invoke_ns(root_c);
  ASSERT_TRUE(flat.first.ok());
  const auto miss = invoke_ns(leaf);
  ASSERT_TRUE(miss.first.ok());
  const auto hit = invoke_ns(leaf);
  ASSERT_TRUE(hit.first.ok());
  EXPECT_EQ(deliveries, 3);
  EXPECT_EQ(miss.second - flat.second, (ctrl.config().costs.request_traversal * 2.0).ns());
  EXPECT_EQ(hit.second, flat.second);
  EXPECT_EQ(xlate_misses(), 1u);

  // A delivery that fails on the priced branch (an invoke-time immediate overlapping the
  // chain's) still gives back its admission slot: the next invoke is admitted, not shed.
  const CapId tagged = sys.await_ok(client.request_derive(root_c, Process::Args{}.imm_u64(0, 1)));
  const CapId tagged_leaf = sys.await_ok(client.request_derive(tagged, {}));
  sys.loop().run();
  ctrl.set_admission_limit(client.pid(), 1);
  EXPECT_EQ(invoke_ns(tagged_leaf, Process::Args{}.imm_u64(0, 2)).first.error(),
            ErrorCode::kArgumentOverlap);
  EXPECT_EQ(xlate_misses(), 2u);
  EXPECT_EQ(invoke_ns(tagged_leaf, Process::Args{}.imm_u64(0, 2)).first.error(),
            ErrorCode::kArgumentOverlap);
  EXPECT_TRUE(invoke_ns(root_c).first.ok());
  EXPECT_EQ(deliveries, 4);
  sys.loop().set_span_tracer(nullptr);
}

TEST(CoreCongestion, WindowLimitsOutstandingDeliveries) {
  SystemConfig cfg;
  cfg.congestion_window = 1;
  System sys(cfg);
  const uint32_t n0 = sys.add_node("n0");
  Controller& ctrl = sys.add_controller(n0, Loc::kHost);
  Process& svc = sys.spawn("svc", n0, ctrl);
  Process& client = sys.spawn("client", n0, ctrl);

  int handled = 0;
  const CapId ep = sys.await_ok(svc.serve({}, [&](Process::Received) { ++handled; }));
  const CapId ep_c = sys.bootstrap_grant(svc, ep, client).value();

  for (int i = 0; i < 8; ++i) {
    client.request_invoke(ep_c);
  }
  sys.loop().run();
  EXPECT_EQ(handled, 8);                       // all eventually delivered
  EXPECT_GT(ctrl.deliveries_queued(), 0u);     // but some had to wait for acks
}

TEST(CoreSharedController, ProcessesOnDifferentNodesShareOneController) {
  // The "Shared HAL" deployment of Section 6.5: one controller serves remote processes.
  System sys;
  const uint32_t n0 = sys.add_node("ctrl-node");
  const uint32_t n1 = sys.add_node("app-node");
  Controller& shared = sys.add_controller(n0, Loc::kHost);
  Process& svc = sys.spawn("svc", n1, shared);
  Process& client = sys.spawn("client", n1, shared);

  std::optional<Process::Received> got;
  const CapId ep = sys.await_ok(svc.serve({}, [&](Process::Received r) { got = r; }));
  const CapId ep_c = sys.bootstrap_grant(svc, ep, client).value();
  ASSERT_TRUE(sys.await(client.request_invoke(ep_c, Process::Args{}.imm_u64(0, 7))).ok());
  ASSERT_TRUE(sys.loop().run_until([&]() { return got.has_value(); }));
  EXPECT_EQ(got->imm_u64(0), 7u);
}

TEST(CoreHwCopies, ThirdPartyModeCopiesWithoutBouncing) {
  SystemConfig cfg;
  cfg.hw_third_party_copies = true;
  System sys(cfg);
  const uint32_t n0 = sys.add_node("n0");
  const uint32_t n1 = sys.add_node("n1");
  const uint32_t n2 = sys.add_node("n2");
  Controller& c0 = sys.add_controller(n0, Loc::kHost);
  Controller& c1 = sys.add_controller(n1, Loc::kHost);
  Controller& c2 = sys.add_controller(n2, Loc::kHost);
  Process& orchestrator = sys.spawn("orch", n0, c0);
  Process& src = sys.spawn("src", n1, c1);
  Process& dst = sys.spawn("dst", n2, c2);

  const auto data = pattern(2048, 9);
  const uint64_t s_addr = src.alloc(2048);
  src.write_mem(s_addr, data);
  const CapId s = sys.await_ok(src.memory_create(s_addr, 2048, Perms::kRead));
  const uint64_t d_addr = dst.alloc(2048);
  const CapId d = sys.await_ok(dst.memory_create(d_addr, 2048, Perms::kReadWrite));
  const CapId s_o = sys.bootstrap_grant(src, s, orchestrator).value();
  const CapId d_o = sys.bootstrap_grant(dst, d, orchestrator).value();

  sys.net().reset_counters();
  ASSERT_TRUE(sys.await(orchestrator.memory_copy(s_o, d_o)).ok());
  EXPECT_EQ(dst.read_mem(d_addr, 2048), data);
  // Third-party transfer: the data leg goes src -> dst directly, exactly once.
  EXPECT_EQ(sys.net().counters().data_messages(), 3u);  // request + data + completion
}

TEST(CoreQuota, CapSpaceQuotaSurfacesAsResourceExhausted) {
  SystemConfig cfg;
  cfg.cap_quota = 4;
  System sys(cfg);
  const uint32_t n0 = sys.add_node("n0");
  Controller& ctrl = sys.add_controller(n0, Loc::kHost);
  Process& p = sys.spawn("p", n0, ctrl);
  std::vector<CapId> caps;
  for (int i = 0; i < 4; ++i) {
    caps.push_back(sys.await_ok(p.memory_create(p.alloc(64), 64, Perms::kRead)));
  }
  auto r = sys.await(p.memory_create(p.alloc(64), 64, Perms::kRead));
  EXPECT_EQ(r.error(), ErrorCode::kResourceExhausted);
}

// --- one mutation path -------------------------------------------------------------------------

// What one run of the derivation script saw: every step's status, the capability entry each
// successful derivation installed, the owner's table digest after each step, and the monitor
// callbacks the requester received.
struct DerivationRun {
  std::vector<ErrorCode> statuses;
  std::vector<CapEntry> entries;
  std::vector<uint64_t> digests;
  std::vector<std::pair<uint64_t, bool>> fires;
  size_t requester_caps = 0;
};

// A Process on Controller 0 owns a Memory object (monitor_delegate'd, and delegated once, so
// a tracked capability to it exists) and a Request endpoint. A requester, attached to that
// same Controller or to its peer, derives from both, subscribes monitors and revokes.
DerivationRun run_derivation_script(bool requester_on_owner) {
  System sys;
  sys.add_node("owner");
  sys.add_node("peer");
  Controller& c0 = sys.add_controller(0, Loc::kHost);
  Controller& c1 = sys.add_controller(1, Loc::kHost);
  Process& owner = sys.spawn("owner", 0, c0);
  Process& req = requester_on_owner ? sys.spawn("requester", 0, c0)
                                    : sys.spawn("requester", 1, c1);
  Controller& rc = requester_on_owner ? c0 : c1;
  DerivationRun run;
  req.set_monitor_handler([&](uint64_t cb, bool mode) { run.fires.emplace_back(cb, mode); });

  const CapId mem = sys.await_ok(owner.memory_create(owner.alloc(8192), 8192,
                                                     Perms::kReadWrite));
  EXPECT_TRUE(sys.await(owner.monitor_delegate(mem, 1)).ok());
  std::optional<Process::Received> got;
  const CapId ep = sys.await_ok(owner.serve(Process::Args{}.imm(0, {1, 2, 3, 4}),
                                            [&](Process::Received r) { got = r; }));
  EXPECT_TRUE(sys.await(owner.request_invoke(ep, Process::Args{}.cap(mem))).ok());
  EXPECT_TRUE(sys.loop().run_until([&]() { return got.has_value(); }));
  const CapId mem_r = sys.bootstrap_grant(owner, mem, req).value();
  const CapId ep_r = sys.bootstrap_grant(owner, ep, req).value();
  const CapId tracked_r = sys.bootstrap_grant(owner, got->cap(0), req).value();
  EXPECT_TRUE(rc.inspect_cap(req.pid(), tracked_r).value().tracked);

  // A derivation's status, its installed entry, and the owner's digest afterwards.
  auto derived = [&](Future<Result<CapId>> f) {
    const Result<CapId> r = sys.await(std::move(f));
    run.statuses.push_back(r.ok() ? ErrorCode::kOk : r.error());
    if (r.ok()) {
      run.entries.push_back(rc.inspect_cap(req.pid(), r.value()).value());
    }
    run.digests.push_back(c0.table().digest());
    return r.value_or(kInvalidCap);
  };
  // A status-only op's status. Monitor subscriptions name the requester's Controller, so the
  // owner's digest is compared again only once the monitored objects are erased.
  auto status = [&](Future<Status> f) {
    const Status s = sys.await(std::move(f));
    run.statuses.push_back(s.ok() ? ErrorCode::kOk : s.error());
  };

  const CapId view = derived(req.memory_diminish(mem_r, 1024, 4096, Perms::kWrite));
  derived(req.memory_diminish(mem_r, 8000, 4096, Perms::kNone));  // out of range
  const CapId mem_child = derived(req.cap_create_revtree(mem_r));
  derived(req.cap_create_revtree(ep_r));
  derived(req.cap_create_revtree(tracked_r));
  const CapId refined = derived(req.request_derive(ep_r, Process::Args{}.imm(8, {5, 6})));
  derived(req.request_derive(refined, Process::Args{}.imm(2, {7, 7})));  // overlaps
  status(req.monitor_delegate(view, 11));
  status(req.monitor_delegate(view, 12));  // already delegated
  status(req.monitor_receive(mem_child, 13));
  status(req.cap_revoke(mem_r));
  status(req.cap_revoke(mem_child));  // already gone
  sys.loop().run();
  run.digests.push_back(c0.table().digest());
  status(req.cap_revoke(ep_r));
  sys.loop().run();
  run.digests.push_back(c0.table().digest());
  run.requester_caps = rc.cap_space_size(req.pid());
  return run;
}

// A syscall on a capability its own Controller owns runs the same owner routine as a peer's
// RemoteDerive or RegisterMonitor: the same statuses, the same capabilities (built from the
// owner's table, `tracked` included), the same owner table.
TEST(CoreDerivation, LocalAndRemoteRequestersGetTheSameResults) {
  const DerivationRun local = run_derivation_script(/*requester_on_owner=*/true);
  const DerivationRun remote = run_derivation_script(/*requester_on_owner=*/false);
  EXPECT_EQ(local.statuses, remote.statuses);
  ASSERT_EQ(local.entries.size(), remote.entries.size());
  for (size_t i = 0; i < local.entries.size(); ++i) {
    const CapEntry& a = local.entries[i];
    const CapEntry& b = remote.entries[i];
    EXPECT_EQ(a.ref, b.ref) << "entry " << i;
    EXPECT_EQ(a.kind, b.kind) << "entry " << i;
    EXPECT_EQ(a.perms, b.perms) << "entry " << i;
    EXPECT_EQ(a.mem, b.mem) << "entry " << i;
    EXPECT_EQ(a.tracked, b.tracked) << "entry " << i;
  }
  EXPECT_EQ(local.digests, remote.digests);
  EXPECT_EQ(local.fires, remote.fires);
  EXPECT_EQ(local.requester_caps, remote.requester_caps);
  // The script hit both successes and refusals.
  EXPECT_EQ(local.entries.size(), 5u);
  EXPECT_EQ(local.fires.size(), 1u);
}

}  // namespace
}  // namespace fractos
