// Tests for the tracing facility and the Controller operation counters.

#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/sim/trace.h"

namespace fractos {
namespace {

class TraceStatsTest : public ::testing::Test {
 protected:
  TraceStatsTest() {
    n0_ = sys_.add_node("n0");
    n1_ = sys_.add_node("n1");
    c0_ = &sys_.add_controller(n0_, Loc::kHost);
    c1_ = &sys_.add_controller(n1_, Loc::kHost);
    a_ = &sys_.spawn("a", n0_, *c0_);
    b_ = &sys_.spawn("b", n1_, *c1_);
  }

  System sys_;
  uint32_t n0_ = 0, n1_ = 0;
  Controller *c0_ = nullptr, *c1_ = nullptr;
  Process *a_ = nullptr, *b_ = nullptr;
};

TEST_F(TraceStatsTest, TracerSeesTheLifeOfAnRpc) {
  TraceRecorder rec;
  sys_.loop().set_tracer(rec.fn());

  int handled = 0;
  const CapId ep = sys_.await_ok(b_->serve({}, [&](Process::Received) { ++handled; }));
  const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();
  ASSERT_TRUE(sys_.await(a_->request_invoke(ep_a)).ok());
  sys_.loop().run();
  EXPECT_EQ(handled, 1);

  // Exact-match assertions pin the complete event text: a wording change (or an event that
  // merely shares a prefix) fails loudly instead of slipping past a substring check.
  EXPECT_TRUE(rec.contains_exact("syscall RequestCreate from pid 2", "ctrl-2"));
  EXPECT_TRUE(rec.contains_exact("syscall RequestInvoke from pid 1"));
  // The invocation crosses from ctrl-1 (a's controller) to ctrl-2, which delivers it; the
  // actor filter pins each event to the controller that must have emitted it.
  EXPECT_TRUE(rec.contains_exact("syscall RequestInvoke from pid 1", "ctrl-1"));
  EXPECT_TRUE(rec.contains_exact("deliver request to pid 2 (0 caps)", "ctrl-2"));
  EXPECT_FALSE(rec.contains_exact("deliver request to pid 2 (0 caps)", "ctrl-1"));
  EXPECT_EQ(rec.count_exact("deliver request to pid 2 (0 caps)"),
            rec.count_exact("deliver request to pid 2 (0 caps)", "ctrl-2"));
  // Substring matching still works for prefix queries, but never claims an exact event.
  EXPECT_TRUE(rec.contains("deliver request"));
  EXPECT_FALSE(rec.contains_exact("deliver request"));
  // Events are time-ordered.
  for (size_t i = 1; i < rec.entries.size(); ++i) {
    EXPECT_LE(rec.entries[i - 1].when.ns(), rec.entries[i].when.ns());
  }
}

TEST_F(TraceStatsTest, TracerSeesRevocationAndFailure) {
  TraceRecorder rec;
  sys_.loop().set_tracer(rec.fn());
  const CapId mem = sys_.await_ok(a_->memory_create(a_->alloc(64), 64, Perms::kRead));
  ASSERT_TRUE(sys_.await(a_->cap_revoke(mem)).ok());
  sys_.loop().run();
  // The revocation runs at the owner (ctrl-1); the failure translation at b's controller.
  EXPECT_TRUE(rec.contains_exact("revoked 1 object(s), 0 monitor fire(s)", "ctrl-1"));
  EXPECT_FALSE(rec.contains_exact("revoked 1 object(s), 0 monitor fire(s)", "ctrl-2"));

  sys_.fail_process(*b_);
  sys_.loop().run();
  EXPECT_TRUE(rec.contains_exact("process 2 failed; translating to revocations", "ctrl-2"));
  EXPECT_FALSE(rec.contains_exact("process 2 failed; translating to revocations", "ctrl-1"));
}

TEST_F(TraceStatsTest, TracingDisabledByDefaultAndCostsNothing) {
  EXPECT_FALSE(sys_.loop().tracing());
  EXPECT_TRUE(sys_.await(a_->null_op()).ok());  // no crash, nothing to observe
}

TEST_F(TraceStatsTest, StatsCountTheRightOperations) {
  const auto& s0 = c0_->stats();
  const auto& s1 = c1_->stats();

  // One cross-node RPC: forwarded at c0, received+delivered at c1.
  int handled = 0;
  const CapId ep = sys_.await_ok(b_->serve({}, [&](Process::Received) { ++handled; }));
  const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();
  ASSERT_TRUE(sys_.await(a_->request_invoke(ep_a)).ok());
  sys_.loop().run();
  EXPECT_EQ(s0.invokes_forwarded, 1u);
  EXPECT_EQ(s1.invokes_received, 1u);
  EXPECT_EQ(s1.deliveries, 1u);
  EXPECT_EQ(s0.invokes_local, 0u);

  // A local invocation counts as local at c1.
  ASSERT_TRUE(sys_.await(b_->request_invoke(ep)).ok());
  sys_.loop().run();
  EXPECT_EQ(s1.invokes_local, 1u);

  // A copy accounts its bytes at the orchestrating controller.
  const CapId src = sys_.await_ok(a_->memory_create(a_->alloc(4096), 4096, Perms::kRead));
  const CapId dst_b = sys_.await_ok(b_->memory_create(b_->alloc(4096), 4096, Perms::kReadWrite));
  const CapId dst = sys_.bootstrap_grant(*b_, dst_b, *a_).value();
  ASSERT_TRUE(sys_.await(a_->memory_copy(src, dst)).ok());
  EXPECT_EQ(s0.copies, 1u);
  EXPECT_EQ(s0.copy_bytes, 4096u);

  // Revocation + two-phase reclaim counted at the owner.
  ASSERT_TRUE(sys_.await(a_->cap_revoke(src)).ok());
  sys_.loop().run();
  EXPECT_GE(s0.revocations, 1u);
  EXPECT_GE(s0.objects_reclaimed, 1u);

  // Remote derivation counted at the owner (c1).
  ASSERT_TRUE(sys_.await(a_->request_derive(ep_a, Process::Args{}.imm_u64(0, 1))).ok());
  EXPECT_EQ(s1.derivations, 1u);

  // Process failure translation.
  sys_.fail_process(*a_);
  sys_.loop().run();
  EXPECT_EQ(s0.process_failures, 1u);
}

TEST(ChannelHardeningTest, MalformedBytesAreDroppedNotFatal) {
  // A hostile Process scribbling garbage on its Controller channel must not take the
  // Controller down (it is the trusted computing base): malformed frames are dropped and
  // counted, well-formed traffic keeps flowing.
  EventLoop loop;
  Network net(&loop);
  const uint32_t n0 = net.add_node("n0");
  Channel a(&net, Endpoint{n0, Loc::kHost});
  Channel b(&net, Endpoint{n0, Loc::kHost});
  Channel::connect(a, b);
  int delivered = 0;
  b.set_handler([&](Envelope) { ++delivered; });
  a.set_handler([](Envelope) {});

  b.inject_raw_for_test({0xde, 0xad, 0xbe, 0xef});          // garbage
  Envelope env = make_envelope(2, NullOpMsg{});
  auto corrupted = encode_envelope(env);
  corrupted[0] = 0xee;                                      // invalid message type
  b.inject_raw_for_test(std::move(corrupted));
  auto truncated = encode_envelope(make_envelope(3, MemoryCreateMsg{0, 0, 64, Perms::kRead}));
  truncated.resize(truncated.size() / 2);                   // cut mid-payload
  b.inject_raw_for_test(std::move(truncated));
  EXPECT_EQ(b.malformed_dropped(), 3u);
  EXPECT_EQ(delivered, 0);

  a.send(Traffic::kControl, make_envelope(1, NullOpMsg{}));  // real traffic still flows
  loop.run();
  EXPECT_EQ(delivered, 1);
}


}  // namespace
}  // namespace fractos
