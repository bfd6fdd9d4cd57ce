// Tests for what the observability layers see of the Controllers — their spans (one
// kController span per handled syscall, actor "ctrl-<addr>") and their operation counters.

#include <gtest/gtest.h>

#include <string_view>
#include <utility>
#include <variant>

#include "src/core/system.h"
#include "src/sim/span.h"

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

  // Runs `body` inside a fresh trace root, so every Controller step it causes is a span.
  template <typename Fn>
  void traced(Fn&& body) {
    const uint64_t root = tracer_.start_trace("test", "root", sys_.loop().now());
    SpanScope scope(tracer_.context_of(root));
    body();
  }

  // Number of syscall/peer spans `actor` handled under the name `name`.
  size_t handled(std::string_view actor, std::string_view name) const {
    size_t n = 0;
    for (const Span& s : tracer_.spans()) {
      if (s.kind == SpanKind::kController && s.actor() == actor && s.name() == name) {
        ++n;
      }
    }
    return n;
  }

  System sys_;
  SpanTracer tracer_;
  uint32_t n0_ = 0, n1_ = 0;
  Controller *c0_ = nullptr, *c1_ = nullptr;
  Process *a_ = nullptr, *b_ = nullptr;
};

TEST_F(TraceStatsTest, TracerSeesTheLifeOfAnRpc) {
  sys_.loop().set_span_tracer(&tracer_);
  const ControllerStats before0 = c0_->stats();
  const ControllerStats before1 = c1_->stats();

  int handled_rpcs = 0;
  traced([&]() {
    const CapId ep = sys_.await_ok(b_->serve({}, [&](Process::Received) { ++handled_rpcs; }));
    const CapId ep_a = sys_.bootstrap_grant(*b_, ep, *a_).value();
    ASSERT_TRUE(sys_.await(a_->request_invoke(ep_a)).ok());
    sys_.loop().run();
  });
  sys_.loop().set_span_tracer(nullptr);
  EXPECT_EQ(handled_rpcs, 1);

  // b (pid 2, the only Process on ctrl-2) creates its endpoint at ctrl-2.
  EXPECT_EQ(handled("ctrl-2", "RequestCreate"), 1u);
  EXPECT_EQ(handled("ctrl-1", "RequestCreate"), 0u);
  // a (pid 1, the only Process on ctrl-1) invokes at ctrl-1...
  EXPECT_EQ(handled("ctrl-1", "RequestInvoke"), 1u);
  EXPECT_EQ(handled("ctrl-2", "RequestInvoke"), 0u);
  // ...and only ctrl-2, b's Controller, delivers the request.
  EXPECT_EQ(c1_->stats().deliveries - before1.deliveries, 1u);
  EXPECT_EQ(c0_->stats().deliveries - before0.deliveries, 0u);
  // Controller spans open as their messages arrive, so they are time-ordered.
  Time last;
  for (const Span& s : tracer_.spans()) {
    if (s.kind == SpanKind::kController) {
      EXPECT_LE(last.ns(), s.t_start.ns());
      last = s.t_start;
    }
  }
}

TEST_F(TraceStatsTest, TracerSeesRevocationAndFailure) {
  sys_.loop().set_span_tracer(&tracer_);
  const ControllerStats before0 = c0_->stats();
  const ControllerStats before1 = c1_->stats();
  traced([&]() {
    const CapId mem = sys_.await_ok(a_->memory_create(a_->alloc(64), 64, Perms::kRead));
    ASSERT_TRUE(sys_.await(a_->cap_revoke(mem)).ok());
    sys_.loop().run();
  });
  sys_.loop().set_span_tracer(nullptr);
  // The revocation runs at the owner (ctrl-1): one object revoked and reclaimed, no monitor
  // fired; ctrl-2 revokes nothing.
  EXPECT_EQ(handled("ctrl-1", "CapRevoke"), 1u);
  EXPECT_EQ(c0_->stats().revocations - before0.revocations, 1u);
  EXPECT_EQ(c0_->stats().objects_reclaimed - before0.objects_reclaimed, 1u);
  EXPECT_EQ(c0_->stats().monitor_fires - before0.monitor_fires, 0u);
  EXPECT_EQ(c1_->stats().revocations - before1.revocations, 0u);

  // The failure translation runs at b's Controller (ctrl-2) only.
  sys_.fail_process(*b_);
  sys_.loop().run();
  EXPECT_EQ(c1_->stats().process_failures - before1.process_failures, 1u);
  EXPECT_EQ(c0_->stats().process_failures - before0.process_failures, 0u);
}

TEST_F(TraceStatsTest, TracingDisabledByDefaultAndCostsNothing) {
  EXPECT_EQ(sys_.loop().span_tracer(), nullptr);
  EXPECT_EQ(sys_.loop().metrics(), nullptr);
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
  std::vector<uint8_t> corrupted = encode_envelope(env);
  corrupted[0] = 0xee;                                      // invalid message type
  b.inject_raw_for_test(std::move(corrupted));
  std::vector<uint8_t> truncated =
      encode_envelope(make_envelope(3, MemoryCreateMsg{0, 0, 64, Perms::kRead}));
  truncated.resize(truncated.size() / 2);                   // cut mid-payload
  b.inject_raw_for_test(std::move(truncated));
  EXPECT_EQ(b.malformed_dropped(), 3u);
  EXPECT_EQ(delivered, 0);

  a.send(Traffic::kControl, make_envelope(1, NullOpMsg{}));  // real traffic still flows
  loop.run();
  EXPECT_EQ(delivered, 1);
}

// An envelope of type `t` with a default body. MsgBody lists one alternative per MsgType in
// the enum's order, except that kMonitorDelegate and kMonitorReceive share MonitorMsg.
template <size_t... I>
Envelope blank_envelope(MsgType t, uint64_t seq, std::index_sequence<I...>) {
  const size_t index = t <= MsgType::kMonitorDelegate ? static_cast<size_t>(t)
                                                      : static_cast<size_t>(t) - 1;
  Envelope env;
  env.type = t;
  env.seq = seq;
  ((index == I ? (void)env.body.emplace<I>() : void()), ...);
  return env;
}

Envelope blank_envelope(MsgType t, uint64_t seq) {
  return blank_envelope(t, seq, std::make_index_sequence<std::variant_size_v<MsgBody>>());
}

bool process_sends(MsgType t) {
  return t < MsgType::kSyscallReply || t == MsgType::kDeliverAck;
}

bool peer_sends(MsgType t) { return t >= MsgType::kRemoteInvoke; }

// Well-formed envelopes of a type the channel does not carry — any reply or delivery a
// Process sends up, any syscall or delivery a peer sends across — are dropped and counted,
// and the Controller keeps serving.
TEST_F(TraceStatsTest, WrongTypeEnvelopesAreDroppedAndCounted) {
  Channel& c0_side = c0_->peer_links().connect(77);
  Channel raw_peer(&sys_.net(), Endpoint{n1_, Loc::kHost});
  raw_peer.set_handler([](Envelope&&) {});
  Channel::connect(raw_peer, c0_side);

  uint64_t expected = 0;
  for (uint8_t i = 0; i <= static_cast<uint8_t>(MsgType::kReplSnapshot); ++i) {
    const MsgType t = static_cast<MsgType>(i);
    if (!process_sends(t)) {
      a_->channel().send(Traffic::kControl, blank_envelope(t, 1000 + i));
      ++expected;
    }
    if (!peer_sends(t)) {
      raw_peer.send(Traffic::kControl, blank_envelope(t, 2000 + i));
      ++expected;
    }
  }
  sys_.loop().run();
  EXPECT_EQ(c0_->stats().rejected_msgs, expected);
  EXPECT_EQ(c0_side.malformed_dropped(), 0u);
  EXPECT_EQ(expected, 19u + 14u);
  EXPECT_TRUE(sys_.await(a_->null_op()).ok());
}


}  // namespace
}  // namespace fractos
