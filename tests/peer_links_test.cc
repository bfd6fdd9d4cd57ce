// Tests for the Controller's peer-op layer (src/core/peer_links.h): which peer replies it
// honours, and how batched ops complete when their peer goes away before the batch flushes.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/system.h"
#include "src/sim/span.h"

namespace fractos {
namespace {

// A peer other than the op's target floods the Controller with replies for every small op
// id, singly and batched, while a cross-Controller diminish is in flight: none of them may
// complete it, so the Process gets the capability the real owner derived.
TEST(PeerReplySender, RepliesFromAnotherPeerCannotCompleteAnOp) {
  System sys;
  sys.add_node("n0");
  sys.add_node("n1");
  Controller& c0 = sys.add_controller(0, Loc::kHost);
  Controller& c1 = sys.add_controller(1, Loc::kHost);
  Process& p = sys.spawn("p", 0, c0);
  Process& q = sys.spawn("q", 1, c1);
  const CapId qbuf = sys.await_ok(q.memory_create(q.alloc(8192), 8192, Perms::kReadWrite));
  const CapId pbuf = sys.bootstrap_grant(q, qbuf, p).value();

  // Controller 77 exists only as a channel wired into c0's peer links.
  Channel& c0_side = c0.peer_links().connect(77);
  Channel forger(&sys.net(), Endpoint{1, Loc::kHost});
  forger.set_handler([](Envelope&&) {});
  Channel::connect(forger, c0_side);
  PeerReplyMsg forged;
  forged.result.ref = ObjectRef{0xFFFFFFFFu, ~uint64_t{0}, 0};
  forged.result.kind = ObjectKind::kMemory;
  forged.result.perms = Perms::kReadWrite;

  Future<Result<CapId>> diminished = p.memory_diminish(pbuf, 0, 4096, Perms::kWrite);
  uint64_t seq = 1;
  for (int volley = 0; volley < 10 && !diminished.ready(); ++volley) {
    PeerReplyBatchMsg batch;
    for (uint64_t op_id = 1; op_id < 64; ++op_id) {
      forged.op_id = op_id;
      forger.send(Traffic::kControl, make_envelope(seq++, forged));
      batch.replies.push_back(forged);
    }
    forger.send(Traffic::kControl, make_envelope(seq++, std::move(batch)));
    sys.loop().run_until_time(sys.loop().now() + Duration::micros(1));
  }
  const CapId view = sys.await_ok(std::move(diminished));

  const CapEntry entry = c0.inspect_cap(p.pid(), view).value();
  EXPECT_EQ(entry.ref.owner, c1.addr());
  EXPECT_EQ(entry.perms, Perms::kRead);
  EXPECT_GT(c0.stats().rejected_msgs, 0u);
  EXPECT_TRUE(sys.await(p.null_op()).ok());
}

// A peer's RemoteDerive whose op byte names no operation is malformed: the channel drops and
// counts it, and the owner neither answers it nor derives or commits anything.
TEST(PeerFrames, RemoteDeriveWithUnknownOpIsDroppedUnanswered) {
  System sys;
  sys.add_node("n0");
  sys.add_node("n1");
  Controller& c0 = sys.add_controller(0, Loc::kHost);
  Process& p = sys.spawn("p", 0, c0);
  const CapId buf = sys.await_ok(p.memory_create(p.alloc(8192), 8192, Perms::kReadWrite));

  Channel& c0_side = c0.peer_links().connect(77);
  Channel forger(&sys.net(), Endpoint{1, Loc::kHost});
  int replies = 0;
  forger.set_handler([&replies](Envelope&&) { ++replies; });
  Channel::connect(forger, c0_side);

  RemoteDeriveMsg rd;
  rd.op_id = 1;
  rd.base = c0.inspect_cap(p.pid(), buf).value().ref;
  rd.op = RemoteDeriveMsg::Op::kRequestRefine;
  rd.requester = p.pid();
  const std::vector<uint8_t> refine = encode_envelope(make_envelope(1, rd));
  rd.op = RemoteDeriveMsg::Op::kRevoke;
  std::vector<uint8_t> forged = encode_envelope(make_envelope(1, rd));
  const auto op_byte = std::mismatch(refine.begin(), refine.end(), forged.begin()).second;
  ASSERT_NE(op_byte, forged.end());
  *op_byte = static_cast<uint8_t>(RemoteDeriveMsg::Op::kRevoke) + 1;

  const uint64_t derivations = c0.stats().derivations;
  const size_t objects = c0.table().total_count();
  c0_side.inject_raw_for_test(forged);
  sys.loop().run();
  EXPECT_EQ(c0_side.malformed_dropped(), 1u);
  EXPECT_EQ(replies, 0);
  EXPECT_EQ(c0.stats().derivations, derivations);
  EXPECT_EQ(c0.table().total_count(), objects);
  EXPECT_EQ(c0.table().live_count(), objects);
  EXPECT_TRUE(sys.await(p.memory_diminish(buf, 0, 4096, Perms::kWrite)).ok());
}

SystemConfig batched_config() {
  SystemConfig cfg;
  cfg.peer_op_batch_max = 4;
  // Long enough that only a full batch, or the end of the peer, settles the ops first.
  cfg.peer_op_batch_delay = Duration::micros(100);
  return cfg;
}

// Batched derives issued straight through c0's PeerLinks toward c1, with a SpanTracer
// attached so that every peer-op span can be checked closed afterwards.
class PeerLinksBatchTest : public ::testing::Test {
 protected:
  struct Outcome {
    int completions = 0;
    ErrorCode status = ErrorCode::kOk;
  };

  PeerLinksBatchTest() : sys_(batched_config()) {
    sys_.add_node("n0");
    sys_.add_node("n1");
    c0_ = &sys_.add_controller(0, Loc::kHost);
    c1_ = &sys_.add_controller(1, Loc::kHost);
    requester_ = sys_.spawn("p", 0, *c0_).pid();
    Process& q = sys_.spawn("q", 1, *c1_);
    const CapId buf = sys_.await_ok(q.memory_create(q.alloc(8192), 8192, Perms::kReadWrite));
    base_ = c1_->inspect_cap(q.pid(), buf).value().ref;
    sys_.loop().set_span_tracer(&tracer_);
    root_ = tracer_.start_trace("test", "batch", sys_.loop().now());
  }
  ~PeerLinksBatchTest() override { sys_.loop().set_span_tracer(nullptr); }

  // Issues `n` diminishes of base_ from c0 to c1 and records how each completes.
  void issue(int n) {
    SpanScope scope(tracer_.context_of(root_));
    for (int i = 0; i < n; ++i) {
      RemoteDeriveMsg rd;
      rd.op_id = next_op_id_++;
      rd.base = base_;
      rd.op = RemoteDeriveMsg::Op::kMemoryDiminish;
      rd.requester = requester_;
      rd.size = 4096;
      rd.drop_perms = Perms::kWrite;
      const size_t slot = outcomes_.size();
      outcomes_.emplace_back();
      c0_->peer_links()
          .call_derive(c1_->addr(), std::move(rd))
          .on_ready([this, slot](Result<PeerReplyMsg>&& r) {
            ++outcomes_[slot].completions;
            outcomes_[slot].status = r.ok() ? r.value().status : r.error();
          });
    }
  }

  // Every op completed exactly once with `status`, and no span is left open.
  void expect_all(ErrorCode status) {
    sys_.loop().run();
    tracer_.end(root_, sys_.loop().now());
    for (const Outcome& o : outcomes_) {
      EXPECT_EQ(o.completions, 1);
      EXPECT_EQ(o.status, status) << error_code_name(o.status);
    }
    size_t peer_op_spans = 0;
    for (const Span& s : tracer_.spans()) {
      peer_op_spans += s.name() == "peer-op" ? 1 : 0;
    }
    EXPECT_EQ(peer_op_spans, outcomes_.size());
    EXPECT_EQ(tracer_.open_spans(), 0u);
  }

  // Frames of `type` that c1 handled.
  size_t c1_handled(std::string_view type) const {
    const std::string name = "peer-" + std::string(type);
    size_t n = 0;
    for (const Span& s : tracer_.spans()) {
      n += s.actor() == "ctrl-2" && s.name() == name ? 1 : 0;
    }
    return n;
  }

  System sys_;
  SpanTracer tracer_;
  Controller* c0_ = nullptr;
  Controller* c1_ = nullptr;
  ProcessId requester_ = kInvalidProcess;
  ObjectRef base_;
  uint64_t root_ = 0;
  uint64_t next_op_id_ = 1'000'000;
  std::vector<Outcome> outcomes_;
};

TEST_F(PeerLinksBatchTest, FullBatchFlushesAtOnceAsOneFrame) {
  issue(4);
  const bool done = sys_.loop().run_until([this]() {
    for (const Outcome& o : outcomes_) {
      if (o.completions == 0) {
        return false;
      }
    }
    return true;
  });
  ASSERT_TRUE(done);
  EXPECT_LT(sys_.loop().now().ns(), batched_config().peer_op_batch_delay.ns());
  expect_all(ErrorCode::kOk);
  EXPECT_EQ(c1_handled("RemoteDeriveBatch"), 1u);
  EXPECT_EQ(c1_handled("RemoteDerive"), 0u);
  EXPECT_EQ(c1_->stats().derivations, 4u);
}

TEST_F(PeerLinksBatchTest, SeverBeforeTheFlushClosesEveryQueuedOp) {
  issue(3);
  c1_->peer_links().live(c0_->addr())->sever();
  expect_all(ErrorCode::kChannelClosed);
  EXPECT_EQ(c1_handled("RemoteDeriveBatch"), 0u);
}

TEST_F(PeerLinksBatchTest, IssuerFailureClosesEveryQueuedOp) {
  issue(3);
  sys_.fail_controller(*c0_);
  expect_all(ErrorCode::kChannelClosed);
  EXPECT_EQ(c1_handled("RemoteDeriveBatch"), 0u);
}

TEST_F(PeerLinksBatchTest, TargetFailureClosesEveryQueuedOp) {
  issue(3);
  sys_.fail_controller(*c1_);
  expect_all(ErrorCode::kChannelClosed);
  EXPECT_EQ(c1_->stats().derivations, 0u);
}

// The restart drops c0's channel to c1 before its sever reaches c0: the queued ops must
// close with it rather than flush into the restarted c1.
TEST_F(PeerLinksBatchTest, DroppedPeerClosesEveryQueuedOp) {
  issue(3);
  sys_.fail_controller(*c1_);
  sys_.restart_controller(*c1_);
  expect_all(ErrorCode::kChannelClosed);
  EXPECT_EQ(c1_->stats().derivations, 0u);
  EXPECT_EQ(c1_handled("RemoteDeriveBatch"), 0u);
}

}  // namespace
}  // namespace fractos
