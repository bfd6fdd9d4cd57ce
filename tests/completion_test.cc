// The completion pair's contract (src/services/completion.h): a use resolves exactly once —
// on the ok delivery, the error delivery (imm@0, or kInternal without one), a refused
// invoke, or teardown (kAborted) — and deliveries after that run no completion code. The
// test Process invokes its own endpoints, standing in for the service at the other end.

#include <gtest/gtest.h>

#include "src/services/completion.h"

namespace fractos {
namespace {

class CompletionTest : public ::testing::Test {
 protected:
  CompletionTest() {
    const uint32_t node = sys_.add_node("n");
    proc_ = &sys_.spawn("p", node, sys_.add_controller(node, Loc::kHost));
    // A delivery to an unbound endpoint lands here.
    proc_->set_default_handler([this](Process::Received) { ++stray_; });
  }

  // Invokes `ep` from the test Process and lets the delivery land.
  void deliver(CapId ep, Process::Args args = {}) {
    ASSERT_TRUE(sys_.await(proc_->request_invoke(ep, std::move(args))).ok());
    sys_.loop().run();
  }
  static Process::Args status_imm(ErrorCode code) {
    return Process::Args{}.imm_u64(0, static_cast<uint64_t>(code));
  }

  System sys_;
  Process* proc_ = nullptr;
  int stray_ = 0;
};

TEST_F(CompletionTest, OkDeliveryResolvesOk) {
  const Completion pair = Completion::serve(&sys_, *proc_);
  Future<Status> done = pair.arm();
  deliver(pair.ok());
  ASSERT_TRUE(done.ready());
  EXPECT_TRUE(done.take().ok());
  EXPECT_EQ(stray_, 0);
}

TEST_F(CompletionTest, ErrorDeliveryDecodesImmZero) {
  const Completion pair = Completion::serve(&sys_, *proc_);
  Future<Status> with_code = pair.arm();
  deliver(pair.err(), status_imm(ErrorCode::kNotFound));
  ASSERT_TRUE(with_code.ready());
  EXPECT_EQ(with_code.take().error(), ErrorCode::kNotFound);

  Future<Status> without_code = pair.arm();
  deliver(pair.err());
  ASSERT_TRUE(without_code.ready());
  EXPECT_EQ(without_code.take().error(), ErrorCode::kInternal);
}

// imm@0 is a u64: a value no ErrorCode has must not truncate into one (256 into kOk), and
// an error delivery never resolves ok.
TEST_F(CompletionTest, ErrorDeliveryWithNoErrorCodeFails) {
  const Completion pair = Completion::serve(&sys_, *proc_);
  for (const uint64_t imm : {256ull, 300ull, 0ull, ~0ull}) {
    Future<Status> done = pair.arm();
    deliver(pair.err(), Process::Args{}.imm_u64(0, imm));
    ASSERT_TRUE(done.ready());
    EXPECT_EQ(done.take().error(), ErrorCode::kInternal) << imm;
  }
}

TEST_F(CompletionTest, DeliveryAfterCompletionRunsNothing) {
  const Completion pair = Completion::serve(&sys_, *proc_);
  Future<Status> first = pair.arm();
  pair.resolve(Status(ErrorCode::kTimeout));
  deliver(pair.ok());  // late: the use already resolved
  deliver(pair.err(), status_imm(ErrorCode::kNotFound));
  ASSERT_TRUE(first.ready());
  EXPECT_EQ(first.take().error(), ErrorCode::kTimeout);
  EXPECT_EQ(stray_, 0);  // still bound: a per-slot pair outlives its uses

  // The next use sees only its own delivery.
  Future<Status> second = pair.arm();
  EXPECT_FALSE(second.ready());
  deliver(pair.ok());
  ASSERT_TRUE(second.ready());
  EXPECT_TRUE(second.take().ok());
}

TEST_F(CompletionTest, TeardownAbortsAndUnbinds) {
  const Completion pair = Completion::serve(&sys_, *proc_);
  Future<Status> done = pair.arm();
  pair.close();
  ASSERT_TRUE(done.ready());
  EXPECT_EQ(done.take().error(), ErrorCode::kAborted);
  deliver(pair.ok());
  deliver(pair.err());
  EXPECT_EQ(stray_, 2);
  Completion().close();  // an empty pair has nothing to close
}

TEST_F(CompletionTest, OnceResolvesOnTheDeliveryAndUnbinds) {
  CapId ok = kInvalidCap;
  CapId err = kInvalidCap;
  Future<Status> done = Completion::once(*proc_, [&](CapId o, CapId e) {
    ok = o;
    err = e;
    return proc_->request_invoke(e, status_imm(ErrorCode::kNotFound));
  });
  sys_.loop().run();
  ASSERT_TRUE(done.ready());
  EXPECT_EQ(done.take().error(), ErrorCode::kNotFound);
  EXPECT_EQ(stray_, 0);
  deliver(ok);
  deliver(err);
  EXPECT_EQ(stray_, 2);
}

TEST_F(CompletionTest, OnceResolvesARefusedInvokeAndUnbinds) {
  CapId ok = kInvalidCap;
  CapId err = kInvalidCap;
  Future<Status> done = Completion::once(*proc_, [&](CapId o, CapId e) {
    ok = o;
    err = e;
    return proc_->request_invoke(/*cid=*/999999);  // names no capability: refused
  });
  sys_.loop().run();
  ASSERT_TRUE(done.ready());
  EXPECT_EQ(done.take().error(), ErrorCode::kInvalidCapability);
  deliver(ok);
  deliver(err);
  EXPECT_EQ(stray_, 2);
}

// Process::call's one-shot reply endpoint follows the same rule as `once`.
TEST_F(CompletionTest, RefusedCallUnbindsItsReplyEndpoint) {
  // Cap ids are handed out in order, so the call's reply endpoint is the next one.
  const CapId before = sys_.await_ok(proc_->request_create({}));
  Future<Result<Process::Received>> reply = proc_->call(/*target=*/999999);
  sys_.loop().run();
  ASSERT_TRUE(reply.ready());
  EXPECT_EQ(reply.take().error(), ErrorCode::kInvalidCapability);
  deliver(before + 1);
  EXPECT_EQ(stray_, 1);
}

TEST_F(CompletionTest, WatchResolvesOnlyARefusal) {
  const Completion pair = Completion::serve(&sys_, *proc_);
  Future<Status> accepted = pair.arm();
  pair.watch(proc_->request_invoke(pair.ok()));
  sys_.loop().run();
  ASSERT_TRUE(accepted.ready());
  EXPECT_TRUE(accepted.take().ok());  // the delivery, not the accepted invoke, resolved it

  Future<Status> refused = pair.arm();
  pair.watch(proc_->request_invoke(/*cid=*/999999));
  sys_.loop().run();
  ASSERT_TRUE(refused.ready());
  EXPECT_EQ(refused.take().error(), ErrorCode::kInvalidCapability);
}

}  // namespace
}  // namespace fractos
