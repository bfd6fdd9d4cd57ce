// Unit tests for the single-threaded promise/future library.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/futures/future.h"
#include "src/futures/slot_pool.h"
#include "src/futures/timeout.h"
#include "src/sim/event_loop.h"

namespace fractos {
namespace {

TEST(FutureTest, SetBeforeOnReady) {
  Promise<int> p;
  p.set(42);
  int got = 0;
  p.future().on_ready([&](int&& v) { got = v; });
  EXPECT_EQ(got, 42);
}

TEST(FutureTest, SetAfterOnReady) {
  Promise<int> p;
  int got = 0;
  p.future().on_ready([&](int&& v) { got = v; });
  EXPECT_EQ(got, 0);
  p.set(7);
  EXPECT_EQ(got, 7);
}

TEST(FutureTest, ReadyAndPeekAndTake) {
  Promise<std::string> p;
  auto f = p.future();
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.ready());
  p.set("hello");
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.peek(), "hello");
  EXPECT_EQ(f.take(), "hello");
}

TEST(FutureTest, ThenMapsValue) {
  Promise<int> p;
  auto f = p.future().then([](int&& v) { return v * 2; });
  p.set(21);
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek(), 42);
}

TEST(FutureTest, ThenVoidYieldsUnit) {
  Promise<int> p;
  int seen = 0;
  auto f = p.future().then([&](int&& v) { seen = v; });
  p.set(5);
  EXPECT_EQ(seen, 5);
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek(), Unit{});
}

TEST(FutureTest, ThenFlattensNestedFuture) {
  Promise<int> outer;
  Promise<std::string> inner;
  auto f = outer.future().then([&inner](int&&) { return inner.future(); });
  static_assert(std::is_same_v<decltype(f), Future<std::string>>);
  outer.set(1);
  EXPECT_FALSE(f.ready());
  inner.set("done");
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek(), "done");
}

TEST(FutureTest, LongThenChain) {
  Promise<int> p;
  auto f = p.future();
  Future<int> chained = f.then([](int&& v) { return v + 1; });
  for (int i = 0; i < 50; ++i) {
    chained = chained.then([](int&& v) { return v + 1; });
  }
  p.set(0);
  ASSERT_TRUE(chained.ready());
  EXPECT_EQ(chained.peek(), 51);
}

TEST(FutureTest, MoveOnlyishValueMoves) {
  Promise<std::vector<int>> p;
  std::vector<int> got;
  p.future().on_ready([&](std::vector<int>&& v) { got = std::move(v); });
  p.set({1, 2, 3});
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(FutureTest, MakeReadyFuture) {
  auto f = make_ready_future(9);
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek(), 9);
  auto u = make_ready_future();
  EXPECT_TRUE(u.ready());
}

TEST(FutureTest, PromiseFulfilledFlag) {
  Promise<int> p;
  EXPECT_FALSE(p.fulfilled());
  p.set(1);
  EXPECT_TRUE(p.fulfilled());
  Promise<int> q;
  q.future().on_ready([](int&&) {});
  q.set(2);
  EXPECT_TRUE(q.fulfilled());
}

TEST(WhenAllTest, EmptyInput) {
  auto f = when_all(std::vector<Future<int>>{});
  ASSERT_TRUE(f.ready());
  EXPECT_TRUE(f.peek().empty());
}

TEST(WhenAllTest, PreservesOrderRegardlessOfCompletion) {
  Promise<int> a, b, c;
  auto f = when_all(std::vector<Future<int>>{a.future(), b.future(), c.future()});
  c.set(3);
  a.set(1);
  EXPECT_FALSE(f.ready());
  b.set(2);
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek(), (std::vector<int>{1, 2, 3}));
}

TEST(WhenAllTest, AlreadyReadyInputs) {
  auto f = when_all(std::vector<Future<int>>{make_ready_future(4), make_ready_future(5)});
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek(), (std::vector<int>{4, 5}));
}

TEST(FutureTest, ContinuationRunsSynchronouslyOnSet) {
  Promise<int> p;
  std::vector<int> order;
  p.future().on_ready([&](int&&) { order.push_back(1); });
  order.push_back(0);
  p.set(0);
  order.push_back(2);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// ---- and_then: the success path of the error channel --------------------------------------

TEST(AndThenTest, MapsSuccessValue) {
  Promise<Result<int>> p;
  auto f = p.future().and_then([](int&& v) { return v * 2; });
  static_assert(std::is_same_v<decltype(f), Future<Result<int>>>);
  p.set(Result<int>(21));
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek().value(), 42);
}

TEST(AndThenTest, ShortCircuitsOnEveryErrorClass) {
  // Capability-layer, argument, and resource/transport failures must all skip the
  // continuation and come out the other side unchanged.
  for (ErrorCode e :
       {ErrorCode::kInvalidCapability, ErrorCode::kRevoked, ErrorCode::kStaleCapability,
        ErrorCode::kPermissionDenied, ErrorCode::kWrongObjectKind, ErrorCode::kInvalidArgument,
        ErrorCode::kOutOfRange, ErrorCode::kNotFound, ErrorCode::kResourceExhausted,
        ErrorCode::kBackpressure, ErrorCode::kChannelClosed, ErrorCode::kTimeout,
        ErrorCode::kAborted, ErrorCode::kBrokenPromise, ErrorCode::kInternal}) {
    Promise<Result<int>> p;
    bool ran = false;
    auto f = p.future().and_then([&](int&&) {
      ran = true;
      return 0;
    });
    p.set(Result<int>(e));
    ASSERT_TRUE(f.ready());
    EXPECT_FALSE(ran) << error_code_name(e);
    EXPECT_EQ(f.peek().error(), e) << error_code_name(e);
  }
}

TEST(AndThenTest, StatusContinuationTakesNoArgument) {
  Promise<Status> p;
  auto f = p.future().and_then([]() { return 7; });
  static_assert(std::is_same_v<decltype(f), Future<Result<int>>>);
  p.set(ok_status());
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek().value(), 7);
}

TEST(AndThenTest, VoidContinuationYieldsStatus) {
  Promise<Result<int>> p;
  int seen = 0;
  auto f = p.future().and_then([&](int&& v) { seen = v; });
  static_assert(std::is_same_v<decltype(f), Future<Status>>);
  p.set(Result<int>(5));
  EXPECT_EQ(seen, 5);
  ASSERT_TRUE(f.ready());
  EXPECT_TRUE(f.peek().ok());
}

TEST(AndThenTest, ResultReturningContinuationCanFail) {
  Promise<Result<int>> p;
  auto f = p.future().and_then([](int&&) -> Result<int> { return ErrorCode::kOutOfRange; });
  p.set(Result<int>(-1));
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek().error(), ErrorCode::kOutOfRange);
}

TEST(AndThenTest, FlattensFutureReturningContinuation) {
  Promise<Result<int>> outer;
  Promise<Result<std::string>> inner;
  auto f = outer.future().and_then([&](int&&) { return inner.future(); });
  static_assert(std::is_same_v<decltype(f), Future<Result<std::string>>>);
  outer.set(Result<int>(1));
  EXPECT_FALSE(f.ready());
  inner.set(Result<std::string>(std::string("done")));
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek().value(), "done");
}

TEST(AndThenTest, PipelineShortCircuitsPastLaterStages) {
  Promise<Result<int>> p;
  std::vector<int> stages;
  auto f = p.future()
               .and_then([&](int&&) -> Result<int> {
                 stages.push_back(1);
                 return ErrorCode::kNotFound;
               })
               .and_then([&](int&&) {
                 stages.push_back(2);
                 return 0;
               })
               .or_else([&](ErrorCode) { stages.push_back(3); });
  p.set(Result<int>(0));
  EXPECT_EQ(stages, (std::vector<int>{1, 3}));
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek().error(), ErrorCode::kNotFound);
}

// ---- or_else: the error path --------------------------------------------------------------

TEST(OrElseTest, SideEffectOnlyHandlerPropagatesTheError) {
  Promise<Result<int>> p;
  ErrorCode seen = ErrorCode::kOk;
  auto f = p.future().or_else([&](ErrorCode e) { seen = e; });
  p.set(Result<int>(ErrorCode::kRevoked));
  EXPECT_EQ(seen, ErrorCode::kRevoked);
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek().error(), ErrorCode::kRevoked);
}

TEST(OrElseTest, SkipsHandlerOnSuccess) {
  Promise<Result<int>> p;
  bool ran = false;
  auto f = p.future().or_else([&](ErrorCode) {
    ran = true;
    return -1;
  });
  p.set(Result<int>(3));
  EXPECT_FALSE(ran);
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek().value(), 3);
}

TEST(OrElseTest, RecoveryValueReplacesTheError) {
  Promise<Result<int>> p;
  auto f = p.future().or_else([](ErrorCode) { return 99; });
  p.set(Result<int>(ErrorCode::kTimeout));
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek().value(), 99);
}

TEST(OrElseTest, RecoveryFutureIsFlattened) {
  Promise<Result<int>> p;
  Promise<Result<int>> recovery;
  auto f = p.future().or_else([&](ErrorCode) { return recovery.future(); });
  p.set(Result<int>(ErrorCode::kChannelClosed));
  EXPECT_FALSE(f.ready());
  recovery.set(Result<int>(12));
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek().value(), 12);
}

// ---- with_timeout / sleep_for (simulated clock) -------------------------------------------

TEST(TimeoutTest, SleepForAdvancesSimulatedTime) {
  EventLoop loop;
  bool woke = false;
  sleep_for(loop, Duration::micros(3)).on_ready([&](Unit&&) { woke = true; });
  EXPECT_FALSE(woke);
  loop.run();
  EXPECT_TRUE(woke);
  EXPECT_EQ(loop.now().ns(), Duration::micros(3).ns());
}

TEST(TimeoutTest, DeadlineFiresWhenInnerFutureNeverCompletes) {
  EventLoop loop;
  Promise<Result<int>> p;
  auto f = with_timeout(loop, Duration::micros(10), p.future());
  EXPECT_FALSE(f.ready());
  loop.run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek().error(), ErrorCode::kTimeout);
}

TEST(TimeoutTest, InnerCompletionBeatsTheDeadline) {
  EventLoop loop;
  Promise<Result<int>> p;
  auto f = with_timeout(loop, Duration::millis(5), p.future());
  loop.schedule_after(Duration::micros(1), [p]() { p.set(Result<int>(8)); });
  loop.run();
  ASSERT_TRUE(f.ready());
  ASSERT_TRUE(f.peek().ok());
  EXPECT_EQ(f.peek().value(), 8);
}

TEST(TimeoutTest, SimultaneousCompletionAndDeadlineIsDeterministic) {
  // Equal timestamps fire in submission order: the inner future's completion was scheduled
  // after with_timeout armed the deadline, so the deadline wins — every run, bit-for-bit.
  EventLoop loop;
  Promise<Result<int>> p;
  auto f = with_timeout(loop, Duration::micros(2), p.future());
  loop.schedule_after(Duration::micros(2), [p]() { p.set(Result<int>(8)); });
  loop.run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek().error(), ErrorCode::kTimeout);
}

// ---- trampoline: deep chains must not overflow the stack ----------------------------------

TEST(TrampolineTest, HundredThousandLinkThenChain) {
  Promise<int> p;
  Future<int> chained = p.future();
  constexpr int kLinks = 100000;
  for (int i = 0; i < kLinks; ++i) {
    chained = chained.then([](int&& v) { return v + 1; });
  }
  p.set(0);
  // The whole chain completes before set() returns: the trampoline defers frames past the
  // depth bound but the outermost delivery drains them, so callers still observe synchronous
  // completion.
  ASSERT_TRUE(chained.ready());
  EXPECT_EQ(chained.peek(), kLinks);
}

TEST(TrampolineTest, DeepErrorShortCircuitAlsoTrampolines) {
  Promise<Result<int>> p;
  Future<Result<int>> chained = p.future();
  constexpr int kLinks = 100000;
  for (int i = 0; i < kLinks; ++i) {
    chained = chained.and_then([](int&& v) { return v; });
  }
  p.set(Result<int>(ErrorCode::kAborted));
  ASSERT_TRUE(chained.ready());
  EXPECT_EQ(chained.peek().error(), ErrorCode::kAborted);
}

TEST(TrampolineTest, ShallowChainsStaySynchronousInOrder) {
  // Below the depth bound nothing is deferred: continuations interleave exactly as before the
  // trampoline existed (this pins the fast path so service code keeps its ordering).
  std::vector<int> order;
  Promise<int> p;
  p.future().on_ready([&](int&& v) {
    order.push_back(v);
    Promise<int> q;
    q.future().on_ready([&](int&& w) { order.push_back(w); });
    q.set(v + 1);
    order.push_back(v + 2);
  });
  p.set(0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// ---- broken promises ----------------------------------------------------------------------

TEST(BrokenPromiseTest, ResultFutureBecomesReadyWithBrokenPromise) {
  Future<Result<int>> f;
  {
    Promise<Result<int>> p;
    f = p.future();
  }
  EXPECT_TRUE(f.broken());
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek().error(), ErrorCode::kBrokenPromise);
}

TEST(BrokenPromiseTest, AttachedContinuationIsDeliveredTheError) {
  ErrorCode seen = ErrorCode::kOk;
  {
    Promise<Result<int>> p;
    p.future().or_else([&](ErrorCode e) { seen = e; });
  }
  EXPECT_EQ(seen, ErrorCode::kBrokenPromise);
}

TEST(BrokenPromiseTest, CopiedPromisesShareOneObligation) {
  Future<Result<int>> f;
  {
    Promise<Result<int>> p;
    f = p.future();
    Promise<Result<int>> q = p;  // two handles, one obligation
    {
      Promise<Result<int>> r = q;
      (void)r;
    }
    EXPECT_FALSE(f.broken());  // a handle is still alive
  }
  EXPECT_TRUE(f.broken());
}

TEST(BrokenPromiseTest, NonResultFutureWithoutContinuationJustMarksBroken) {
  Future<int> f;
  {
    Promise<int> p;
    f = p.future();
  }
  EXPECT_TRUE(f.broken());
  EXPECT_FALSE(f.ready());
}

TEST(BrokenPromiseDeathTest, NonResultContinuationWouldDangleSoItChecks) {
  EXPECT_DEATH(
      {
        Promise<int> p;
        p.future().on_ready([](int&&) {});
        // p dies here without set(): the continuation would dangle forever.
      },
      "Promise destroyed without set");
}

TEST(BrokenPromiseDeathTest, DoubleSetChecks) {
  EXPECT_DEATH(
      {
        Promise<int> p;
        p.future().on_ready([](int&&) {});
        p.set(1);
        p.set(2);
      },
      "already delivered");
}

// ---- SlotPool -----------------------------------------------------------------------------

TEST(SlotPoolTest, GrantsSlotsInOrderThenQueuesFifo) {
  SlotPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::vector<size_t> grants;
  auto grab = [&] {
    pool.acquire().and_then([&](size_t s) { grants.push_back(s); });
  };
  grab();
  grab();
  EXPECT_EQ(grants, (std::vector<size_t>{0, 1}));  // lowest-numbered first
  EXPECT_EQ(pool.available(), 0u);
  grab();  // pool exhausted: these two queue behind each other
  grab();
  EXPECT_EQ(pool.waiting(), 2u);
  EXPECT_EQ(grants.size(), 2u);
  pool.release(1);  // the longest-waiting acquirer is woken synchronously with this slot
  EXPECT_EQ(grants, (std::vector<size_t>{0, 1, 1}));
  pool.release(0);
  EXPECT_EQ(grants, (std::vector<size_t>{0, 1, 1, 0}));
  EXPECT_EQ(pool.waiting(), 0u);
  pool.release(1);
  pool.release(0);
  EXPECT_EQ(pool.available(), 2u);
}

TEST(SlotPoolTest, CloseFailsWaitersAndLaterAcquires) {
  SlotPool pool(1);
  pool.acquire().and_then([](size_t) {});  // takes the only slot
  ErrorCode waiter_err = ErrorCode::kOk;
  pool.acquire().or_else([&](ErrorCode e) { waiter_err = e; });
  pool.close(ErrorCode::kChannelClosed);
  EXPECT_TRUE(pool.closed());
  EXPECT_EQ(waiter_err, ErrorCode::kChannelClosed);
  ErrorCode late_err = ErrorCode::kOk;
  pool.acquire().or_else([&](ErrorCode e) { late_err = e; });
  EXPECT_EQ(late_err, ErrorCode::kAborted);
}

TEST(SlotPoolTest, DestructionBreaksQueuedAcquirersThroughTheErrorChannel) {
  ErrorCode seen = ErrorCode::kOk;
  {
    SlotPool pool(1);
    pool.acquire().and_then([](size_t) {});
    pool.acquire().or_else([&](ErrorCode e) { seen = e; });
  }
  EXPECT_EQ(seen, ErrorCode::kBrokenPromise);
}

TEST(SlotPoolTest, ReleaseAfterCloseReturnsToFreeListWithoutWaking) {
  SlotPool pool(2);
  size_t got = SIZE_MAX;
  pool.acquire().and_then([&](size_t s) { got = s; });
  ASSERT_EQ(got, 0u);
  pool.close();
  pool.release(0);
  EXPECT_EQ(pool.available(), 2u);  // slot returned quietly; nobody can be waiting
}

}  // namespace
}  // namespace fractos
