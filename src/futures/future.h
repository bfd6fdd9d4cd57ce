// Single-threaded promise/future library.
//
// The FractOS prototype "pervasively use[s] C++ promises and futures to develop asynchronous
// code, and build[s its] own promise/future library to optimize per-thread concurrency"
// (Section 4). This reproduction does the same: all syscalls return futures, controller peer
// operations and service completions are futures, and services are written as continuation
// chains. Because the whole cluster runs on one deterministic event loop, no atomics or locks
// are needed — exactly the optimization the paper describes (their profiling showed shared_ptr
// atomics dominating SmartNIC deployments).
//
// Semantics:
//   * single consumer: at most one continuation may be attached to a Future;
//   * continuations run synchronously when the value is (or becomes) available, up to a
//     bounded synchronous depth (kMaxSyncContinuationDepth); deeper deliveries are deferred
//     to a flat trampoline queue drained by the outermost delivery frame, so arbitrarily long
//     chains (100k+ links) cannot overflow the stack while simulated-time ordering is
//     unchanged — no event-loop hop is involved;
//   * Future<T>::then() flattens nested futures (then returning Future<U> yields Future<U>);
//   * void-returning continuations yield Future<Unit>;
//   * Result-typed futures carry an error channel: and_then()/or_else() short-circuit on
//     ErrorCode, and with_timeout() (src/futures/timeout.h) maps a deadline to
//     ErrorCode::kTimeout;
//   * broken promises are detected: if every Promise for a state dies without set(), a
//     Result-typed future completes with ErrorCode::kBrokenPromise; a non-Result future with
//     a continuation attached CHECK-fails (the continuation would otherwise dangle forever).

#ifndef SRC_FUTURES_FUTURE_H_
#define SRC_FUTURES_FUTURE_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/result.h"
#include "src/sim/span.h"

namespace fractos {

struct Unit {
  constexpr bool operator==(const Unit&) const = default;
};

template <typename T>
class Future;
template <typename T>
class Promise;

namespace internal {

template <typename T>
struct FutureState {
  std::optional<T> value;
  std::function<void(T&&)> continuation;
  bool consumed = false;
  bool broken = false;    // every Promise died without set()
  int promise_refs = 0;   // live Promise handles sharing this state
};

template <typename T>
struct IsFuture : std::false_type {};
template <typename U>
struct IsFuture<Future<U>> : std::true_type {
  using value_type = U;
};

template <typename T>
struct IsResult : std::false_type {};
template <typename U>
struct IsResult<Result<U>> : std::true_type {
  using value_type = U;
};

// --- trampoline ---------------------------------------------------------------------------------
//
// Continuations run synchronously until the delivery stack reaches kMaxSyncContinuationDepth;
// beyond that they are queued and drained iteratively by the outermost delivery frame. The
// bound is small enough that a deep .then() chain stays within a few stack frames, and large
// enough that ordinary service pipelines never defer (so existing synchronous-order semantics
// and simulated-time determinism are preserved).

inline constexpr int kMaxSyncContinuationDepth = 64;

struct Trampoline {
  int depth = 0;
  std::deque<std::function<void()>> deferred;
};

inline Trampoline& trampoline() {
  // A deferred continuation always drains before its outermost delivery frame returns, i.e.
  // within the same event, so trampoline state never leaks across events.
  static Trampoline t;
  return t;
}

template <typename T>
void deliver(std::function<void(T&&)> cb, T value) {
  Trampoline& t = trampoline();
  if (t.depth >= kMaxSyncContinuationDepth) {
    // Too deep to run inline: defer. The value moves through a shared_ptr because
    // std::function requires copyable captures.
    t.deferred.push_back(
        [cb = std::move(cb), v = std::make_shared<T>(std::move(value))]() { cb(std::move(*v)); });
    return;
  }
  ++t.depth;
  cb(std::move(value));
  --t.depth;
  if (t.depth == 0) {
    while (!t.deferred.empty()) {
      auto next = std::move(t.deferred.front());
      t.deferred.pop_front();
      ++t.depth;
      next();
      --t.depth;
    }
  }
}

// Runs when the last Promise for `state` is destroyed before set(). Result-typed futures get
// kBrokenPromise through the error channel; non-Result futures with a continuation attached
// CHECK-fail (silently dropping the continuation is the footgun this exists to catch).
template <typename T>
void break_promise(FutureState<T>& state) {
  state.broken = true;
  if constexpr (IsResult<T>::value) {
    if (state.continuation != nullptr) {
      auto cb = std::move(state.continuation);
      state.continuation = nullptr;
      state.consumed = true;
      deliver<T>(std::move(cb), T(ErrorCode::kBrokenPromise));
    } else {
      state.value.emplace(ErrorCode::kBrokenPromise);
    }
  } else {
    FRACTOS_CHECK_MSG(state.continuation == nullptr,
                      "Promise destroyed without set() while a continuation was attached");
  }
}

}  // namespace internal

template <typename T>
class Future {
 public:
  using value_type = T;

  Future() = default;

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ != nullptr && state_->value.has_value(); }

  // True iff every Promise died without delivering a value. Result-typed futures additionally
  // become ready() with ErrorCode::kBrokenPromise.
  bool broken() const { return state_ != nullptr && state_->broken; }

  // Peeks at a ready value without consuming it. CHECK-fails if not ready.
  const T& peek() const {
    FRACTOS_CHECK(ready());
    return *state_->value;
  }

  // Consumes a ready value. CHECK-fails if not ready or already consumed.
  T take() {
    FRACTOS_CHECK(ready());
    FRACTOS_CHECK(!state_->consumed);
    state_->consumed = true;
    return std::move(*state_->value);
  }

  // Attaches the single continuation; runs immediately if the value is already set.
  // CHECK-fails on a future whose promises all died without a value (non-Result types only;
  // Result-typed broken futures deliver kBrokenPromise like any other error).
  void on_ready(std::function<void(T&&)> cb) {
    FRACTOS_CHECK(state_ != nullptr);
    FRACTOS_CHECK(!state_->consumed);
    FRACTOS_CHECK(state_->continuation == nullptr);
    if (state_->value.has_value()) {
      state_->consumed = true;
      internal::deliver<T>(std::move(cb), std::move(*state_->value));
    } else {
      FRACTOS_CHECK_MSG(!state_->broken, "on_ready on a broken promise's future");
      // While span tracing is on, a stored continuation carries the ambient trace context it
      // was attached under, so delivery (from whatever stack sets the promise) re-joins the
      // attaching request's trace. Ready futures above need no wrap: they deliver on the
      // attaching stack, where the context is already ambient.
      if (span_tracing_active()) {
        const SpanContext ctx = ambient_span_context();
        if (ctx.valid()) {
          state_->continuation = [ctx, cb = std::move(cb)](T&& v) mutable {
            SpanScope scope(ctx);
            cb(std::move(v));
          };
          return;
        }
      }
      state_->continuation = std::move(cb);
    }
  }

  // Chains a continuation. The result is a Future of the continuation's result; futures
  // returned by the continuation are flattened, void maps to Unit. (Defined after Promise.)
  template <typename F>
  auto then(F&& f);

  // Result-typed futures only: runs `f` with the success value (no argument for Status);
  // errors short-circuit past `f`. `f` may return void (-> Status), a plain V (-> Result<V>),
  // a Result<V>, or a Future<Result<V>> (flattened). (Defined after Promise.)
  template <typename F>
  auto and_then(F&& f);

  // Result-typed futures only: runs `f(ErrorCode)` on error; success passes through. `f` may
  // return void (error propagates unchanged, `f` is a side effect), or a T / Result payload /
  // Future<T> to substitute a recovery value. (Defined after Promise.)
  template <typename F>
  auto or_else(F&& f);

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<internal::FutureState<T>> state) : state_(std::move(state)) {}

  std::shared_ptr<internal::FutureState<T>> state_;
};

template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<internal::FutureState<T>>()) { state_->promise_refs = 1; }

  Promise(const Promise& other) : state_(other.state_) {
    if (state_ != nullptr) {
      ++state_->promise_refs;
    }
  }
  Promise(Promise&& other) noexcept : state_(std::move(other.state_)) {}
  Promise& operator=(const Promise& other) {
    if (this != &other) {
      release();
      state_ = other.state_;
      if (state_ != nullptr) {
        ++state_->promise_refs;
      }
    }
    return *this;
  }
  Promise& operator=(Promise&& other) noexcept {
    if (this != &other) {
      release();
      state_ = std::move(other.state_);
    }
    return *this;
  }
  ~Promise() { release(); }

  Future<T> future() const { return Future<T>(state_); }

  void set(T value) const {
    FRACTOS_CHECK(!state_->value.has_value());
    FRACTOS_CHECK_MSG(!state_->consumed, "Promise::set after the value was already delivered");
    if (state_->continuation != nullptr) {
      auto cb = std::move(state_->continuation);
      state_->continuation = nullptr;
      state_->consumed = true;
      internal::deliver<T>(std::move(cb), std::move(value));
    } else {
      state_->value = std::move(value);
    }
  }

  bool fulfilled() const { return state_->value.has_value() || state_->consumed; }

 private:
  void release() {
    if (state_ != nullptr && --state_->promise_refs == 0 && !state_->value.has_value() &&
        !state_->consumed) {
      internal::break_promise(*state_);
    }
    state_ = nullptr;
  }

  std::shared_ptr<internal::FutureState<T>> state_;
};

template <typename T>
template <typename F>
auto Future<T>::then(F&& f) {
  using R = std::invoke_result_t<F, T&&>;
  if constexpr (std::is_void_v<R>) {
    Promise<Unit> p;
    auto fut = p.future();
    on_ready([f = std::forward<F>(f), p](T&& v) mutable {
      f(std::move(v));
      p.set(Unit{});
    });
    return fut;
  } else if constexpr (internal::IsFuture<R>::value) {
    using U = typename internal::IsFuture<R>::value_type;
    Promise<U> p;
    auto fut = p.future();
    on_ready([f = std::forward<F>(f), p](T&& v) mutable {
      f(std::move(v)).on_ready([p](U&& u) mutable { p.set(std::move(u)); });
    });
    return fut;
  } else {
    Promise<R> p;
    auto fut = p.future();
    on_ready([f = std::forward<F>(f), p](T&& v) mutable { p.set(f(std::move(v))); });
    return fut;
  }
}

namespace internal {

// Maps an and_then continuation's return type to the chained future's Result type.
template <typename R>
struct ChainedResult {
  using type = Result<R>;
};
template <>
struct ChainedResult<void> {
  using type = Result<void>;
};
template <typename U>
struct ChainedResult<Result<U>> {
  using type = Result<U>;
};
template <typename U>
struct ChainedResult<Future<Result<U>>> {
  using type = Result<U>;
};

// The continuation's return type: invoked with the success value, or with no argument for
// Status futures (a separate specialization because U&& is ill-formed for U = void).
template <typename F, typename U>
struct AndThenInvokeResult {
  using type = std::invoke_result_t<F, U&&>;
};
template <typename F>
struct AndThenInvokeResult<F, void> {
  using type = std::invoke_result_t<F>;
};

// Invokes the continuation and routes its result (void, plain value, Result, or Future) into
// the chained promise.
template <typename Out, typename Invoke>
void resolve_into(Promise<Out> p, Invoke&& invoke) {
  using R = decltype(invoke());
  using DR = std::decay_t<R>;
  if constexpr (std::is_void_v<R>) {
    invoke();
    p.set(Out());
  } else if constexpr (IsFuture<DR>::value) {
    static_assert(std::is_same_v<typename IsFuture<DR>::value_type, Out>,
                  "a future-returning continuation must yield the chained Result type");
    invoke().on_ready([p](Out&& v) mutable { p.set(std::move(v)); });
  } else {
    p.set(Out(std::move(invoke())));
  }
}

}  // namespace internal

template <typename T>
template <typename F>
auto Future<T>::and_then(F&& f) {
  static_assert(internal::IsResult<T>::value, "and_then requires a Future<Result<U>>");
  using U = typename internal::IsResult<T>::value_type;
  using R = typename internal::AndThenInvokeResult<F, U>::type;
  using Out = typename internal::ChainedResult<std::decay_t<R>>::type;
  Promise<Out> p;
  auto fut = p.future();
  on_ready([f = std::forward<F>(f), p](T&& r) mutable {
    if (!r.ok()) {
      p.set(Out(r.error()));
      return;
    }
    if constexpr (std::is_void_v<U>) {
      internal::resolve_into(p, [&]() -> decltype(auto) { return f(); });
    } else {
      internal::resolve_into(p, [&]() -> decltype(auto) { return f(std::move(r).value()); });
    }
  });
  return fut;
}

template <typename T>
template <typename F>
auto Future<T>::or_else(F&& f) {
  static_assert(internal::IsResult<T>::value, "or_else requires a Future<Result<U>>");
  using R = std::invoke_result_t<F, ErrorCode>;
  Promise<T> p;
  auto fut = p.future();
  on_ready([f = std::forward<F>(f), p](T&& r) mutable {
    if (r.ok()) {
      p.set(std::move(r));
      return;
    }
    if constexpr (std::is_void_v<R>) {
      f(r.error());
      p.set(std::move(r));  // side effect only: the error keeps propagating
    } else if constexpr (internal::IsFuture<std::decay_t<R>>::value) {
      static_assert(std::is_same_v<typename internal::IsFuture<std::decay_t<R>>::value_type, T>,
                    "a future-returning recovery must yield the same Result type");
      f(r.error()).on_ready([p](T&& v) mutable { p.set(std::move(v)); });
    } else {
      p.set(T(f(r.error())));
    }
  });
  return fut;
}

template <typename T>
Future<std::decay_t<T>> make_ready_future(T&& value) {
  Promise<std::decay_t<T>> p;
  p.set(std::forward<T>(value));
  return p.future();
}

inline Future<Unit> make_ready_future() { return make_ready_future(Unit{}); }

// Completes with all results (in input order) once every input future completes.
template <typename T>
Future<std::vector<T>> when_all(std::vector<Future<T>> futures) {
  struct Gather {
    std::vector<std::optional<T>> slots;
    size_t remaining;
    Promise<std::vector<T>> promise;
  };
  auto gather = std::make_shared<Gather>();
  gather->slots.resize(futures.size());
  gather->remaining = futures.size();
  Promise<std::vector<T>> promise = gather->promise;
  if (futures.empty()) {
    promise.set({});
    return promise.future();
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    futures[i].on_ready([gather, i](T&& v) {
      gather->slots[i] = std::move(v);
      if (--gather->remaining == 0) {
        std::vector<T> out;
        out.reserve(gather->slots.size());
        for (auto& slot : gather->slots) {
          out.push_back(std::move(*slot));
        }
        gather->promise.set(std::move(out));
      }
    });
  }
  return promise.future();
}

}  // namespace fractos

#endif  // SRC_FUTURES_FUTURE_H_
