// InlineFn: the event loop's callback type — a move-only, type-erased void() callable tuned
// for the scheduler hot path — and BasicInlineFn, its general form.
//
// std::function costs the hot path twice: callables larger than its tiny SBO (16 bytes on
// libstdc++) heap-allocate on every schedule, and its copyability requirement forbids
// capturing move-only state (a Payload handle, another InlineFn). InlineFn instead:
//   * stores callables up to kInlineBytes directly inside the object (no allocation at all
//     for the common `[this]`/small-capture timers), and
//   * parks larger callables in fixed-size blocks recycled through a freelist, so a steady
//     state soak allocates nothing per event no matter the capture size. Callables larger
//     than a pool block (rare) fall back to plain new/delete.

#ifndef SRC_SIM_INLINE_FN_H_
#define SRC_SIM_INLINE_FN_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace fractos {

namespace internal_inline_fn {

// Freelist of fixed-size overflow blocks. Owned by a function-local singleton so the blocks
// are reachable (and freed) at exit — leak-sanitizer clean.
constexpr size_t kPoolBlockBytes = 256;
constexpr size_t kPoolMaxFree = 4096;  // blocks parked before falling back to delete

struct Pool {
  std::vector<void*> free_blocks;
  ~Pool() {
    for (void* p : free_blocks) {
      ::operator delete(p);
    }
  }
};

inline Pool& pool() {
  static Pool p;
  return p;
}

inline void* pool_alloc() {
  Pool& p = pool();
  if (!p.free_blocks.empty()) {
    void* block = p.free_blocks.back();
    p.free_blocks.pop_back();
    return block;
  }
  return ::operator new(kPoolBlockBytes);
}

inline void pool_free(void* block) {
  Pool& p = pool();
  if (p.free_blocks.size() < kPoolMaxFree) {
    p.free_blocks.push_back(block);
  } else {
    ::operator delete(block);
  }
}

}  // namespace internal_inline_fn

// The general form: a move-only callable with signature `Sig` that stores callables of up to
// `InlineBytes` (aligned to at most `Align`) inside the object. InlineFn is the event loop's
// instance; smaller instances type-erase per-message callbacks that ride inside an event's
// own inline capture (Network::DeliverFn), so a message costs no allocation at all.
template <typename Sig, size_t InlineBytes, size_t Align = alignof(std::max_align_t)>
class BasicInlineFn;

template <typename R, typename... Args, size_t InlineBytes, size_t Align>
class BasicInlineFn<R(Args...), InlineBytes, Align> {
 public:
  static constexpr size_t kInlineBytes = InlineBytes;

  BasicInlineFn() = default;
  BasicInlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor): "no callback"

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, BasicInlineFn> &&
                                        !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  BasicInlineFn(F&& f) {  // NOLINT(google-explicit-constructor): callbacks convert implicitly
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      void* block = internal_inline_fn::kPoolBlockBytes >= sizeof(D) &&
                            alignof(D) <= alignof(std::max_align_t)
                        ? internal_inline_fn::pool_alloc()
                        : ::operator new(sizeof(D), std::align_val_t{alignof(D)});
      ::new (block) D(std::forward<F>(f));
      *reinterpret_cast<void**>(storage_) = block;
      ops_ = &kHeapOps<D>;
    }
  }

  BasicInlineFn(BasicInlineFn&& other) noexcept { steal(other); }
  BasicInlineFn& operator=(BasicInlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  BasicInlineFn(const BasicInlineFn&) = delete;
  BasicInlineFn& operator=(const BasicInlineFn&) = delete;
  ~BasicInlineFn() { reset(); }

  R operator()(Args... args) { return ops_->invoke(storage_, std::forward<Args>(args)...); }

  explicit operator bool() const { return ops_ != nullptr; }
  bool operator==(std::nullptr_t) const { return ops_ == nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

 private:
  static_assert(InlineBytes >= sizeof(void*), "the storage must hold a block pointer");

  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-constructs dst's storage from src's and destroys the src object. nullptr means
    // "relocatable by memcpy of the whole storage" — true for trivially-copyable inline
    // callables and for all pool/heap-backed ones (their storage is just a pointer), which
    // lets the scheduler shuffle events with a fixed-size memcpy instead of an indirect call.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage);  // nullptr when destruction is a no-op
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= InlineBytes && alignof(D) <= Align &&
           std::is_nothrow_move_constructible_v<D>;
  }
  template <typename D>
  static constexpr bool memcpy_relocatable() {
    return std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;
  }

  template <typename D>
  static D* inline_obj(void* storage) {
    return std::launder(reinterpret_cast<D*>(storage));
  }
  template <typename D>
  static D* heap_obj(void* storage) {
    return static_cast<D*>(*reinterpret_cast<void**>(storage));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s, Args&&... args) -> R { return (*inline_obj<D>(s))(std::forward<Args>(args)...); },
      memcpy_relocatable<D>() ? nullptr
                              : +[](void* dst, void* src) noexcept {
                                  D* obj = inline_obj<D>(src);
                                  ::new (dst) D(std::move(*obj));
                                  obj->~D();
                                },
      std::is_trivially_destructible_v<D> ? nullptr
                                          : +[](void* s) { inline_obj<D>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s, Args&&... args) -> R { return (*heap_obj<D>(s))(std::forward<Args>(args)...); },
      nullptr,  // storage holds a pointer: memcpy relocates it
      [](void* s) {
        D* obj = heap_obj<D>(s);
        obj->~D();
        if constexpr (internal_inline_fn::kPoolBlockBytes >= sizeof(D) &&
                      alignof(D) <= alignof(std::max_align_t)) {
          internal_inline_fn::pool_free(*reinterpret_cast<void**>(s));
        } else {
          ::operator delete(*reinterpret_cast<void**>(s), std::align_val_t{alignof(D)});
        }
      },
  };

  void steal(BasicInlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, InlineBytes);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(Align) unsigned char storage_[InlineBytes];
  const Ops* ops_ = nullptr;
};

// The event loop's callback. Inline capacity is sized so a capture of a handful of
// pointers/handles plus one std::function-typed completion fits without touching the pool.
using InlineFn = BasicInlineFn<void(), 64>;

}  // namespace fractos

#endif  // SRC_SIM_INLINE_FN_H_
