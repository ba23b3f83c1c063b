// SmallFunction: a move-only, small-buffer-optimized callable wrapper.
//
// The event engine stores one callback per scheduled event, and nearly all
// of them are lambdas capturing a `this` pointer plus a few scalars — well
// under 64 bytes. std::function heap-allocates many of those (libstdc++'s
// inline buffer is 16 bytes), which made the allocator the hottest line of
// the simulation loop. SmallFunction keeps callables up to `BufBytes`
// inline in the owning object (an event-slab node, so the storage is
// recycled with the slot) and falls back to the heap only for oversized
// captures.
//
// Differences from std::function, deliberate:
//   - move-only (no copy): event callbacks are fired exactly once, and
//     requiring copyability forces captured state to be copyable too.
//   - invocation is non-const and one-shot-friendly: the callable may move
//     its own captures out (the periodic re-arm path does).
//   - no target_type()/target() introspection.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ess {

template <typename Signature, std::size_t BufBytes = 64>
class SmallFunction;

template <typename R, typename... Args, std::size_t BufBytes>
class SmallFunction<R(Args...), BufBytes> {
 public:
  SmallFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  SmallFunction(SmallFunction&& other) noexcept { move_from(other); }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Whether a callable of type F is stored inline (no heap allocation).
  template <typename F>
  static constexpr bool stores_inline() {
    return fits_inline<std::decay_t<F>>();
  }

  R operator()(Args... args) {
    return ops_->invoke(&buf_, std::forward<Args>(args)...);
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(&buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*move)(void* dst, void* src);  // move-construct dst from src
    void (*destroy)(void*);
  };

  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= BufBytes && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <typename F>
  struct InlineOps {
    static F* get(void* p) { return std::launder(static_cast<F*>(p)); }
    static R invoke(void* p, Args&&... args) {
      return (*get(p))(std::forward<Args>(args)...);
    }
    static void move(void* dst, void* src) {
      ::new (dst) F(std::move(*get(src)));
      get(src)->~F();
    }
    static void destroy(void* p) { get(p)->~F(); }
    static constexpr Ops ops{&invoke, &move, &destroy};
  };

  template <typename F>
  struct HeapOps {
    static F*& slot(void* p) { return *std::launder(static_cast<F**>(p)); }
    static R invoke(void* p, Args&&... args) {
      return (*slot(p))(std::forward<Args>(args)...);
    }
    static void move(void* dst, void* src) {
      ::new (dst) F*(slot(src));
      slot(src) = nullptr;
    }
    static void destroy(void* p) { delete slot(p); }
    static constexpr Ops ops{&invoke, &move, &destroy};
  };

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(&buf_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      ::new (static_cast<void*>(&buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  void move_from(SmallFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->move(&buf_, &other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[BufBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ess
