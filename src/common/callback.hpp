// Move-only, small-buffer callable wrapper for the simulator's hot paths.
//
// std::function must be copyable, so every capture that is not trivially
// small lives on the heap, and libstdc++ keeps only 16 bytes inline. The
// event engine schedules millions of short closures — `[this, slot, id]`,
// a ring step's four references plus a shared_ptr — and each one paid a
// malloc/free pair. Callback keeps captures of up to kInlineBytes in the
// object itself and falls back to one heap allocation for larger ones.
// Being move-only, it also accepts move-only captures (unique_ptr state
// owned by a pending event).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hero {

template <typename Sig>
class Callback;

template <typename R, typename... Args>
class Callback<R(Args...)> {
 public:
  /// Captures up to this size (and max_align_t alignment, nothrow move)
  /// are stored inline; larger ones go to the heap.
  static constexpr std::size_t kInlineBytes = 48;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT: implicit, like std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  Callback(F&& f) {  // NOLINT: implicit, like std::function
    using Fn = std::decay_t<F>;
    if constexpr (std::is_pointer_v<Fn>) {
      if (f == nullptr) return;  // a null function pointer stays empty
    }
    if constexpr (stored_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }
  /// True when the target lives in the inline buffer (tests, diagnostics).
  [[nodiscard]] bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_storage;
  }

  /// Invoke the target; calling an empty Callback is undefined.
  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args) = nullptr;
    /// Move-construct into `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept = nullptr;
    void (*destroy)(void* storage) noexcept = nullptr;
    bool inline_storage = false;
  };

  template <typename Fn>
  static constexpr bool stored_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static Fn& inline_target(void* storage) {
    return *std::launder(static_cast<Fn*>(storage));
  }
  template <typename Fn>
  static Fn*& heap_target(void* storage) {
    return *std::launder(static_cast<Fn**>(storage));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s, Args&&... args) -> R {
        return static_cast<R>(
            inline_target<Fn>(s)(std::forward<Args>(args)...));
      },
      [](void* dst, void* src) noexcept {
        Fn& from = inline_target<Fn>(src);
        ::new (dst) Fn(std::move(from));
        from.~Fn();
      },
      [](void* s) noexcept { inline_target<Fn>(s).~Fn(); },
      true};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* s, Args&&... args) -> R {
        return static_cast<R>(
            (*heap_target<Fn>(s))(std::forward<Args>(args)...));
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(heap_target<Fn>(src));
      },
      [](void* s) noexcept { delete heap_target<Fn>(s); },
      false};

  void take(Callback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->destroy(buf_);
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace hero
