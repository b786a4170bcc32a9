// Small-buffer-optimized, move-only callable for the event calendar.
//
// Every scheduled event used to carry a std::function<void()>, whose
// 16-byte small-object buffer is too small for the kernel's lambdas
// ([this] plus a Packet already exceeds it), so steady-state simulation
// paid one heap allocation per scheduled event plus another when step()
// copied the action back out of the calendar.  InlineAction stores any
// nothrow-movable callable of up to kInlineBytes directly inside the
// event record and is move-only, so the calendar never allocates or
// copies: larger callables still work (they fall back to a single heap
// cell) but the hot-path lambdas are all static_assert'ed inline at
// their call sites (link, sources, shaper, frames, aimd, trace, node).
//
// Trivially-copyable callables (the common [this]-capture case) are
// relocated with memcpy and need no destructor call, which keeps moves
// into and out of the calendar's slab branch-cheap.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "util/annotations.h"

namespace bufq {

class InlineAction {
 public:
  /// Bytes of capture that stay inside the event record.  Sized so every
  /// kernel/source/shaper/link lambda fits (the largest captures `this`
  /// plus a handful of words); a whole Packet-by-value capture does not,
  /// on purpose — restructure the call site instead (see Link).
  static constexpr std::size_t kInlineBytes = 48;

  /// True when callable F is stored inline (no heap): it must fit the
  /// buffer, be suitably aligned, and move without throwing so the
  /// calendar's relocations stay noexcept.  cv/ref qualifiers are
  /// stripped, so `stores_inline<decltype(some_lambda)>` works directly.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(std::remove_cvref_t<F>) <= kInlineBytes &&
      alignof(std::remove_cvref_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::remove_cvref_t<F>>;

  InlineAction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineAction> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::function.
  BUFQ_HOT InlineAction(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (stores_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      BUFQ_LINT_SUPPRESS("hot-path-allocation", "cold fallback for oversize captures; hot call sites static_assert stores_inline");
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  BUFQ_HOT InlineAction(InlineAction&& other) noexcept { move_from(other); }

  BUFQ_HOT InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  /// Invokes the stored callable.  Requires a non-empty action.
  BUFQ_HOT void operator()() {
    assert(ops_ != nullptr && "invoking an empty InlineAction");
    ops_->invoke(storage_);
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs dst's storage from src's and destroys src's.
    /// nullptr means the payload is trivially relocatable: memcpy the
    /// buffer and forget the source, no destructor needed.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr for trivially destructible payloads.
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static void invoke_inline(void* storage) {
    (*std::launder(reinterpret_cast<Fn*>(storage)))();
  }
  template <typename Fn>
  static void relocate_inline(void* dst, void* src) noexcept {
    Fn* from = std::launder(reinterpret_cast<Fn*>(src));
    ::new (dst) Fn(std::move(*from));
    from->~Fn();
  }
  template <typename Fn>
  static void destroy_inline(void* storage) noexcept {
    std::launder(reinterpret_cast<Fn*>(storage))->~Fn();
  }

  template <typename Fn>
  static void invoke_heap(void* storage) {
    (**std::launder(reinterpret_cast<Fn**>(storage)))();
  }
  template <typename Fn>
  static void destroy_heap(void* storage) noexcept {
    delete *std::launder(reinterpret_cast<Fn**>(storage));
  }

  template <typename Fn>
  static constexpr Ops inline_ops{
      &invoke_inline<Fn>,
      std::is_trivially_copyable_v<Fn> ? nullptr : &relocate_inline<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_inline<Fn>,
  };
  /// The heap cell's pointer relocates by memcpy (relocate == nullptr)
  /// but still owns its callable, so destroy is always set.
  template <typename Fn>
  static constexpr Ops heap_ops{&invoke_heap<Fn>, nullptr, &destroy_heap<Fn>};

  BUFQ_HOT void move_from(InlineAction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      // Relocates the whole buffer, deliberately including the bytes past
      // the payload: a fixed-size memcpy compiles to a few vector moves,
      // whereas a payload-sized one would need the size stored per action.
      // The tail bytes are indeterminate but never read through.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
      std::memcpy(storage_, other.storage_, kInlineBytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    } else {
      ops_->relocate(storage_, other.storage_);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_{nullptr};
};

}  // namespace bufq
