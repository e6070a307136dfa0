//===- support/InlineFunction.h - Move-only small-buffer callable -*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A move-only replacement for std::function on hot paths. A callable
/// whose size is at most N bytes (with at most pointer alignment and a
/// noexcept move) lives in an inline buffer, so constructing, moving and
/// destroying it never touches the allocator; a larger one is boxed on
/// the heap, exactly as std::function would. Trivially copyable callables
/// (the common `[this]` or `[this, Index]` lambda) carry no manager at
/// all: moving them is a fixed-size memcpy and destroying them is free.
///
/// Being move-only, it also holds move-only captures (a unique_ptr, a
/// nested InlineFunction), which std::function cannot.
///
/// An empty InlineFunction is false in a boolean context; calling it is
/// a bug (asserted). Constructing one from a null function pointer or an
/// empty std::function yields an empty InlineFunction, so "no callback"
/// survives the conversion.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_SUPPORT_INLINEFUNCTION_H
#define GREENWEB_SUPPORT_INLINEFUNCTION_H

#include <cassert>
#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace greenweb {

template <class Sig, std::size_t N> class InlineFunction;

namespace detail {
template <class T> struct IsStdFunction : std::false_type {};
template <class Sig>
struct IsStdFunction<std::function<Sig>> : std::true_type {};
} // namespace detail

template <class R, class... Args, std::size_t N>
class InlineFunction<R(Args...), N> {
  static_assert(N >= sizeof(void *), "buffer must hold a boxed pointer");

public:
  /// True when a callable of type F is stored inline (no allocation).
  template <class F>
  static constexpr bool StoredInline =
      sizeof(F) <= N && alignof(F) <= alignof(void *) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}

  template <class F, class D = std::decay_t<F>>
    requires(!std::is_same_v<D, InlineFunction> &&
             std::is_invocable_r_v<R, D &, Args...>)
  InlineFunction(F &&Fn) {
    if constexpr (std::is_pointer_v<D> || detail::IsStdFunction<D>::value)
      if (!Fn)
        return;
    if constexpr (StoredInline<D>) {
      ::new (static_cast<void *>(Buf)) D(std::forward<F>(Fn));
      Call = &callInline<D>;
      if constexpr (!std::is_trivially_copyable_v<D>)
        Manage = &manageInline<D>;
    } else {
      D *Boxed = new D(std::forward<F>(Fn));
      std::memcpy(Buf, &Boxed, sizeof(Boxed));
      Call = &callBoxed<D>;
      Manage = &manageBoxed<D>;
    }
  }

  InlineFunction(InlineFunction &&Other) noexcept { takeFrom(Other); }

  InlineFunction &operator=(InlineFunction &&Other) noexcept {
    if (this != &Other) {
      reset();
      takeFrom(Other);
    }
    return *this;
  }

  InlineFunction &operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction &) = delete;
  InlineFunction &operator=(const InlineFunction &) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return Call != nullptr; }

  R operator()(Args... A) {
    assert(Call && "calling an empty InlineFunction");
    return Call(Buf, std::forward<Args>(A)...);
  }

  /// Destroys the held callable (and its captures) now.
  void reset() noexcept {
    if (Manage)
      Manage(Op::Destroy, Buf, nullptr);
    Call = nullptr;
    Manage = nullptr;
  }

private:
  enum class Op { Relocate, Destroy };

  using CallFn = R (*)(unsigned char *, Args &&...);
  /// Relocate: move-constructs the callable from Src into Dst and ends
  /// Src's lifetime. Destroy: ends Src's lifetime.
  using ManageFn = void (*)(Op, unsigned char *Src, unsigned char *Dst);

  template <class D> static D *inlineObject(unsigned char *P) {
    return std::launder(reinterpret_cast<D *>(P));
  }
  template <class D> static D *boxedObject(unsigned char *P) {
    D *Boxed;
    std::memcpy(&Boxed, P, sizeof(Boxed));
    return Boxed;
  }

  template <class D> static R callInline(unsigned char *P, Args &&...A) {
    return std::invoke(*inlineObject<D>(P), std::forward<Args>(A)...);
  }
  template <class D> static R callBoxed(unsigned char *P, Args &&...A) {
    return std::invoke(*boxedObject<D>(P), std::forward<Args>(A)...);
  }

  template <class D>
  static void manageInline(Op O, unsigned char *Src, unsigned char *Dst) {
    D *Obj = inlineObject<D>(Src);
    if (O == Op::Relocate)
      ::new (static_cast<void *>(Dst)) D(std::move(*Obj));
    Obj->~D();
  }
  template <class D>
  static void manageBoxed(Op O, unsigned char *Src, unsigned char *Dst) {
    if (O == Op::Relocate)
      std::memcpy(Dst, Src, sizeof(D *));
    else
      delete boxedObject<D>(Src);
  }

  void takeFrom(InlineFunction &Other) noexcept {
    Call = Other.Call;
    Manage = Other.Manage;
    if (Manage)
      Manage(Op::Relocate, Other.Buf, Buf);
    else if (Call)
      std::memcpy(Buf, Other.Buf, N);
    Other.Call = nullptr;
    Other.Manage = nullptr;
  }

  alignas(void *) unsigned char Buf[N];
  CallFn Call = nullptr;
  /// Null for an empty or trivially copyable inline callable.
  ManageFn Manage = nullptr;
};

} // namespace greenweb

#endif // GREENWEB_SUPPORT_INLINEFUNCTION_H
