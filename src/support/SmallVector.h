//===- support/SmallVector.h - Vector with inline storage -------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector whose first N elements live inside the object, so the small
/// case never touches the allocator; growing past N moves the elements
/// to one heap block, as std::vector would. The DOM keeps an element's
/// classes, attributes and children in these: nearly every element has
/// at most one class, one attribute and two children.
///
/// The object is not movable (its storage may be inside itself); copying
/// is supported. Iterators are plain pointers. An argument to push_back
/// or emplace_back must not refer into the vector itself.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_SUPPORT_SMALLVECTOR_H
#define GREENWEB_SUPPORT_SMALLVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

namespace greenweb {

template <class T, unsigned N> class SmallVector {
  static_assert(N > 0, "use std::vector for no inline storage");

public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  SmallVector() = default;
  SmallVector(const SmallVector &Other) { append(Other); }
  SmallVector &operator=(const SmallVector &Other) {
    if (this != &Other) {
      clear();
      append(Other);
    }
    return *this;
  }
  ~SmallVector() {
    clear();
    if (Data != inlineData())
      ::operator delete(Data);
  }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  T *begin() { return Data; }
  T *end() { return Data + Size; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }
  T &operator[](size_t I) {
    assert(I < Size && "SmallVector index out of range");
    return Data[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Size && "SmallVector index out of range");
    return Data[I];
  }
  T &front() { return (*this)[0]; }
  const T &front() const { return (*this)[0]; }
  T &back() { return (*this)[Size - 1]; }
  const T &back() const { return (*this)[Size - 1]; }

  void reserve(size_t Want) {
    if (Want > Capacity)
      grow(Want);
  }

  template <class... Args> T &emplace_back(Args &&...A) {
    if (Size == Capacity)
      grow(size_t(Capacity) * 2);
    T *Slot =
        ::new (static_cast<void *>(Data + Size)) T(std::forward<Args>(A)...);
    ++Size;
    return *Slot;
  }
  void push_back(const T &Value) { emplace_back(Value); }
  void push_back(T &&Value) { emplace_back(std::move(Value)); }

  /// Inserts \p Value before \p Pos; returns the inserted element.
  T *insert(const T *Pos, T &&Value) {
    size_t At = size_t(Pos - Data);
    assert(At <= Size && "insert position out of range");
    if (At == Size)
      return &emplace_back(std::move(Value));
    if (Size == Capacity)
      grow(size_t(Capacity) * 2);
    ::new (static_cast<void *>(Data + Size)) T(std::move(Data[Size - 1]));
    ++Size;
    for (size_t I = Size - 2; I > At; --I)
      Data[I] = std::move(Data[I - 1]);
    Data[At] = std::move(Value);
    return Data + At;
  }

  void clear() {
    std::destroy(Data, Data + Size);
    Size = 0;
  }

private:
  T *inlineData() { return reinterpret_cast<T *>(Inline); }

  void append(const SmallVector &Other) {
    reserve(Other.Size);
    for (const T &Value : Other)
      emplace_back(Value);
  }

  void grow(size_t Want) {
    T *Fresh = static_cast<T *>(::operator new(Want * sizeof(T)));
    std::uninitialized_move(Data, Data + Size, Fresh);
    std::destroy(Data, Data + Size);
    if (Data != inlineData())
      ::operator delete(Data);
    Data = Fresh;
    Capacity = uint32_t(Want);
  }

  T *Data = inlineData();
  uint32_t Size = 0;
  uint32_t Capacity = N;
  alignas(T) unsigned char Inline[N * sizeof(T)];
};

} // namespace greenweb

#endif // GREENWEB_SUPPORT_SMALLVECTOR_H
