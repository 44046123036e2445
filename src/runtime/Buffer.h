//===- Buffer.h - aligned n-dimensional data buffers ------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense n-dimensional buffers used as kernel inputs and outputs. Dimension
/// 0 is the contiguous ("column") dimension, matching the Halide argument
/// order used in the paper: `C(j, i)` stores `j` contiguously. Storage is
/// 64-byte aligned so vectorized and non-temporal code paths can assume
/// cache-line alignment of row starts when extents are padded.
///
/// `BufferRef` is the type-erased view handed to the interpreter, the JIT
/// ABI and the cache simulator (which needs base addresses and strides to
/// form the memory trace). A `BufferRef` with no data is a declaration: the
/// view a buffer will have once allocated, which is all that planning,
/// lowering and code generation read.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_RUNTIME_BUFFER_H
#define LTP_RUNTIME_BUFFER_H

#include "ir/Type.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <random>
#include <vector>

namespace ltp {

/// \p A * \p B for non-negative operands, saturating at INT64_MAX: sizes
/// of declarations too large to allocate stay defined and compare large.
inline int64_t saturatingMul(int64_t A, int64_t B) {
  int64_t Product;
  if (__builtin_mul_overflow(A, B, &Product))
    return std::numeric_limits<int64_t>::max();
  return Product;
}

/// Type-erased view of a dense buffer: base pointer, element type, extents
/// and element strides (stride[0] == 1 always; layout is column-contiguous).
struct BufferRef {
  void *Data = nullptr;
  ir::Type ElemType;
  std::vector<int64_t> Extents;
  std::vector<int64_t> Strides;

  /// A declaration: the view a buffer of \p ElemType and \p Extents gets,
  /// with no data. Strides are dense (saturating).
  static BufferRef declare(ir::Type ElemType, std::vector<int64_t> Extents) {
    assert(!Extents.empty() && "buffer requires at least 1 dimension");
    BufferRef R;
    R.ElemType = ElemType;
    int64_t Stride = 1;
    for (int64_t E : Extents) {
      assert(E > 0 && "buffer extents must be positive");
      R.Strides.push_back(Stride);
      Stride = saturatingMul(Stride, E);
    }
    R.Extents = std::move(Extents);
    return R;
  }

  int64_t dims() const { return static_cast<int64_t>(Extents.size()); }

  /// The data as \p T elements.
  template <typename T> T *data() const { return static_cast<T *>(Data); }

  /// Linear element offset of a multi-dimensional index.
  template <typename IndexList = std::initializer_list<int64_t>>
  int64_t offsetOf(const IndexList &Index) const {
    assert(Index.size() == Extents.size() && "index rank mismatch");
    int64_t Offset = 0;
    size_t D = 0;
    for (int64_t I : Index) {
      assert(I >= 0 && I < Extents[D] && "buffer index out of bounds");
      Offset += I * Strides[D++];
    }
    return Offset;
  }

  /// Total number of elements (saturating).
  int64_t numElements() const {
    int64_t N = 1;
    for (int64_t E : Extents)
      N = saturatingMul(N, E);
    return N;
  }

  /// Size in bytes (saturating).
  int64_t sizeBytes() const {
    return saturatingMul(numElements(),
                         static_cast<int64_t>(ElemType.bytes()));
  }
};

/// Owning, typed, 64-byte aligned n-dimensional buffer: the view of its
/// declaration (BufferRef::declare) plus the data.
template <typename T> class Buffer {
public:
  /// Allocates a buffer with the given per-dimension extents (dimension 0
  /// contiguous), zero-initialized.
  explicit Buffer(std::vector<int64_t> Extents)
      : View(BufferRef::declare(elemType(), std::move(Extents))),
        TotalElements(View.numElements()) {
    size_t Bytes = static_cast<size_t>(TotalElements) * sizeof(T);
    // Round the allocation up to a multiple of the alignment so streaming
    // stores may safely run whole vectors at the tail.
    size_t Padded = (Bytes + Alignment - 1) / Alignment * Alignment;
    View.Data = std::aligned_alloc(Alignment, Padded);
    assert(View.Data && "buffer allocation failed");
    std::memset(View.Data, 0, Padded);
  }

  Buffer(const Buffer &) = delete;
  Buffer &operator=(const Buffer &) = delete;

  Buffer(Buffer &&Other) noexcept { *this = std::move(Other); }
  Buffer &operator=(Buffer &&Other) noexcept {
    if (this != &Other) {
      release();
      View = std::move(Other.View);
      TotalElements = Other.TotalElements;
      Other.View.Data = nullptr;
    }
    return *this;
  }

  ~Buffer() { release(); }

  /// Element access; indices follow dimension order (index 0 contiguous).
  template <typename... Indices> T &operator()(Indices... Index) {
    static_assert((std::is_integral_v<Indices> && ...),
                  "buffer indices must be integral");
    return data()[View.offsetOf({static_cast<int64_t>(Index)...})];
  }
  template <typename... Indices> const T &operator()(Indices... Index) const {
    static_assert((std::is_integral_v<Indices> && ...),
                  "buffer indices must be integral");
    return data()[View.offsetOf({static_cast<int64_t>(Index)...})];
  }

  T *data() { return View.data<T>(); }
  const T *data() const { return View.data<T>(); }

  const std::vector<int64_t> &extents() const { return View.Extents; }
  int64_t extent(size_t D) const { return View.Extents[D]; }
  int64_t stride(size_t D) const { return View.Strides[D]; }
  int64_t numElements() const { return TotalElements; }

  /// Fills the buffer with a fixed value.
  void fill(T Value) { std::fill_n(data(), TotalElements, Value); }

  /// Fills the buffer with deterministic pseudo-random values in [0, 1) for
  /// floats or [0, 255] for integers.
  void fillRandom(uint32_t Seed) {
    std::mt19937 Rng(Seed);
    T *P = data();
    if constexpr (std::is_floating_point_v<T>) {
      std::uniform_real_distribution<double> Dist(0.0, 1.0);
      for (int64_t I = 0; I != TotalElements; ++I)
        P[I] = static_cast<T>(Dist(Rng));
    } else {
      std::uniform_int_distribution<uint32_t> Dist(0, 255);
      for (int64_t I = 0; I != TotalElements; ++I)
        P[I] = static_cast<T>(Dist(Rng));
    }
  }

  /// Type-erased view of this buffer.
  BufferRef ref() { return View; }

  /// IR element type corresponding to T.
  static ir::Type elemType() {
    if constexpr (std::is_same_v<T, float>)
      return ir::Type::float32();
    else if constexpr (std::is_same_v<T, double>)
      return ir::Type::float64();
    else if constexpr (std::is_same_v<T, int32_t>)
      return ir::Type::int32();
    else if constexpr (std::is_same_v<T, int64_t>)
      return ir::Type::int64();
    else if constexpr (std::is_same_v<T, uint32_t>)
      return ir::Type::uint32();
    else if constexpr (std::is_same_v<T, uint8_t>)
      return ir::Type::uint8();
    else
      static_assert(sizeof(T) == 0, "unsupported buffer element type");
  }

private:
  static constexpr size_t Alignment = 64;

  void release() {
    std::free(View.Data);
    View.Data = nullptr;
  }

  BufferRef View;
  int64_t TotalElements = 0;
};

} // namespace ltp

#endif // LTP_RUNTIME_BUFFER_H
