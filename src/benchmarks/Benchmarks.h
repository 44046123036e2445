//===- Benchmarks.h - the 12 paper benchmarks (Table 4) ---------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark suite of Table 4 as DSL pipelines with seeded buffer
/// declarations, native reference implementations (correctness oracles)
/// and the paper's / container-scaled problem sizes:
///
///   convlayer  3x3xCxC convolution layer        (temporal)
///   doitgen    multiresolution analysis kernel  (temporal)
///   matmul     matrix multiplication            (temporal)
///   3mm        three chained matmuls            (temporal)
///   gemm       generalized matmul               (temporal)
///   trmm       triangular matmul (out-of-place; see DESIGN.md)
///   syrk       symmetric rank-k update          (temporal)
///   syr2k      symmetric rank-2k update         (temporal)
///   tpm        transposition + masking          (spatial, NTI)
///   tp         transposition                    (spatial, NTI)
///   copy       array copy                       (no-transform, NTI)
///   mask       array mask                       (no-transform, NTI)
///
//===----------------------------------------------------------------------===//

#ifndef LTP_BENCHMARKS_BENCHMARKS_H
#define LTP_BENCHMARKS_BENCHMARKS_H

#include "lang/Func.h"
#include "runtime/Buffer.h"
#include "support/ErrorOr.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ltp {

/// One benchmark kernel. As a maker returns it, it is the kernel's shape:
/// stages, extents and buffer declarations (BufferRefs with no data),
/// which is all that planning, linting, lowering and code generation read.
/// materialize() allocates and fills the declared buffers for the
/// consumers that run or simulate the kernel.
struct BenchmarkInstance {
  std::string Name;
  /// Pipeline stages in realization order (compute_root semantics: each
  /// stage realizes fully into its named buffer before the next runs).
  std::vector<Func> Stages;
  /// Output extents of each stage (dimension 0 first).
  std::vector<std::vector<int64_t>> StageExtents;
  /// All buffers by name: external inputs plus every stage output.
  /// Declarations in a shape; bound to data once materialized.
  std::map<std::string, BufferRef> Buffers;
  /// The fill seed of every declared buffer, in declaration order (0
  /// leaves the buffer zeroed).
  std::vector<std::pair<std::string, uint32_t>> FillSeeds;
  /// Name of the final output buffer.
  std::string OutputName;
  /// Reference oracle (native loops): reads the materialized inputs by
  /// name and writes the expected output into the buffer it is handed,
  /// which has the output buffer's declaration.
  std::function<void(const BenchmarkInstance &, const BufferRef &)>
      Reference;
  /// Floating-point (or element) operations per full run, for reporting.
  double Work = 0.0;
  /// Keeps the allocated buffers alive (empty in a shape).
  std::vector<std::shared_ptr<void>> Storage;

  /// Declares buffer \p Name with the view a Buffer<T> of \p Extents
  /// gets, filled from \p Seed when materialized; returns the handle
  /// stages read it through.
  template <typename T>
  InputBuffer declare(const std::string &Name, std::vector<int64_t> Extents,
                      uint32_t Seed) {
    return declare(Name, Buffer<T>::elemType(), std::move(Extents), Seed);
  }
  InputBuffer declare(const std::string &Name, ir::Type ElemType,
                      std::vector<int64_t> Extents, uint32_t Seed);

  /// Appends stage \p F, realized over \p Extents into a zeroed buffer of
  /// its name that becomes the output; returns the handle later stages
  /// read it through.
  InputBuffer addStage(Func F, std::vector<int64_t> Extents);

  /// The data of materialized buffer \p Name.
  template <typename T> const T *data(const std::string &Name) const {
    return static_cast<const T *>(Buffers.at(Name).Data);
  }
};

/// Allocates and fills every buffer \p Shape declares, from the declared
/// seeds, so every call yields the same data. Fails without allocating
/// when the buffers would exceed the host's physical memory.
ErrorOr<BenchmarkInstance> materialize(BenchmarkInstance Shape);

/// Largest problem size a benchmark accepts: the makers build reduction
/// domains with `int` extents.
constexpr int64_t MaxBenchmarkSize = std::numeric_limits<int>::max();

/// Static description of one benchmark.
struct BenchmarkDef {
  std::string Name;
  std::string Description;
  /// Container-scaled default problem size.
  int64_t DefaultSize;
  /// The paper's Table-4 problem size.
  int64_t PaperSize;
  /// The maker: builds the kernel's shape at a size.
  BenchmarkInstance (*Make)(int64_t);

  /// The kernel's shape at size \p N (no buffer data).
  BenchmarkInstance shape(int64_t N) const { return Make(N); }
  /// materialize(shape(N)); aborts when that fails.
  BenchmarkInstance Create(int64_t N) const;
};

/// All Table-4 benchmarks, in the paper's order.
const std::vector<BenchmarkDef> &allBenchmarks();

/// Kernels beyond the paper's suite (PolyBench gemver/atax/mvt/bicg and a
/// Jacobi stencil) exercising 1-D reductions, multi-stage pipelines and
/// the stencil classification path. Defined in ExtendedBenchmarks.cpp.
const std::vector<BenchmarkDef> &extendedBenchmarks();

/// Finds a benchmark by name in either suite; null when unknown.
const BenchmarkDef *findBenchmark(const std::string &Name);

/// Compares the final output of a materialized instance against the
/// reference oracle, computed on demand into a buffer allocated here.
/// Returns true when every element matches within a type-appropriate
/// tolerance.
bool verifyOutput(const BenchmarkInstance &Instance);

} // namespace ltp

#endif // LTP_BENCHMARKS_BENCHMARKS_H
