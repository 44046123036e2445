//===- SpatialOptimizer.h - spatial-locality optimizer (Algorithm 3) -*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 3 of the paper: tiling for self-spatial (cache-line) reuse in
/// statements with transposed inputs. The partial cost of each input array
/// (Eqs. 15/17) multiplies the number of tiles it is re-fetched across by
/// the prefetching-efficiency factor `Tx/lc` of the L2 constant-stride
/// prefetcher; the cost is minimized by tiles of width `Tx = lc` and the
/// maximum interference-free height from Algorithm 1 (tall, narrow tiles).
/// Working-set constraints: `wsL1 = lc*Tx + Tx` and `wsL2 = 2*Tx*Ty`
/// (Eqs. 18/19).
///
//===----------------------------------------------------------------------===//

#ifndef LTP_CORE_SPATIALOPTIMIZER_H
#define LTP_CORE_SPATIALOPTIMIZER_H

#include "arch/ArchParams.h"
#include "core/AccessInfo.h"
#include "core/Classifier.h"

#include <cstdint>
#include <optional>
#include <string>

namespace ltp {

/// The schedule Algorithm 3 produces for a two-dimensional statement.
struct SpatialSchedule {
  /// Tile width along the output's column dimension (Twidth).
  int64_t TileWidth = 0;
  /// Tile height along the other dimension (bounded by Algorithm 1).
  int64_t TileHeight = 0;
  /// The two loop variables (column first).
  std::string ColumnVar;
  std::string RowVar;
  /// Parallelize the outer row loop.
  bool Parallel = false;
  /// Vectorize the column intra-tile loop at this width (0 = none).
  int VectorWidth = 0;
  /// Model outputs.
  double Cost = 0.0;
  int64_t MaxTileHeight = 0;
  int64_t WsL1 = 0;
  int64_t WsL2 = 0;
};

/// Runs Algorithm 3. The stage must be two-dimensional with at least one
/// transposed input (as detected by \p C). The Algorithm 1 tile-height
/// bound takes the closed form, with a counted emulator fallback. Returns
/// nothing when no tile meets the working-set and parallelism
/// constraints (arrays too small to give every thread a row of tiles).
std::optional<SpatialSchedule> optimizeSpatial(const StageAccessInfo &Info,
                                               const Classification &C,
                                               const ArchParams &Arch);

/// Applies \p Schedule to stage \p StageIndex of \p F.
void applySpatialSchedule(Func &F, int StageIndex,
                          const SpatialSchedule &Schedule);

/// Renders the schedule as a human-readable string.
std::string describeSpatialSchedule(const SpatialSchedule &Schedule);

} // namespace ltp

#endif // LTP_CORE_SPATIALOPTIMIZER_H
