//===- TileBound.h - closed-form solution of Algorithm 1 --------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed-form evaluation of Algorithm 1 (`emulateMaxTileDim`): for
/// line-aligned rows whose stride is a whole number of cache lines, the
/// emulated placement of rows into the one-way slot space is periodic and
/// the first interference row has an exact closed form — no per-line
/// iteration required.
///
/// Derivation. Let `N` be the slot count (after the L2 halving), `W` the
/// effective ways, `R` the padded row width in lines and `SL` the row
/// stride in lines. Row `t` starts at slot `t*SL mod N`; with
/// `g = gcd(SL, N)` the starts visit exactly the multiples of `g` with
/// period `P = N/g`. Each row covers `R` consecutive slots, so after one
/// full period every start slot holds `q = ceil(R/g)` lines and every
/// other slot at most `q`. When the within-period visit order is
/// sequential (`SL/g == 1 (mod P)`, which holds for all power-of-two
/// geometries) or the stripes are disjoint (`R <= g`), the first
/// placement that finds a full slot is row `floor(W/q)*P + (W mod q)`:
///
///     maxTi = (W / q) * P + (W % q)        (integer division)
///
/// clamped to [1, MaxRows]. For the paper's Listing 3 matmul
/// (N = 1024, W = 8, R = 2 -> g = 128, q = 1) this reproduces the
/// published bound Ti = 32 on the L1 and the corresponding L2 bound.
///
/// Applicability (checked exactly; failure falls back to the emulator):
///  * base address and row stride line-aligned,
///  * row width at most one period (`R <= N`),
///  * sequential period order or disjoint stripes (above),
///  * when the L2 constant-stride prefetch probe is active, interference
///    must provably occur after the probe window has closed.
///
/// `boundMaxTileDim` takes the closed form when it applies and the
/// emulator otherwise, and bumps the `model.bound.analytic` /
/// `model.bound.emulated` / `model.bound.fallback` counters so the
/// fallback rate is observable.
/// AnalyticModelTest pins exact equality with the emulator across
/// randomized geometries and every kernel's candidate parameters.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_MODEL_TILEBOUND_H
#define LTP_MODEL_TILEBOUND_H

#include "model/CacheEmu.h"

#include <cstdint>

namespace ltp {
namespace model {

/// Evaluates the closed form when the applicability conditions hold.
/// Returns true and stores the bound (identical to what
/// `emulateMaxTileDim` would return) in \p Out on success; returns false
/// when the parameters are outside the closed form's domain.
bool analyticMaxTileDim(const CacheEmuParams &Params, int64_t &Out);

/// The scored tile bound: closed form when the check passes, the
/// iterative emulator otherwise (a counted fallback). Telemetry counters
/// record which path produced each bound; \p UsedAnalytic (optional)
/// reports it to the caller for per-candidate provenance.
int64_t boundMaxTileDim(const CacheEmuParams &Params,
                        bool *UsedAnalytic = nullptr);

} // namespace model
} // namespace ltp

#endif // LTP_MODEL_TILEBOUND_H
