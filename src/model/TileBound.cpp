//===- TileBound.cpp - closed-form solution of Algorithm 1 ---------------===//

#include "model/TileBound.h"

#include "obs/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace ltp;
using namespace ltp::model;

bool ltp::model::analyticMaxTileDim(const CacheEmuParams &Params,
                                    int64_t &Out) {
  assert(Params.DTS > 0 && "element size must be positive");
  assert(Params.RowStrideElems > 0 && "row stride must be positive");
  assert(Params.MaxRows > 0 && "row bound must be positive");

  // Mirror the emulator's derived geometry exactly; any divergence here
  // would break the bit-for-bit parity AnalyticModelTest pins.
  const int64_t Lc = Params.L1LineBytes / Params.DTS;
  if (Lc <= 0)
    return false;

  int64_t NumSets =
      Params.Cache.SizeBytes / (Params.Cache.Ways * Params.DTS);
  if (NumSets <= 0)
    return false;

  const int64_t EffWays =
      std::max<int64_t>(1, Params.Cache.Ways / Params.EffectiveWaysDivisor);

  int64_t RowLines = 0;
  int L2Pref = Params.L2Pref;
  int L2MaxPref = Params.L2MaxPref;
  if (Params.NoPrefetchPadding) {
    RowLines = (std::max(Params.PrevTileElems, Lc) + Lc - 1) / Lc;
    L2Pref = 0;
    L2MaxPref = 0;
  } else if (Params.ForL2) {
    NumSets = std::max<int64_t>(1, NumSets / 2);
    RowLines = (std::max(Params.PrevTileElems, Lc) + Lc - 1) / Lc;
  } else {
    RowLines = (std::max(Params.PrevTileElems + Lc, 2 * Lc) + Lc - 1) / Lc;
  }

  // Line-aligned rows: the emulator's ceil-divided start line collapses
  // to exact multiples only when base and stride are whole lines.
  if (Params.BaseAddrElems % Lc != 0 || Params.RowStrideElems % Lc != 0)
    return false;
  const int64_t StrideLines = Params.RowStrideElems / Lc;
  if (StrideLines <= 0)
    return false;

  // A row must fit within one period of the slot space, or it would
  // revisit its own slots and the occupancy algebra below breaks.
  if (RowLines > NumSets)
    return false;

  const int64_t G = std::gcd(StrideLines, NumSets);
  const int64_t Period = NumSets / G; // rows per period
  const int64_t Q = (RowLines + G - 1) / G; // lines landing per start slot

  // Within-period visit order: start slots advance by (SL/g) mod P each
  // row. The closed form needs either disjoint stripes (order
  // irrelevant) or the sequential order, where partial-period occupancy
  // is maximal at the start slot of the next unplaced row.
  const int64_t StepInPeriod = (StrideLines / G) % Period;
  const bool Disjoint = RowLines <= G;
  if (!Disjoint && StepInPeriod != 1)
    return false;

  const int64_t FullPeriods = EffWays / Q;
  const int64_t Partial = EffWays % Q;
  int64_t Bound = FullPeriods * Period + Partial;

  // The constant-stride prefetch probe (L2 emulation) re-checks slots in
  // a small window at the start of the placement; it can only flag
  // interference if some slot is already full while the window is open.
  // Require the predicted interference row to lie safely past the
  // window, else defer to the emulator.
  if (L2Pref > 0 && L2MaxPref > 0) {
    // Rows whose placement still probes: t*R + 1 <= L2MaxPref, plus one
    // row of margin for the probe's look-ahead into the next stripe.
    const int64_t WindowRows = (L2MaxPref - 1) / RowLines + 2;
    const int64_t MaxOccInWindow = ((WindowRows + Period - 1) / Period) * Q;
    if (MaxOccInWindow >= EffWays)
      return false;
    if (Bound <= WindowRows)
      return false;
  }

  Out = std::max<int64_t>(1, std::min(Bound, Params.MaxRows));
  return true;
}

int64_t ltp::model::boundMaxTileDim(const CacheEmuParams &Params,
                                    bool *UsedAnalytic) {
  static obs::Counter &Analytic = obs::counter("model.bound.analytic");
  static obs::Counter &Emulated = obs::counter("model.bound.emulated");
  static obs::Counter &Fallback = obs::counter("model.bound.fallback");

  if (UsedAnalytic)
    *UsedAnalytic = false;
  int64_t Bound = 0;
  if (analyticMaxTileDim(Params, Bound)) {
    Analytic.add();
    if (UsedAnalytic)
      *UsedAnalytic = true;
    return Bound;
  }
  // Outside the closed form's domain (unaligned strides, probe-window
  // interference, non-sequential period order): fall back to the
  // emulator and count it — a wrong bound is never an acceptable trade
  // for skipping the emulation.
  Fallback.add();
  Emulated.add();
  return emulateMaxTileDim(Params);
}
