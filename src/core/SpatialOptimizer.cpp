//===- SpatialOptimizer.cpp - spatial-locality optimizer (Algorithm 3) ---===//

#include "core/SpatialOptimizer.h"

#include "model/CacheEmu.h"
#include "model/TileBound.h"
#include "obs/Provenance.h"
#include "obs/Telemetry.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace ltp;

std::optional<SpatialSchedule>
ltp::optimizeSpatial(const StageAccessInfo &Info, const Classification &C,
                     const ArchParams &Arch) {
  obs::ScopedSpan Span("opt.spatial");
  assert(!C.TransposedInputs.empty() &&
         "spatial optimizer requires a transposed input");
  assert(Info.Loops.size() == 2 &&
         "the spatial model covers two-dimensional statements");

  SpatialSchedule Best;
  Best.ColumnVar = Info.outputColumnVar();
  for (const LoopInfo &Loop : Info.Loops)
    if (Loop.Name != Best.ColumnVar)
      Best.RowVar = Loop.Name;
  assert(!Best.RowVar.empty() && "row loop not found");

  const int64_t Bx = [&] {
    for (const LoopInfo &Loop : Info.Loops)
      if (Loop.Name == Best.ColumnVar)
        return Loop.Extent;
    return int64_t(0);
  }();
  const int64_t By = [&] {
    for (const LoopInfo &Loop : Info.Loops)
      if (Loop.Name == Best.RowVar)
        return Loop.Extent;
    return int64_t(0);
  }();
  const int64_t Lc = std::max<int64_t>(1, Arch.L1.LineBytes / Info.DTS);
  const int64_t L1Elems = Arch.L1.SizeBytes / Info.DTS;
  const int64_t L2Elems = Arch.L2.SizeBytes / Info.DTS;
  const int64_t EffDivL2 =
      Arch.SharedL2 ? std::max(1, Arch.NCores)
                    : std::max(1, Arch.NThreadsPerCore);

  // Which inputs are transposed (pay the Ty-amortized cost) vs aligned
  // with the output (pay the Tx-amortized cost).
  std::set<std::string> Transposed(C.TransposedInputs.begin(),
                                   C.TransposedInputs.end());

  Best.Cost = -1.0;
  const bool Explain = obs::explainEnabled();
  static obs::Counter &CandidateCounter = obs::counter("opt.candidates");
  static obs::Counter &AnalyticCounter =
      obs::counter("opt.candidates.analytic");
  static obs::Counter &SimCounter = obs::counter("opt.candidates.sim");
  // Only called under --explain; keeps provenance out of the search path.
  auto Record = [&](int64_t Tx, int64_t Ty, bool BoundAnalytic,
                    bool Accepted, const char *Reason, double Cost) {
    obs::CandidateRecord R;
    R.Candidate = strFormat("tile %lldx%lld", static_cast<long long>(Tx),
                            static_cast<long long>(Ty));
    R.Cost = Cost;
    R.ScoredBy = BoundAnalytic ? "analytic" : "sim";
    R.Accepted = Accepted;
    R.Reason = Reason;
    obs::recordCandidate(std::move(R));
  };
  // Sweep tile widths (vector-width multiples) and heights bounded by the
  // cache-emulation algorithm against the transposed array's row stride.
  for (int64_t Tx = Lc; Tx <= Bx; Tx *= 2) {
    // Algorithm 1: how many stride-By rows of the transposed array fit the
    // L2 cache together with the constant-stride prefetches.
    CacheEmuParams Emu;
    Emu.Cache = Arch.L2;
    Emu.L1LineBytes = Arch.L1.LineBytes;
    Emu.DTS = Info.DTS;
    Emu.PrevTileElems = Tx;
    Emu.RowStrideElems = By; // the transposed array's contiguous dim is y
    Emu.EffectiveWaysDivisor = EffDivL2;
    Emu.L2Pref = Arch.L2PrefetchDegree;
    Emu.L2MaxPref = Arch.L2MaxPrefetchDistance;
    Emu.ForL2 = true;
    Emu.MaxRows = By;
    bool BoundAnalytic = false;
    int64_t MaxTy = model::boundMaxTileDim(Emu, &BoundAnalytic);

    for (int64_t Ty = MaxTy; Ty >= 1; Ty = Ty / 2) {
      CandidateCounter.add();
      (BoundAnalytic ? AnalyticCounter : SimCounter).add();
      // Working sets, Eqs. 18 and 19.
      int64_t WsL1 = Lc * Tx + Tx;
      int64_t WsL2 = 2 * Tx * Ty;
      if (WsL1 > L1Elems || WsL2 > L2Elems) {
        if (Explain)
          Record(Tx, Ty, BoundAnalytic, false,
                 WsL1 > L1Elems ? "ws-L1 overflow" : "ws-L2 overflow", -1.0);
        continue;
      }
      // One tile per thread at least (iterations-per-thread >= 1).
      int64_t RowTrips = (By + Ty - 1) / Ty;
      if (Arch.totalThreads() > 1 && RowTrips < Arch.totalThreads()) {
        if (Explain)
          Record(Tx, Ty, BoundAnalytic, false, "parallelism constraint",
                 -1.0);
        continue;
      }

      // Partial costs: Eq. 15 for transposed arrays, Eq. 17 otherwise.
      double Total = 0.0;
      double Area = static_cast<double>(Bx) * static_cast<double>(By);
      double PrefetchEfficiency =
          static_cast<double>(Tx) / static_cast<double>(Lc);
      for (const ArrayAccess *Input : Info.inputs()) {
        double Partial =
            Transposed.contains(Input->Buffer)
                ? (Area / static_cast<double>(Ty)) * PrefetchEfficiency
                : (Area / static_cast<double>(Tx)) * PrefetchEfficiency;
        Total += Partial;
      }
      bool Accepted = Best.Cost < 0.0 || Total < Best.Cost;
      if (Explain)
        Record(Tx, Ty, BoundAnalytic, Accepted,
               Accepted ? "best so far" : "cost above best", Total);
      if (Accepted) {
        Best.Cost = Total;
        Best.TileWidth = Tx;
        Best.TileHeight = Ty;
        Best.MaxTileHeight = MaxTy;
        Best.WsL1 = WsL1;
        Best.WsL2 = WsL2;
      }
      if (Ty == 1)
        break;
    }
  }
  if (Best.Cost < 0.0)
    return std::nullopt;

  Best.Parallel = true;
  if (Arch.VectorWidth > 1 && Best.TileWidth >= Arch.VectorWidth)
    Best.VectorWidth = Arch.VectorWidth;
  return Best;
}

void ltp::applySpatialSchedule(Func &F, int StageIndex,
                               const SpatialSchedule &Schedule) {
  Stage S = StageIndex < 0 ? F.pureStage() : F.update(StageIndex);
  const std::string &X = Schedule.ColumnVar;
  const std::string &Y = Schedule.RowVar;
  S.split(X, X + "_t", X + "_i", Schedule.TileWidth);
  S.split(Y, Y + "_t", Y + "_i", Schedule.TileHeight);
  // Tall narrow tiles, column innermost; the row inter-tile loop is
  // outermost so it can be parallelized.
  S.reorder({X + "_i", Y + "_i", X + "_t", Y + "_t"});
  if (Schedule.Parallel)
    S.parallel(Y + "_t");
  if (Schedule.VectorWidth > 1)
    S.vectorize(X + "_i");
}

std::string ltp::describeSpatialSchedule(const SpatialSchedule &Schedule) {
  return strFormat(
      "tile %s x %s = %lld x %lld (maxTy %lld), wsL1=%lld wsL2=%lld, "
      "parallel(%s_t)%s cost=%.3g",
      Schedule.ColumnVar.c_str(), Schedule.RowVar.c_str(),
      static_cast<long long>(Schedule.TileWidth),
      static_cast<long long>(Schedule.TileHeight),
      static_cast<long long>(Schedule.MaxTileHeight),
      static_cast<long long>(Schedule.WsL1),
      static_cast<long long>(Schedule.WsL2), Schedule.RowVar.c_str(),
      Schedule.VectorWidth > 1
          ? strFormat(" vectorize(%s_i, %d)", Schedule.ColumnVar.c_str(),
                      Schedule.VectorWidth)
                .c_str()
          : "",
      Schedule.Cost);
}
