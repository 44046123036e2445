//===- AnalyticModelTest.cpp - closed form vs emulation/simulation --------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Pins the three layers of the analytic scoring path against their
// reference implementations, and the schedules the optimizer chooses:
//
//  1. TileBoundParity — the closed-form solution of Algorithm 1 must
//     return exactly the emulator's bound whenever its applicability
//     check passes, across cache geometries, tile widths and row
//     strides.
//  2. NestScorerParity — the dense precompiled scorer must reproduce the
//     map-based cost-model entry points bit for bit on randomized tile
//     assignments (same integer algebra, same double accumulation
//     order), so analytic-first search cannot change a chosen schedule.
//  3. MissModelVsSimulator — predictMisses must agree with the
//     trace-driven AccessProgram simulator within a pinned tolerance on
//     every schedule where it claims applicability (identity, optimized
//     and seeded random schedules over the kernel suite), and must give
//     a reason whenever it declines.
//  4. ChosenScheduleGolden — end to end, the optimizer's Description
//     and printed schedule of every stage of every benchmark at its
//     default size on the 6700 and 5930k models must equal the captured
//     text in tests/golden/chosen_schedules.txt.
//
// The tolerance in (3) is deliberately asymmetric: relative agreement
// within 3x, or an absolute gap under 1024 lines. The absolute slack
// absorbs effects that are O(pages) rather than O(footprint) — streamer
// training misses and base-address-dependent set conflicts the simulator
// sees but a closed form cannot (the simulator places buffers at their
// real heap addresses, so its small counts vary run to run).
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "benchmarks/PipelineRunner.h"
#include "core/AccessInfo.h"
#include "core/Optimizer.h"
#include "lang/ScheduleText.h"
#include "model/CacheEmu.h"
#include "model/CostModel.h"
#include "model/MissModel.h"
#include "model/NestScorer.h"
#include "model/TileBound.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace ltp;

namespace {

// ---- 1. Algorithm 1: closed form == emulator wherever it applies. ------

struct BoundSweepCounts {
  int Analytic = 0;
  int Deferred = 0;
};

void sweepBounds(const ArchParams &Arch, BoundSweepCounts &Counts) {
  for (int64_t DTS : {4, 8}) {
    for (int64_t Tc : {8, 16, 32, 64, 128, 256, 512}) {
      for (int64_t RowStride :
           {int64_t(256), int64_t(512), int64_t(1000), int64_t(1024),
            int64_t(1536), int64_t(2048), int64_t(4096), int64_t(6144)}) {
        CacheEmuParams L1;
        L1.Cache = Arch.L1;
        L1.L1LineBytes = Arch.L1.LineBytes;
        L1.DTS = DTS;
        L1.PrevTileElems = Tc;
        L1.RowStrideElems = RowStride;
        L1.EffectiveWaysDivisor = std::max(1, Arch.NThreadsPerCore);
        L1.MaxRows = RowStride;

        CacheEmuParams L2 = L1;
        L2.Cache = Arch.L2;
        L2.EffectiveWaysDivisor = Arch.SharedL2
                                      ? std::max(1, Arch.NCores)
                                      : std::max(1, Arch.NThreadsPerCore);
        L2.L2Pref = Arch.L2PrefetchDegree;
        L2.L2MaxPref = Arch.L2MaxPrefetchDistance;
        L2.ForL2 = true;

        CacheEmuParams NoPref = L1;
        NoPref.NoPrefetchPadding = true;

        for (const CacheEmuParams &Params : {L1, L2, NoPref}) {
          int64_t Closed = 0;
          if (!model::analyticMaxTileDim(Params, Closed)) {
            ++Counts.Deferred;
            continue;
          }
          ++Counts.Analytic;
          EXPECT_EQ(Closed, emulateMaxTileDim(Params))
              << "DTS=" << DTS << " Tc=" << Tc << " stride=" << RowStride
              << " cache=" << Params.Cache.SizeBytes
              << (Params.ForL2 ? " (L2)" : "")
              << (Params.NoPrefetchPadding ? " (noprefetch)" : "");
        }
      }
    }
  }
}

TEST(TileBoundParity, AnalyticEqualsEmulatedAcrossGeometries) {
  BoundSweepCounts Counts;
  for (const ArchParams &Arch :
       {intelI7_6700(), intelI7_5930K(), armCortexA15()})
    sweepBounds(Arch, Counts);
  // The closed form must actually carry the sweep, not defer it away.
  EXPECT_GT(Counts.Analytic, Counts.Deferred)
      << Counts.Analytic << " analytic vs " << Counts.Deferred
      << " deferred to the emulator";
}

// ---- 2. NestScorer: bit-for-bit CostModel parity. ----------------------

TEST(NestScorerParity, MatchesCostModelOnRandomCandidates) {
  const ArchParams Arch = intelI7_6700();
  for (const char *Name : {"matmul", "doitgen", "convlayer", "tpm",
                           "syr2k", "copy"}) {
    const BenchmarkDef *Def = findBenchmark(Name);
    ASSERT_NE(Def, nullptr) << Name;
    BenchmarkInstance Instance = Def->Create(Def->DefaultSize);
    for (size_t I = 0; I != Instance.Stages.size(); ++I) {
      Func &F = Instance.Stages[I];
      int ComputeStage = F.computeStageIndex();
      StageAccessInfo Info =
          analyzeStage(F, ComputeStage, Instance.StageExtents[I]);
      if (Info.Loops.size() < 2)
        continue;
      model::NestScorer Scorer(Info, Arch);
      const int64_t Lc =
          std::max<int64_t>(1, Arch.L1.LineBytes / Info.DTS);

      std::mt19937 Rng(0xC0FFEE ^ static_cast<uint32_t>(I));
      for (int Draw = 0; Draw != 64; ++Draw) {
        std::vector<int64_t> Dense(Info.Loops.size(), 1);
        TileMap Tiles;
        for (const LoopInfo &Loop : Info.Loops) {
          int64_t T = std::uniform_int_distribution<int64_t>(
              1, Loop.Extent)(Rng);
          Tiles[Loop.Name] = T;
          Dense[static_cast<size_t>(Scorer.loopIndex(Loop.Name))] = T;
        }
        size_t UPick = std::uniform_int_distribution<size_t>(
            0, Info.Loops.size() - 1)(Rng);
        size_t VPick = std::uniform_int_distribution<size_t>(
            0, Info.Loops.size() - 1)(Rng);
        const std::string &U = Info.Loops[UPick].Name;
        const std::string &V = Info.Loops[VPick].Name;
        const int UIdx = Scorer.loopIndex(U);
        const int VIdx = Scorer.loopIndex(V);
        std::string Context = std::string(Name) + " stage " +
                              std::to_string(I) + " draw " +
                              std::to_string(Draw);

        EXPECT_EQ(Scorer.workingSet(Dense.data()),
                  workingSetElements(Info, Tiles))
            << Context;
        {
          TileMap PivotOne = Tiles;
          PivotOne[U] = 1;
          EXPECT_EQ(Scorer.workingSetPivotOne(Dense.data(), UIdx),
                    workingSetElements(Info, PivotOne))
              << Context;
        }
        // Doubles compared with EXPECT_EQ on purpose: the scorer promises
        // the same accumulation order, not merely a close value.
        EXPECT_EQ(Scorer.l1Misses(Dense.data(), UIdx),
                  estimateL1Misses(Info, Tiles, U))
            << Context;
        EXPECT_EQ(Scorer.l2Misses(Dense.data(), VIdx),
                  estimateL2Misses(Info, Tiles, V))
            << Context;
        EXPECT_EQ(Scorer.cost(Dense.data(), UIdx, VIdx),
                  totalCost(Info, Tiles, U, V, Arch))
            << Context;
        EXPECT_EQ(Scorer.l1MissesNoPrefetch(Dense.data(), UIdx, Lc),
                  estimateL1MissesNoPrefetch(Info, Tiles, U, Lc))
            << Context;
        EXPECT_EQ(Scorer.l2MissesNoPrefetch(Dense.data(), VIdx, Lc),
                  estimateL2MissesNoPrefetch(Info, Tiles, V, Lc))
            << Context;
      }
    }
  }
}

// ---- 3. MissModel: simulator agreement within the pinned tolerance. ----

/// Simulation-feasible per-kernel sizes: footprints still exceed the L2,
/// iteration counts stay in the low tens of millions so the whole sweep
/// runs in well under a minute.
int64_t missModelTestSize(const std::string &Name, int64_t Default) {
  if (Name == "convlayer")
    return 48;
  if (Name == "doitgen")
    return 64;
  if (Name == "3mm")
    return 192;
  if (Name == "syrk" || Name == "syr2k")
    return 128;
  if (Name == "matmul" || Name == "gemm" || Name == "trmm")
    return 256;
  return std::min<int64_t>(Default, 2048);
}

/// The pinned tolerance (see the file header): within 3x relative, or
/// within 1024 misses absolute.
bool withinTolerance(double Pred, double Sim) {
  if (std::abs(Pred - Sim) <= 1024.0)
    return true;
  if (Sim <= 0.0 || Pred <= 0.0)
    return false;
  double R = Pred / Sim;
  return R <= 3.0 && R >= 1.0 / 3.0;
}

/// Sums predictMisses over every stage of \p Instance. Returns false
/// (with \p WhyNot set) when any stage declines.
bool predictPipeline(BenchmarkInstance &Instance, const ArchParams &Arch,
                     double &L1, double &L2, std::string &WhyNot) {
  model::BufferStrides Strides;
  for (const auto &[BufName, Buf] : Instance.Buffers)
    Strides[BufName] = Buf.Strides;
  L1 = L2 = 0.0;
  for (size_t I = 0; I != Instance.Stages.size(); ++I) {
    Func &F = Instance.Stages[I];
    bool NT = F.isStoreNonTemporal();
    for (int S = -1; S < F.numUpdates(); ++S) {
      StageAccessInfo Info = analyzeStage(F, S, Instance.StageExtents[I]);
      std::vector<model::LoopDim> Nest;
      if (!model::scheduledNest(F, S, Info, Nest, &WhyNot))
        return false;
      model::MissPrediction P =
          model::predictMisses(Info, Nest, Arch, Strides, NT);
      if (!P.Analytic) {
        WhyNot = P.WhyNot;
        return false;
      }
      L1 += P.L1Misses;
      L2 += P.L2Misses;
    }
  }
  return true;
}

/// The autotuner-style random schedule draw used by the calibration
/// sweep: dividing split factors, shuffled order below the innermost.
void applyRandomDividingSchedule(BenchmarkInstance &Instance,
                                 uint32_t Seed) {
  std::mt19937 Rng(Seed);
  for (size_t I = 0; I != Instance.Stages.size(); ++I) {
    Func &F = Instance.Stages[I];
    F.clearSchedules();
    int CS = F.computeStageIndex();
    StageAccessInfo Info = analyzeStage(F, CS, Instance.StageExtents[I]);
    Stage S = CS < 0 ? F.pureStage() : F.update(CS);
    std::vector<std::string> Order;
    for (const LoopInfo &Loop : Info.Loops) {
      int MaxLog = 0;
      while ((int64_t(1) << (MaxLog + 1)) <= Loop.Extent &&
             Loop.Extent % (int64_t(1) << (MaxLog + 1)) == 0)
        ++MaxLog;
      if (MaxLog >= 3 && std::uniform_int_distribution<int>(0, 1)(Rng)) {
        int Log = std::uniform_int_distribution<int>(3, MaxLog)(Rng);
        S.split(Loop.Name, Loop.Name + "_t", Loop.Name + "_i",
                int64_t(1) << Log);
        Order.push_back(Loop.Name + "_i");
        Order.push_back(Loop.Name + "_t");
      } else {
        Order.push_back(Loop.Name);
      }
    }
    if (Order.size() > 1) {
      std::shuffle(Order.begin() + 1, Order.end(), Rng);
      S.reorder(std::vector<VarName>(Order.begin(), Order.end()));
    }
  }
}

/// One prediction-vs-simulation comparison on the instance's current
/// schedules. Tallies analytic rows; fallback rows must carry a reason.
void checkInstance(BenchmarkInstance &Instance, const ArchParams &Arch,
                   const std::string &Context, int &AnalyticRows) {
  double L1 = 0.0, L2 = 0.0;
  std::string WhyNot;
  if (!predictPipeline(Instance, Arch, L1, L2, WhyNot)) {
    EXPECT_FALSE(WhyNot.empty())
        << Context << ": fallback without a reason";
    return;
  }
  ++AnalyticRows;
  SimResult R = simulatePipeline(Instance, Arch);
  EXPECT_TRUE(withinTolerance(
      L1, static_cast<double>(R.Stats.L1.DemandMisses)))
      << Context << ": L1 predicted " << L1 << " vs simulated "
      << R.Stats.L1.DemandMisses;
  EXPECT_TRUE(withinTolerance(
      L2, static_cast<double>(R.Stats.L2.DemandMisses)))
      << Context << ": L2 predicted " << L2 << " vs simulated "
      << R.Stats.L2.DemandMisses;
}

TEST(MissModelVsSimulator, WithinPinnedToleranceWhenApplicable) {
  const ArchParams Arch = intelI7_6700();
  int AnalyticRows = 0;
  for (const BenchmarkDef &Def : allBenchmarks()) {
    int64_t Size = missModelTestSize(Def.Name, Def.DefaultSize);
    {
      BenchmarkInstance Instance = Def.Create(Size);
      checkInstance(Instance, Arch, Def.Name + " (identity)",
                    AnalyticRows);
    }
    {
      BenchmarkInstance Instance = Def.Create(Size);
      for (size_t S = 0; S != Instance.Stages.size(); ++S)
        optimize(Instance.Stages[S], Instance.StageExtents[S], Arch);
      checkInstance(Instance, Arch, Def.Name + " (optimized)",
                    AnalyticRows);
    }
    for (uint32_t Seed : {1u, 2u, 3u}) {
      BenchmarkInstance Instance = Def.Create(Size);
      applyRandomDividingSchedule(Instance, Seed);
      checkInstance(Instance, Arch,
                    Def.Name + " (rand" + std::to_string(Seed) + ")",
                    AnalyticRows);
    }
  }
  // The applicability conditions are strict, not vacuous: the streaming
  // kernels and the optimizer's own tiled schedules must stay analytic.
  EXPECT_GE(AnalyticRows, 10)
      << "the closed form declined almost everything";
}

// ---- 4. End to end: the chosen schedules are pinned. -------------------

/// Renders every stage's chosen schedule for every benchmark at its
/// default size: one "== <arch> <kernel> stage <S>" header, the
/// optimizer's Description, then the printed schedule of the pure
/// definition and of each update definition.
std::string renderChosenSchedules(const char *ArchName,
                                  const ArchParams &Arch) {
  std::string Out;
  for (const BenchmarkDef &Def : allBenchmarks()) {
    BenchmarkInstance Instance = Def.Create(Def.DefaultSize);
    for (size_t S = 0; S != Instance.Stages.size(); ++S) {
      Func &F = Instance.Stages[S];
      OptimizationResult R = optimize(F, Instance.StageExtents[S], Arch);
      Out += "== " + std::string(ArchName) + " " + Def.Name + " stage " +
             std::to_string(S) + "\n";
      Out += "description: " + R.Description + "\n";
      Out += "pure: " + printSchedule(F, -1) + "\n";
      for (int U = 0; U != F.numUpdates(); ++U)
        Out += "update " + std::to_string(U) + ": " + printSchedule(F, U) +
               "\n";
    }
  }
  return Out;
}

/// Splits rendered text into its "== ..." blocks, keyed by header.
std::map<std::string, std::string> splitBlocks(const std::string &Text) {
  std::map<std::string, std::string> Blocks;
  std::istringstream In(Text);
  std::string Line, Header;
  while (std::getline(In, Line)) {
    if (Line.rfind("== ", 0) == 0)
      Header = Line;
    else if (!Header.empty())
      Blocks[Header] += Line + "\n";
  }
  return Blocks;
}

TEST(ChosenScheduleGolden, MatchesCapturedSchedulesOnAllKernels) {
  std::ifstream File(LTP_GOLDEN_SCHEDULES);
  ASSERT_TRUE(File) << "cannot open " << LTP_GOLDEN_SCHEDULES;
  std::stringstream Golden;
  Golden << File.rdbuf();
  const std::map<std::string, std::string> Expected =
      splitBlocks(Golden.str());
  const std::map<std::string, std::string> Actual =
      splitBlocks(renderChosenSchedules("6700", intelI7_6700()) +
                  renderChosenSchedules("5930k", intelI7_5930K()));
  ASSERT_EQ(Expected.size(), Actual.size());
  for (const auto &[Header, Body] : Expected) {
    auto It = Actual.find(Header);
    ASSERT_NE(It, Actual.end()) << "missing " << Header;
    EXPECT_EQ(Body, It->second) << Header;
  }
}

} // namespace
