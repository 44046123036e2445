//===- OptimizerTest.cpp - end-to-end optimizer tests ----------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Covers: classification of all 12 paper benchmarks (Figure 2), the
// temporal/spatial optimizers producing feasible schedules, correctness of
// every optimized schedule against the reference oracles, and the ARM
// model variation.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "benchmarks/PipelineRunner.h"
#include "model/CacheEmu.h"
#include "core/Optimizer.h"
#include "lang/Lower.h"
#include "lang/ScheduleText.h"

#include <gtest/gtest.h>

using namespace ltp;

namespace {

/// Small sizes so interpreted verification stays fast.
int64_t testSize(const std::string &Name) {
  if (Name == "convlayer")
    return 16;
  if (Name == "doitgen")
    return 24;
  return 48;
}

OptimizationResult optimizeInstance(BenchmarkInstance &Instance,
                                    const ArchParams &Arch,
                                    const OptimizerOptions &Options = {}) {
  OptimizationResult Last;
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    Last = optimize(Instance.Stages[S], Instance.StageExtents[S], Arch,
                    Options);
  return Last;
}

struct ClassCase {
  const char *Name;
  StatementClass Want;
  bool WantNTI;
};

// Without this gtest lists the parameter as its raw bytes -- a string
// pointer and padding -- so the test names changed with every build.
void PrintTo(const ClassCase &Case, std::ostream *OS) {
  *OS << '"' << Case.Name << '"';
}

class ClassifierSuite : public ::testing::TestWithParam<ClassCase> {};

TEST_P(ClassifierSuite, MatchesPaperTable) {
  const ClassCase &Case = GetParam();
  const BenchmarkDef *Def = findBenchmark(Case.Name);
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Instance = Def->Create(testSize(Case.Name));
  Func &Last = Instance.Stages.back();
  StageAccessInfo Info =
      analyzeComputeStage(Last, Instance.StageExtents.back());
  Classification C = classify(Info);
  EXPECT_EQ(C.Kind, Case.Want) << Case.Name;
  EXPECT_EQ(C.UseNonTemporalStores, Case.WantNTI) << Case.Name;
}

// The paper's Figure 4 grouping: the first eight benchmarks are optimized
// for temporal reuse, tp/tpm for spatial reuse, copy/mask untransformed;
// NTI applies to the four streaming kernels.
INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ClassifierSuite,
    ::testing::Values(
        ClassCase{"convlayer", StatementClass::TemporalReuse, false},
        ClassCase{"doitgen", StatementClass::TemporalReuse, false},
        ClassCase{"matmul", StatementClass::TemporalReuse, false},
        ClassCase{"3mm", StatementClass::TemporalReuse, false},
        ClassCase{"gemm", StatementClass::TemporalReuse, false},
        ClassCase{"trmm", StatementClass::TemporalReuse, false},
        ClassCase{"syrk", StatementClass::TemporalReuse, false},
        ClassCase{"syr2k", StatementClass::TemporalReuse, false},
        ClassCase{"tpm", StatementClass::SpatialReuse, true},
        ClassCase{"tp", StatementClass::SpatialReuse, true},
        ClassCase{"copy", StatementClass::NoTransform, true},
        ClassCase{"mask", StatementClass::NoTransform, true}),
    [](const ::testing::TestParamInfo<ClassCase> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (C == '3')
          C = 'T';
      return Name;
    });

class OptimizedCorrectness
    : public ::testing::TestWithParam<const char *> {};

TEST_P(OptimizedCorrectness, OptimizedScheduleMatchesReference) {
  const BenchmarkDef *Def = findBenchmark(GetParam());
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Instance = Def->Create(testSize(GetParam()));
  optimizeInstance(Instance, intelI7_6700());
  runInterpreted(Instance);
  EXPECT_TRUE(verifyOutput(Instance)) << "benchmark " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, OptimizedCorrectness,
                         ::testing::Values("convlayer", "doitgen", "matmul",
                                           "3mm", "gemm", "trmm", "syrk",
                                           "syr2k", "tpm", "tp", "copy",
                                           "mask"),
                         [](const ::testing::TestParamInfo<const char *>
                                &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (C == '3')
                               C = 'T';
                           return Name;
                         });

// A row longer than the backend's vector-loop limit (4096) is vectorized
// in limit-sized chunks instead of aborting lowering; a row at the limit
// keeps the whole-row vector loop. The chunked kernel is still correct.
TEST(OptimizerTest, RowBeyondVectorLimitIsChunkedAndCorrect) {
  const BenchmarkDef *Def = findBenchmark("copy");
  ASSERT_NE(Def, nullptr);
  {
    BenchmarkInstance AtLimit = Def->Create(4096);
    optimizeInstance(AtLimit, intelI7_6700());
    EXPECT_EQ(printSchedule(AtLimit.Stages.back(), -1),
              "parallel(y); vectorize(x); store_nontemporal;");
  }
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  BenchmarkInstance Instance = Def->Create(4097);
  optimizeInstance(Instance, intelI7_6700());
  EXPECT_EQ(printSchedule(Instance.Stages.back(), -1),
            "parallel(y); split(x, x_t, x_i, 4096); vectorize(x_i); "
            "store_nontemporal;");
  JITCompiler Compiler;
  auto Pipeline = compilePipeline(Instance, Compiler);
  ASSERT_TRUE(static_cast<bool>(Pipeline)) << Pipeline.getError();
  Pipeline->run(Instance);
  EXPECT_TRUE(verifyOutput(Instance));
}

// Transposes too small to give every thread a row of tiles have no
// feasible spatial tile; they take the plain parallel+vectorize plan and
// stay correct.
TEST(OptimizerTest, TinyTransposesFallBackToParVec) {
  for (const char *Name : {"tp", "tpm"})
    for (const ArchParams &Arch :
         {intelI7_5930K(), intelI7_6700(), armCortexA15()})
      for (int64_t N = 1; N != 16; ++N) {
        BenchmarkInstance Instance = findBenchmark(Name)->Create(N);
        optimizeInstance(Instance, Arch);
        runInterpreted(Instance);
        EXPECT_TRUE(verifyOutput(Instance))
            << Name << " N=" << N << " on " << Arch.Name;
      }
}

TEST(TemporalOptimizerTest, MatmulScheduleIsFeasible) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(512);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  ArchParams Arch = intelI7_5930K();
  TemporalSchedule S = optimizeTemporal(Info, Arch);

  // Tile dimensions respect the problem and working sets fit the caches.
  for (const LoopInfo &Loop : Info.Loops) {
    ASSERT_TRUE(S.Tiles.count(Loop.Name));
    EXPECT_GE(S.Tiles.at(Loop.Name), 1);
    EXPECT_LE(S.Tiles.at(Loop.Name), Loop.Extent);
  }
  EXPECT_LE(S.WsL1, Arch.L1.SizeBytes / 4);
  EXPECT_LE(S.WsL2, Arch.L2.SizeBytes / 2 / 4);
  // Eq. 13: the parallel loop exposes at least one tile per thread.
  ASSERT_FALSE(S.ParallelVar.empty());
  int64_t Trip = interTrip(512, S.Tiles.at(S.ParallelVar));
  EXPECT_GE(Trip, Arch.totalThreads());
  // The column loop is vectorized and innermost.
  EXPECT_EQ(S.VectorVar, "j");
  EXPECT_EQ(S.IntraOrder.front(), "j");
  EXPECT_EQ(S.Cost > 0.0, true);
}

TEST(TemporalOptimizerTest, OuterIntraLoopIsNotColumn) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(256);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  TemporalSchedule S = optimizeTemporal(Info, intelI7_6700());
  EXPECT_NE(S.IntraOrder.back(), "j")
      << "column loop must not be the outermost intra-tile loop";
}

TEST(TemporalOptimizerTest, SmallLoopsStayUntiled) {
  const BenchmarkDef *Def = findBenchmark("convlayer");
  BenchmarkInstance Instance = Def->Create(32);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  TemporalSchedule S = optimizeTemporal(Info, intelI7_6700());
  // The 3x3 window loops are below the small-loop threshold.
  EXPECT_EQ(S.Tiles.at("rx"), 3);
  EXPECT_EQ(S.Tiles.at("ry"), 3);
}

TEST(SpatialOptimizerTest, TransposeFavorsNarrowTallTiles) {
  const BenchmarkDef *Def = findBenchmark("tp");
  BenchmarkInstance Instance = Def->Create(1024);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  Classification C = classify(Info);
  ASSERT_EQ(C.Kind, StatementClass::SpatialReuse);
  ASSERT_EQ(C.TransposedInputs.size(), 1u);
  EXPECT_EQ(C.TransposedInputs[0], "A");

  ArchParams Arch = intelI7_5930K();
  std::optional<SpatialSchedule> Tiled = optimizeSpatial(Info, C, Arch);
  ASSERT_TRUE(Tiled);
  const SpatialSchedule &S = *Tiled;
  int64_t Lc = Arch.L1.LineBytes / Info.DTS;
  // Eq. 15 is minimized at Tx = lc and the maximum interference-free
  // height.
  EXPECT_EQ(S.TileWidth, Lc);
  EXPECT_GE(S.TileHeight, S.TileWidth) << "tall tiles expected";
  EXPECT_LE(S.TileHeight, S.MaxTileHeight)
      << "Algorithm 1 bounds the height";
  // Eq. 15 is minimized at the tallest height that still gives every
  // thread at least one row of tiles.
  EXPECT_GE(interTrip(1024, S.TileHeight), Arch.totalThreads());
  EXPECT_LT(interTrip(1024, S.TileHeight), 2 * Arch.totalThreads());
  EXPECT_LE(2 * S.TileWidth * S.TileHeight,
            Arch.L2.SizeBytes / Info.DTS);
}

TEST(OptimizerTest, ARMModelUsesSharedL2Divisor) {
  // On the A15 the effective associativity divisor is NCores (shared L2),
  // which tightens the emulation bound relative to a private L2 of the
  // same geometry.
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(512);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);

  ArchParams Shared = armCortexA15();
  ArchParams Private = Shared;
  Private.SharedL2 = false;
  TemporalSchedule SharedSched = optimizeTemporal(Info, Shared);
  TemporalSchedule PrivateSched = optimizeTemporal(Info, Private);
  EXPECT_LE(SharedSched.MaxT2, PrivateSched.MaxT2);
}

TEST(OptimizerTest, NTIAppliedOnlyWhenSupportedAndEnabled) {
  const BenchmarkDef *Def = findBenchmark("copy");

  BenchmarkInstance OnIntel = Def->Create(256);
  OptimizationResult R1 =
      optimizeInstance(OnIntel, intelI7_5930K());
  EXPECT_TRUE(R1.AppliedNonTemporal);
  EXPECT_TRUE(OnIntel.Stages[0].isStoreNonTemporal());

  BenchmarkInstance OnArm = Def->Create(256);
  OptimizationResult R2 = optimizeInstance(OnArm, armCortexA15());
  EXPECT_FALSE(R2.AppliedNonTemporal)
      << "the A15 has no vector non-temporal stores";

  BenchmarkInstance Disabled = Def->Create(256);
  OptimizerOptions Options;
  Options.EnableNonTemporal = false;
  OptimizationResult R3 =
      optimizeInstance(Disabled, intelI7_5930K(), Options);
  EXPECT_FALSE(R3.AppliedNonTemporal);
}

TEST(OptimizerTest, OptimizerRuntimeIsMilliseconds) {
  // Table 5: solutions within milliseconds (convlayer excepted).
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(2048);
  OptimizationResult R = optimizeInstance(Instance, intelI7_5930K());
  EXPECT_LT(R.RuntimeMillis, 2000.0);
  EXPECT_GT(R.RuntimeMillis, 0.0);
}

TEST(CacheEmuTest, BoundsShrinkWithWiderRows) {
  CacheEmuParams P;
  P.Cache = intelI7_6700().L1;
  P.DTS = 4;
  P.RowStrideElems = 2048;
  P.EffectiveWaysDivisor = 2;
  P.MaxRows = 2048;
  P.PrevTileElems = 64;
  int64_t Narrow = emulateMaxTileDim(P);
  P.PrevTileElems = 512;
  int64_t Wide = emulateMaxTileDim(P);
  EXPECT_LE(Wide, Narrow);
  EXPECT_GE(Narrow, 1);
}

TEST(CacheEmuTest, L2HalvingReducesBound) {
  CacheEmuParams P;
  P.Cache = intelI7_6700().L2;
  P.DTS = 4;
  P.RowStrideElems = 2048;
  P.EffectiveWaysDivisor = 2;
  P.MaxRows = 4096;
  P.PrevTileElems = 128;
  P.L2Pref = 2;
  P.L2MaxPref = 20;
  P.ForL2 = true;
  int64_t Halved = emulateMaxTileDim(P);
  P.ForL2 = false;
  int64_t Full = emulateMaxTileDim(P);
  EXPECT_LE(Halved, Full);
}

TEST(TemporalOptimizerTest, OneDimKernelWithSmallWindowFallsBackUntiled) {
  // out(x) += in(x + rx) over a 3-tap window: the only big loop is the
  // column loop, so no (u, v) pivot pair exists; the optimizer must fall
  // back to an untiled schedule instead of asserting, and the schedule
  // must execute correctly.
  constexpr int64_t N = 64;
  Buffer<float> In({N + 2}), Out({N});
  In.fillRandom(13);

  Var X("x");
  InputBuffer InB("In", ir::Type::float32(), 1);
  RDom R(0, 3, "rx1d");
  Func O("Out");
  O(X) = 0.0f;
  O(X) += InB(Expr(X) + Expr(R));

  StageAccessInfo Info = analyzeComputeStage(O, {N});
  ASSERT_EQ(classify(Info).Kind, StatementClass::TemporalReuse);
  TemporalSchedule S = optimizeTemporal(Info, intelI7_5930K());
  EXPECT_EQ(S.Tiles.at("x"), N) << "fallback leaves the nest untiled";
  EXPECT_TRUE(S.InterOrder.empty());

  applyTemporalSchedule(O, 0, S, Info);
  interpret(lowerFunc(O, {N}), {{"In", In.ref()}, {"Out", Out.ref()}});
  for (int64_t I = 0; I != N; ++I) {
    float Want = In(I) + In(I + 1) + In(I + 2);
    ASSERT_NEAR(Out(I), Want, 1e-4) << I;
  }
}

} // namespace
