//===- ExtendedBenchmarksTest.cpp - extended-suite classification/correctness -===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// The extended kernels probe flow paths the paper's 12 do not: 1-D
// reductions with no parallelizable pure loop (atax/bicg/mvt), a
// 4-stage mixed pipeline (gemver) and the stencil branch of the
// classifier (jacobi2d, per Kamil et al. [9]). The shape/data parity
// test covers both suites.
//
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

using namespace ltp;

namespace {

class ExtendedCorrectness : public ::testing::TestWithParam<const char *> {
};

TEST_P(ExtendedCorrectness, OptimizedScheduleMatchesReference) {
  const BenchmarkDef *Def = findBenchmark(GetParam());
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Instance = Def->Create(40);
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    optimize(Instance.Stages[S], Instance.StageExtents[S],
             intelI7_5930K());
  runInterpreted(Instance);
  EXPECT_TRUE(verifyOutput(Instance));
}

TEST_P(ExtendedCorrectness, BaselineScheduleMatchesReference) {
  const BenchmarkDef *Def = findBenchmark(GetParam());
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Instance = Def->Create(36);
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    applyBaselineSchedule(Instance.Stages[S], Instance.StageExtents[S],
                          intelI7_6700());
  runInterpreted(Instance);
  EXPECT_TRUE(verifyOutput(Instance));
}

// A kernel's shape holds no data but declares exactly the buffers Create
// allocates and lowers to the same stages; materializing it gives an
// instance the reference oracle accepts.
TEST(BenchmarkShape, MatchesCreateAndMaterializes) {
  std::vector<const BenchmarkDef *> Defs;
  for (const BenchmarkDef &Def : allBenchmarks())
    Defs.push_back(&Def);
  for (const BenchmarkDef &Def : extendedBenchmarks())
    Defs.push_back(&Def);
  ASSERT_EQ(Defs.size(), 17u);
  for (const BenchmarkDef *Def : Defs) {
    SCOPED_TRACE(Def->Name);
    const int64_t N = 24;
    BenchmarkInstance Shape = Def->shape(N);
    BenchmarkInstance Created = Def->Create(N);
    EXPECT_TRUE(Shape.Storage.empty());
    ASSERT_EQ(Shape.Buffers.size(), Created.Buffers.size());
    for (const auto &[Name, Decl] : Shape.Buffers) {
      SCOPED_TRACE(Name);
      ASSERT_TRUE(Created.Buffers.contains(Name));
      const BufferRef &Allocated = Created.Buffers.at(Name);
      EXPECT_EQ(Decl.Data, nullptr);
      EXPECT_NE(Allocated.Data, nullptr);
      EXPECT_EQ(Decl.ElemType, Allocated.ElemType);
      EXPECT_EQ(Decl.Extents, Allocated.Extents);
      EXPECT_EQ(Decl.Strides, Allocated.Strides);
    }
    std::vector<ir::StmtPtr> ShapeStages = lowerPipeline(Shape);
    std::vector<ir::StmtPtr> CreatedStages = lowerPipeline(Created);
    ASSERT_EQ(ShapeStages.size(), CreatedStages.size());
    for (size_t S = 0; S != ShapeStages.size(); ++S)
      EXPECT_EQ(ir::printStmt(ShapeStages[S]),
                ir::printStmt(CreatedStages[S]));

    ErrorOr<BenchmarkInstance> Materialized = materialize(std::move(Shape));
    ASSERT_TRUE(Materialized) << Materialized.getError();
    runInterpreted(*Materialized);
    EXPECT_TRUE(verifyOutput(*Materialized));
  }
}

INSTANTIATE_TEST_SUITE_P(Extended, ExtendedCorrectness,
                         ::testing::Values("atax", "bicg", "mvt", "gemver",
                                           "jacobi2d"));

TEST(ExtendedClassificationTest, JacobiIsStencilNoTransform) {
  const BenchmarkDef *Def = findBenchmark("jacobi2d");
  BenchmarkInstance Instance = Def->Create(32);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  Classification C = classify(Info);
  EXPECT_EQ(C.Kind, StatementClass::NoTransform)
      << "stencils must not be tiled (Figure 2 / Kamil et al.)";
  EXPECT_TRUE(C.IsStencil);
  EXPECT_TRUE(C.UseNonTemporalStores)
      << "the sweep never re-reads its output";
}

TEST(ExtendedClassificationTest, AtaxStagesAreTemporal) {
  const BenchmarkDef *Def = findBenchmark("atax");
  BenchmarkInstance Instance = Def->Create(64);
  for (size_t S = 0; S != Instance.Stages.size(); ++S) {
    StageAccessInfo Info = analyzeComputeStage(Instance.Stages[S],
                                               Instance.StageExtents[S]);
    EXPECT_EQ(classify(Info).Kind, StatementClass::TemporalReuse)
        << "stage " << S;
  }
}

TEST(ExtendedClassificationTest, GemverMixesClasses) {
  const BenchmarkDef *Def = findBenchmark("gemver");
  BenchmarkInstance Instance = Def->Create(64);
  // Stage 0 (rank-2 update): elementwise, no transposed input.
  StageAccessInfo S0 =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  EXPECT_EQ(classify(S0).Kind, StatementClass::NoTransform);
  EXPECT_TRUE(classify(S0).UseNonTemporalStores);
  // Stages 1 and 2 (matvecs): temporal.
  for (size_t S = 1; S != 3; ++S) {
    StageAccessInfo Info = analyzeComputeStage(Instance.Stages[S],
                                               Instance.StageExtents[S]);
    EXPECT_EQ(classify(Info).Kind, StatementClass::TemporalReuse)
        << "stage " << S;
  }
}

TEST(ExtendedOptimizerTest, OneDimensionalOutputHasNoParallelLoop) {
  // atax: the only pure loop is the column loop; Eq. 13 must be vacuous
  // and the schedule serial but valid.
  const BenchmarkDef *Def = findBenchmark("mvt");
  BenchmarkInstance Instance = Def->Create(512);
  ArchParams Arch = intelI7_5930K(); // 12 threads
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  TemporalSchedule S = optimizeTemporal(Info, Arch);
  EXPECT_TRUE(S.ParallelVar.empty());
  EXPECT_GE(S.Tiles.at("i"), Arch.VectorWidth);
}

} // namespace
