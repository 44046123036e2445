//===- Optimizer.cpp - the end-to-end optimization flow (Figure 1) -------===//

#include "core/Optimizer.h"

#include "analysis/IRVerify.h"
#include "analysis/Legality.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "obs/Telemetry.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <cassert>
#include <cstdio>

using namespace ltp;

namespace {

/// Chooses the plain treatment for a stage: parallelize the outermost
/// pure loop and vectorize the innermost (column) loop — the schedule for
/// NoTransform statements and for the pure init stages of reductions. A
/// column longer than the backend's vector-loop limit is vectorized in
/// limit-sized chunks.
ParVecPlan planParVec(const StageAccessInfo &Info, const ArchParams &Arch) {
  ParVecPlan Plan;
  // Outermost pure loop: the last pure loop in default order.
  std::string Outermost;
  for (const LoopInfo &Loop : Info.Loops)
    if (!Loop.IsReduction)
      Outermost = Loop.Name;
  if (!Outermost.empty() && Outermost != Info.Loops.front().Name &&
      Arch.NCores > 1)
    Plan.ParallelVar = Outermost;
  const LoopInfo &Inner = Info.Loops.front();
  if (Arch.VectorWidth > 1 && !Inner.IsReduction &&
      Inner.Extent >= Arch.VectorWidth) {
    Plan.VectorVar = Inner.Name;
    const int64_t Limit = analysis::IRVerifyOptions().MaxVectorExtent;
    if (Inner.Extent > Limit)
      Plan.VectorSplit = Limit;
  }
  return Plan;
}

void applyParVec(Func &F, int StageIndex, const ParVecPlan &Plan) {
  Stage S = StageIndex < 0 ? F.pureStage() : F.update(StageIndex);
  if (!Plan.ParallelVar.empty())
    S.parallel(Plan.ParallelVar);
  if (Plan.VectorSplit > 0) {
    S.split(Plan.VectorVar, Plan.VectorVar + "_t", Plan.VectorVar + "_i",
            Plan.VectorSplit);
    S.vectorize(Plan.VectorVar + "_i");
  } else if (!Plan.VectorVar.empty()) {
    S.vectorize(Plan.VectorVar);
  }
}

} // namespace

StagePlan ltp::planStage(const Func &F,
                         const std::vector<int64_t> &OutputExtents,
                         const ArchParams &Arch,
                         const OptimizerOptions &Options) {
  Timer T;
  StagePlan Plan;
  obs::ScopedSpan Span("opt.plan", [&] { return "func=" + F.name(); });

  int ComputeStage = F.computeStageIndex();
  Plan.Info = analyzeStage(F, ComputeStage, OutputExtents);
  Plan.Class = classify(Plan.Info);
  Plan.ClassifyMillis = T.elapsedMillis();
  obs::beginDecision(F.name(), statementClassName(Plan.Class.Kind));

  Plan.NonTemporalOutput = Plan.Class.UseNonTemporalStores &&
                           Options.EnableNonTemporal &&
                           Arch.HasNonTemporalStores;

  switch (Plan.Class.Kind) {
  case StatementClass::TemporalReuse: {
    Timer Phase;
    Plan.Kind = StagePlan::Mode::Temporal;
    Plan.Temporal = optimizeTemporal(Plan.Info, Arch, Options.Temporal);
    Plan.TemporalMillis = Phase.elapsedMillis();
    // Give the init stage of a reduction the plain treatment so zeroing
    // the output does not dominate at large problem sizes.
    if (ComputeStage >= 0) {
      Plan.HasInitStage = true;
      Plan.InitParVec = planParVec(analyzeStage(F, -1, OutputExtents), Arch);
    }
    Plan.Description = std::string("temporal: ") +
                       describeTemporalSchedule(Plan.Temporal);
    break;
  }
  case StatementClass::SpatialReuse: {
    std::optional<SpatialSchedule> Tiled;
    if (Plan.Info.Loops.size() == 2) {
      Timer Phase;
      Tiled = optimizeSpatial(Plan.Info, Plan.Class, Arch);
      Plan.SpatialMillis = Phase.elapsedMillis();
      if (!Tiled && obs::explainEnabled()) {
        obs::CandidateRecord R;
        R.Candidate = "spatial tiling";
        R.Reason = "no tile meets the working-set and parallelism "
                   "constraints";
        obs::recordCandidate(std::move(R));
      }
    }
    if (Tiled) {
      Plan.Kind = StagePlan::Mode::Spatial;
      Plan.Spatial = *Tiled;
      Plan.Description =
          std::string("spatial: ") + describeSpatialSchedule(Plan.Spatial);
    } else {
      // The spatial model covers 2-D statements with a feasible tile;
      // higher-rank transposed statements, and arrays too small to tile,
      // fall back to the plain treatment.
      Plan.Kind = StagePlan::Mode::ParVec;
      Plan.ComputeParVec = planParVec(Plan.Info, Arch);
      Plan.Description = "spatial(fallback): parallel+vectorize";
    }
    break;
  }
  case StatementClass::NoTransform: {
    Plan.Kind = StagePlan::Mode::ParVec;
    Plan.ComputeParVec = planParVec(Plan.Info, Arch);
    Plan.Description = Plan.Class.IsStencil
                           ? "no-transform(stencil): parallel+vectorize"
                           : "no-transform: parallel+vectorize";
    break;
  }
  }

  if (Plan.NonTemporalOutput)
    Plan.Description += " +NTI";
  obs::endDecision(Plan.Description);
  if (obs::metricsEnabled()) {
    static obs::Histogram &PlanHist = obs::histogram("opt.plan_ms");
    PlanHist.observe(T.elapsedMillis());
  }
  return Plan;
}

void ltp::applyPlan(Func &F, const StagePlan &Plan) {
  int ComputeStage = F.computeStageIndex();
  switch (Plan.Kind) {
  case StagePlan::Mode::Temporal:
    applyTemporalSchedule(F, ComputeStage, Plan.Temporal, Plan.Info);
    break;
  case StagePlan::Mode::Spatial:
    applySpatialSchedule(F, ComputeStage, Plan.Spatial);
    break;
  case StagePlan::Mode::ParVec:
    applyParVec(F, ComputeStage, Plan.ComputeParVec);
    break;
  }
  if (Plan.HasInitStage && ComputeStage >= 0)
    applyParVec(F, -1, Plan.InitParVec);
  if (Plan.NonTemporalOutput)
    F.storeNonTemporal();
}

OptimizationResult ltp::optimize(Func &F,
                                 const std::vector<int64_t> &OutputExtents,
                                 const ArchParams &Arch,
                                 const OptimizerOptions &Options) {
  Timer T;
  OptimizationResult Result;
  obs::ScopedSpan Span("opt.optimize",
                       [&] { return "func=" + F.name(); });

  F.clearSchedules();
  StagePlan Plan = planStage(F, OutputExtents, Arch, Options);
  applyPlan(F, Plan);

  Result.Class = Plan.Class;
  Result.Temporal = Plan.Temporal;
  Result.Spatial = Plan.Spatial;
  Result.AppliedNonTemporal = Plan.NonTemporalOutput;
  Result.Description = Plan.Description;
  Result.ClassifyMillis = Plan.ClassifyMillis;
  Result.TemporalMillis = Plan.TemporalMillis;
  Result.SpatialMillis = Plan.SpatialMillis;

  // Post-condition: every schedule the optimizer emits must pass the
  // static verifier. A failure here is an optimizer bug, not user error.
#ifndef NDEBUG
  int ComputeStage = F.computeStageIndex();
  std::vector<int> ScheduledStages = {ComputeStage};
  if (ComputeStage >= 0)
    ScheduledStages.push_back(-1); // the init stage scheduled above
  for (int Stage : ScheduledStages) {
    analysis::LegalityReport Report =
        analysis::verifyStageSchedule(F, Stage, OutputExtents);
    if (Report.hasErrors()) {
      std::fprintf(stderr, "ltp: optimizer produced an illegal schedule "
                           "for '%s' stage %d:\n%s\n",
                   F.name().c_str(), Stage, Report.message().c_str());
      assert(false && "optimizer produced an illegal schedule");
    }
  }
#endif

  Result.RuntimeMillis = T.elapsedMillis();
  return Result;
}
