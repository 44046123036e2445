//===- table5_opt_runtime.cpp - Table 5: optimizer runtime ----------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Regenerates Table 5: the wall-clock runtime of the optimizer itself on
// each benchmark at the paper's problem sizes. The paper reports
// millisecond-scale runtimes with convlayer the slow outlier (7.6 s)
// because of its deep loop nest; the same shape is expected here.
//
// Each row also reports the number of tile candidates the search scored
// (the `opt.candidates` counter), an exact, host-independent figure the
// CI gate compares against the committed baseline. Under --json each row
// carries the per-phase breakdown (classify / temporal / spatial
// milliseconds) as well.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "obs/Telemetry.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <cstdio>
#include <map>

using namespace ltp;
using namespace ltp::bench;

namespace {

const std::map<std::string, double> &paperRuntimesSeconds() {
  static const std::map<std::string, double> Times = {
      {"convlayer", 7.604}, {"doitgen", 0.153}, {"matmul", 0.006},
      {"3mm", 0.006},       {"gemm", 0.006},    {"trmm", 0.005},
      {"syrk", 0.009},      {"syr2k", 0.012},   {"tpm", 0.002},
      {"tp", 0.002},        {"copy", 0.002},    {"mask", 0.002},
  };
  return Times;
}

/// One optimizer run over every stage of a fresh instance. Returns total
/// seconds, the per-phase breakdown and the candidates scored.
struct OptRun {
  double Seconds = 0.0;
  double ClassifyMs = 0.0;
  double TemporalMs = 0.0;
  double SpatialMs = 0.0;
  int64_t Candidates = 0;
  std::string Class;
};

OptRun runOptimizer(const BenchmarkDef &Def, int64_t Size,
                    const ArchParams &Arch) {
  static obs::Counter &Candidates = obs::counter("opt.candidates");
  BenchmarkInstance Instance = Def.Create(Size);
  OptRun Run;
  const int64_t CandidatesBefore = Candidates.value();
  Timer T;
  for (size_t S = 0; S != Instance.Stages.size(); ++S) {
    OptimizationResult R =
        optimize(Instance.Stages[S], Instance.StageExtents[S], Arch);
    Run.ClassifyMs += R.ClassifyMillis;
    Run.TemporalMs += R.TemporalMillis;
    Run.SpatialMs += R.SpatialMillis;
    Run.Class = statementClassName(R.Class.Kind);
  }
  Run.Seconds = T.elapsedSeconds();
  Run.Candidates = Candidates.value() - CandidatesBefore;
  return Run;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  setupTelemetry(Args, "table5_opt_runtime");
  ArchParams Arch = Args.getString("arch", "5930k") == "6700"
                        ? intelI7_6700()
                        : intelI7_5930K();
  const int Runs = timedRuns(Args, 3);
  printHeader("Table 5: optimizer runtime per benchmark", Arch);

  std::vector<int> Widths = {10, 8, 12, 12, 10, 40};
  printRow({"benchmark", "size", "ours(s)", "candidates", "paper(s)", "class"},
           Widths);

  double TotalSeconds = 0.0;
  int64_t TotalCandidates = 0;
  for (const BenchmarkDef &Def : allBenchmarks()) {
    // Table 5 uses the paper's problem sizes unless overridden: the
    // optimizer runtime depends on the loop extents, not on data.
    int64_t Size =
        Args.has("default-sizes") ? Def.DefaultSize : Def.PaperSize;

    // Best-of-N; the best run's phase breakdown feeds the JSON report.
    // The candidate count is the same on every run.
    OptRun Best;
    for (int R = 0; R != Runs; ++R) {
      OptRun Run = runOptimizer(Def, Size, Arch);
      if (R == 0 || Run.Seconds < Best.Seconds)
        Best = Run;
    }
    TotalSeconds += Best.Seconds;
    TotalCandidates += Best.Candidates;

    printRow({Def.Name, strFormat("%lld", static_cast<long long>(Size)),
              strFormat("%.4f", Best.Seconds),
              strFormat("%lld", static_cast<long long>(Best.Candidates)),
              strFormat("%.3f", paperRuntimesSeconds().at(Def.Name)),
              Best.Class},
             Widths);

    TimingStats Stats;
    Stats.BestSeconds = Best.Seconds;
    Stats.Runs = Runs;
    reportResult(Def.Name, "analytic", Stats, [&](obs::JsonWriter &W) {
      W.key("classify_ms").fixed(Best.ClassifyMs, 4);
      W.key("temporal_ms").fixed(Best.TemporalMs, 4);
      W.key("spatial_ms").fixed(Best.SpatialMs, 4);
      W.key("candidates").integer(Best.Candidates);
    });
  }

  std::printf("\ntotal: %.4f s, %lld candidates\n", TotalSeconds,
              static_cast<long long>(TotalCandidates));
  {
    TimingStats Stats;
    Stats.BestSeconds = TotalSeconds;
    Stats.Runs = Runs;
    reportResult("total", "analytic", Stats, [&](obs::JsonWriter &W) {
      W.key("candidates").integer(TotalCandidates);
    });
  }
  printTelemetryFooter();
  return 0;
}
