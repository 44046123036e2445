//===- ltp-opt.cpp - command-line driver for the optimizer -----------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// The tool of Section 4: feed it an algorithm (one of the built-in
// benchmark definitions, or `all` for the whole suite) and a platform,
// get back the classification, the optimization schedule, the lowered
// loop nest and (optionally) the generated C — without running anything.
// Buffers are allocated only for --run and --simulate.
//
// Usage:
//   ltp-opt <benchmark>|all [--arch 5930k|6700|a15|host] [--size N]
//           [--schedule "<directives>"] [--emit-c] [--simulate]
//           [--no-nti] [--run] [--compile] [--verify] [--lint]
//           [--lint-fix] [--json] [--explain] [--trace-json FILE]
//
// Exit codes: 0 success; 2 the schedule text was rejected (parse error,
// legality verifier, or a lint/verify diagnostic of Error severity); 1
// anything else (usage, unknown benchmark, missing compiler, internal
// failure). Scripts dispatch on the distinction: 2 means "fix your
// schedule", 1 means "fix your invocation or the tool". Warning-severity
// diagnostics print but exit 0.
//
// Examples:
//   ltp-opt matmul --size 2048 --arch 5930k
//   ltp-opt tpm --emit-c
//   ltp-opt matmul --schedule "split(i, i_t, i_i, 32); parallel(i_t);"
//   ltp-opt doitgen --simulate --arch a15
//   ltp-opt matmul --explain
//   ltp-opt all --simulate --trace-json trace.json
//
//===----------------------------------------------------------------------===//

#include "analysis/Legality.h"
#include "analysis/Lint.h"
#include "arch/ArchFile.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "ir/IRPrinter.h"
#include "lang/ScheduleText.h"
#include "obs/JsonWriter.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "obs/Telemetry.h"
#include "support/ArgParse.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstring>

using namespace ltp;

namespace {

void printUsage() {
  std::printf(
      "usage: ltp-opt <benchmark>|all [options]\n"
      "\n"
      "benchmarks:");
  for (const BenchmarkDef &Def : allBenchmarks())
    std::printf(" %s", Def.Name.c_str());
  std::printf(
      "\n\noptions:\n"
      "  --arch 5930k|6700|a15|host   platform parameters (default host)\n"
      "  --arch-file <path>           load platform from a description "
      "file\n"
      "  --size N                     problem size (default: benchmark "
      "default)\n"
      "  --schedule \"...\"             apply a textual schedule instead "
      "of optimizing\n"
      "  --emit-c                     print the generated C kernel(s)\n"
      "  --simulate                   run the cache simulator and report "
      "misses\n"
      "  --no-nti                     disable non-temporal stores\n"
      "  --run                        JIT-compile and time the pipeline\n"
      "  --compile                    JIT-compile the pipeline into the\n"
      "                               shared kernel store (no timed runs)\n"
      "                               and print the .so paths\n"
      "  --verify                     print each stage's dependence graph "
      "and per-directive legality verdicts\n"
      "                               (errors exit 2, warnings exit 0)\n"
      "  --lint                       run the static prefetch-efficiency "
      "diagnostics\n"
      "                               over each stage's schedule and exit "
      "(errors\n"
      "                               exit 2, warnings exit 0)\n"
      "  --lint-fix                   apply the machine fix-its, re-verify "
      "the\n"
      "                               rewritten schedule, and re-lint it\n"
      "  --json                       with --lint: emit one "
      "machine-readable JSON\n"
      "                               line per benchmark instead of text\n"
      "  --explain                    log every candidate schedule the "
      "optimizer considered, with predicted misses and the accept/prune "
      "reason\n"
      "  --trace-json FILE            collect spans and write a "
      "Chrome-trace/Perfetto JSON on exit\n"
      "\n"
      "exit codes:\n"
      "  0  success (warning-severity diagnostics still print)\n"
      "  2  schedule rejected: --schedule text failed to parse, was\n"
      "     refused by the legality verifier, or --verify/--lint found an\n"
      "     Error-severity diagnostic\n"
      "  1  any other error (usage, unknown benchmark, missing compiler,\n"
      "     internal failure)\n");
}

ArchParams pickArch(const std::string &Name) {
  if (Name == "5930k")
    return intelI7_5930K();
  if (Name == "6700")
    return intelI7_6700();
  if (Name == "a15" || Name == "arm")
    return armCortexA15();
  return detectHost();
}

/// Prints the optimizer decision log collected since the last call (the
/// --explain flow). One block per optimized stage: classification, every
/// candidate with its predicted misses and accept/prune reason, and the
/// chosen schedule.
void printDecisions() {
  for (const obs::DecisionRecord &D : obs::takeDecisions()) {
    std::printf("explain %s: class=%s, %zu candidates\n", D.Stage.c_str(),
                D.Classification.c_str(), D.Candidates.size());
    for (const obs::CandidateRecord &C : D.Candidates) {
      std::printf("  [%s] %s", C.Accepted ? "accept" : "prune ",
                  C.Candidate.c_str());
      if (!C.ScoredBy.empty())
        std::printf(" scored-by=%s", C.ScoredBy.c_str());
      if (C.PredL1Misses >= 0.0)
        std::printf(" predL1=%.4g predL2=%.4g", C.PredL1Misses,
                    C.PredL2Misses);
      if (C.Cost >= 0.0)
        std::printf(" cost=%.4g", C.Cost);
      std::printf(" -- %s\n", C.Reason.c_str());
    }
    std::printf("  chosen: %s\n\n", D.Chosen.c_str());
  }
}

/// Prints one lint diagnostic as indented text, including its fix-it.
void printDiagnostic(const lint::Diagnostic &D, const std::string &Text) {
  std::printf("  %s %s @%zu+%zu: %s\n", lint::severityName(D.Sev),
              D.RuleId.c_str(), D.Offset, D.Length, D.Message.c_str());
  if (D.Length > 0 && D.Offset + D.Length <= Text.size())
    std::printf("    at: %s\n",
                Text.substr(D.Offset, D.Length).c_str());
  if (D.HasFixIt)
    std::printf("    fix-it: %s\n", D.Fix.Replacement.empty()
                                        ? "(delete)"
                                        : D.Fix.Replacement.c_str());
}

/// The --lint / --lint-fix driver. Lints the compute stage of every
/// pipeline stage — either the --schedule text just replayed or the
/// schedule the optimizer just chose. With --lint-fix the fix-its are
/// applied, the rewritten text is re-verified and re-linted, and the
/// residual report is what decides the exit code. Returns 0 when no
/// Error-severity rule fired, 2 otherwise.
int runLint(BenchmarkInstance &Instance, const BenchmarkDef *Def,
            const ArgParse &Args, const ArchParams &Arch) {
  const lint::LintOptions Options;
  const bool Json = Args.has("json");
  bool AnyErrors = false;
  obs::JsonWriter Schedules, Diags;
  Schedules.beginArray();
  Diags.beginArray();
  for (size_t S = 0; S != Instance.Stages.size(); ++S) {
    Func &F = Instance.Stages[S];
    int Stage = F.computeStageIndex();
    lint::LintReport Report = lint::lintStageSchedule(
        F, Stage, Instance.StageExtents[S], Arch, Options);
    if (Args.has("lint-fix") && !Report.clean()) {
      // One fix can expose the next diagnostic (appending a reorder
      // shadows the one it overrides), so iterate to a fixed point.
      for (int Round = 0; Round != 5 && !Report.clean(); ++Round) {
        std::string Fixed = lint::applyLintFixes(Report);
        if (Fixed == Report.ScheduleText)
          break; // nothing left is machine-fixable
        F.clearSchedules();
        auto R = applyVerifiedScheduleText(F, Stage, Fixed,
                                           Instance.StageExtents[S]);
        if (!R) {
          std::fprintf(stderr,
                       "error: fix-its produced an illegal schedule: %s\n",
                       R.getError().c_str());
          return 1;
        }
        Report = lint::lintStageSchedule(F, Stage, Instance.StageExtents[S],
                                         Arch, Options);
      }
      if (!Json)
        std::printf("lint stage %zu: fixed schedule: %s\n", S,
                    Report.ScheduleText.c_str());
    }
    if (Json) {
      Schedules.string(Report.ScheduleText);
      for (const lint::Diagnostic &D : Report.Diagnostics)
        Diags.raw(lint::diagnosticJson(D, static_cast<int>(S)));
    } else {
      std::printf("lint stage %zu (%s): %s\n", S, F.name().c_str(),
                  Report.clean()
                      ? "clean"
                      : strFormat("%zu diagnostic(s)",
                                  Report.Diagnostics.size())
                            .c_str());
      for (const lint::Diagnostic &D : Report.Diagnostics)
        printDiagnostic(D, Report.ScheduleText);
    }
    AnyErrors |= Report.hasErrors();
  }
  if (Json) {
    obs::JsonWriter W;
    W.beginObject().key("kernel").string(Def->Name);
    W.key("arch").string(Arch.Name);
    W.key("schedules").raw(Schedules.endArray().str());
    W.key("diagnostics").raw(Diags.endArray().str()).endObject();
    std::printf("%s\n", W.str().c_str());
  }
  return AnyErrors ? 2 : 0;
}

int processBenchmark(const BenchmarkDef *Def, const ArgParse &Args,
                     const ArchParams &Arch) {
  int64_t Size = Args.getInt("size", Def->DefaultSize);
  if (Size < 1 || Size > MaxBenchmarkSize) {
    std::fprintf(stderr, "error: --size must be an integer in [1, %lld]\n",
                 static_cast<long long>(MaxBenchmarkSize));
    return 1;
  }
  // Planning, linting, lowering and compiling read the shape only;
  // running and simulating need the data.
  BenchmarkInstance Instance = Def->shape(Size);
  if (Args.has("simulate") || Args.has("run")) {
    ErrorOr<BenchmarkInstance> Materialized = materialize(std::move(Instance));
    if (!Materialized) {
      std::fprintf(stderr, "error: %s\n", Materialized.getError().c_str());
      return 1;
    }
    Instance = std::move(*Materialized);
  }

  std::printf("benchmark : %s (%s), size %lld\n", Def->Name.c_str(),
              Def->Description.c_str(), static_cast<long long>(Size));
  std::printf("platform  : %s\n\n", describe(Arch).c_str());

  if (Args.has("schedule")) {
    // Replay a user-provided schedule on the compute stage of the last
    // pipeline stage.
    Func &F = Instance.Stages.back();
    F.clearSchedules();
    int Stage = F.computeStageIndex();
    auto R = applyVerifiedScheduleText(F, Stage, Args.getString("schedule", ""),
                                       Instance.StageExtents.back());
    if (!R) {
      std::fprintf(stderr, "error: bad schedule: %s\n",
                   R.getError().c_str());
      return 2; // distinct exit: the *schedule* is at fault, not the tool
    }
    std::printf("schedule (user): %s\n\n",
                printSchedule(F, Stage).c_str());
  } else {
    for (size_t S = 0; S != Instance.Stages.size(); ++S) {
      OptimizerOptions Options;
      Options.EnableNonTemporal = !Args.has("no-nti");
      OptimizationResult R = optimize(
          Instance.Stages[S], Instance.StageExtents[S], Arch, Options);
      std::printf("stage %zu (%s): class=%s, %.2f ms to optimize\n  %s\n",
                  S, Instance.Stages[S].name().c_str(),
                  statementClassName(R.Class.Kind), R.RuntimeMillis,
                  R.Description.c_str());
      int Stage = Instance.Stages[S].computeStageIndex();
      std::printf("  directives: %s\n",
                  printSchedule(Instance.Stages[S], Stage).c_str());
    }
    std::printf("\n");
    if (obs::explainEnabled())
      printDecisions();
  }

  if (Args.has("lint") || Args.has("lint-fix"))
    return runLint(Instance, Def, Args, Arch);

  if (Args.has("verify")) {
    bool AnyErrors = false;
    for (size_t S = 0; S != Instance.Stages.size(); ++S) {
      const Func &F = Instance.Stages[S];
      int Stage = F.computeStageIndex();
      analysis::LegalityReport Report = analysis::verifyStageSchedule(
          F, Stage, Instance.StageExtents[S]);
      std::printf("verify stage %zu (%s):\n%s", S, F.name().c_str(),
                  Report.Graph.print().c_str());
      if (Report.Verdicts.empty())
        std::printf("  (no directives)\n");
      for (const analysis::DirectiveVerdict &V : Report.Verdicts) {
        if (V.Legal)
          std::printf("  %-32s legal\n", V.Directive.c_str());
        else
          std::printf("  %-32s %s: %s\n", V.Directive.c_str(),
                      V.Sev == analysis::Severity::Error ? "ILLEGAL"
                                                         : "warning",
                      V.Message.c_str());
      }
      std::printf("\n");
      AnyErrors |= Report.hasErrors();
    }
    // User schedules were rejected before this point, so errors here mean
    // the optimizer itself produced an illegal schedule. Warning verdicts
    // (e.g. an NT store the nest re-reads) print above but do not fail:
    // only Error severity takes the schedule-rejected exit.
    if (AnyErrors) {
      std::fprintf(stderr, "error: schedule failed verification\n");
      return 2;
    }
  }

  std::printf("lowered loop nest (final stage):\n%s\n",
              ir::printStmt(lowerPipeline(Instance).back()).c_str());

  if (Args.has("emit-c")) {
    std::vector<BufferBinding> Signature;
    for (const auto &[BufName, Ref] : Instance.Buffers)
      Signature.push_back(BufferBinding::fromRef(BufName, Ref));
    CodeGenOptions Options;
    Options.EnableNonTemporal = !Args.has("no-nti");
    auto Lowered = lowerPipeline(Instance);
    for (size_t S = 0; S != Lowered.size(); ++S) {
      std::printf("/* ---- stage %zu ---- */\n", S);
      std::printf("%s\n",
                  generateC(Lowered[S], Signature, "ltp_kernel", Options)
                      .c_str());
    }
  }

  if (Args.has("simulate")) {
    std::printf("simulating on the %s configuration...\n",
                Arch.Name.c_str());
    SimResult Sim = simulatePipeline(Instance, Arch);
    std::printf("  accesses      : %llu\n",
                static_cast<unsigned long long>(Sim.Accesses));
    std::printf("  L1 miss rate  : %.3f%% (prefetch hits %llu)\n",
                100.0 * Sim.Stats.L1.missRate(),
                static_cast<unsigned long long>(Sim.Stats.L1.PrefetchHits));
    std::printf("  L2 miss rate  : %.3f%%\n",
                100.0 * Sim.Stats.L2.missRate());
    std::printf("  DRAM lines    : %llu\n",
                static_cast<unsigned long long>(Sim.Stats.memoryTraffic()));
    std::printf("  est. cycles   : %.4g\n\n", Sim.EstimatedCycles);
  }

  if (Args.has("run")) {
    if (!jitAvailable()) {
      std::fprintf(stderr, "error: no host C compiler for --run\n");
      return 1;
    }
    JITCompiler Compiler;
    CodeGenOptions Options;
    Options.EnableNonTemporal = !Args.has("no-nti");
    auto Pipeline = compilePipeline(Instance, Compiler, Options);
    if (!Pipeline) {
      std::fprintf(stderr, "error: %s\n", Pipeline.getError().c_str());
      return 1;
    }
    Pipeline->run(Instance);
    double Seconds = timeBestOf(3, [&] { Pipeline->run(Instance); });
    std::printf("wall clock: %.3f ms", Seconds * 1e3);
    if (Instance.Work > 0)
      std::printf("  (%.2f Gop/s)", Instance.Work / Seconds * 1e-9);
    std::printf("\n");
  }

  if (Args.has("compile")) {
    // CI's one-process-per-request spawn baseline for the serving gate:
    // produce a ready-to-dlopen kernel in the shared content-addressed
    // store, skip the timed runs.
    if (!jitAvailable()) {
      std::fprintf(stderr, "error: no host C compiler for --compile\n");
      return 1;
    }
    JITCompiler Compiler;
    CodeGenOptions Options;
    Options.EnableNonTemporal = !Args.has("no-nti");
    auto Pipeline = compilePipeline(Instance, Compiler, Options);
    if (!Pipeline) {
      std::fprintf(stderr, "error: %s\n", Pipeline.getError().c_str());
      return 1;
    }
    for (size_t S = 0; S != Pipeline->Kernels.size(); ++S)
      std::printf("kernel so [%zu]: %s\n", S,
                  Pipeline->Kernels[S].sharedObjectPath().c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  if (Args.positional().empty() || Args.has("help")) {
    printUsage();
    return Args.has("help") ? 0 : 1;
  }
  const std::string Name = Args.positional().front();
  std::vector<const BenchmarkDef *> Targets;
  if (Name == "all") {
    for (const BenchmarkDef &Def : allBenchmarks())
      Targets.push_back(&Def);
  } else {
    const BenchmarkDef *Def = findBenchmark(Name);
    if (!Def) {
      std::fprintf(stderr, "error: unknown benchmark '%s'\n", Name.c_str());
      printUsage();
      return 1;
    }
    Targets.push_back(Def);
  }

  if (Args.has("trace-json"))
    obs::setTracingEnabled(true);
  if (Args.has("explain"))
    obs::setExplainEnabled(true);

  ArchParams Arch = pickArch(Args.getString("arch", "host"));
  if (Args.has("arch-file")) {
    auto Loaded = loadArchParams(Args.getString("arch-file", ""));
    if (!Loaded) {
      std::fprintf(stderr, "error: %s\n", Loaded.getError().c_str());
      return 1;
    }
    Arch = *Loaded;
  }

  int Rc = 0;
  for (const BenchmarkDef *Def : Targets) {
    Rc = processBenchmark(Def, Args, Arch);
    if (Rc != 0)
      break;
  }

  // Scoring-path telemetry: how many candidates each path handled and how
  // often the closed-form tile bound applied.
  if (Rc == 0 && !Args.has("schedule")) {
    obs::MetricsSnapshot Snap = obs::snapshot();
    auto C = [&](const char *Name) {
      return static_cast<long long>(Snap.counter(Name));
    };
    std::printf("telemetry : %lld candidates scored (analytic %lld, "
                "sim %lld); tile bounds: analytic %lld, emulated %lld, "
                "fallback %lld\n",
                C("opt.candidates"), C("opt.candidates.analytic"),
                C("opt.candidates.sim"), C("model.bound.analytic"),
                C("model.bound.emulated"), C("model.bound.fallback"));
  }

  if (Args.has("trace-json")) {
    std::string Path = Args.getString("trace-json", "trace.json");
    if (Path.empty())
      Path = "trace.json";
    std::string Error;
    if (!obs::writeTrace(Path, &Error)) {
      std::fprintf(stderr, "error: cannot write trace %s: %s\n",
                   Path.c_str(), Error.c_str());
      return 1;
    }
    std::printf("trace     : %s (%zu events)\n", Path.c_str(),
                obs::traceEventCount());
  }
  return Rc;
}
