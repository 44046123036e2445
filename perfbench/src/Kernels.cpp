//===- Kernels.cpp - the `kernels` workload -------------------------------===//
//
// The paper's result in the paper's regime: the 12 Table-4 kernels at
// their Table-4 sizes, scheduled by the proposed optimizer with
// non-temporal stores for the modeled i7-5930K, compiled during set-up
// into an empty kernel store, then run repeatedly and checked.
//
// Only one instance is resident at a time (the paper sizes total about
// 1.4 GB): set-up creates, schedules and lowers each kernel and keeps the
// lowered code only; the timed loop re-creates one instance per kernel,
// times it, checks its output and frees it. The seed draws the output
// points checked.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Workloads.h"

#include "baselines/Baselines.h"
#include "benchmarks/PipelineRunner.h"
#include "codegen/CodeGenC.h"
#include "core/Optimizer.h"
#include "lang/ScheduleText.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;
using namespace ltp;

namespace {

/// Sampled output points per stage for the cubic kernels.
constexpr int OracleSamples = 96;

struct KernelSetup {
  const BenchmarkDef *Def = nullptr;
  double Work = 0.0;
  double Bytes = 0.0;
  size_t FirstJob = 0;
  size_t NumJobs = 0;
  CompiledPipeline Pipeline;
  std::vector<double> Seconds;
  std::vector<double> TracedSeconds;
};

/// Runs \p K on \p Inst for at least one run and until \p SliceSec has
/// passed, appending each run's seconds to \p Out.
void timeSlice(const KernelSetup &K, const BenchmarkInstance &Inst,
               double SliceSec, std::vector<double> &Out) {
  Clock::time_point Start = Clock::now();
  do {
    SpanScope Span(("runtime." + K.Def->Name).c_str());
    Clock::time_point T0 = Clock::now();
    K.Pipeline.run(Inst);
    Out.push_back(millisSince(T0) / 1e3);
  } while (millisSince(Start) / 1e3 < SliceSec);
}

/// One operation is one run of one kernel: p50 and tail are geomeans over
/// the kernels of each kernel's median and tail run time (a kernel with
/// fewer than 20 runs in its share of a run, such as the cubic ones that
/// run once or twice, has its median as tail), and the rate is the
/// geomean of Work / median run time, in arithmetic operations per second.
Figures figuresOf(const std::vector<KernelSetup> &Ks, bool Traced) {
  std::vector<double> P50, Tails, Rates;
  for (const KernelSetup &K : Ks) {
    const std::vector<double> &Sec = Traced ? K.TracedSeconds : K.Seconds;
    P50.push_back(median(Sec) * 1e3);
    Tails.push_back(tailOf(Sec).Value * 1e3);
    Rates.push_back(K.Work / median(Sec));
  }
  return {geomean(P50), geomean(Tails), geomean(Rates)};
}

} // namespace

Result perfbench::runKernels(const Options &O) {
  Result R;
  Rng Gen(O.Seed);
  const ArchParams Arch = intelI7_5930K();
  std::string Store = O.RunDir + "/store-kernels";
  ::setenv("LTP_JIT_CACHE_DIR", Store.c_str(), 1);
  JITCompiler Compiler;
  CodeGenOptions CG;
  OptimizerOptions Opt;
  Opt.EnableNonTemporal = true;

  // ---- set-up: create, schedule, lower and emit every kernel, then one
  // batched compile of all stages into the empty store.
  std::vector<KernelSetup> Ks;
  std::vector<CompileJob> Jobs;
  std::vector<double> InstanceMb;
  Layers L;
  const std::map<std::string, int64_t> CountersBefore = processCounters();
  double SourceBytes = 0.0;
  std::string Extra = "\"footprint_llc_ratio\": {";
  for (const BenchmarkDef &Def : allBenchmarks()) {
    KernelSetup K;
    K.Def = &Def;
    BenchmarkInstance Inst;
    {
      SpanScope Span("benchmarks.create");
      Inst = Def.Create(Def.PaperSize);
    }
    K.Work = Inst.Work;
    K.Bytes = instanceBytes(Inst);
    InstanceMb.push_back(K.Bytes / 1e6);
    for (size_t S = 0; S != Inst.Stages.size(); ++S) {
      SpanScope Span("core.optimize");
      optimize(Inst.Stages[S], Inst.StageExtents[S], Arch, Opt);
      Func &F = Inst.Stages[S];
      if (printSchedule(F, computeStage(F)).find("parallel(") ==
          std::string::npos)
        ++L.SerialSchedules;
    }
    std::vector<ir::StmtPtr> Lowered;
    {
      SpanScope Span("lang.lower");
      Lowered = lowerPipeline(Inst);
    }
    std::vector<BufferBinding> Signature;
    for (const auto &[Name, Ref] : Inst.Buffers)
      Signature.push_back(BufferBinding::fromRef(Name, Ref));
    K.FirstJob = Jobs.size();
    K.NumJobs = Lowered.size();
    for (const ir::StmtPtr &S : Lowered) {
      SpanScope Span("codegen.emit");
      SourceBytes += static_cast<double>(
          generateC(S, Signature, "kernel", CG).size());
      Jobs.push_back(CompileJob{S, Signature, CG});
    }
    Extra += strFormat("%s\"%s\": %.2f", Ks.empty() ? "" : ", ",
                       Def.Name.c_str(),
                       K.Bytes / static_cast<double>(hostLlcBytes()));
    Ks.push_back(std::move(K));
  }
  Extra += "}";
  addScoring(L, CountersBefore, processCounters(),
             static_cast<double>(Ks.size()));

  const int CcBefore = Compiler.compileCount();
  Clock::time_point CompileStart = Clock::now();
  std::vector<ErrorOr<CompiledKernel>> Compiled;
  {
    SpanScope Span("jit.compile");
    Compiled = Compiler.compileMany(Jobs);
  }
  const double CompileMs = millisSince(CompileStart);
  const int CcRuns = Compiler.compileCount() - CcBefore;
  const int MemoHits = Compiler.cacheHitCount();
  const int DiskHits = Compiler.diskHitCount();
  for (KernelSetup &K : Ks)
    for (size_t J = K.FirstJob; J != K.FirstJob + K.NumJobs; ++J) {
      if (!Compiled[J]) {
        ++R.Attempted;
        R.fail(K.Def->Name + ": compile failed: " + Compiled[J].getError());
        return R;
      }
      K.Pipeline.Kernels.push_back(std::move(*Compiled[J]));
    }

  // ---- timed loop over the kernels in Table-4 order. A traced run splits
  // each slice into an untraced and a traced half on the same instance.
  const double Slice =
      O.Seconds / static_cast<double>(Ks.size()) / (O.Trace ? 2.0 : 1.0);
  double SetupSec = -1.0;
  std::vector<double> VsAuto;
  double VerifyMs = 0.0;
  for (KernelSetup &K : Ks) {
    BenchmarkInstance Inst;
    {
      SpanScope Span("benchmarks.create");
      Inst = K.Def->Create(K.Def->PaperSize);
    }
    if (SetupSec < 0.0)
      SetupSec = sinceStart();
    ++R.Attempted;
    spans().setEnabled(false);
    timeSlice(K, Inst, Slice, K.Seconds);
    if (O.Trace) {
      spans().setEnabled(true);
      timeSlice(K, Inst, Slice, K.TracedSeconds);
    }
    Clock::time_point VerifyStart = Clock::now();
    std::string Diag;
    {
      SpanScope Span("benchmarks.verify");
      Diag = checkOutputs(Inst, Gen, OracleSamples);
    }
    VerifyMs += millisSince(VerifyStart);
    if (!Diag.empty())
      R.fail(Diag);

    if (O.Trace) {
      // Same-run comparison with the Auto-Scheduler baseline (Fig. 4).
      for (size_t S = 0; S != Inst.Stages.size(); ++S)
        applyAutoSchedulerSchedule(Inst.Stages[S], Inst.StageExtents[S],
                                   Arch);
      ++R.Attempted;
      auto Auto = compilePipeline(Inst, Compiler, CG);
      if (!Auto) {
        R.fail(K.Def->Name + ": auto-scheduler compile failed");
        continue;
      }
      Clock::time_point T0 = Clock::now();
      Auto->run(Inst);
      VsAuto.push_back(millisSince(T0) / 1e3 / median(K.Seconds));
      std::string AutoDiag = checkOutputs(Inst, Gen, OracleSamples);
      if (!AutoDiag.empty())
        R.fail("auto-scheduler " + AutoDiag);
    }
  }
  const double PeakMb = peakRssMb();

  const Figures Untraced = figuresOf(Ks, false);
  addEndToEnd(R, SetupSec, Untraced, PeakMb);

  const double Stream = streamProbeGbs();
  printHost(Stream, Extra);
  for (const KernelSetup &K : Ks)
    std::printf("kernel: %-9s %8.3f ms  %7.2f Gop/s  %zu runs, tail p%g\n",
                K.Def->Name.c_str(), median(K.Seconds) * 1e3,
                K.Work / median(K.Seconds) / 1e9, K.Seconds.size(),
                tailOf(K.Seconds).Percentile);
  std::printf("kernels: geomean %.3f Gop/s\n", Untraced.OpsPerSec / 1e9);
  if (!O.Trace)
    return R;

  L.InstanceMb = median(InstanceMb);
  L.SourceKb = SourceBytes / 1024.0 / static_cast<double>(Jobs.size());
  L.CcInvocations = CcRuns;
  L.MemoHits = MemoHits;
  L.DiskHits = DiskHits;
  L.StreamGbs = Stream;
  addLayers(R, L, Untraced, figuresOf(Ks, true));
  printLayer("benchmarks.verify_ms",
             VerifyMs / static_cast<double>(Ks.size()), "ms");
  printLayer("core.vs_autoscheduler", geomean(VsAuto), "ratio");
  printLayer("lang.lower_ms", spans().meanMillis("lang.lower"), "ms");
  printLayer("codegen.emit_ms", spans().meanMillis("codegen.emit"), "ms");
  printLayer("jit.compile_ms", CompileMs / static_cast<double>(Jobs.size()),
             "ms");
  for (const KernelSetup &K : Ks) {
    double Sec = median(K.Seconds);
    printLayer("runtime." + K.Def->Name + "_ms", Sec * 1e3, "ms");
    printLayer("runtime." + K.Def->Name + "_gbs", K.Bytes / Sec / 1e9, "GB/s");
  }
  return R;
}
