//===- codegen_simd.cpp - explicit SIMD codegen vs pragma-only ------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Micro-benchmark for the explicit SIMD back end: each kernel is
// scheduled by the proposed optimizer, then compiled twice — once with
// intrinsic vector codegen (vector loads/stores/FMA, register tiling of
// unroll_jam loops) and once with the pragma-only fallback
// (ExplicitSIMD=false, `#pragma GCC ivdep`) — and timed head to head.
// Every kernel is also checked for equivalence against the interpreter
// on a reduced replica before its timing row prints.
//
// Both variants compile in a single compilePipelines batch, so the bench
// doubles as a smoke test of the parallel JIT pipeline and, on reruns,
// of the on-disk kernel cache (see the JIT stats footer).
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "support/Format.h"

#include <cmath>
#include <cstdio>
#include <cstring>

using namespace ltp;
using namespace ltp::bench;

namespace {

/// 3-tap horizontal blur: a pure streaming stencil, no reduction loops.
/// Not part of the Table-4 suite; defined here to cover the stencil shape
/// in the SIMD-vs-pragma comparison.
BenchmarkInstance makeBlur(int64_t N) {
  BenchmarkInstance I;
  I.Name = "blur";
  InputBuffer InB = I.declare<float>("In", {N + 2, N}, 21);

  Var X("x"), Y("y");
  Func Blur("Blur");
  Blur(X, Y) =
      (InB(X, Y) + InB(X + 1, Y) + InB(X + 2, Y)) * (1.0f / 3.0f);
  I.addStage(Blur, {N, N});
  I.Work = 3.0 * static_cast<double>(N) * N;
  I.Reference = [N](const BenchmarkInstance &In, const BufferRef &Want) {
    const float *P = In.data<float>("In");
    float *E = Want.data<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col)
        E[Row * N + Col] = (P[Row * (N + 2) + Col] +
                            P[Row * (N + 2) + Col + 1] +
                            P[Row * (N + 2) + Col + 2]) *
                           (1.0f / 3.0f);
  };
  return I;
}

BenchmarkInstance makeInstance(const std::string &Name, int64_t Size) {
  return *materialize(Name == "blur" ? makeBlur(Size)
                                     : findBenchmark(Name)->shape(Size));
}

/// Element-wise comparison of two same-shaped dense buffers: bit-exact
/// for integers, relative tolerance for floats (the explicit FMA path
/// contracts mul+add, so results differ from the interpreter in the last
/// ULPs).
bool buffersMatch(const BufferRef &A, const BufferRef &B) {
  const int64_t Total = A.numElements();
  if (A.ElemType.isFloat()) {
    const float *PA = static_cast<const float *>(A.Data);
    const float *PB = static_cast<const float *>(B.Data);
    for (int64_t I = 0; I != Total; ++I) {
      float Mag = std::max(std::fabs(PA[I]), std::fabs(PB[I]));
      if (std::fabs(PA[I] - PB[I]) > 1e-3f + 1e-4f * Mag)
        return false;
    }
    return true;
  }
  return std::memcmp(A.Data, B.Data,
                     static_cast<size_t>(Total) * A.ElemType.bytes()) == 0;
}

/// Schedules every stage with the proposed optimizer (NTI included: the
/// explicit back end's streaming stores are part of what is measured).
void scheduleProposed(BenchmarkInstance &Instance, const ArchParams &Arch) {
  for (size_t I = 0; I != Instance.Stages.size(); ++I)
    optimize(Instance.Stages[I], Instance.StageExtents[I], Arch);
}

/// Interpreter-oracle equivalence on a reduced replica: the compiled
/// SIMD pipeline and the interpreter run the same schedule on identical
/// inputs; their outputs must agree element-wise.
bool verifyAgainstInterpreter(const std::string &Name, int64_t SmallSize,
                              const ArchParams &Arch,
                              JITCompiler &Compiler) {
  BenchmarkInstance Jitted = makeInstance(Name, SmallSize);
  scheduleProposed(Jitted, Arch);
  auto Pipeline = compilePipeline(Jitted, Compiler);
  if (!Pipeline)
    return false;
  Pipeline->run(Jitted);

  BenchmarkInstance Interpreted = makeInstance(Name, SmallSize);
  scheduleProposed(Interpreted, Arch);
  runInterpreted(Interpreted);

  return buffersMatch(Jitted.Buffers.at(Jitted.OutputName),
                      Interpreted.Buffers.at(Interpreted.OutputName));
}

int64_t defaultSize(const std::string &Name) {
  if (Name == "blur")
    return 2048;
  return findBenchmark(Name)->DefaultSize;
}

int64_t smallSize(const std::string &Name) {
  if (Name == "doitgen")
    return 24;
  if (Name == "matmul" || Name == "gemm")
    return 48;
  return 96;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  setupTelemetry(Args, "codegen_simd");
  ArchParams Arch = detectHost();
  printHeader("codegen_simd: explicit SIMD + register tiling vs "
              "pragma-only codegen",
              Arch);
  if (!jitAvailable()) {
    std::printf("JIT unavailable; this experiment requires wall-clock "
                "evaluation.\n");
    return 0;
  }

  const int Runs = timedRuns(Args, 3);
  const double Scale = Args.getDouble("scale", 1.0);
  JITCompiler Compiler;

  const std::vector<std::string> Kernels = {"matmul", "gemm", "doitgen",
                                            "blur", "copy"};

  // Schedule every kernel once, then compile both codegen variants of
  // every kernel in a single batch.
  std::vector<BenchmarkInstance> Instances;
  for (const std::string &Name : Kernels) {
    int64_t Size = std::max<int64_t>(
        16, static_cast<int64_t>(defaultSize(Name) * Scale));
    Instances.push_back(makeInstance(Name, Size));
    scheduleProposed(Instances.back(), Arch);
  }
  CodeGenOptions Simd;
  CodeGenOptions Pragma;
  Pragma.ExplicitSIMD = false;
  std::vector<PipelineCompileJob> Jobs;
  for (const BenchmarkInstance &Instance : Instances) {
    Jobs.push_back(makeCompileJob(Instance, Simd));
    Jobs.push_back(makeCompileJob(Instance, Pragma));
  }
  std::vector<ErrorOr<CompiledPipeline>> Compiled =
      compilePipelines(Jobs, Compiler);

  std::vector<int> Widths = {10, 12, 12, 9, 9, 30};
  printRow({"kernel", "simd(ms)", "pragma(ms)", "speedup", "vs-interp",
            "isa"},
           Widths);

  for (size_t K = 0; K != Kernels.size(); ++K) {
    const ErrorOr<CompiledPipeline> &SimdPipe = Compiled[2 * K];
    const ErrorOr<CompiledPipeline> &PragmaPipe = Compiled[2 * K + 1];
    if (!SimdPipe || !PragmaPipe) {
      std::fprintf(stderr, "warning: JIT compile failed for %s: %s\n",
                   Kernels[K].c_str(),
                   (!SimdPipe ? SimdPipe : PragmaPipe).getError().c_str());
      continue;
    }
    bool Equivalent = verifyAgainstInterpreter(
        Kernels[K], smallSize(Kernels[K]), Arch, Compiler);

    double SimdSeconds = timeCompiled(*SimdPipe, Instances[K], Runs);
    double PragmaSeconds = timeCompiled(*PragmaPipe, Instances[K], Runs);
    printRow({Kernels[K], strFormat("%.2f", SimdSeconds * 1e3),
              strFormat("%.2f", PragmaSeconds * 1e3),
              strFormat("%.2fx", PragmaSeconds / SimdSeconds),
              Equivalent ? "ok" : "MISMATCH",
              Simd.ISA.name()},
             Widths);
  }
  std::printf("\n");
  printJITStats(Compiler);
  printTelemetryFooter();
  return 0;
}
