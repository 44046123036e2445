//===- Schedule.cpp - the `schedule` workload -----------------------------===//
//
// Schedule-only serving: a seeded stream of unique `compile: false`
// requests over the daemon's socket, sent by one closed-loop client per
// processor. Each request draws a kernel, a size from half the default up
// to the paper's size, a modeled platform and an op: mostly `optimize`,
// some `lint`, some replays of a user schedule (legal ones, and illegal
// ones the verifier must reject). Request cost is dominated by building
// the kernel instance, so a split of kernel shape from kernel data shows
// here; the jit layer does no work.
//
// Every reply is checked after the timed phase against the same public
// calls (parse, create, optimize / replay / lint), made in child processes
// of the benchmark; in a traced run those calls are the spans of the
// per-layer breakdown.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Workloads.h"

#include "analysis/Lint.h"
#include "core/Optimizer.h"
#include "lang/ScheduleText.h"
#include "obs/JsonCheck.h"
#include "obs/Telemetry.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <csignal>
#include <set>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;
using namespace ltp;

namespace {

/// Loop names the generated user schedules use: an outer pure loop safe
/// to split and parallelize, and the reduction loop whose parallelization
/// races ("" = no reduction).
struct LoopNames {
  const char *Kernel;
  const char *Outer;
  const char *Reduction;
};
const LoopNames Loops[] = {
    {"convlayer", "y", "rc"}, {"doitgen", "r", "s"}, {"matmul", "i", "k"},
    {"3mm", "i", "k3"},       {"gemm", "i", "k"},    {"trmm", "i", "k"},
    {"syrk", "i", "k"},       {"syr2k", "i", "k"},   {"tpm", "y", ""},
    {"tp", "y", ""},          {"copy", "y", ""},     {"mask", "y", ""},
};

struct SchedRequest {
  std::string Op; ///< optimize | lint | replay
  const BenchmarkDef *Def = nullptr;
  int64_t Size = 0;
  std::string Schedule; ///< replayed text
  bool ExpectIllegal = false;
  bool Large = false; ///< size in the upper half of the kernel's range
};

/// Draws the next element of a cyclic, seeded stratification: every
/// consecutive run of Pool.size() draws holds each element once.
template <typename T> class Cycle {
public:
  explicit Cycle(std::vector<T> Pool) : Pool(std::move(Pool)) {}
  T next(Rng &Gen) {
    if (Pos == Order.size()) {
      Order = Pool;
      std::shuffle(Order.begin(), Order.end(), Gen);
      Pos = 0;
    }
    return Order[Pos++];
  }

private:
  std::vector<T> Pool, Order;
  size_t Pos = 0;
};

/// The seeded request stream; every line is distinct. It is stratified so
/// that any prefix has nearly the same mix whatever the seed: every 12
/// requests hold each kernel once, a kernel's successive sizes visit each
/// 8th of its size range once per 8 draws, every 20 requests hold 14
/// optimize, 3 lint, 2 legal and 1 illegal replay, and every 3 hold each
/// platform once. A 12-second run sends each kernel about 24 times, so
/// it covers the 8 size strata three times; with 32 strata, which it did
/// not cover once, the p50's quartile spread over ten seeds was 0.22 of
/// its median, with 8 it was 0.12 over six.
void generate(Rng &Gen, size_t Count, std::vector<SchedRequest> &Reqs,
              std::vector<std::string> &Lines) {
  constexpr int Strata = 8;
  Cycle<size_t> Kernels({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  Cycle<std::string> Ops({"optimize", "optimize", "optimize", "optimize",
                          "optimize", "optimize", "optimize", "optimize",
                          "optimize", "optimize", "optimize", "optimize",
                          "optimize", "optimize", "lint", "lint", "lint",
                          "replay", "replay", "illegal"});
  Cycle<std::string> Archs({"5930k", "6700", "a15"});
  std::vector<int> AllStrata(Strata);
  for (int I = 0; I != Strata; ++I)
    AllStrata[I] = I;
  std::vector<Cycle<int>> SizeStrata(std::size(Loops), Cycle<int>(AllStrata));
  std::set<std::string> Seen;
  while (Lines.size() < Count) {
    const size_t K = Kernels.next(Gen);
    const LoopNames &L = Loops[K];
    SchedRequest R;
    R.Def = findBenchmark(L.Kernel);
    const int64_t Lo = R.Def->DefaultSize / 2, Hi = R.Def->PaperSize;
    const int Stratum = SizeStrata[K].next(Gen);
    const std::string Op = Ops.next(Gen);
    const std::string Arch = Archs.next(Gen);
    R.Op = Op == "illegal" ? "replay" : Op;
    R.ExpectIllegal = Op == "illegal" && *L.Reduction;
    if (R.Op == "replay")
      R.Schedule =
          R.ExpectIllegal
              ? strFormat("parallel(%s);", L.Reduction)
              : strFormat("split(%s, %so, %si, %d); parallel(%so);", L.Outer,
                          L.Outer, L.Outer, 4 << (Gen() % 4), L.Outer);
    // A repeated line redraws its size, within the same stratum first.
    for (int Try = 0;; ++Try) {
      const int64_t Width = Hi - Lo + 1;
      R.Size = Try < 16 ? Lo + std::uniform_int_distribution<int64_t>(
                                   Width * Stratum / Strata,
                                   Width * (Stratum + 1) / Strata - 1)(Gen)
                        : std::uniform_int_distribution<int64_t>(Lo, Hi)(Gen);
      R.Large = 2 * (R.Size - Lo) >= Width;
      std::string Line = strFormat(
          "{\"op\": \"%s\", \"kernel\": \"%s\", \"size\": %lld, \"arch\": "
          "\"%s\", \"compile\": false%s}",
          R.Op == "lint" ? "lint" : "optimize", L.Kernel,
          static_cast<long long>(R.Size), Arch.c_str(),
          R.Schedule.empty()
              ? ""
              : strFormat(", \"schedule\": \"%s\"", R.Schedule.c_str())
                    .c_str());
      if (Seen.insert(Line).second) {
        Lines.push_back(std::move(Line));
        break;
      }
    }
    Reqs.push_back(std::move(R));
  }
}

struct Check {
  std::string Error; ///< "" when the reply matched
  double InstanceMb = 0.0;
};

/// Recomputes request \p R in-process through the public calls the daemon
/// makes and compares the reply. With \p Local set, the request is also
/// served by that in-process service (the `serve.handle` span).
Check checkReply(const SchedRequest &R, const std::string &Line,
                 const Sample &S, const std::string &Reply,
                 serve::OptimizerService *Local) {
  const int64_t Rid = static_cast<int64_t>(S.Index);
  Check C;
  ErrorOr<serve::Request> Req = serve::Request();
  {
    SpanScope Span("serve.parse", Rid);
    Req = serve::parseRequest(Line);
  }
  if (!Req)
    return {"request does not parse: " + Req.getError(), 0.0};
  if (Local) {
    SpanScope Span("serve.handle", Rid);
    Local->handle(*Req);
  }
  ErrorOr<ArchParams> Arch = serve::resolveArch(*Req);
  if (!Arch)
    return {"arch does not resolve: " + Arch.getError(), 0.0};

  BenchmarkInstance Inst;
  {
    SpanScope Span("benchmarks.create", Rid);
    Inst = R.Def->Create(R.Size);
  }
  C.InstanceMb = instanceBytes(Inst) / 1e6;
  Func &Last = Inst.Stages.back();
  const int LastStage = computeStage(Last);
  bool WantOk = true;
  std::string WantSchedule, WantDiagnostics;
  if (R.Op == "replay") {
    Last.clearSchedules();
    ErrorOr<bool> Applied = false;
    {
      SpanScope Span("analysis.replay", Rid);
      Applied = applyVerifiedScheduleText(Last, LastStage, R.Schedule,
                                          Inst.StageExtents.back());
    }
    WantOk = static_cast<bool>(Applied);
    if (WantOk == R.ExpectIllegal)
      return {strFormat("replay of '%s' on %s: verifier says %s, generator "
                        "expected %s",
                        R.Schedule.c_str(), R.Def->Name.c_str(),
                        WantOk ? "legal" : "illegal",
                        R.ExpectIllegal ? "illegal" : "legal"),
              C.InstanceMb};
    if (WantOk)
      WantSchedule = printSchedule(Last, LastStage);
  } else {
    OptimizerOptions Opt;
    for (size_t I = 0; I != Inst.Stages.size(); ++I) {
      SpanScope Span("core.optimize", Rid);
      optimize(Inst.Stages[I], Inst.StageExtents[I], *Arch, Opt);
    }
    WantSchedule = printSchedule(Last, LastStage);
    if (R.Op == "lint") {
      SpanScope Span("analysis.lint", Rid);
      WantDiagnostics = "\"diagnostics\": [";
      size_t N = 0;
      for (size_t I = 0; I != Inst.Stages.size(); ++I) {
        Func &F = Inst.Stages[I];
        lint::LintReport Report = lint::lintStageSchedule(
            F, computeStage(F), Inst.StageExtents[I], *Arch);
        for (const lint::Diagnostic &D : Report.Diagnostics)
          WantDiagnostics += (N++ ? ", " : "") +
                             lint::diagnosticJson(D, static_cast<int>(I));
      }
      WantDiagnostics += "]";
    }
  }

  if (!S.Delivered)
    return {"no reply", C.InstanceMb};
  std::string ParseError;
  std::unique_ptr<obs::JsonValue> Json = obs::parseJson(Reply, &ParseError);
  const obs::JsonValue *Ok = Json ? Json->find("ok") : nullptr;
  if (!Ok)
    return {"malformed reply: " + Reply, C.InstanceMb};
  if (!WantOk) {
    const obs::JsonValue *Kind = Json->find("kind");
    if (Ok->BoolValue || !Kind || Kind->StringValue != "illegal_schedule")
      return {"illegal schedule not rejected: " + Reply, C.InstanceMb};
    return C;
  }
  const obs::JsonValue *Sched = Json->find("schedule");
  if (!Ok->BoolValue || !Sched || Sched->StringValue != WantSchedule)
    return {strFormat("%s: reply %s, want schedule '%s'", Line.c_str(),
                      Reply.c_str(), WantSchedule.c_str()),
            C.InstanceMb};
  if (!WantDiagnostics.empty() &&
      Reply.find(WantDiagnostics) == std::string::npos)
    return {strFormat("%s: reply %s, want %s", Line.c_str(), Reply.c_str(),
                      WantDiagnostics.c_str()),
            C.InstanceMb};
  return C;
}

/// Checks samples \p First, First + Step, ... of \p P and writes each
/// result, then the calling thread's spans, to \p Out. With \p Handle set,
/// each request is also served by an in-process service.
void checkSlice(const Phase &P, const std::vector<SchedRequest> &Reqs,
                const std::vector<std::string> &Lines, bool Handle,
                size_t First, size_t Step, std::FILE *Out) {
  std::unique_ptr<serve::OptimizerService> Local;
  if (Handle) {
    serve::ServiceOptions LocalOpts;
    LocalOpts.DisableCompile = true;
    Local = std::make_unique<serve::OptimizerService>(LocalOpts);
  }
  for (size_t I = First; I < P.Samples.size(); I += Step) {
    const Sample &S = P.Samples[I];
    Check C = checkReply(Reqs[S.Index], Lines[S.Index], S, P.reply(S),
                         Local.get());
    std::fprintf(Out, "check %zu %.17g %zu\n%s\n", I, C.InstanceMb,
                 C.Error.size(), C.Error.c_str());
  }
  for (const SpanRecorder::Span &Sp : spans().take())
    std::fprintf(Out, "span %lld %lld %d %lld %s\n",
                 static_cast<long long>(Sp.StartNs),
                 static_cast<long long>(Sp.EndNs), Sp.Parent,
                 static_cast<long long>(Sp.RequestId), Sp.Name.c_str());
}

/// Reads what checkSlice wrote to \p Path into \p Out and the recorder.
void readSlice(const std::string &Path, std::vector<Check> &Out,
               std::vector<bool> &Seen) {
  std::FILE *In = std::fopen(Path.c_str(), "r");
  if (!In)
    return;
  std::vector<SpanRecorder::Span> Spans;
  char Kind[8];
  while (std::fscanf(In, "%7s", Kind) == 1) {
    if (std::string(Kind) == "check") {
      size_t I = 0, Len = 0;
      double Mb = 0.0;
      if (std::fscanf(In, "%zu %lg %zu", &I, &Mb, &Len) != 3 ||
          I >= Out.size() || std::fgetc(In) != '\n')
        break;
      std::string Error(Len, '\0');
      if (std::fread(Error.data(), 1, Len, In) != Len)
        break;
      Out[I] = {std::move(Error), Mb};
      Seen[I] = true;
    } else {
      long long Start = 0, End = 0, Rid = 0;
      int Parent = -1;
      char Name[128];
      if (std::fscanf(In, "%lld %lld %d %lld %127s", &Start, &End, &Parent,
                      &Rid, Name) != 5)
        break;
      Spans.push_back({Name, Start, End, Parent, Rid});
    }
  }
  std::fclose(In);
  spans().adopt(std::move(Spans));
}

/// Checks every sample of \p P in one child process per processor.
/// Kernel construction is not safe to run concurrently in one process:
/// reduction variables are resolved through a process-wide, name-keyed
/// registry with no lock. Each child builds one instance at a time, and
/// a traced run gets the children's spans. Returns the results in
/// sample order; a sample whose child left no result fails.
std::vector<Check> checkAll(const Options &O, const Phase &P,
                            const std::vector<SchedRequest> &Reqs,
                            const std::vector<std::string> &Lines,
                            bool Handle) {
  const size_t Workers = static_cast<size_t>(clientCount());
  std::vector<Check> Out(P.Samples.size());
  std::vector<bool> Seen(P.Samples.size(), false);
  std::vector<std::string> Paths;
  std::vector<int> Pids;
  std::fflush(nullptr);
  for (size_t W = 0; W != Workers; ++W) {
    Paths.push_back(strFormat("%s/check-%zu.txt", O.RunDir.c_str(), W));
    const int Pid = static_cast<int>(::fork());
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      spans().take(); // the parent's spans stay with the parent
      std::FILE *File = std::fopen(Paths.back().c_str(), "w");
      if (!File)
        ::_exit(1);
      checkSlice(P, Reqs, Lines, Handle, W, Workers, File);
      ::_exit(std::fclose(File) == 0 ? 0 : 1);
    }
    Pids.push_back(Pid);
  }
  for (int Pid : Pids)
    if (Pid > 0)
      ::waitpid(Pid, nullptr, 0);
  for (const std::string &Path : Paths) {
    readSlice(Path, Out, Seen);
    std::remove(Path.c_str());
  }
  for (size_t I = 0; I != Out.size(); ++I)
    if (!Seen[I])
      Out[I].Error = strFormat("checker process %zu left no result for "
                               "request %u",
                               I % Workers, P.Samples[I].Index);
  return Out;
}

/// Latency and rate over the delivered requests; failures count in
/// success_rate.
Figures figuresOf(const Phase &P, Tail *T = nullptr) {
  std::vector<double> Ms;
  for (const Sample &S : P.Samples)
    if (S.Delivered)
      Ms.push_back(S.Millis);
  Tail Tl = tailOf(Ms);
  if (T)
    *T = Tl;
  return {median(Ms), Tl.Value, static_cast<double>(Ms.size()) / P.Seconds};
}

} // namespace

Result perfbench::runSchedule(const Options &O) {
  Result R;
  std::vector<SchedRequest> Reqs;
  std::vector<std::string> Lines;
  ::setenv("LTP_JIT_CACHE_DIR", (O.RunDir + "/store-schedule").c_str(), 1);
  double SetupSec = 0.0;
  std::unique_ptr<Daemon> D = setUpDaemon(
      "schedule.sock",
      [&] {
        Rng Gen(O.Seed);
        Reqs.clear();
        Lines.clear();
        generate(Gen, 4000, Reqs, Lines); // several times what a run sends
      },
      SetupSec);
  if (!D) {
    R.fail("daemon did not start");
    return R;
  }

  // A traced run measures an untraced and a traced half back to back.
  const double PhaseSec = O.Trace ? O.Seconds / 2.0 : O.Seconds;
  Phase Untraced = closedLoop("schedule.sock", Lines, {}, 0, PhaseSec);
  Phase Traced;
  // The daemon's own counters around the traced half.
  std::map<std::string, int64_t> Before, After;
  if (O.Trace) {
    Before = D->counters();
    spans().setEnabled(true);
    Traced = closedLoop("schedule.sock", Lines, {}, Untraced.Samples.size(),
                        PhaseSec);
    spans().setEnabled(false);
    After = D->counters();
  }
  ++R.Attempted; // the daemon's lifetime: a crash is a failed operation
  std::string Exit = D->stop();
  if (!Exit.empty())
    R.fail(Exit);

  // ---- output checks (untimed); a traced run records its breakdown here.
  std::vector<Check> Checks = checkAll(O, Untraced, Reqs, Lines, false);
  std::vector<Check> TracedChecks;
  if (O.Trace) {
    spans().setEnabled(true);
    TracedChecks = checkAll(O, Traced, Reqs, Lines, true);
    spans().setEnabled(false);
  }
  for (const std::vector<Check> *Cs : {&Checks, &TracedChecks})
    for (const Check &C : *Cs) {
      ++R.Attempted;
      if (!C.Error.empty())
        R.fail(C.Error);
    }

  Tail T;
  const Figures F = figuresOf(Untraced, &T);
  printTail("schedule", T);
  addEndToEnd(R, SetupSec, F, D->peakRssMb());

  const double Stream = streamProbeGbs();
  printHost(Stream, "");
  if (!O.Trace)
    return R;

  // ---- per-layer breakdown of the traced half.
  const SpanRecorder &Sp = spans();
  std::vector<double> Small, Large, Mb;
  std::map<int64_t, double> Create = Sp.byRequest("benchmarks.create");
  for (size_t I = 0; I != Traced.Samples.size(); ++I) {
    size_t Index = Traced.Samples[I].Index;
    (Reqs[Index].Large ? Large : Small)
        .push_back(Create[static_cast<int64_t>(Index)]);
    Mb.push_back(TracedChecks[I].InstanceMb);
  }
  Layers L;
  L.InstanceMb = median(Mb);
  const double NTraced = static_cast<double>(Traced.Samples.size());
  daemonLayers(Before, After, NTraced, L);
  for (const Sample &S : Traced.Samples)
    if (Reqs[S.Index].Op != "replay")
      L.SerialSchedules += serialReply(Traced.reply(S));
  L.StreamGbs = Stream;
  addLayers(R, L, F, figuresOf(Traced));

  printLayer("benchmarks.create_small_ms", median(Small), "ms");
  printLayer("benchmarks.create_large_ms", median(Large), "ms");
  printLayer("analysis.replay_ms", Sp.meanMillis("analysis.replay"), "ms");
  printLayer("analysis.lint_ms", Sp.meanMillis("analysis.lint"), "ms");
  printLayer("serve.parse_us", Sp.meanMillis("serve.parse") * 1e3, "us");
  printLayer("serve.handle_ms", Sp.meanMillis("serve.handle"), "ms");
  // What handle() spends outside the calls the benchmark replays for the
  // same request (create, optimize, lint, replay).
  double Named = 0.0;
  for (const char *Child : {"benchmarks.create", "core.optimize",
                            "analysis.lint", "analysis.replay"})
    Named += Sp.totalMillis(Child);
  printLayer("serve.unattributed_ms",
             (Sp.totalMillis("serve.handle") - Named) / NTraced, "ms");
  return R;
}
