//===- Serve.cpp - the `cold` and `warm` workloads ------------------------===//
//
// Compile serving with production observability on (metrics recording and
// JSON request logs), against a daemon in a child process:
//
//   cold  a fixed set of unique small-size compile requests against an
//         empty kernel store, so each one runs lower -> emit C -> cc ->
//         dlopen through the BatchCompiler; a precompiled header or
//         per-flush batching shows here.
//   warm  set-up compiles a fixed set of keys once; the timed phase is a
//         seeded duplicate stream over them, every reply a dedup-cached
//         hit, so a dedup, protocol or observability change shows here.
//
// Every reply is checked after the timed phase: the schedule must equal an
// in-process optimize() of the same request, every returned `.so` must
// exist, and the dedup outcome must be a miss (cold) or a cached hit
// (warm).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Workloads.h"

#include "benchmarks/PipelineRunner.h"
#include "codegen/CodeGenC.h"
#include "core/Optimizer.h"
#include "lang/ScheduleText.h"
#include "obs/JsonCheck.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <sys/stat.h>
#include <thread>

using namespace perfbench;
using namespace ltp;

namespace {

/// Sizes of the cold requests of each kernel. The kernel mix sets most of
/// the cold phase's cc work and the sizes set the daemon's peak memory
/// (seeded sizes from 24 to 96 moved it from 24 to 34 MB between seeds),
/// so every seed sends the same keys, in its own order. The 48 requests
/// leave twelve samples beyond the p75 tail. Twice as many (sizes 30 to
/// 100 in steps of 10) halved the tail's spread over seeds but doubled a
/// cold run to about 30 s.
constexpr int64_t ColdSizes[] = {30, 52, 74, 96};
/// Size of every warm key: each kernel once.
constexpr int64_t WarmSize = 52;
/// Cold requests whose compile is re-run layer by layer in a traced run.
constexpr size_t DecomposedRequests = 8;
/// Warm requests whose parse and handle are timed in-process.
constexpr size_t HandleSamples = 2000;
/// Closed-loop clients of the warm phase. A warm request is about 0.02 ms
/// of work on each side, so a client and its daemon connection thread
/// both run: one processor each. With one client per processor, the
/// windowed tail had a quartile spread of 0.37 of its median over five
/// seeds; with half as many, 0.08.
int warmClients() { return std::max(1, clientCount() / 2); }
/// Completions per window of the warm tail and rate: a window's tail is
/// then its p95, the highest percentile with ten samples beyond it. On a
/// shared 4-vCPU host the whole-phase p99.9 of five runs ranged from 0.29
/// to 3.25 ms and the whole-phase rate from 62k to 81k/s; the medians
/// over windows varied far less (0.056 to 0.068 ms, 73k to 88k/s).
constexpr size_t WindowRequests = 200;
/// The warm phase runs in this many parts, each on fresh connections, so
/// the daemon's connection threads are placed anew for each part: one set
/// of connections sometimes ran at a p50 of 0.031 ms while the others in
/// the same run ran at 0.020 to 0.022 ms.
constexpr int WarmParts = 5;
/// Warm requests generated per second of the run: more than the daemon
/// serves (about 110 000 per second on a 4-vCPU host).
constexpr size_t WarmRequestsPerSec = 250000;

const char *const Archs[] = {"5930k", "6700", "a15"};

struct CompileRequest {
  const BenchmarkDef *Def = nullptr;
  int64_t Size = 0;
  std::string Arch;
};

std::string requestLine(const CompileRequest &R) {
  return strFormat("{\"op\": \"optimize\", \"kernel\": \"%s\", \"size\": "
                   "%lld, \"arch\": \"%s\"}",
                   R.Def->Name.c_str(), static_cast<long long>(R.Size),
                   R.Arch.c_str());
}

/// Each kernel at each of ColdSizes, on the platforms in turn: one round
/// of the 12 kernels per size, smallest first, each round in a seeded
/// order. Every request is distinct. Rounds keep the requests in flight
/// together of one size, so the daemon's peak memory depends little on
/// the seed: with one shuffle over all 48, its quartile spread over ten
/// seeds was a quarter of its median.
std::vector<CompileRequest> coldRequests(Rng &Gen) {
  std::vector<CompileRequest> Reqs;
  for (size_t Rep = 0; Rep != std::size(ColdSizes); ++Rep) {
    const size_t Start = Reqs.size();
    for (const BenchmarkDef &Def : allBenchmarks())
      Reqs.push_back({&Def, ColdSizes[Rep],
                      Archs[(Rep + Reqs.size()) % std::size(Archs)]});
    std::shuffle(Reqs.begin() + Start, Reqs.end(), Gen);
  }
  return Reqs;
}

/// Each kernel once at WarmSize, on the platforms in turn.
std::vector<CompileRequest> warmKeys() {
  std::vector<CompileRequest> Reqs;
  for (const BenchmarkDef &Def : allBenchmarks())
    Reqs.push_back({&Def, WarmSize, Archs[Reqs.size() % std::size(Archs)]});
  return Reqs;
}

std::vector<std::string> linesOf(const std::vector<CompileRequest> &Reqs) {
  std::vector<std::string> Lines;
  for (const CompileRequest &R : Reqs)
    Lines.push_back(requestLine(R));
  return Lines;
}

/// Production observability in the daemon: metric recording and JSON
/// request logs. Lines go to /dev/null: the daemon pays for formatting
/// them, and the run does not time the file system.
void observabilityOn() {
  obs::setMetricsEnabled(true);
  obs::setLogFile("/dev/null");
  obs::setLogLevel(obs::LogLevel::Info);
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// Checks one reply: ok, every `.so` present, and the expected schedule.
/// Returns "" when it matches.
std::string checkReply(const std::string &Text,
                       const std::string &WantSchedule,
                       const char *WantDedup) {
  std::string Error;
  std::unique_ptr<obs::JsonValue> Reply = obs::parseJson(Text, &Error);
  const obs::JsonValue *Ok = Reply ? Reply->find("ok") : nullptr;
  const obs::JsonValue *Sched = Reply ? Reply->find("schedule") : nullptr;
  const obs::JsonValue *So = Reply ? Reply->find("so") : nullptr;
  const obs::JsonValue *Dedup = Reply ? Reply->find("dedup") : nullptr;
  if (!Ok || !Ok->BoolValue || !Sched || !So || !So->isArray() ||
      So->Elements.empty() || !Dedup)
    return "bad reply: " + Text;
  if (Sched->StringValue != WantSchedule)
    return "schedule differs: " + Text + ", want '" + WantSchedule + "'";
  if (WantDedup && Dedup->StringValue != WantDedup)
    return strFormat("dedup '%s', want '%s'", Dedup->StringValue.c_str(),
                     WantDedup);
  for (const obs::JsonValue &Path : So->Elements)
    if (!fileExists(Path.StringValue))
      return "missing kernel " + Path.StringValue;
  return "";
}

/// The schedule the daemon must return for \p Q, from the same public
/// calls made in-process (the `benchmarks.create` and `core.optimize`
/// spans of a traced run). Adds the instance's size to \p InstanceMb.
std::string expectedSchedule(const CompileRequest &Q,
                             std::vector<double> &InstanceMb) {
  BenchmarkInstance Inst;
  {
    SpanScope Span("benchmarks.create");
    Inst = Q.Def->Create(Q.Size);
  }
  InstanceMb.push_back(instanceBytes(Inst) / 1e6);
  serve::Request Req;
  Req.ArchName = Q.Arch;
  ErrorOr<ArchParams> Arch = serve::resolveArch(Req);
  for (size_t I = 0; Arch && I != Inst.Stages.size(); ++I) {
    SpanScope Span("core.optimize");
    optimize(Inst.Stages[I], Inst.StageExtents[I], *Arch);
  }
  const Func &F = Inst.Stages.back();
  return printSchedule(F, computeStage(F));
}

/// Checks every reply of \p Phases, request I of a phase being
/// Lines[Order[I]] (Lines[I] when \p Order is empty), against \p Want,
/// the expected schedule per line. Each distinct (line, reply) pair is
/// checked once.
void checkPhases(const std::vector<const Phase *> &Phases,
                 const std::vector<std::string> &Lines,
                 const std::vector<uint32_t> &Order,
                 const std::vector<std::string> &Want, const char *WantDedup,
                 Result &R) {
  std::map<std::pair<uint32_t, uint64_t>, std::string> Checked;
  for (const Phase *P : Phases)
    for (const Sample &S : P->Samples) {
      ++R.Attempted;
      const uint32_t Line = Order.empty() ? S.Index : Order[S.Index];
      auto [It, New] = Checked.try_emplace({Line, S.ReplyKey});
      if (New)
        It->second = checkReply(P->reply(S), Want[Line], WantDedup);
      if (!S.Delivered)
        R.fail(Lines[Line] + ": no reply");
      else if (!It->second.empty())
        R.fail(Lines[Line] + ": " + It->second);
    }
}

/// Latencies of the delivered requests of \p P.
std::vector<double> deliveredMillis(const Phase &P) {
  std::vector<double> Out;
  for (const Sample &S : P.Samples)
    if (S.Delivered)
      Out.push_back(S.Millis);
  return Out;
}

//===----------------------------------------------------------------------===//
// cold
//===----------------------------------------------------------------------===//

/// One operation is one unique compile request: the median and tail of
/// their latencies, and compiles completed per second.
Figures coldFigures(const Phase &P, Tail *T = nullptr) {
  std::vector<double> Ms = deliveredMillis(P);
  Tail Tl = tailOf(Ms);
  if (T)
    *T = Tl;
  return {median(Ms), Tl.Value,
          static_cast<double>(Ms.size()) / std::max(1e-9, P.Seconds)};
}

/// Re-runs the compile path of a few cold requests one layer at a time,
/// into a fresh store, for the per-layer breakdown. Returns the emitted C
/// per stage in KiB.
double decompose(const Options &O, const std::vector<CompileRequest> &Reqs,
                 Result &R) {
  ::setenv("LTP_JIT_CACHE_DIR", (O.RunDir + "/store-decompose").c_str(), 1);
  JITCompiler Compiler;
  double SourceBytes = 0.0;
  size_t Jobs = 0;
  for (size_t I = 0; I != std::min(DecomposedRequests, Reqs.size()); ++I) {
    const CompileRequest &Q = Reqs[I];
    const int64_t Rid = static_cast<int64_t>(I);
    BenchmarkInstance Inst;
    {
      SpanScope Span("benchmarks.create", Rid);
      Inst = Q.Def->Create(Q.Size);
    }
    serve::Request Req;
    Req.ArchName = Q.Arch;
    ErrorOr<ArchParams> Arch = serve::resolveArch(Req);
    for (size_t S = 0; Arch && S != Inst.Stages.size(); ++S) {
      SpanScope Span("core.optimize", Rid);
      optimize(Inst.Stages[S], Inst.StageExtents[S], *Arch);
    }
    std::vector<ir::StmtPtr> Lowered;
    {
      SpanScope Span("lang.lower", Rid);
      Lowered = lowerPipeline(Inst);
    }
    std::vector<BufferBinding> Signature;
    for (const auto &[Name, Ref] : Inst.Buffers)
      Signature.push_back(BufferBinding::fromRef(Name, Ref));
    for (const ir::StmtPtr &S : Lowered) {
      {
        SpanScope Span("codegen.emit", Rid);
        SourceBytes += static_cast<double>(
            generateC(S, Signature, "kernel", CodeGenOptions()).size());
      }
      SpanScope Span("jit.compile", Rid);
      if (!Compiler.compile(S, Signature))
        R.fail("decomposed compile of " + Q.Def->Name + " failed");
      ++Jobs;
    }
  }
  printLayer("lang.lower_ms", spans().meanMillis("lang.lower"), "ms");
  printLayer("codegen.emit_ms", spans().meanMillis("codegen.emit"), "ms");
  printLayer("jit.compile_ms", spans().meanMillis("jit.compile"), "ms");
  return SourceBytes / 1024.0 / static_cast<double>(std::max<size_t>(1, Jobs));
}

//===----------------------------------------------------------------------===//
// warm
//===----------------------------------------------------------------------===//

/// One operation is one dedup-cached request. The median is over the whole
/// phase; the tail and the rate are medians over consecutive windows of
/// WindowRequests completions within each part (each window's tail and
/// completion rate), so a burst of host noise moves a few windows, not the
/// run's figure. \p PhaseTail and \p PhaseRps receive the whole-phase
/// tail and rate. Failed requests are left out; they count in
/// success_rate.
Figures warmFigures(const std::vector<Phase> &Parts, Tail *WindowTail,
                    Tail *PhaseTail, double *PhaseRps, size_t *Windows) {
  std::vector<double> Warm, TailMs, Rps, Window;
  double WarmSec = 0.0;
  Tail Last;
  for (const Phase &Part : Parts) {
    std::vector<double> Millis = deliveredMillis(Part);
    Warm.insert(Warm.end(), Millis.begin(), Millis.end());
    WarmSec += Part.Seconds;
    std::vector<const Sample *> Done;
    for (const Sample &S : Part.Samples)
      if (S.Delivered)
        Done.push_back(&S);
    std::sort(Done.begin(), Done.end(), [](const Sample *A, const Sample *B) {
      return A->EndSec < B->EndSec;
    });
    double WindowStart = 0.0;
    for (size_t I = 0; I + WindowRequests <= Done.size();
         I += WindowRequests) {
      Window.clear();
      for (size_t J = I; J != I + WindowRequests; ++J)
        Window.push_back(Done[J]->Millis);
      const double WindowEnd = Done[I + WindowRequests - 1]->EndSec;
      Last = tailOf(Window);
      TailMs.push_back(Last.Value);
      Rps.push_back(static_cast<double>(WindowRequests) /
                    std::max(1e-9, WindowEnd - WindowStart));
      WindowStart = WindowEnd;
    }
  }
  if (WindowTail) {
    *WindowTail = Last;
    WindowTail->Value = median(TailMs);
  }
  if (PhaseTail)
    *PhaseTail = tailOf(Warm);
  if (PhaseRps)
    *PhaseRps = static_cast<double>(Warm.size()) / std::max(1e-9, WarmSec);
  if (Windows)
    *Windows = Rps.size();
  return {median(Warm), median(TailMs), median(Rps)};
}

/// Times parse and handle of warm requests in-process, on a service that
/// has served every key once (from the run's store, so without cc), so
/// each handle is a dedup-cached hit as over the socket. Prints the
/// medians; returns the handle median in ms.
double timeParseHandle(const std::vector<std::string> &Lines,
                       const std::vector<uint32_t> &Order) {
  serve::OptimizerService Local;
  for (const std::string &Line : Lines)
    if (ErrorOr<serve::Request> Req = serve::parseRequest(Line))
      Local.handle(*Req);
  std::vector<double> Parse, Handle;
  for (size_t I = 0; I != HandleSamples; ++I) {
    const std::string &Line = Lines[Order[I]];
    ErrorOr<serve::Request> Req = serve::Request();
    Clock::time_point T0 = Clock::now();
    {
      SpanScope Span("serve.parse", static_cast<int64_t>(I));
      Req = serve::parseRequest(Line);
    }
    Parse.push_back(millisSince(T0) * 1e3);
    if (!Req)
      continue;
    T0 = Clock::now();
    {
      SpanScope Span("serve.handle", static_cast<int64_t>(I));
      Local.handle(*Req);
    }
    Handle.push_back(millisSince(T0));
  }
  printLayer("serve.parse_us", median(Parse), "us");
  printLayer("serve.handle_ms", median(Handle), "ms");
  return median(Handle);
}

} // namespace

Result perfbench::runCold(const Options &O) {
  Result R;
  observabilityOn();
  ::setenv("LTP_JIT_CACHE_DIR", (O.RunDir + "/store-cold").c_str(), 1);
  std::vector<CompileRequest> Reqs;
  std::vector<std::string> Lines;
  double SetupSec = 0.0;
  spans().setEnabled(false);
  std::unique_ptr<Daemon> D = setUpDaemon(
      "cold.sock",
      [&] {
        Rng Gen(O.Seed);
        Reqs = coldRequests(Gen);
        Lines = linesOf(Reqs);
      },
      SetupSec);
  if (!D) {
    R.fail("daemon did not start");
    return R;
  }

  // A traced run sends the first half of the requests untraced and the
  // second half traced; the store is empty for both, as no key repeats.
  std::vector<uint32_t> Order(Lines.size());
  for (uint32_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  const size_t Half = O.Trace ? Lines.size() / 2 : Lines.size();
  const std::vector<uint32_t> FirstHalf(Order.begin(), Order.begin() + Half);
  Phase Untraced = closedLoop("cold.sock", Lines, FirstHalf, 0, 1e9);
  Phase Traced;
  std::map<std::string, int64_t> Before, After;
  if (O.Trace) {
    Before = D->counters();
    spans().setEnabled(true);
    Traced = closedLoop("cold.sock", Lines, Order, Half, 1e9);
    spans().setEnabled(false);
    After = D->counters();
  }
  ++R.Attempted; // the daemon's lifetime: a crash is a failed operation
  std::string Exit = D->stop();
  if (!Exit.empty())
    R.fail(Exit);

  spans().setEnabled(O.Trace);
  std::vector<double> InstanceMb;
  std::vector<std::string> Want;
  for (const CompileRequest &Q : Reqs)
    Want.push_back(expectedSchedule(Q, InstanceMb));
  checkPhases({&Untraced, &Traced}, Lines, {}, Want, "miss", R);

  Tail T;
  const Figures F = coldFigures(Untraced, &T);
  printTail("cold", T);
  addEndToEnd(R, SetupSec, F, D->peakRssMb());
  const double Stream = streamProbeGbs();
  printHost(Stream, "");
  if (!O.Trace)
    return R;

  Layers L;
  L.InstanceMb = median(InstanceMb);
  for (const Sample &S : Traced.Samples)
    L.SerialSchedules += serialReply(Traced.reply(S));
  daemonLayers(Before, After, static_cast<double>(Traced.Samples.size()), L);
  L.SourceKb = decompose(O, Reqs, R);
  L.StreamGbs = Stream;
  addLayers(R, L, F, coldFigures(Traced));
  return R;
}

Result perfbench::runWarm(const Options &O) {
  Result R;
  observabilityOn();
  const std::string Store = O.RunDir + "/store-warm";
  ::setenv("LTP_JIT_CACHE_DIR", Store.c_str(), 1);
  spans().setEnabled(false);
  const std::vector<CompileRequest> Keys = warmKeys();
  const std::vector<std::string> Lines = linesOf(Keys);

  // ---- set-up: one daemon, every key compiled once into its store, and
  // the seeded warm stream (made after the fork, so the daemon's memory
  // does not hold it).
  std::unique_ptr<Daemon> D = Daemon::start("warm.sock");
  if (!D) {
    R.fail("daemon did not start");
    return R;
  }
  std::vector<uint32_t> Order(
      static_cast<size_t>(O.Seconds * WarmRequestsPerSec));
  Rng Gen(O.Seed);
  for (uint32_t &Index : Order)
    Index = static_cast<uint32_t>(Gen() % Lines.size());
  Phase Prime = closedLoop("warm.sock", Lines, {}, 0, 1e9);

  // A traced run measures an untraced and a traced half back to back.
  const double PhaseSec = O.Trace ? O.Seconds / 2.0 : O.Seconds;
  auto RunParts = [&](size_t &Sent) {
    std::vector<Phase> Parts;
    for (int Part = 0; Part != WarmParts; ++Part) {
      Parts.push_back(closedLoop("warm.sock", Lines, Order, Sent,
                                 PhaseSec / WarmParts, warmClients()));
      Sent += Parts.back().Samples.size();
    }
    return Parts;
  };
  size_t Sent = 0;
  const double SetupSec = sinceStart();
  std::vector<Phase> Untraced = RunParts(Sent);
  std::vector<Phase> Traced;
  std::map<std::string, int64_t> Before, After;
  if (O.Trace) {
    Before = D->counters();
    spans().setEnabled(true);
    Traced = RunParts(Sent);
    spans().setEnabled(false);
    After = D->counters();
  }
  ++R.Attempted; // the daemon's lifetime: a crash is a failed operation
  std::string Exit = D->stop();
  if (!Exit.empty())
    R.fail(Exit);

  spans().setEnabled(O.Trace);
  std::vector<double> InstanceMb;
  std::vector<std::string> Want;
  for (const CompileRequest &Q : Keys)
    Want.push_back(expectedSchedule(Q, InstanceMb));
  checkPhases({&Prime}, Lines, {}, Want, "miss", R);
  std::vector<const Phase *> Timed;
  for (const std::vector<Phase> *Parts : {&Untraced, &Traced})
    for (const Phase &Part : *Parts)
      Timed.push_back(&Part);
  checkPhases(Timed, Lines, Order, Want, "cached", R);

  Tail WindowTail, PhaseTail;
  double PhaseRps = 0.0;
  size_t Windows = 0;
  const Figures F =
      warmFigures(Untraced, &WindowTail, &PhaseTail, &PhaseRps, &Windows);
  printTail("warm (per window)", WindowTail);
  printTail("warm (whole phase)", PhaseTail);
  std::printf("warm: medians over %zu windows of %zu requests; whole-phase "
              "rate %.1f/s\n",
              Windows, WindowRequests, PhaseRps);
  addEndToEnd(R, SetupSec, F, D->peakRssMb());
  const double Stream = streamProbeGbs();
  printHost(Stream, "");
  if (!O.Trace)
    return R;

  Layers L;
  L.InstanceMb = median(InstanceMb);
  for (const Sample &S : Prime.Samples)
    L.SerialSchedules += serialReply(Prime.reply(S));
  size_t NTraced = 0;
  for (const Phase &Part : Traced)
    NTraced += Part.Samples.size();
  daemonLayers(Before, After, static_cast<double>(NTraced), L);
  L.StreamGbs = Stream;
  const Figures TF = warmFigures(Traced, nullptr, nullptr, nullptr, nullptr);
  spans().setEnabled(true);
  const double HandleMs = timeParseHandle(Lines, Order);
  spans().setEnabled(false);
  addLayers(R, L, F, TF);
  printLayer("serve.transport_ms", TF.P50Ms - HandleMs, "ms");
  return R;
}
