//===- OptimizerService.cpp - stateless optimization-as-a-service ---------===//

#include "serve/OptimizerService.h"

#include "analysis/Lint.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Classifier.h"
#include "lang/Bounds.h"
#include "lang/ScheduleText.h"
#include "obs/FlightRecorder.h"
#include "obs/JsonWriter.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "serve/Session.h"
#include "support/Format.h"

#include <chrono>

using namespace ltp;
using namespace ltp::serve;

namespace {

obs::Counter &requestsCounter() {
  static obs::Counter &C = obs::counter("serve.requests");
  return C;
}
obs::Counter &dedupHitCounter() {
  static obs::Counter &C = obs::counter("serve.dedup_hit");
  return C;
}
obs::Counter &dedupMissCounter() {
  static obs::Counter &C = obs::counter("serve.dedup_miss");
  return C;
}
obs::Counter &dedupInflightCounter() {
  static obs::Counter &C = obs::counter("serve.dedup_inflight");
  return C;
}
obs::Counter &dedupCachedCounter() {
  static obs::Counter &C = obs::counter("serve.dedup_cached");
  return C;
}
obs::Counter &errorsCounter() {
  static obs::Counter &C = obs::counter("serve.errors");
  return C;
}

double millisSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

void observeOptMillis(double Millis) {
  if (!obs::metricsEnabled())
    return;
  static obs::Histogram &H = obs::histogram("serve.opt_ms");
  H.observe(Millis);
}

void observeCompileMillis(double Millis) {
  if (!obs::metricsEnabled())
    return;
  static obs::Histogram &H = obs::histogram("serve.compile_ms");
  H.observe(Millis);
}

Response badRequest(const Request &Req, const std::string &Error) {
  Response R;
  R.Ok = false;
  R.Id = Req.Id;
  R.Kind = ErrorKind::BadRequest;
  R.Error = Error;
  errorsCounter().add();
  return R;
}

} // namespace

OptimizerService::OptimizerService(ServiceOptions Opts)
    : Opts(std::move(Opts)), Batcher(Compiler) {}

OptimizerService::~OptimizerService() = default;

size_t OptimizerService::dedupTableSize() {
  std::lock_guard<std::mutex> Lock(TableMu);
  return Table.size();
}

Response OptimizerService::handle(const Request &Req) {
  auto Start = std::chrono::steady_clock::now();
  Request RidReq = Req;
  if (RidReq.RequestId.empty())
    RidReq.RequestId = mintRequestId();
  // Everything recorded on this thread until the response is final —
  // spans, log lines, provenance decisions — joins on this ID.
  obs::RequestIdScope RidScope(RidReq.RequestId);
  obs::ScopedSpan Span("serve.request", [&] { return RidReq.Kernel; });
  requestsCounter().add();

  Response R = handleKeyed(RidReq);
  finishRequest(RidReq, R, millisSince(Start));
  return R;
}

Response OptimizerService::handleKeyed(const Request &Req) {
  if (Req.Op != "optimize" && Req.Op != "lint")
    return badRequest(Req, "op '" + Req.Op + "' is not servable here");

  // Normalize the request against daemon-wide policy before keying, so
  // the dedup table never splits on fields the policy overrides. Lint
  // requests never compile, so their keys collapse on that field too.
  Request EReq = Req;
  if (Opts.DisableCompile || EReq.Op == "lint")
    EReq.Compile = false;

  if (!findBenchmark(EReq.Kernel))
    return badRequest(Req, "unknown kernel '" + EReq.Kernel + "'");

  ErrorOr<ArchParams> Arch = resolveArch(EReq);
  if (!Arch)
    return badRequest(Req, Arch.getError());

  // Size participates in the key post-normalization: an explicit size
  // equal to the default dedups with a defaulted request.
  if (EReq.Size == 0)
    EReq.Size = findBenchmark(EReq.Kernel)->DefaultSize;

  const std::string Key = canonicalKey(EReq, *Arch);

  std::shared_ptr<Entry> E;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> Lock(TableMu);
    std::shared_ptr<Entry> &Slot = Table[Key];
    if (!Slot) {
      Slot = std::make_shared<Entry>();
      Owner = true;
    }
    E = Slot;
    if (obs::metricsEnabled()) {
      static obs::Gauge &TableGauge = obs::gauge("serve.dedup_table_size");
      TableGauge.set(static_cast<int64_t>(Table.size()));
    }
  }

  if (Owner) {
    dedupMissCounter().add();
    Response R = runSession(EReq, *Arch, Key);
    if (!R.Ok)
      errorsCounter().add();
    {
      std::lock_guard<std::mutex> Lock(E->Mu);
      E->Template = R;
      E->Done = true;
    }
    E->Ready.notify_all();
    R.Id = Req.Id;
    R.Dedup = DedupOutcome::Miss;
    return R;
  }

  // Duplicate: piggyback on the owner. Errors are published too — the
  // pipeline is deterministic, so re-running an illegal schedule for
  // every duplicate would only burn optimizer time to fail identically.
  DedupOutcome Outcome;
  Response R;
  {
    std::unique_lock<std::mutex> Lock(E->Mu);
    Outcome = E->Done ? DedupOutcome::Cached : DedupOutcome::Inflight;
    E->Ready.wait(Lock, [&] { return E->Done; });
    R = E->Template;
  }
  dedupHitCounter().add();
  (Outcome == DedupOutcome::Cached ? dedupCachedCounter()
                                   : dedupInflightCounter())
      .add();
  if (!R.Ok)
    errorsCounter().add();
  R.Id = Req.Id;
  R.Dedup = Outcome;
  // The owner's stage timings describe *its* run, not this duplicate's
  // table lookup — drop them so digests stay truthful.
  R.StageMillis.clear();
  return R;
}

void OptimizerService::finishRequest(const Request &Req, Response &R,
                                     double TotalMillis) {
  R.RequestId = Req.RequestId;

  if (obs::metricsEnabled()) {
    static obs::Histogram &RequestHist = obs::histogram("serve.request_ms");
    RequestHist.observe(TotalMillis);
  }

  obs::RequestDigest D;
  D.RequestId = Req.RequestId;
  D.Op = Req.Op;
  D.Kernel = Req.Kernel;
  D.KeyHash = R.KeyHash;
  if (!R.KeyHash.empty())
    D.Dedup = dedupOutcomeName(R.Dedup);
  D.Ok = R.Ok;
  D.Error = R.Error;
  if (!R.SoPaths.empty())
    D.SoPath = R.SoPaths.front();
  D.TotalMillis = TotalMillis;
  D.OptMillis = R.OptMillis;
  D.CompileMillis = R.CompileMillis;
  D.UnixMillis = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::system_clock::now().time_since_epoch())
                     .count();
  D.StageMillis = R.StageMillis;
  obs::flightRecorder().record(std::move(D));

  if (obs::logEnabled(obs::LogLevel::Info))
    obs::logEvent(obs::LogLevel::Info, "serve", "request",
                  {{"op", Req.Op},
                   {"kernel", Req.Kernel},
                   {"ok", R.Ok},
                   {"dedup", dedupOutcomeName(R.Dedup)},
                   {"key", R.KeyHash},
                   {"total_ms", TotalMillis}});

  double SlowMillis = obs::slowRequestThresholdMs();
  if (SlowMillis > 0 && TotalMillis >= SlowMillis &&
      obs::logEnabled(obs::LogLevel::Warn)) {
    // The request's span tree, flattened: per-stage wall times plus the
    // optimizer/compile splits — enough to see where the time went
    // without tracing having been on.
    obs::JsonWriter Stages;
    Stages.beginObject();
    for (const auto &[Stage, Millis] : R.StageMillis)
      Stages.key(Stage).fixed(Millis, 4);
    Stages.endObject();
    obs::logEvent(obs::LogLevel::Warn, "serve", "slow request",
                  {{"op", Req.Op},
                   {"kernel", Req.Kernel},
                   {"dedup", dedupOutcomeName(R.Dedup)},
                   {"total_ms", TotalMillis},
                   {"opt_ms", R.OptMillis},
                   {"compile_ms", R.CompileMillis},
                   {"threshold_ms", SlowMillis},
                   obs::LogField::raw("stages", Stages.take())});
  }
}

Response OptimizerService::runSession(const Request &Req,
                                      const ArchParams &Arch,
                                      const std::string &Key) {
  Session Sess;
  Sess.Req = Req;
  Sess.Arch = Arch;
  Sess.Resp.Kernel = Req.Kernel;
  Sess.Resp.KeyHash = keyHash(Key);

  // The footprint is checked on the shape, before anything is allocated.
  ErrorOr<BenchmarkInstance> Instance =
      materialize(findBenchmark(Req.Kernel)->shape(Req.Size));
  if (!Instance) {
    Sess.Resp.Kind = ErrorKind::BadRequest;
    Sess.Resp.Error = Instance.getError();
    return Sess.Resp;
  }
  Sess.Instance = std::move(*Instance);

  auto OptStart = std::chrono::steady_clock::now();
  if (!scheduleSession(Sess)) {
    Sess.Resp.OptMillis = millisSince(OptStart);
    observeOptMillis(Sess.Resp.OptMillis);
    return Sess.Resp;
  }

  if (Req.Op == "lint") {
    // Static diagnostics over every stage's schedule (the one just
    // replayed or the one the optimizer just chose). Findings do not
    // fail the response: an empty `diagnostics` array means clean.
    auto LintStart = std::chrono::steady_clock::now();
    const lint::LintOptions LO;
    for (size_t S = 0; S != Sess.Instance.Stages.size(); ++S) {
      Func &F = Sess.Instance.Stages[S];
      lint::LintReport Report =
          lint::lintStageSchedule(F, F.computeStageIndex(),
                                  Sess.Instance.StageExtents[S], Sess.Arch, LO);
      for (const lint::Diagnostic &D : Report.Diagnostics)
        Sess.Resp.DiagnosticsJson.push_back(
            lint::diagnosticJson(D, static_cast<int>(S)));
    }
    Sess.Resp.StageMillis.emplace_back("lint", millisSince(LintStart));
    Sess.Resp.LintRan = true;
    Sess.Resp.OptMillis = millisSince(OptStart);
    observeOptMillis(Sess.Resp.OptMillis);
    Sess.Resp.Ok = true;
    return Sess.Resp;
  }
  Sess.Resp.OptMillis = millisSince(OptStart);
  observeOptMillis(Sess.Resp.OptMillis);

  if (Req.Compile && !compileSession(Sess))
    return Sess.Resp;

  Sess.Resp.Ok = true;
  return Sess.Resp;
}

bool OptimizerService::scheduleSession(Session &Sess) {
  Response &R = Sess.Resp;
  if (!Sess.Req.Schedule.empty()) {
    // Replay the client's schedule (verified) on the compute stage of
    // the last pipeline stage, mirroring `ltp-opt --schedule`.
    auto ReplayStart = std::chrono::steady_clock::now();
    Func &F = Sess.Instance.Stages.back();
    F.clearSchedules();
    int Stage = F.computeStageIndex();
    auto Applied = applyVerifiedScheduleText(
        F, Stage, Sess.Req.Schedule, Sess.Instance.StageExtents.back());
    R.StageMillis.emplace_back("schedule.replay", millisSince(ReplayStart));
    if (!Applied) {
      R.Kind = ErrorKind::IllegalSchedule;
      R.Error = Applied.getError();
      return false;
    }
    R.Schedule = printSchedule(F, Stage);
    R.Description = "user schedule (verified)";
    return true;
  }

  OptimizerOptions Options;
  Options.EnableNonTemporal = Sess.Req.EnableNTI;
  for (size_t S = 0; S != Sess.Instance.Stages.size(); ++S) {
    auto StageStart = std::chrono::steady_clock::now();
    Sess.StageResults.push_back(optimize(Sess.Instance.Stages[S],
                                         Sess.Instance.StageExtents[S],
                                         Sess.Arch, Options));
    R.StageMillis.emplace_back(strFormat("opt.stage%zu", S),
                               millisSince(StageStart));
  }

  const OptimizationResult &Last = Sess.StageResults.back();
  R.Class = statementClassName(Last.Class.Kind);
  R.Description = Last.Description;
  R.Schedule = printSchedule(Sess.Instance.Stages.back(),
                             Sess.Instance.Stages.back().computeStageIndex());
  return true;
}

bool OptimizerService::compileSession(Session &Sess) {
  Response &R = Sess.Resp;
  if (!jitAvailable()) {
    R.Kind = ErrorKind::Internal;
    R.Error = "no host C compiler available for kernel compilation";
    return false;
  }

  auto LowerStart = std::chrono::steady_clock::now();
  Sess.Lowered = lowerPipeline(Sess.Instance);
  for (const ir::StmtPtr &S : Sess.Lowered) {
    std::string Diag = validateAccesses(S, Sess.Instance.Buffers);
    if (!Diag.empty()) {
      R.Kind = ErrorKind::Internal;
      R.Error = "schedule accesses out of bounds: " + Diag;
      return false;
    }
  }
  R.StageMillis.emplace_back("lower", millisSince(LowerStart));

  std::vector<BufferBinding> Signature;
  for (const auto &[Name, Ref] : Sess.Instance.Buffers)
    Signature.push_back(BufferBinding::fromRef(Name, Ref));

  CodeGenOptions CG;
  CG.EnableNonTemporal = Sess.Req.EnableNTI;

  std::vector<CompileJob> Jobs;
  Jobs.reserve(Sess.Lowered.size());
  for (const ir::StmtPtr &S : Sess.Lowered)
    Jobs.push_back(CompileJob{S, Signature, CG});

  auto CompileStart = std::chrono::steady_clock::now();
  BatchCompiler::BatchResult Results =
      Batcher.submit(std::move(Jobs), Sess.Req.RequestId).get();
  R.CompileMillis = millisSince(CompileStart);
  R.StageMillis.emplace_back("compile", R.CompileMillis);
  observeCompileMillis(R.CompileMillis);

  for (ErrorOr<CompiledKernel> &K : Results) {
    if (!K) {
      R.Kind = ErrorKind::Internal;
      R.Error = "kernel compilation failed: " + K.getError();
      R.SoPaths.clear();
      return false;
    }
    // The path stays valid for the daemon's lifetime: the JIT memo
    // shard retains the loaded module, so even non-disk-cache modules
    // are not unlinked while the service lives.
    R.SoPaths.push_back(K->sharedObjectPath());
  }
  return true;
}
