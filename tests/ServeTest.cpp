//===- ServeTest.cpp - optimization-service and protocol tests -------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Covers the serving stack bottom-up: wire-protocol parsing and
// canonicalization, the plan/apply split the stateless service is built
// on, request deduplication under concurrency, error caching, and a full
// client/daemon round-trip over a real Unix-domain socket.
//
//===----------------------------------------------------------------------===//

#include "arch/ArchFile.h"
#include "benchmarks/Benchmarks.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "lang/Func.h"
#include "lang/ScheduleText.h"
#include "obs/JsonCheck.h"
#include "obs/Telemetry.h"
#include "serve/OptimizerService.h"
#include "serve/Server.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ltp;
using namespace ltp::serve;

namespace {

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, ParsesFullRequestAndDefaults) {
  auto Req = parseRequest(
      "{\"op\": \"optimize\", \"kernel\": \"matmul\", \"size\": 64, "
      "\"arch\": \"6700\", \"nti\": false, "
      "\"compile\": false, \"id\": \"r1\"}");
  ASSERT_TRUE(static_cast<bool>(Req)) << Req.getError();
  EXPECT_EQ(Req->Kernel, "matmul");
  EXPECT_EQ(Req->Size, 64);
  EXPECT_EQ(Req->ArchName, "6700");
  EXPECT_FALSE(Req->EnableNTI);
  EXPECT_FALSE(Req->Compile);
  EXPECT_EQ(Req->Id, "r1");

  auto Minimal = parseRequest("{\"kernel\": \"copy\"}");
  ASSERT_TRUE(static_cast<bool>(Minimal));
  EXPECT_EQ(Minimal->Op, "optimize"); // default op
  EXPECT_EQ(Minimal->Size, 0);
  EXPECT_TRUE(Minimal->EnableNTI);
  EXPECT_TRUE(Minimal->Compile);
}

TEST(ServeProtocol, RejectsBadInput) {
  EXPECT_FALSE(static_cast<bool>(parseRequest("not json")));
  EXPECT_FALSE(static_cast<bool>(parseRequest("[1, 2]")));
  // Unknown fields are most likely typos; reject instead of ignoring.
  EXPECT_FALSE(static_cast<bool>(
      parseRequest("{\"kernel\": \"copy\", \"siez\": 64}")));
  // Fractional sizes are client bugs, not values to round.
  EXPECT_FALSE(static_cast<bool>(
      parseRequest("{\"kernel\": \"copy\", \"size\": 3.5}")));
  EXPECT_FALSE(
      static_cast<bool>(parseRequest("{\"op\": \"optimize\"}"))); // no kernel
  EXPECT_FALSE(
      static_cast<bool>(parseRequest("{\"op\": \"lint\"}"))); // no kernel
  EXPECT_FALSE(static_cast<bool>(parseRequest("{\"op\": \"frobnicate\"}")));
}

TEST(ServeProtocol, CanonicalKeyUnifiesEquivalentPlatforms) {
  Request Named;
  Named.Kernel = "matmul";
  Named.Size = 64;
  Named.ArchName = "6700";
  auto NamedArch = resolveArch(Named);
  ASSERT_TRUE(static_cast<bool>(NamedArch));

  // The same platform supplied inline as arch_text must land on the same
  // dedup key: the key renders the *resolved* parameters, not the spelling.
  Request Inline = Named;
  Inline.ArchName.clear();
  Inline.ArchText = archParamsToText(*NamedArch);
  auto InlineArch = resolveArch(Inline);
  ASSERT_TRUE(static_cast<bool>(InlineArch));
  EXPECT_EQ(canonicalKey(Named, *NamedArch), canonicalKey(Inline, *InlineArch));

  // Any semantically significant field splits the key.
  Request Other = Named;
  Other.Size = 128;
  EXPECT_NE(canonicalKey(Named, *NamedArch), canonicalKey(Other, *NamedArch));
  Other = Named;
  Other.EnableNTI = false;
  EXPECT_NE(canonicalKey(Named, *NamedArch), canonicalKey(Other, *NamedArch));
  auto A15 = resolveArch([] {
    Request R;
    R.ArchName = "a15";
    return R;
  }());
  ASSERT_TRUE(static_cast<bool>(A15));
  EXPECT_NE(canonicalKey(Named, *NamedArch), canonicalKey(Named, *A15));

  // A lint request must never collide with an otherwise identical
  // optimize request — the op participates in the key.
  Request Lint = Named;
  Lint.Op = "lint";
  EXPECT_NE(canonicalKey(Named, *NamedArch), canonicalKey(Lint, *NamedArch));
}

//===----------------------------------------------------------------------===//
// Plan/apply split (the refactor the stateless service rides on)
//===----------------------------------------------------------------------===//

// planStage followed by applyPlan must produce exactly the schedule that
// the monolithic optimize() produces — the serving path and the CLI path
// may never drift apart.
TEST(ServePlanApply, MatchesMonolithicOptimize) {
  const ArchParams Arch = intelI7_6700();
  for (const char *Name : {"matmul", "tp", "copy", "doitgen"}) {
    const BenchmarkDef *Def = findBenchmark(Name);
    ASSERT_NE(Def, nullptr) << Name;
    const int64_t Size = 48;
    BenchmarkInstance ViaOptimize = Def->Create(Size);
    BenchmarkInstance ViaPlan = Def->Create(Size);

    for (size_t S = 0; S != ViaOptimize.Stages.size(); ++S) {
      OptimizationResult R = optimize(ViaOptimize.Stages[S],
                                      ViaOptimize.StageExtents[S], Arch);
      StagePlan Plan = planStage(ViaPlan.Stages[S],
                                 ViaPlan.StageExtents[S], Arch);
      applyPlan(ViaPlan.Stages[S], Plan);
      EXPECT_EQ(Plan.Description, R.Description) << Name << " stage " << S;

      const Func &A = ViaOptimize.Stages[S];
      const Func &B = ViaPlan.Stages[S];
      for (int U = -1; U != A.numUpdates(); ++U)
        EXPECT_EQ(printSchedule(A, U), printSchedule(B, U))
            << Name << " stage " << S << " update " << U;
    }
  }
}

//===----------------------------------------------------------------------===//
// Kernel construction on concurrent request threads
//===----------------------------------------------------------------------===//

// The daemon builds each request's kernel on that request's thread. A
// reduction domain built on another thread, with the same variable name
// and still alive, must not capture this thread's update definition.
TEST(ServeKernelBuild, RDomNamesResolvePerThread) {
  Var J("j");
  InputBuffer In("In", ir::Type::float32(), 2);
  RDom Mine(0, 10, "k");

  std::unique_ptr<RDom> Theirs;
  std::thread Other([&] { Theirs = std::make_unique<RDom>(0, 20, "k"); });
  Other.join();
  ASSERT_NE(Theirs, nullptr);

  Func Sum("Sum");
  Sum(J) = 0.0f;
  Sum(J) += In(J, Mine);
  ASSERT_EQ(Sum.numUpdates(), 1);
  const Definition &Update = Sum.updateDefinition(0);
  ASSERT_EQ(Update.RVars.size(), 1u);
  EXPECT_EQ(ir::asConstInt(Update.RVars[0].Extent.node()),
            std::optional<int64_t>(10));
}

// Reduction variables bind by value: a later RDom of the same name on
// the same thread does not capture an update that references an earlier
// one.
TEST(ServeKernelBuild, RDomNamesResolveByValueOnOneThread) {
  Var J("j");
  InputBuffer In("In", ir::Type::float32(), 2);
  RDom Mine(0, 10, "k");
  RDom Other(0, 20, "k");

  Func Sum("Sum");
  Sum(J) = 0.0f;
  Sum(J) += In(J, Mine);
  ASSERT_EQ(Sum.numUpdates(), 1);
  const Definition &Update = Sum.updateDefinition(0);
  ASSERT_EQ(Update.RVars.size(), 1u);
  EXPECT_EQ(ir::asConstInt(Update.RVars[0].Extent.node()),
            std::optional<int64_t>(10));
}

//===----------------------------------------------------------------------===//
// OptimizerService
//===----------------------------------------------------------------------===//

Request optimizeRequest(const std::string &Kernel, int64_t Size,
                        bool Compile = false) {
  Request Req;
  Req.Kernel = Kernel;
  Req.Size = Size;
  Req.ArchName = "6700";
  Req.Compile = Compile;
  return Req;
}

TEST(ServeService, RejectsUnknownKernelAndBadArch) {
  OptimizerService Service;
  Request Req = optimizeRequest("frobnicate", 32);
  Response R = Service.handle(Req);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Kind, ErrorKind::BadRequest);

  Req = optimizeRequest("copy", 32);
  Req.ArchName = "bogus";
  R = Service.handle(Req);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Kind, ErrorKind::BadRequest);
  // Bad requests never enter the dedup table.
  EXPECT_EQ(Service.dedupTableSize(), 0u);
}

TEST(ServeService, DeduplicatesConcurrentIdenticalRequests) {
  OptimizerService Service;
  const int64_t HitsBefore = obs::counter("serve.dedup_hit").value();
  const int64_t MissBefore = obs::counter("serve.dedup_miss").value();

  const Request Req = optimizeRequest("copy", 64);
  constexpr int NumThreads = 8;
  std::vector<Response> Responses(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back(
        [&, T] { Responses[T] = Service.handle(Req); });
  for (std::thread &T : Threads)
    T.join();

  int Misses = 0;
  for (const Response &R : Responses) {
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.KeyHash, Responses[0].KeyHash);
    EXPECT_EQ(R.Schedule, Responses[0].Schedule);
    if (R.Dedup == DedupOutcome::Miss)
      ++Misses;
  }
  EXPECT_EQ(Misses, 1); // exactly one thread ran the optimization
  EXPECT_EQ(Service.dedupTableSize(), 1u);
  EXPECT_EQ(obs::counter("serve.dedup_miss").value() - MissBefore, 1);
  EXPECT_EQ(obs::counter("serve.dedup_hit").value() - HitsBefore,
            NumThreads - 1);

  // A later identical request is a warm cache hit.
  Response Warm = Service.handle(Req);
  EXPECT_TRUE(Warm.Ok);
  EXPECT_EQ(Warm.Dedup, DedupOutcome::Cached);
}

TEST(ServeService, DefaultSizeDedupsWithExplicitDefault) {
  OptimizerService Service;
  const BenchmarkDef *Def = findBenchmark("copy");
  ASSERT_NE(Def, nullptr);
  Response A = Service.handle(optimizeRequest("copy", 0));
  Response B = Service.handle(optimizeRequest("copy", Def->DefaultSize));
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  EXPECT_EQ(A.KeyHash, B.KeyHash);
  EXPECT_EQ(B.Dedup, DedupOutcome::Cached);
}

TEST(ServeService, IllegalScheduleIsClassifiedAndCached) {
  OptimizerService Service;
  Request Req = optimizeRequest("matmul", 48);
  Req.Schedule = "parallel(k)"; // races on the accumulator
  Response R = Service.handle(Req);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Kind, ErrorKind::IllegalSchedule);
  EXPECT_NE(R.Error.find("parallel"), std::string::npos);

  // Deterministic failures are cached like successes: the duplicate gets
  // the verdict without re-running the verifier.
  Response Again = Service.handle(Req);
  EXPECT_FALSE(Again.Ok);
  EXPECT_EQ(Again.Kind, ErrorKind::IllegalSchedule);
  EXPECT_EQ(Again.Dedup, DedupOutcome::Cached);

  Req.Schedule = "split(i"; // malformed, same classification
  R = Service.handle(Req);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Kind, ErrorKind::IllegalSchedule);
}

TEST(ServeService, LintOpReturnsDiagnostics) {
  OptimizerService Service;

  // A schedule that keeps the column-major loop innermost: the lint pass
  // must surface strided-innermost with its fix-it through the wire
  // types (rendered JSON objects on the response).
  Request Req = optimizeRequest("matmul", 48);
  Req.Op = "lint";
  Req.Schedule = "reorder(i, j, k);";
  Response R = Service.handle(Req);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.LintRan);
  ASSERT_FALSE(R.DiagnosticsJson.empty());
  EXPECT_NE(R.DiagnosticsJson[0].find("\"rule\": \"strided-innermost\""),
            std::string::npos);
  EXPECT_NE(R.DiagnosticsJson[0].find("\"fixit\""), std::string::npos);
  // Lint requests never compile, even when the client forgot to say so.
  EXPECT_TRUE(R.SoPaths.empty());
  std::string Rendered = renderResponse(R);
  EXPECT_NE(Rendered.find("\"diagnostics\": [{"), std::string::npos);

  // The optimizer's own chosen schedule lints clean — and the lint
  // request does not dedup-collide with an optimize for the same kernel.
  Request Clean = optimizeRequest("matmul", 48);
  Clean.Op = "lint";
  Response CleanR = Service.handle(Clean);
  ASSERT_TRUE(CleanR.Ok) << CleanR.Error;
  EXPECT_TRUE(CleanR.LintRan);
  EXPECT_TRUE(CleanR.DiagnosticsJson.empty());
  EXPECT_NE(renderResponse(CleanR).find("\"diagnostics\": []"),
            std::string::npos);

  Response Opt = Service.handle(optimizeRequest("matmul", 48));
  ASSERT_TRUE(Opt.Ok) << Opt.Error;
  EXPECT_FALSE(Opt.LintRan);
  EXPECT_NE(Opt.KeyHash, CleanR.KeyHash);
  EXPECT_EQ(Opt.Dedup, DedupOutcome::Miss); // not satisfied by the lint entry

  // Identical lint requests do dedup with each other.
  Response Again = Service.handle(Clean);
  EXPECT_EQ(Again.Dedup, DedupOutcome::Cached);
  EXPECT_TRUE(Again.LintRan);
}

TEST(ServeService, ArchTextSizesSplitTheDedupKeyByTheByte) {
  // 32768 and 33791 bytes are both "32K" in whole KiB, yet the optimizer
  // tiles them differently: a daemon that served the first must not
  // answer the second from its dedup table.
  OptimizerService Service;
  Request First = optimizeRequest("matmul", 256);
  First.ArchName.clear();
  First.ArchText = "l1.size = 32768\n";
  Response A = Service.handle(First);
  ASSERT_TRUE(A.Ok) << A.Error;

  Request Second = First;
  Second.ArchText = "l1.size = 33791\n";
  Response B = Service.handle(Second);
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_EQ(B.Dedup, DedupOutcome::Miss);
  EXPECT_NE(B.KeyHash, A.KeyHash);

  // The schedule ltp-opt --arch-file picks for the 33791-byte platform.
  auto Arch = parseArchParams(Second.ArchText);
  ASSERT_TRUE(static_cast<bool>(Arch)) << Arch.getError();
  BenchmarkInstance Instance = findBenchmark("matmul")->Create(256);
  Func &F = Instance.Stages.back();
  optimize(F, Instance.StageExtents.back(), *Arch);
  std::string Expected =
      printSchedule(F, F.computeStageIndex());
  EXPECT_EQ(B.Schedule, Expected);
  EXPECT_NE(B.Schedule, A.Schedule);
}

TEST(ServeService, CompileReturnsSharedStorePaths) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  OptimizerService Service;
  Request Req = optimizeRequest("copy", 64, /*Compile=*/true);
  Response A = Service.handle(Req);
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_FALSE(A.SoPaths.empty());
  for (const std::string &Path : A.SoPaths)
    EXPECT_EQ(::access(Path.c_str(), R_OK), 0) << Path;

  // The duplicate points at the *same* artifacts — one compile total.
  Response B = Service.handle(Req);
  ASSERT_TRUE(B.Ok);
  EXPECT_EQ(B.Dedup, DedupOutcome::Cached);
  EXPECT_EQ(B.SoPaths, A.SoPaths);
}

// Transposes too small for any spatial tile answer with the plain
// parallel+vectorize plan instead of aborting the daemon.
TEST(ServeService, TinyTransposesAnswer) {
  OptimizerService Service;
  for (const char *Kernel : {"tp", "tpm"}) {
    Request Req = optimizeRequest(Kernel, 8);
    Response R = Service.handle(Req);
    EXPECT_TRUE(R.Ok) << Kernel << ": " << R.Error;
    Req.Op = "lint";
    R = Service.handle(Req);
    EXPECT_TRUE(R.Ok) << Kernel << ": " << R.Error;
  }
}

// A row longer than the backend's vector-loop limit (4096): the optimizer
// vectorizes it in limit-sized chunks, so the compile succeeds and the
// service keeps serving.
TEST(ServeService, CompileBeyondVectorLimitSucceeds) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  OptimizerService Service;
  Response R = Service.handle(optimizeRequest("copy", 4097, /*Compile=*/true));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.SoPaths.empty());
  EXPECT_NE(R.Schedule.find("split(x, x_t, x_i, 4096)"), std::string::npos)
      << R.Schedule;
  Response Next = Service.handle(optimizeRequest("copy", 64));
  EXPECT_TRUE(Next.Ok) << Next.Error;
}

// A user schedule vectorizing the whole 4097-wide row is classified
// illegal instead of reaching lowering's IR check.
TEST(ServeService, VectorizeBeyondVectorLimitIsIllegal) {
  OptimizerService Service;
  Request Req = optimizeRequest("copy", 4097);
  Req.Schedule = "vectorize(x);";
  Response R = Service.handle(Req);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Kind, ErrorKind::IllegalSchedule);
  EXPECT_NE(R.Error.find("exceeds the backend limit 4096"), std::string::npos)
      << R.Error;
}

//===----------------------------------------------------------------------===//
// JIT memo hit/miss telemetry (the sharded map's observable contract)
//===----------------------------------------------------------------------===//

TEST(ServeService, JitMemoCounterSplit) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  // Compile the same pipeline twice through one compiler: the first pass
  // misses the in-process memo, the repeat hits it — and the split is
  // visible in the jit.memo.{hit,miss} counters the stats op exports.
  JITCompiler Compiler;
  Compiler.setDiskCacheEnabled(false); // pin expectations to the memo
  BenchmarkInstance Instance = findBenchmark("copy")->Create(80);

  const int64_t HitBefore = obs::counter("jit.memo.hit").value();
  const int64_t MissBefore = obs::counter("jit.memo.miss").value();
  auto Cold = compilePipeline(Instance, Compiler);
  ASSERT_TRUE(static_cast<bool>(Cold)) << Cold.getError();
  const int64_t ColdMisses =
      obs::counter("jit.memo.miss").value() - MissBefore;
  EXPECT_EQ(ColdMisses,
            static_cast<int64_t>(Cold->Kernels.size()));
  EXPECT_EQ(obs::counter("jit.memo.hit").value(), HitBefore);

  auto Warm = compilePipeline(Instance, Compiler);
  ASSERT_TRUE(static_cast<bool>(Warm));
  EXPECT_EQ(obs::counter("jit.memo.hit").value() - HitBefore, ColdMisses);
  EXPECT_EQ(obs::counter("jit.memo.miss").value() - MissBefore, ColdMisses);
  EXPECT_EQ(Compiler.cacheHitCount(), static_cast<int>(ColdMisses));
}

//===----------------------------------------------------------------------===//
// Server round-trip over a real socket
//===----------------------------------------------------------------------===//

class ClientConn {
public:
  explicit ClientConn(const std::string &Path) {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd >= 0 &&
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~ClientConn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool ok() const { return Fd >= 0; }

  std::string roundTrip(const std::string &Request) {
    std::string Out = Request + "\n";
    size_t Off = 0;
    while (Off < Out.size()) {
      ssize_t N = ::write(Fd, Out.data() + Off, Out.size() - Off);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return "";
      }
      Off += static_cast<size_t>(N);
    }
    size_t Pos;
    while ((Pos = Buffer.find('\n')) == std::string::npos) {
      char Chunk[4096];
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return "";
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    std::string Line = Buffer.substr(0, Pos);
    Buffer.erase(0, Pos + 1);
    return Line;
  }

private:
  int Fd = -1;
  std::string Buffer;
};

TEST(ServeServer, SocketRoundTrip) {
  std::string Path = "/tmp/ltp-serve-test-" +
                     std::to_string(static_cast<long>(::getpid())) + ".sock";
  Server Srv(Path);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  std::thread Waiter([&] { Srv.wait(); });

  {
    ClientConn Conn(Path);
    ASSERT_TRUE(Conn.ok());
    EXPECT_NE(Conn.roundTrip("{\"op\": \"ping\"}").find("\"pong\": true"),
              std::string::npos);

    std::string R = Conn.roundTrip(
        "{\"op\": \"optimize\", \"kernel\": \"copy\", \"size\": 64, "
        "\"arch\": \"6700\", \"compile\": false, \"id\": \"t1\"}");
    EXPECT_NE(R.find("\"ok\": true"), std::string::npos) << R;
    EXPECT_NE(R.find("\"id\": \"t1\""), std::string::npos) << R;
    EXPECT_NE(R.find("\"dedup\": \"miss\""), std::string::npos) << R;

    // Same request on a *different* connection: served from the table.
    ClientConn Conn2(Path);
    ASSERT_TRUE(Conn2.ok());
    std::string R2 = Conn2.roundTrip(
        "{\"op\": \"optimize\", \"kernel\": \"copy\", \"size\": 64, "
        "\"arch\": \"6700\", \"compile\": false}");
    EXPECT_NE(R2.find("\"dedup\": \"cached\""), std::string::npos) << R2;

    std::string Stats = Conn.roundTrip("{\"op\": \"stats\"}");
    EXPECT_NE(Stats.find("\"serve.requests\""), std::string::npos) << Stats;
    EXPECT_NE(Stats.find("\"serve.dedup_hit\""), std::string::npos) << Stats;

    // Malformed line: an error response, connection stays usable.
    EXPECT_NE(Conn.roundTrip("garbage").find("\"kind\": \"bad_request\""),
              std::string::npos);
    EXPECT_NE(Conn.roundTrip("{\"op\": \"ping\"}").find("\"pong\""),
              std::string::npos);

    EXPECT_NE(Conn.roundTrip("{\"op\": \"shutdown\"}").find("\"stopping\""),
              std::string::npos);
  }
  Waiter.join();
  EXPECT_NE(::access(Path.c_str(), F_OK), 0); // socket unlinked
}

// Concurrent persistent connections against one daemon: 8 clients each
// send 40 requests over 4 unique keys on one connection. Every key is
// optimized exactly once; every other request is a dedup hit carrying
// the same schedule.
TEST(ServeServer, PersistentConnectionsShareTheDedupTable) {
  std::string Path = "/tmp/ltp-serve-persist-" +
                     std::to_string(static_cast<long>(::getpid())) + ".sock";
  Server Srv(Path);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  std::thread Waiter([&] { Srv.wait(); });

  const char *Kernels[] = {"copy", "mask", "tp", "tpm"};
  constexpr int Clients = 8;
  constexpr int PerClient = 40;
  const int64_t HitsBefore = obs::counter("serve.dedup_hit").value();
  const int64_t MissBefore = obs::counter("serve.dedup_miss").value();

  // Replies[C][N] answers client C's N-th request, for key (C + N) % 4.
  std::vector<std::vector<std::string>> Replies(Clients);
  std::vector<std::thread> Threads;
  for (int C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      ClientConn Conn(Path);
      if (!Conn.ok())
        return;
      for (int N = 0; N != PerClient; ++N)
        Replies[C].push_back(Conn.roundTrip(
            std::string("{\"kernel\": \"") + Kernels[(C + N) % 4] +
            "\", \"size\": 64, \"arch\": \"6700\", "
            "\"compile\": false}"));
    });
  for (std::thread &T : Threads)
    T.join();
  {
    ClientConn Conn(Path);
    EXPECT_NE(Conn.roundTrip("{\"op\": \"shutdown\"}").find("\"stopping\""),
              std::string::npos);
  }
  Waiter.join();

  std::string Schedules[4];
  for (int C = 0; C != Clients; ++C) {
    ASSERT_EQ(Replies[C].size(), static_cast<size_t>(PerClient)) << C;
    for (int N = 0; N != PerClient; ++N) {
      std::string ParseError;
      auto Reply = obs::parseJson(Replies[C][N], &ParseError);
      ASSERT_TRUE(Reply) << ParseError << ": " << Replies[C][N];
      const obs::JsonValue *Ok = Reply->find("ok");
      const obs::JsonValue *Schedule = Reply->find("schedule");
      ASSERT_TRUE(Ok && Ok->BoolValue) << Replies[C][N];
      ASSERT_TRUE(Schedule && Schedule->isString()) << Replies[C][N];
      std::string &Expected = Schedules[(C + N) % 4];
      if (Expected.empty())
        Expected = Schedule->StringValue;
      EXPECT_EQ(Schedule->StringValue, Expected) << Replies[C][N];
    }
  }
  EXPECT_EQ(obs::counter("serve.dedup_miss").value() - MissBefore, 4);
  EXPECT_EQ(obs::counter("serve.dedup_hit").value() - HitsBefore,
            Clients * PerClient - 4);
}

// Requests the daemon cannot serve get a classified bad_request and the
// connection keeps answering: a retired field (score_mode: there is one
// scoring path) and platform text whose caches cannot be divided into
// sets of whole lines.
TEST(ServeServer, BadFieldsAndArchTextAreBadRequests) {
  std::string Path = "/tmp/ltp-serve-badreq-" +
                     std::to_string(static_cast<long>(::getpid())) + ".sock";
  Server Srv(Path);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  std::thread Waiter([&] { Srv.wait(); });

  {
    ClientConn Conn(Path);
    ASSERT_TRUE(Conn.ok());
    const char *BadRequests[] = {
        "{\"kernel\": \"matmul\", \"size\": 32, \"arch\": \"6700\", "
        "\"score_mode\": \"sim\", \"compile\": false}",
        "{\"kernel\": \"matmul\", \"size\": 32, "
        "\"arch_text\": \"l1.size = 1\\n\", \"compile\": false}",
        "{\"kernel\": \"matmul\", \"size\": 32, "
        "\"arch_text\": \"l1.line = 2\\n\", \"compile\": false}",
        // Buffers larger than any host's memory, and a size the
        // kernels' int reduction extents cannot hold.
        "{\"kernel\": \"matmul\", \"size\": 3000000, \"arch\": \"6700\", "
        "\"compile\": false}",
        "{\"kernel\": \"matmul\", \"size\": 2147483648, "
        "\"arch\": \"6700\", \"compile\": false}",
    };
    for (const char *Line : BadRequests) {
      std::string R = Conn.roundTrip(Line);
      EXPECT_NE(R.find("\"ok\": false"), std::string::npos) << Line;
      EXPECT_NE(R.find("\"kind\": \"bad_request\""), std::string::npos)
          << Line << " -> " << R;
    }
    std::string Good = Conn.roundTrip(
        "{\"kernel\": \"matmul\", \"size\": 32, \"arch\": \"6700\", "
        "\"compile\": false}");
    EXPECT_NE(Good.find("\"ok\": true"), std::string::npos) << Good;
    EXPECT_NE(Conn.roundTrip("{\"op\": \"shutdown\"}").find("\"stopping\""),
              std::string::npos);
  }
  Waiter.join();
}

} // namespace
