//===- Common.cpp - shared plumbing of the end-to-end benchmark -----------===//

#include "Bench.h"

#include "arch/ArchParams.h"
#include "codegen/TargetISA.h"
#include "obs/JsonCheck.h"
#include "obs/Log.h"
#include "obs/Telemetry.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <pthread.h>
#include <sched.h>
#include <csignal>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {
const Clock::time_point ProcessStart = Clock::now();

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              ProcessStart)
      .count();
}
} // namespace

void Result::fail(const std::string &Why) {
  ++Failed;
  std::fprintf(stderr, "check failed: %s\n", Why.c_str());
}

double perfbench::sinceStart() { return nowNs() / 1e9; }

double perfbench::millisSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

Tail perfbench::tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  for (size_t PerMille : {500, 750, 900, 950, 990, 999}) {
    // Nearest rank: the smallest sample with at least P% at or below it.
    const size_t Rank = std::max<size_t>(1, (PerMille * N + 999) / 1000);
    if (N - Rank < 10)
      break;
    T.Percentile = static_cast<double>(PerMille) / 10.0;
    T.Value = V[Rank - 1];
  }
  if (T.Percentile == 0.0) { // fewer than 20 samples: report the median
    T.Percentile = 50.0;
    T.Value = median(V);
  }
  return T;
}

void perfbench::printTail(const char *Label, const Tail &T) {
  std::printf("tail: %s p%g of %zu samples = %.4f ms\n", Label, T.Percentile,
              T.Samples, T.Value);
}

double perfbench::peakRssMb(int Pid) {
  std::ifstream In(Pid > 0 ? ltp::strFormat("/proc/%d/status", Pid)
                           : std::string("/proc/self/status"));
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

//===----------------------------------------------------------------------===//
// Span recorder
//===----------------------------------------------------------------------===//

SpanRecorder &perfbench::spans() {
  static SpanRecorder Recorder;
  return Recorder;
}

SpanRecorder::Buffer &SpanRecorder::local() {
  thread_local Buffer *Mine = nullptr;
  if (!Mine) {
    std::lock_guard<std::mutex> Lock(Mu);
    Buffers.push_back(std::make_unique<Buffer>());
    Mine = Buffers.back().get();
    Mine->Thread = static_cast<int>(Buffers.size()) - 1;
  }
  return *Mine;
}

int SpanRecorder::begin(const std::string &Name, int64_t RequestId) {
  Buffer &B = local();
  Span S;
  S.Name = Name;
  S.RequestId = RequestId;
  S.Parent = B.Open.empty() ? -1 : B.Open.back();
  if (S.RequestId < 0 && S.Parent >= 0)
    S.RequestId = B.Spans[static_cast<size_t>(S.Parent)].RequestId;
  S.StartNs = nowNs();
  B.Spans.push_back(std::move(S));
  int Index = static_cast<int>(B.Spans.size()) - 1;
  B.Open.push_back(Index);
  return Index;
}

void SpanRecorder::end(int Index) {
  Buffer &B = local();
  B.Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  B.Open.pop_back();
}

std::vector<SpanRecorder::Span> SpanRecorder::take() {
  std::vector<Span> Out;
  Out.swap(local().Spans);
  return Out;
}

void SpanRecorder::adopt(std::vector<Span> Spans) {
  std::lock_guard<std::mutex> Lock(Mu);
  Buffers.push_back(std::make_unique<Buffer>());
  Buffers.back()->Thread = static_cast<int>(Buffers.size()) - 1;
  Buffers.back()->Spans = std::move(Spans);
}

template <typename Fn> void SpanRecorder::forEach(Fn &&F) const {
  std::lock_guard<std::mutex> Lock(Mu);
  for (const std::unique_ptr<Buffer> &B : Buffers)
    for (size_t I = 0; I != B->Spans.size(); ++I)
      F(*B, I);
}

double SpanRecorder::totalMillis(const std::string &Name) const {
  double Sum = 0.0;
  forEach([&](const Buffer &B, size_t I) {
    const Span &S = B.Spans[I];
    if (S.Name == Name)
      Sum += (S.EndNs - S.StartNs) / 1e6;
  });
  return Sum;
}

size_t SpanRecorder::count(const std::string &Name) const {
  size_t N = 0;
  forEach([&](const Buffer &B, size_t I) { N += B.Spans[I].Name == Name; });
  return N;
}

double SpanRecorder::meanMillis(const std::string &Name) const {
  size_t N = count(Name);
  return N ? totalMillis(Name) / static_cast<double>(N) : -1.0;
}

std::map<int64_t, double>
SpanRecorder::byRequest(const std::string &Name) const {
  std::map<int64_t, double> Out;
  forEach([&](const Buffer &B, size_t I) {
    const Span &S = B.Spans[I];
    if (S.Name == Name)
      Out[S.RequestId] += (S.EndNs - S.StartNs) / 1e6;
  });
  return Out;
}

std::map<std::string, double> SpanRecorder::selfMillisByLayer() const {
  std::map<std::string, double> Self;
  forEach([&](const Buffer &B, size_t I) {
    const Span &S = B.Spans[I];
    const double Ms = (S.EndNs - S.StartNs) / 1e6;
    Self[S.Name.substr(0, S.Name.find('.'))] += Ms;
    if (S.Parent >= 0) {
      const std::string &Parent = B.Spans[static_cast<size_t>(S.Parent)].Name;
      Self[Parent.substr(0, Parent.find('.'))] -= Ms;
    }
  });
  return Self;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fprintf(Out, "{\"traceEvents\":[");
  bool First = true;
  forEach([&](const Buffer &B, size_t I) {
    const Span &S = B.Spans[I];
    std::fprintf(Out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"request\":%lld}}",
                 First ? "" : ",", S.Name.c_str(), S.StartNs / 1e3,
                 (S.EndNs - S.StartNs) / 1e3, B.Thread, I, S.Parent,
                 static_cast<long long>(S.RequestId));
    First = false;
  });
  std::fprintf(Out, "\n]}\n");
  return std::fclose(Out) == 0;
}

void perfbench::addEndToEnd(Result &R, double SetupSec, const Figures &F,
                            double PeakMb) {
  R.addE2E("setup_s", SetupSec, "s");
  R.addE2E("p50_ms", F.P50Ms, "ms");
  R.addE2E("tail_ms", F.TailMs, "ms");
  R.addE2E("ops_per_s", F.OpsPerSec, "1/s");
  R.addE2E("peak_rss_mb", PeakMb, "MB");
}

std::map<std::string, int64_t> perfbench::processCounters() {
  std::map<std::string, int64_t> Out;
  for (const auto &[Name, Value] : ltp::obs::counterSnapshot())
    Out[Name] = Value;
  return Out;
}

namespace {
double counterDelta(const std::map<std::string, int64_t> &Before,
                    const std::map<std::string, int64_t> &After,
                    const char *Name) {
  auto A = After.find(Name), B = Before.find(Name);
  return static_cast<double>((A == After.end() ? 0 : A->second) -
                             (B == Before.end() ? 0 : B->second));
}
} // namespace

void perfbench::addScoring(Layers &L,
                           const std::map<std::string, int64_t> &Before,
                           const std::map<std::string, int64_t> &After,
                           double Kernels) {
  auto Delta = [&](const char *Name) {
    return counterDelta(Before, After, Name);
  };
  L.Candidates = Kernels > 0 ? Delta("opt.candidates") / Kernels : 0.0;
  // Scoring events that left the closed forms (candidates scored by
  // simulation, tile bounds emulated or fallen back), over all of them.
  const double Fallback = Delta("opt.candidates.sim") +
                          Delta("model.bound.emulated") +
                          Delta("model.bound.fallback");
  L.SimFallbackBase = Delta("opt.candidates") + Delta("model.bound.analytic") +
                      Delta("model.bound.emulated") +
                      Delta("model.bound.fallback");
  L.SimFallbackRate = L.SimFallbackBase > 0 ? Fallback / L.SimFallbackBase
                                            : 0.0;
}

void perfbench::daemonLayers(const std::map<std::string, int64_t> &Before,
                             const std::map<std::string, int64_t> &After,
                             double Requests, Layers &L) {
  auto Delta = [&](const char *Name) {
    return counterDelta(Before, After, Name);
  };
  addScoring(L, Before, After, Requests);
  L.CcInvocations = Delta("jit.cc_invocations");
  L.MemoHits = Delta("jit.memo.hit");
  L.DiskHits = Delta("jit.disk_hits");
  const double Flushes = Delta("serve.batch.flushes");
  L.JobsPerFlush = Flushes > 0 ? Delta("serve.batch.jobs") / Flushes : 0.0;
  const double Hits = Delta("serve.dedup_hit");
  L.DedupHitRate = Hits / std::max(1.0, Hits + Delta("serve.dedup_miss"));
}

bool perfbench::serialReply(const std::string &Reply) {
  std::unique_ptr<ltp::obs::JsonValue> Json =
      ltp::obs::parseJson(Reply, nullptr);
  const ltp::obs::JsonValue *Sched = Json ? Json->find("schedule") : nullptr;
  return Sched && Sched->StringValue.find("parallel(") == std::string::npos;
}

void perfbench::printLayer(const std::string &Name, double Value,
                           const char *Unit) {
  std::printf("layer: %s %.6g %s\n", Name.c_str(), Value, Unit);
}

void perfbench::addLayers(Result &R, const Layers &L, const Figures &Untraced,
                          const Figures &Traced) {
  const SpanRecorder &Sp = spans();
  R.addLayer("benchmarks.create_ms", Sp.meanMillis("benchmarks.create"), "ms");
  R.addLayer("benchmarks.instance_mb", L.InstanceMb, "MB");
  R.addLayer("core.optimize_ms", Sp.meanMillis("core.optimize"), "ms");
  R.addLayer("core.candidates", L.Candidates, "count");
  R.addLayer("core.serial_schedules", L.SerialSchedules, "count");
  R.addLayer("model.sim_fallback_rate", L.SimFallbackRate, "ratio");
  R.addLayer("model.sim_fallback_base", L.SimFallbackBase, "count");
  R.addLayer("codegen.source_kb", L.SourceKb, "KiB");
  R.addLayer("jit.cc_invocations", L.CcInvocations, "count");
  R.addLayer("jit.memo_hits", L.MemoHits, "count");
  R.addLayer("jit.disk_hits", L.DiskHits, "count");
  R.addLayer("serve.dedup_hit_rate", L.DedupHitRate, "ratio");
  R.addLayer("serve.batch_jobs_per_flush", L.JobsPerFlush, "count");
  R.addLayer("runtime.stream_gbs", L.StreamGbs, "GB/s");
  std::map<std::string, double> Self = Sp.selfMillisByLayer();
  R.addLayer("benchmarks.self_ms", Self["benchmarks"], "ms");
  R.addLayer("core.self_ms", Self["core"], "ms");
  for (const auto &[Layer, Ms] : Self)
    if (Layer != "benchmarks" && Layer != "core")
      printLayer(Layer + ".self_ms", Ms, "ms");
  R.addLayer("trace_overhead.p50_ms", Traced.P50Ms - Untraced.P50Ms, "ms");
  R.addLayer("trace_overhead.tail_ms", Traced.TailMs - Untraced.TailMs, "ms");
  R.addLayer("trace_overhead.ops_per_s",
             Traced.OpsPerSec - Untraced.OpsPerSec, "1/s");
}

//===----------------------------------------------------------------------===//
// Socket client
//===----------------------------------------------------------------------===//

Client::Client(const std::string &SocketPath) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path))
    return;
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size());
  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd >= 0 &&
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Client::~Client() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Client::roundTrip(const std::string &Line, std::string &Reply) {
  if (Fd < 0)
    return false;
  std::string Out = Line + "\n";
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::write(Fd, Out.data() + Off, Out.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  size_t Pos;
  while ((Pos = Buffer.find('\n')) == std::string::npos) {
    char Chunk[8192];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
  Reply.assign(Buffer, 0, Pos);
  Buffer.erase(0, Pos + 1);
  return true;
}

std::unique_ptr<Daemon> Daemon::start(const std::string &SocketPath) {
  ::unlink(SocketPath.c_str());
  const int Parent = static_cast<int>(::getpid());
  const int Pid = static_cast<int>(::fork());
  if (Pid == 0) {
    // The child: never outlive the benchmark, never run its exit hooks.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (static_cast<int>(::getppid()) != Parent)
      ::_exit(4);
    ltp::serve::Server Server(SocketPath);
    std::string Error;
    if (!Server.start(&Error)) {
      std::fprintf(stderr, "error: daemon start: %s\n", Error.c_str());
      ::_exit(3);
    }
    Server.wait();
    std::fflush(nullptr);
    ::_exit(0);
  }
  auto Failed = [] {
    std::fprintf(stderr, "error: daemon did not start\n");
    return nullptr;
  };
  if (Pid < 0)
    return Failed();
  // The child binds asynchronously: retry until it answers or dies.
  Clock::time_point T0 = Clock::now();
  std::string Reply;
  while (millisSince(T0) < 10000.0) {
    Client Ping(SocketPath);
    if (Ping.connected() && Ping.roundTrip("{\"op\": \"ping\"}", Reply) &&
        Reply.find("\"pong\": true") != std::string::npos)
      return std::unique_ptr<Daemon>(new Daemon(SocketPath, Pid));
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid)
      return Failed();
    ::usleep(200);
  }
  ::kill(Pid, SIGKILL);
  ::waitpid(Pid, nullptr, 0);
  return Failed();
}

std::unique_ptr<Daemon>
perfbench::setUpDaemon(const std::string &SocketPath,
                       const std::function<void()> &Generate,
                       double &SetupSec) {
  // One set-up takes milliseconds, so a single one would make setup_s
  // mostly scheduling noise; the median of 5 still had a quartile spread
  // of a third of its median over runs.
  constexpr int SetUps = 25;
  const double Before = sinceStart();
  std::vector<double> Times;
  std::unique_ptr<Daemon> D;
  for (int Rep = 0; Rep != SetUps; ++Rep) {
    if (D && !D->stop().empty())
      return nullptr;
    Clock::time_point T0 = Clock::now();
    Generate();
    D = Daemon::start(SocketPath);
    if (!D)
      return nullptr;
    Times.push_back(millisSince(T0) / 1e3);
  }
  SetupSec = Before + median(Times);
  return D;
}

Daemon::~Daemon() {
  if (Pid > 0)
    stop();
}

std::map<std::string, int64_t> Daemon::counters() const {
  std::map<std::string, int64_t> Out;
  Client C(SocketPath);
  std::string Reply, Error;
  if (!C.roundTrip("{\"op\": \"stats\"}", Reply))
    return Out;
  std::unique_ptr<ltp::obs::JsonValue> Json =
      ltp::obs::parseJson(Reply, &Error);
  const ltp::obs::JsonValue *Counters = Json ? Json->find("counters") : nullptr;
  if (Counters)
    for (const auto &[Name, Value] : Counters->Members)
      Out[Name] = static_cast<int64_t>(Value.NumberValue);
  return Out;
}

std::string Daemon::stop() {
  if (Pid <= 0)
    return "";
  // Read before shutdown: once reaped, only wait4's figure is left, and
  // that also covers every compiler the daemon ran.
  PeakMb = perfbench::peakRssMb(Pid);
  {
    Client C(SocketPath);
    std::string Reply;
    C.roundTrip("{\"op\": \"shutdown\"}", Reply);
  }
  int Status = 0;
  // A daemon that ignores the shutdown is killed after 20 s.
  Clock::time_point T0 = Clock::now();
  int Waited = 0;
  while ((Waited = ::waitpid(Pid, &Status, WNOHANG)) == 0 &&
         millisSince(T0) < 20000.0)
    ::usleep(1000);
  if (Waited == 0) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
  }
  Pid = -1;
  if (Waited == 0)
    return "daemon did not stop and was killed";
  if (WIFSIGNALED(Status))
    return ltp::strFormat("daemon died of signal %d", WTERMSIG(Status));
  if (WEXITSTATUS(Status) != 0)
    return ltp::strFormat("daemon exited with %d", WEXITSTATUS(Status));
  return "";
}

int perfbench::clientCount() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

namespace {
/// Bounds of the server-minted request ID field, which differs on every
/// reply: [Start, End) is empty when the reply has none.
std::pair<size_t, size_t> requestIdField(const std::string &Reply) {
  static const std::string Field = ", \"request_id\": \"";
  size_t Start = Reply.find(Field);
  if (Start == std::string::npos)
    return {0, 0};
  size_t End = Reply.find('"', Start + Field.size());
  return End == std::string::npos ? std::make_pair(size_t(0), size_t(0))
                                  : std::make_pair(Start, End + 1);
}

/// Pins the calling client thread to the \p Ordinal-th processor this
/// process may use, so client placement is the same in every run; the
/// daemon's threads stay where the scheduler puts them.
void pinToCpu(int Ordinal) {
  cpu_set_t Allowed;
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return;
  const int Count = CPU_COUNT(&Allowed);
  if (Count == 0)
    return;
  int Seen = 0;
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu) {
    if (!CPU_ISSET(Cpu, &Allowed))
      continue;
    if (Seen++ == Ordinal % Count) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpu, &One);
      ::pthread_setaffinity_np(::pthread_self(), sizeof(One), &One);
      return;
    }
  }
}

/// FNV-1a of the reply without its request ID.
uint64_t replyKey(const std::string &Reply, std::pair<size_t, size_t> Id) {
  uint64_t H = 1469598103934665603ull;
  for (size_t I = 0; I != Reply.size(); ++I) {
    if (I == Id.first && Id.second > Id.first)
      I = Id.second;
    if (I == Reply.size())
      break;
    H = (H ^ static_cast<unsigned char>(Reply[I])) * 1099511628211ull;
  }
  return H;
}
} // namespace

const std::string &Phase::reply(const Sample &S) const {
  static const std::string None;
  auto It = Replies.find(S.ReplyKey);
  return It == Replies.end() ? None : It->second;
}

Phase perfbench::closedLoop(const std::string &SocketPath,
                            const std::vector<std::string> &Lines,
                            const std::vector<uint32_t> &Order, size_t First,
                            double Seconds, int Clients) {
  Phase P;
  const size_t Count = Order.empty() ? Lines.size() : Order.size();
  // Every slot is written before the phase starts, so the benchmark's own
  // resident memory does not grow with the request rate.
  P.Samples.assign(Count - std::min(First, Count), Sample());
  std::atomic<size_t> Next{First};
  std::mutex Mu;
  Clock::time_point Start = Clock::now();
  auto Worker = [&](int Ordinal) {
    pinToCpu(Ordinal);
    std::map<uint64_t, std::string> Replies;
    Client C(SocketPath);
    std::string Reply;
    for (;;) {
      if (millisSince(Start) / 1e3 >= Seconds)
        break;
      size_t I = Next.fetch_add(1);
      if (I >= Count)
        break;
      Sample &S = P.Samples[I - First];
      S.Index = static_cast<uint32_t>(I);
      {
        SpanScope Span("serve.roundtrip", static_cast<int64_t>(I));
        Clock::time_point T0 = Clock::now();
        S.Delivered = C.roundTrip(Lines[Order.empty() ? I : Order[I]], Reply);
        S.Millis = static_cast<float>(millisSince(T0));
      }
      S.EndSec = static_cast<float>(millisSince(Start) / 1e3);
      if (!S.Delivered)
        break; // the daemon is gone: this client's failure is recorded
      std::pair<size_t, size_t> Id = requestIdField(Reply);
      S.ReplyKey = replyKey(Reply, Id);
      if (!Replies.count(S.ReplyKey))
        Replies.emplace(S.ReplyKey, Reply.substr(0, Id.first) +
                                        Reply.substr(Id.second));
    }
    std::lock_guard<std::mutex> Lock(Mu);
    P.Replies.merge(Replies);
  };
  std::vector<std::thread> Threads;
  for (int I = 0; I != Clients; ++I)
    Threads.emplace_back(Worker, I);
  for (std::thread &T : Threads)
    T.join();
  P.Seconds = millisSince(Start) / 1e3;
  P.Samples.resize(std::min(Next.load(), Count) - std::min(First, Count));
  P.Samples.shrink_to_fit();
  return P;
}

//===----------------------------------------------------------------------===//
// Host record
//===----------------------------------------------------------------------===//

int64_t perfbench::hostLlcBytes() {
  static const int64_t Bytes = ltp::detectHost().L3.SizeBytes;
  return Bytes;
}

double perfbench::streamProbeGbs() {
  // Two buffers of at least twice the LLC each, so every pass streams
  // from memory; first touch happens before timing.
  const size_t Bytes = static_cast<size_t>(
      std::clamp<int64_t>(2 * hostLlcBytes(), 64 << 20, 256 << 20));
  std::vector<char> Src(Bytes, 1), Dst(Bytes, 0);
  std::vector<double> Gbs;
  for (int Rep = 0; Rep != 7; ++Rep) {
    Clock::time_point T0 = Clock::now();
    std::memcpy(Dst.data(), Src.data(), Bytes);
    double Sec = millisSince(T0) / 1e3;
    Gbs.push_back(2.0 * static_cast<double>(Bytes) / Sec / 1e9);
  }
  if (Dst[Bytes / 2] != 1)
    std::abort();
  return median(Gbs);
}

namespace {
std::string firstLineOf(const char *Command) {
  std::string Out;
  if (std::FILE *P = ::popen(Command, "r")) {
    char Line[512];
    if (std::fgets(Line, sizeof(Line), P))
      Out = Line;
    ::pclose(P);
  }
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
    Out.pop_back();
  return Out;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}
} // namespace

void perfbench::printHost(double StreamGbs, const std::string &Extra) {
  const char *CC = std::getenv("LTP_CC");
  std::string Version =
      firstLineOf((std::string(CC ? CC : "cc") + " --version 2>&1").c_str());
  std::printf("host: {\"nproc\": %u, \"cpu\": \"%s\", \"cc\": \"%s\", "
              "\"isa\": \"%s\", \"llc_mb\": %.1f, \"stream_gbs\": %.2f%s%s}\n",
              std::thread::hardware_concurrency(),
              ltp::obs::jsonEscape(cpuModel()).c_str(),
              ltp::obs::jsonEscape(Version).c_str(),
              ltp::codegen::TargetISA::host().name(),
              static_cast<double>(hostLlcBytes()) / (1 << 20), StreamGbs,
              Extra.empty() ? "" : ", ", Extra.c_str());
}

int perfbench::computeStage(const ltp::Func &F) {
  return F.numUpdates() > 0 ? F.numUpdates() - 1 : -1;
}

double perfbench::instanceBytes(const ltp::BenchmarkInstance &Instance) {
  double Bytes = 0.0;
  for (const auto &Entry : Instance.Buffers)
    Bytes += static_cast<double>(Entry.second.numElements()) *
             Entry.second.ElemType.bytes();
  return Bytes;
}
