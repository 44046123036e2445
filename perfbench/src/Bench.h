//===- Bench.h - shared plumbing of the end-to-end benchmark ----*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, results, statistics, the in-memory span recorder, the
/// Unix-socket client and the host record shared by the four workloads
/// of ltp-perfbench (kernels, schedule, cold, warm). Every timing here is
/// taken by the benchmark around calls into the libraries' public
/// functions; nothing reads the program's own spans.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_PERFBENCH_BENCH_H
#define LTP_PERFBENCH_BENCH_H

#include "benchmarks/Benchmarks.h"
#include "serve/Server.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Private, initially empty directory of this run (kernel stores,
  /// socket, logs). The caller removes it afterwards.
  std::string RunDir;
  /// Where the traced run writes its spans.
  std::string TracePath;
};

/// One named metric value.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Outcome of one workload run.
struct Result {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;

  void addE2E(const std::string &Name, double Value, const std::string &Unit) {
    EndToEnd.push_back({Name, Value, Unit});
  }
  void addLayer(const std::string &Name, double Value,
                const std::string &Unit) {
    PerLayer.push_back({Name, Value, Unit});
  }
  /// Records one failed check with its reason on stderr.
  void fail(const std::string &Why);
};

//===----------------------------------------------------------------------===//
// Clock and statistics
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

/// Seconds since process start (the first static initializer of the
/// benchmark binary).
double sinceStart();

double millisSince(Clock::time_point T0);

double median(std::vector<double> V);

double geomean(const std::vector<double> &V);

/// The tail of a latency sample: the highest percentile of the ladder
/// 50/75/90/95/99/99.9 with at least ten samples beyond it.
struct Tail {
  double Percentile = 0.0;
  double Value = 0.0;
  size_t Samples = 0;
};
Tail tailOf(std::vector<double> V);

/// Prints `tail: <label> p<P> of <n> samples = <v> ms` on stdout.
void printTail(const char *Label, const Tail &T);

/// Peak resident set in MB (VmHWM) of process \p Pid, or of this process.
double peakRssMb(int Pid = 0);

/// Deterministic generator for every input of a run.
using Rng = std::mt19937_64;

//===----------------------------------------------------------------------===//
// Span recorder
//===----------------------------------------------------------------------===//

/// In-memory spans (name, start, end, parent, request id, thread) recorded
/// by the benchmark around calls into each layer. Each thread appends to
/// its own buffer without locking; disabled recorders cost one branch per
/// span. Spans are written as Chrome trace events at the end of a traced
/// run; self time per layer is derived from them. The queries read every
/// buffer and must not run while spans are being recorded.
class SpanRecorder {
public:
  struct Span {
    std::string Name;
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    int Parent = -1; ///< index in the same thread's buffer
    int64_t RequestId = -1;
  };

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) { Enabled.store(On); }

  /// Opens a span on the calling thread; its parent is the innermost
  /// open span of the thread, whose request id it inherits when it has
  /// none. Returns the span's index in the thread's buffer.
  int begin(const std::string &Name, int64_t RequestId);
  void end(int Index);

  /// Removes and returns the calling thread's spans (none may be open).
  std::vector<Span> take();
  /// Adds \p Spans, recorded elsewhere, as one more thread's buffer.
  void adopt(std::vector<Span> Spans);

  /// Mean duration in ms of spans named \p Name (-1 when none).
  double meanMillis(const std::string &Name) const;
  /// Sum of durations in ms of spans named \p Name.
  double totalMillis(const std::string &Name) const;
  size_t count(const std::string &Name) const;
  /// Per-request sum of the durations of spans named \p Name.
  std::map<int64_t, double> byRequest(const std::string &Name) const;

  /// Self time per layer (the span name up to its first '.'): each
  /// span's duration minus the part its child spans cover.
  std::map<std::string, double> selfMillisByLayer() const;

  /// Writes every span as a Chrome trace event.
  bool write(const std::string &Path) const;

private:
  struct Buffer {
    int Thread = 0;
    std::vector<Span> Spans;
    std::vector<int> Open;
  };
  Buffer &local();
  template <typename Fn> void forEach(Fn &&F) const;

  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu; ///< guards Buffers (registration only)
  std::vector<std::unique_ptr<Buffer>> Buffers;
};

/// The process-wide recorder.
SpanRecorder &spans();

/// RAII span around one call into a layer.
class SpanScope {
public:
  SpanScope(const char *Name, int64_t RequestId = -1)
      : Index(spans().enabled() ? spans().begin(Name, RequestId) : -1) {}
  ~SpanScope() {
    if (Index >= 0)
      spans().end(Index);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  int Index;
};

/// The three figures of a workload's timed operations that every workload
/// reports (what an operation is depends on the workload, see README.md).
struct Figures {
  double P50Ms = 0.0;
  double TailMs = 0.0;
  double OpsPerSec = 0.0;
};

/// Adds the end-to-end metrics every workload reports but `success_rate`,
/// which Main adds from the attempted and failed counts.
void addEndToEnd(Result &R, double SetupSec, const Figures &F, double PeakMb);

/// The per-layer figures every workload reports in a traced run, besides
/// those derived from the spans (create, optimize and self times). A count
/// or ratio is 0 when the workload makes its layer do no such work.
struct Layers {
  double InstanceMb = 0.0;       ///< median bytes of the instances built
  double Candidates = 0.0;       ///< candidates scored per optimized kernel
  double SerialSchedules = 0.0;  ///< chosen schedules with no parallel()
  double SimFallbackRate = 0.0;  ///< scoring events off the closed forms
  double SimFallbackBase = 0.0;  ///< all scoring events
  double SourceKb = 0.0;         ///< emitted C per compiled stage
  double CcInvocations = 0.0;
  double MemoHits = 0.0;
  double DiskHits = 0.0;
  double DedupHitRate = 0.0;
  double JobsPerFlush = 0.0;
  double StreamGbs = 0.0;
};

/// Fills the scoring figures of \p L (candidates per optimized kernel, the
/// simulator fallback rate and its base) from two counter snapshots
/// around \p Kernels optimized kernels.
void addScoring(Layers &L, const std::map<std::string, int64_t> &Before,
                const std::map<std::string, int64_t> &After, double Kernels);

/// Fills the scoring, JIT, dedup and batching figures of \p L from two
/// snapshots of a daemon's counters around \p Requests requests.
void daemonLayers(const std::map<std::string, int64_t> &Before,
                  const std::map<std::string, int64_t> &After,
                  double Requests, Layers &L);

/// Whether \p Reply carries a schedule with no parallel loop.
bool serialReply(const std::string &Reply);

/// This process's telemetry counters.
std::map<std::string, int64_t> processCounters();

/// Adds the per-layer metrics of a traced run: \p L, the figures derived
/// from the recorded spans, and `trace_overhead.<metric>` = \p Traced
/// minus \p Untraced for the three figures. Prints the self time of every
/// other layer the spans saw as a `layer:` line.
void addLayers(Result &R, const Layers &L, const Figures &Untraced,
               const Figures &Traced);

/// Prints one workload-specific layer figure, outside the metrics every
/// workload reports, as `layer: <name> <value> <unit>`.
void printLayer(const std::string &Name, double Value, const char *Unit);

//===----------------------------------------------------------------------===//
// Socket client
//===----------------------------------------------------------------------===//

/// One blocking NDJSON connection to an ltp-serve socket.
class Client {
public:
  explicit Client(const std::string &SocketPath);
  ~Client();
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool connected() const { return Fd >= 0; }
  /// Sends \p Line and reads one response line into \p Reply.
  bool roundTrip(const std::string &Line, std::string &Reply);

private:
  int Fd = -1;
  std::string Buffer;
};

/// Closed-loop clients: one per processor, as in `ltp-serve` use, where
/// each caller waits for its reply.
/// The warm workload uses half as many (see README.md).
int clientCount();

/// One request of a closed-loop phase (24 bytes: a phase stores one per
/// request it can send).
struct Sample {
  uint32_t Index = 0; ///< position in the phase's request order
  float Millis = 0.0f;
  float EndSec = 0.0f; ///< completion, in seconds from the phase start
  bool Delivered = false; ///< a reply line came back
  /// Hash of the reply without its request_id; the text is in
  /// Phase::Replies, one copy per distinct reply.
  uint64_t ReplyKey = 0;
};

/// Closed loop over the socket: \p Clients connections each send the next
/// unsent request once their previous reply has arrived; request I is
/// Lines[Order[I]] (Lines[I] when \p Order is empty). Clients stop
/// sending after \p Seconds or when the requests run out. Each round trip
/// is a `serve.roundtrip` span.
struct Phase {
  std::vector<Sample> Samples;
  std::map<uint64_t, std::string> Replies;
  double Seconds = 0.0;

  const std::string &reply(const Sample &S) const;
};
Phase closedLoop(const std::string &SocketPath,
                 const std::vector<std::string> &Lines,
                 const std::vector<uint32_t> &Order, size_t First,
                 double Seconds, int Clients = clientCount());

/// An ltp-serve daemon (serve::Server) in a child process of the
/// benchmark: a daemon that crashes fails its requests and is reported,
/// instead of taking the benchmark down with it. The child inherits the
/// benchmark's observability settings.
class Daemon {
public:
  /// Starts a daemon on \p SocketPath and waits for its first ping
  /// reply. Null on failure.
  static std::unique_ptr<Daemon> start(const std::string &SocketPath);

  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// The daemon's counters (the `stats` op); empty when it is gone.
  std::map<std::string, int64_t> counters() const;

  /// Sends `shutdown` and waits for the process. Returns "" after a clean
  /// exit, else what happened to it.
  std::string stop();

  /// Peak resident memory (VmHWM) of the daemon process in MB, read just
  /// before stop() shut it down.
  double peakRssMb() const { return PeakMb; }

private:
  Daemon(std::string SocketPath, int Pid)
      : SocketPath(std::move(SocketPath)), Pid(Pid) {}

  std::string SocketPath;
  int Pid = -1;
  double PeakMb = 0.0;
};

/// The set-up of a serving workload, done 25 times: \p Generate makes the
/// inputs, then a daemon starts on \p SocketPath; every daemon but the
/// last is stopped. \p SetupSec receives the time from process start to
/// the first set-up plus the median set-up time. Null on failure.
std::unique_ptr<Daemon> setUpDaemon(const std::string &SocketPath,
                                    const std::function<void()> &Generate,
                                    double &SetupSec);


//===----------------------------------------------------------------------===//
// Host record and probes
//===----------------------------------------------------------------------===//

/// Memory bandwidth of this host in GB/s: median of timed copies of a
/// buffer far larger than the last-level cache. A control metric.
double streamProbeGbs();

/// Last-level cache size of this host in bytes (detectHost).
int64_t hostLlcBytes();

/// Prints the one-line host record (nproc, CPU model, cc version, target
/// ISA, LLC size, stream bandwidth, plus \p Extra JSON members).
void printHost(double StreamGbs, const std::string &Extra);

/// The stage whose schedule the optimizer chooses: the last update of a
/// reduction, else the pure stage (-1).
int computeStage(const ltp::Func &F);

/// Bytes of every buffer an instance binds (inputs and outputs).
double instanceBytes(const ltp::BenchmarkInstance &Instance);

/// Checks \p Instance's outputs after a run. Kernels whose full reference
/// is O(N^2) go through verifyOutput; for the others the reference loops
/// of Benchmarks.cpp are evaluated at \p Samples seeded output points of
/// every stage (the full oracle costs minutes at the paper's sizes).
/// Returns "" when correct, else a description of the first mismatch.
std::string checkOutputs(const ltp::BenchmarkInstance &Instance, Rng &Gen,
                         int Samples);

} // namespace perfbench

#endif // LTP_PERFBENCH_BENCH_H
