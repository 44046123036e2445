//===- FlightRecorder.h - ring buffer of recent request digests -*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An always-on flight recorder for ltp-serve: a fixed-size ring of
/// digests of the most recent requests (request ID, key hash, dedup
/// outcome, per-stage timings, `.so` path, error), cheap enough to
/// record unconditionally — one small struct copy under a short mutex —
/// and dumped on demand via the `dump` serve op or SIGUSR2. When a
/// request stalls or fails in production, the recorder answers "what was
/// the daemon doing right before?" without any tracing having been
/// enabled in advance. Unlike spans and metrics, the recorder stays
/// active under -DLTP_OBS_DISABLED: it is part of the serving protocol's
/// debuggability contract, not optional instrumentation.
///
/// The slow-request threshold lives here too: requests whose total
/// latency exceeds it get their full stage breakdown logged at warn
/// level the moment they finish (see OptimizerService).
///
//===----------------------------------------------------------------------===//

#ifndef LTP_OBS_FLIGHTRECORDER_H
#define LTP_OBS_FLIGHTRECORDER_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ltp {
namespace obs {

class JsonWriter;

/// What the recorder keeps per request. All timings are milliseconds.
struct RequestDigest {
  std::string RequestId;
  std::string Op;
  std::string Kernel;
  std::string KeyHash;
  std::string Dedup;  ///< "miss" / "hit_inflight" / "cached" / ""
  std::string Error;  ///< empty on success
  std::string SoPath; ///< first compiled artifact, when any
  bool Ok = false;
  double TotalMillis = 0.0;
  double OptMillis = 0.0;
  double CompileMillis = 0.0;
  int64_t UnixMillis = 0; ///< wall-clock completion time
  /// Stage-name/duration pairs, in execution order. Only the dedup
  /// *owner* carries stage timings; duplicates served from the table
  /// record an empty list (they did not run the stages).
  std::vector<std::pair<std::string, double>> StageMillis;
};

/// Renders one digest as a JSON object.
std::string digestJson(const RequestDigest &D);

/// Fixed-capacity ring of the most recent digests. Thread-safe.
class FlightRecorder {
public:
  explicit FlightRecorder(size_t Capacity = 256);

  /// Appends \p D, evicting the oldest digest once full.
  void record(RequestDigest D);

  /// The buffered digests, oldest first.
  std::vector<RequestDigest> snapshot() const;

  size_t capacity() const { return Cap; }

  /// Total records ever made (snapshot().size() caps at capacity; this
  /// does not), so a dump shows how much history was evicted.
  uint64_t totalRecorded() const;

  /// Writes the members `"flight_recorder": [digests, oldest first],
  /// "capacity": N, "recorded": M` into the object open in \p W (the
  /// `dump` serve op adds them to its reply).
  void writeDump(JsonWriter &W) const;

  /// The dump members as one complete object.
  std::string dumpJson() const;

private:
  const size_t Cap;
  mutable std::mutex Mutex;
  std::vector<RequestDigest> Ring; ///< size ≤ Cap; Next indexes the ring
  size_t Next = 0;
  uint64_t Recorded = 0;
};

/// The process-wide recorder used by the serve stack.
FlightRecorder &flightRecorder();

/// Requests slower than this (milliseconds) get their stage breakdown
/// logged at warn level. 0 disables. Default 1000 ms; ltp-serve's
/// --slow-ms flag overrides.
double slowRequestThresholdMs();
void setSlowRequestThresholdMs(double Millis);

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_FLIGHTRECORDER_H
