//===- Metrics.h - histograms, gauges and Prometheus export -----*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production-metrics half of the telemetry layer: always-on,
/// lock-free latency *histograms* and point-in-time *gauges*. They live
/// with the monotonic counters of Telemetry.h in one process-wide
/// registry, read as one `snapshot()` by every surface: the `stats`
/// serve op, the Prometheus text exposition (`renderPrometheusText`,
/// scraped by the `metrics` op and written on an interval by
/// `MetricsSnapshotter`), trace counter events and the bench and
/// ltp-opt telemetry footers.
///
/// Histograms use log-linear bucketing over nanoseconds: each power-of-2
/// octave is split into 8 linear sub-buckets, bounding the relative
/// bucket width at 12.5% across the full uint64 range with 496 fixed
/// buckets. An observation is two relaxed fetch_adds (bucket count and
/// running sum) — no locks, no allocation — so per-request recording is
/// safe on the serve hot path. Snapshots from concurrent threads are
/// mergeable by bucket-wise addition, and quantiles (p50/p90/p99/p99.9)
/// are derived from any snapshot by a cumulative-rank walk with linear
/// interpolation inside the landing bucket.
///
/// Recording honours `metricsEnabled()` at the call site (callers guard
/// their observe calls); `-DLTP_OBS_DISABLED` compiles the guard to a
/// constant false.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_OBS_METRICS_H
#define LTP_OBS_METRICS_H

#include "obs/Telemetry.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ltp {
namespace obs {

//===----------------------------------------------------------------------===//
// Runtime toggle
//===----------------------------------------------------------------------===//

namespace detail {
/// Master switch for metric recording. On by default; LTP_METRICS=0 in
/// the environment or setMetricsEnabled(false) turns it off.
extern std::atomic<bool> MetricsEnabled;
} // namespace detail

/// True when histogram/gauge recording is active.
inline bool metricsEnabled() {
#ifdef LTP_OBS_DISABLED
  return false;
#else
  return detail::MetricsEnabled.load(std::memory_order_relaxed);
#endif
}

/// Turns metric recording on or off at run time (perfbench's serving
/// workloads force it on).
void setMetricsEnabled(bool Enabled);

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

/// Lock-free log-linear latency histogram over milliseconds (stored as
/// nanosecond buckets). Thread-safe: observe() from any number of
/// threads concurrently with snapshot().
class Histogram {
public:
  /// Sub-buckets per power-of-2 octave (8 → 12.5% max relative error
  /// before interpolation).
  static constexpr int SubBits = 3;
  static constexpr int SubBuckets = 1 << SubBits;
  /// Buckets 0..SubBuckets-1 cover [0, SubBuckets) ns linearly; each
  /// later block of SubBuckets covers one octave.
  static constexpr size_t NumBuckets =
      static_cast<size_t>(64 - SubBits + 1) * SubBuckets;

  Histogram() = default;
  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  /// Records one latency observation. Two relaxed fetch_adds; negative
  /// values clamp to zero.
  void observe(double Millis);

  /// A point-in-time copy of the bucket counts, mergeable across
  /// histograms (per-thread or per-shard) by bucket-wise addition.
  struct Snapshot {
    std::vector<uint64_t> Counts; ///< size NumBuckets
    double SumMillis = 0.0;
    uint64_t Count = 0;

    /// Adds \p Other bucket-wise (the merge used to combine per-thread
    /// histograms into one distribution).
    void merge(const Snapshot &Other);

    /// Quantile in milliseconds by cumulative-rank walk with linear
    /// interpolation inside the landing bucket. \p Q in [0, 1]. Returns
    /// a negative value when the snapshot is empty.
    double quantile(double Q) const;
  };

  Snapshot snapshot() const;

  /// The bucket an observation of \p Nanos lands in.
  static size_t bucketIndex(uint64_t Nanos);
  /// Inclusive lower / exclusive upper bucket bounds in milliseconds
  /// (computed in double to avoid overflow on the top octave).
  static double bucketLowerMillis(size_t Index);
  static double bucketUpperMillis(size_t Index);

private:
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> SumNanos{0};
};

/// Finds or creates the histogram named \p Name. Thread-safe; the
/// returned reference stays valid for the process lifetime — cache it in
/// a function-local static when observing from a hot path.
Histogram &histogram(const std::string &Name);

//===----------------------------------------------------------------------===//
// Gauge
//===----------------------------------------------------------------------===//

/// A point-in-time value (queue depth, live connections, table size):
/// a Counter that may also be overwritten and is expected to go down.
class Gauge : public Counter {
public:
  void set(int64_t V) { Value.store(V, std::memory_order_relaxed); }
};

/// Finds or creates the gauge named \p Name (same lifetime contract as
/// histogram()).
Gauge &gauge(const std::string &Name);

//===----------------------------------------------------------------------===//
// Registry snapshot
//===----------------------------------------------------------------------===//

/// One read of the whole registry, each list sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> Counters;
  std::vector<std::pair<std::string, int64_t>> Gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> Histograms;

  /// The value of counter \p Name; 0 when it was never registered.
  int64_t counter(const std::string &Name) const;
};

/// Reads every counter, gauge and histogram under the registry lock.
MetricsSnapshot snapshot();

//===----------------------------------------------------------------------===//
// Prometheus export
//===----------------------------------------------------------------------===//

/// Mangles a registry name into a Prometheus metric name: "ltp_" prefix,
/// non-alphanumerics to '_' ("serve.request_ms" → "ltp_serve_request_ms").
std::string prometheusName(const std::string &Name);

/// Renders one snapshot() in Prometheus text exposition format: a
/// `# TYPE` line per family, counters first, then gauges, then
/// histograms (cumulative `_bucket` samples with an explicit `+Inf`,
/// then `_sum` and `_count`). Empty histogram buckets are elided.
std::string renderPrometheusText();

/// Writes renderPrometheusText() to \p Path (atomically, via a .tmp
/// rename). Returns false and fills \p Error on I/O failure.
bool writeMetricsSnapshot(const std::string &Path,
                          std::string *Error = nullptr);

/// Background thread writing a metrics snapshot to a file every
/// \p IntervalSeconds, plus once on destruction, so an external scraper
/// (or a human with `cat`) always finds a recent exposition.
class MetricsSnapshotter {
public:
  MetricsSnapshotter(std::string Path, double IntervalSeconds);
  MetricsSnapshotter(const MetricsSnapshotter &) = delete;
  MetricsSnapshotter &operator=(const MetricsSnapshotter &) = delete;
  ~MetricsSnapshotter();

  /// Stops the periodic thread after one final snapshot (idempotent).
  void stop();

private:
  struct Impl;
  Impl *State;
};

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_METRICS_H
