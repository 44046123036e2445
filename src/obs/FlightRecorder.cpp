//===- FlightRecorder.cpp - ring buffer of recent request digests ---------===//

#include "obs/FlightRecorder.h"

#include "obs/JsonWriter.h"

#include <atomic>

using namespace ltp;
using namespace ltp::obs;

std::string ltp::obs::digestJson(const RequestDigest &D) {
  JsonWriter W;
  W.beginObject().key("request_id").string(D.RequestId).key("op").string(D.Op);
  if (!D.Kernel.empty())
    W.key("kernel").string(D.Kernel);
  if (!D.KeyHash.empty())
    W.key("key").string(D.KeyHash);
  if (!D.Dedup.empty())
    W.key("dedup").string(D.Dedup);
  W.key("ok").boolean(D.Ok);
  if (!D.Error.empty())
    W.key("error").string(D.Error);
  if (!D.SoPath.empty())
    W.key("so").string(D.SoPath);
  W.key("unix_ms").integer(D.UnixMillis);
  W.key("total_ms").fixed(D.TotalMillis, 4);
  if (D.OptMillis > 0.0)
    W.key("opt_ms").fixed(D.OptMillis, 4);
  if (D.CompileMillis > 0.0)
    W.key("compile_ms").fixed(D.CompileMillis, 4);
  if (!D.StageMillis.empty()) {
    W.key("stages").beginObject();
    for (const auto &[Stage, Millis] : D.StageMillis)
      W.key(Stage).fixed(Millis, 4);
    W.endObject();
  }
  return W.endObject().take();
}

FlightRecorder::FlightRecorder(size_t Capacity)
    : Cap(Capacity == 0 ? 1 : Capacity) {
  Ring.reserve(Cap);
}

void FlightRecorder::record(RequestDigest D) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Ring.size() < Cap) {
    Ring.push_back(std::move(D));
  } else {
    Ring[Next] = std::move(D);
  }
  Next = (Next + 1) % Cap;
  ++Recorded;
}

std::vector<RequestDigest> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<RequestDigest> Out;
  Out.reserve(Ring.size());
  if (Ring.size() < Cap) {
    Out = Ring;
  } else {
    // The ring is full: Next is the oldest entry.
    for (size_t I = 0; I != Cap; ++I)
      Out.push_back(Ring[(Next + I) % Cap]);
  }
  return Out;
}

uint64_t FlightRecorder::totalRecorded() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Recorded;
}

void FlightRecorder::writeDump(JsonWriter &W) const {
  std::vector<RequestDigest> Digests = snapshot();
  uint64_t Total = totalRecorded();
  W.key("flight_recorder").beginArray();
  for (const RequestDigest &D : Digests)
    W.raw(digestJson(D));
  W.endArray().key("capacity").integer(static_cast<int64_t>(Cap));
  W.key("recorded").integer(static_cast<int64_t>(Total));
}

std::string FlightRecorder::dumpJson() const {
  JsonWriter W;
  writeDump(W.beginObject());
  return W.endObject().take();
}

FlightRecorder &ltp::obs::flightRecorder() {
  // Never destroyed: connection threads may record during teardown.
  static FlightRecorder *Recorder = new FlightRecorder();
  return *Recorder;
}

namespace {

std::atomic<double> SlowThresholdMs{1000.0};

} // namespace

double ltp::obs::slowRequestThresholdMs() {
  return SlowThresholdMs.load(std::memory_order_relaxed);
}

void ltp::obs::setSlowRequestThresholdMs(double Millis) {
  SlowThresholdMs.store(Millis, std::memory_order_relaxed);
}
