//===- Log.cpp - leveled structured-JSON logging --------------------------===//

#include "obs/Log.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

using namespace ltp;
using namespace ltp::obs;

//===----------------------------------------------------------------------===//
// Levels and sink
//===----------------------------------------------------------------------===//

namespace {

int envLogThreshold() {
  const char *Env = std::getenv("LTP_LOG"); // NOLINT(concurrency-mt-unsafe)
  if (!Env || !*Env)
    return static_cast<int>(LogLevel::Off);
  return static_cast<int>(parseLogLevel(Env));
}

/// The log sink: stderr by default, a file after setLogFile. Guarded by
/// sinkMutex; never destroyed so worker threads may log during process
/// teardown.
struct LogSink {
  std::mutex Mutex;
  std::FILE *Out = stderr;
};

LogSink &logSink() {
  static LogSink *Sink = new LogSink();
  return *Sink;
}

} // namespace

std::atomic<int> ltp::obs::detail::LogThreshold{envLogThreshold()};

LogLevel ltp::obs::parseLogLevel(const std::string &Text) {
  if (Text == "debug" || Text == "DEBUG")
    return LogLevel::Debug;
  if (Text == "info" || Text == "INFO" || Text == "1")
    return LogLevel::Info;
  if (Text == "warn" || Text == "warning" || Text == "WARN")
    return LogLevel::Warn;
  if (Text == "error" || Text == "ERROR")
    return LogLevel::Error;
  return LogLevel::Off;
}

const char *ltp::obs::logLevelName(LogLevel L) {
  switch (L) {
  case LogLevel::Debug:
    return "debug";
  case LogLevel::Info:
    return "info";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Error:
    return "error";
  case LogLevel::Off:
    return "off";
  }
  return "off";
}

LogLevel ltp::obs::logLevel() {
  return static_cast<LogLevel>(
      detail::LogThreshold.load(std::memory_order_relaxed));
}

void ltp::obs::setLogLevel(LogLevel L) {
  detail::LogThreshold.store(static_cast<int>(L), std::memory_order_relaxed);
}

bool ltp::obs::setLogFile(const std::string &Path, std::string *Error) {
  LogSink &Sink = logSink();
  if (Path.empty()) {
    std::lock_guard<std::mutex> Lock(Sink.Mutex);
    if (Sink.Out != stderr)
      std::fclose(Sink.Out);
    Sink.Out = stderr;
    return true;
  }
  std::FILE *File = std::fopen(Path.c_str(), "a");
  if (!File) {
    if (Error)
      *Error = "cannot open log file for appending: " + Path;
    return false;
  }
  std::lock_guard<std::mutex> Lock(Sink.Mutex);
  if (Sink.Out != stderr)
    std::fclose(Sink.Out);
  Sink.Out = File;
  return true;
}

//===----------------------------------------------------------------------===//
// Emission
//===----------------------------------------------------------------------===//

LogField LogField::raw(std::string Key, std::string Json) {
  LogField F(std::move(Key), false);
  F.Json = std::move(Json);
  return F;
}

void ltp::obs::logEvent(LogLevel L, const std::string &Component,
                        const std::string &Msg,
                        const std::vector<LogField> &Fields) {
  if (!logEnabled(L) || L == LogLevel::Off)
    return;
  int64_t UnixMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  JsonWriter W;
  W.beginObject().key("ts_ms").integer(UnixMs);
  W.key("level").string(logLevelName(L)).key("component").string(Component);
  W.key("msg").string(Msg);
  const std::string &Rid = currentRequestId();
  if (!Rid.empty())
    W.key("request_id").string(Rid);
  for (const LogField &F : Fields)
    W.key(F.Key).raw(F.Json);
  std::string Line = W.endObject().take();
  Line += '\n';

  LogSink &Sink = logSink();
  std::lock_guard<std::mutex> Lock(Sink.Mutex);
  std::fputs(Line.c_str(), Sink.Out);
  std::fflush(Sink.Out);
}

//===----------------------------------------------------------------------===//
// Request-ID propagation
//===----------------------------------------------------------------------===//

namespace {

std::string &threadRequestId() {
  thread_local std::string Rid;
  return Rid;
}

} // namespace

const std::string &ltp::obs::currentRequestId() { return threadRequestId(); }

RequestIdScope::RequestIdScope(std::string Rid)
    : Saved(std::move(threadRequestId())) {
  threadRequestId() = std::move(Rid);
}

RequestIdScope::~RequestIdScope() { threadRequestId() = std::move(Saved); }
