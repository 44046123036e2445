//===- Log.h - leveled structured-JSON logging ------------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A leveled structured logger for long-running processes (ltp-serve
/// foremost): every emitted line is one self-contained JSON object
///
///   {"ts_ms": 1733829000123, "level": "info", "component": "serve",
///    "msg": "request", "request_id": "r-1234-7", ...}
///
/// so deployments can ship the stream straight into a log pipeline and
/// join lines against spans and flight-recorder digests by request ID.
///
/// Logging is off by default. It is enabled by `LTP_LOG=<level>` in the
/// environment (debug|info|warn|error) or programmatically
/// (`setLogLevel`) — ltp-serve's `--log-json` flag does the latter.
/// Output goes to stderr unless redirected with `setLogFile`. When a
/// level is disabled, `logEnabled` is one relaxed atomic load and no
/// field strings are built; compiling with `-DLTP_OBS_DISABLED` removes
/// even that.
///
/// The thread-local *current request ID* set by RequestIdScope is
/// stamped onto every log line, every span recorded in the scope
/// (Telemetry) and every provenance decision record, making all three
/// joinable.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_OBS_LOG_H
#define LTP_OBS_LOG_H

#include "obs/JsonWriter.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ltp {
namespace obs {

//===----------------------------------------------------------------------===//
// Levels
//===----------------------------------------------------------------------===//

enum class LogLevel : int {
  Debug = 0,
  Info = 1,
  Warn = 2,
  Error = 3,
  Off = 4,
};

/// Parses "debug"/"info"/"warn"/"error"/"off"; returns Off for anything
/// unrecognized.
LogLevel parseLogLevel(const std::string &Text);

/// Short lowercase name ("info").
const char *logLevelName(LogLevel L);

namespace detail {
extern std::atomic<int> LogThreshold;
} // namespace detail

/// True when a message at level \p L would be emitted.
inline bool logEnabled(LogLevel L) {
#ifdef LTP_OBS_DISABLED
  (void)L;
  return false;
#else
  return static_cast<int>(L) >=
         detail::LogThreshold.load(std::memory_order_relaxed);
#endif
}

/// Current threshold level.
LogLevel logLevel();

/// Sets the threshold (messages at or above \p L are emitted). LTP_LOG
/// in the environment seeds the initial value; Off disables logging.
void setLogLevel(LogLevel L);

/// Redirects log output to \p Path (append mode). An empty path returns
/// to stderr. Returns false and leaves the sink unchanged when the file
/// cannot be opened.
bool setLogFile(const std::string &Path, std::string *Error = nullptr);

//===----------------------------------------------------------------------===//
// Structured fields
//===----------------------------------------------------------------------===//

/// One key/value field of a log line, its value rendered by the JSON
/// writer when the field is built: a string, number or boolean, or
/// pre-rendered raw JSON (for nested objects/arrays).
struct LogField {
  LogField(std::string Key, std::string_view Value)
      : Key(std::move(Key)), Json(JsonWriter().string(Value).take()) {}
  LogField(std::string Key, const char *Value)
      : LogField(std::move(Key), std::string_view(Value)) {}
  LogField(std::string Key, double Value)
      : Key(std::move(Key)), Json(JsonWriter().general(Value, 6).take()) {}
  LogField(std::string Key, int64_t Value)
      : Key(std::move(Key)), Json(JsonWriter().integer(Value).take()) {}
  LogField(std::string Key, int Value)
      : LogField(std::move(Key), static_cast<int64_t>(Value)) {}
  LogField(std::string Key, bool Value)
      : Key(std::move(Key)), Json(JsonWriter().boolean(Value).take()) {}

  /// Raw-JSON factory: \p Json must already be valid JSON (an object,
  /// array or literal); it is spliced in verbatim.
  static LogField raw(std::string Key, std::string Json);

  std::string Key;
  std::string Json; ///< the rendered value
};

/// Emits one JSON log line at \p L. No-op (and no field evaluation at
/// call sites that guard with logEnabled) when \p L is below the
/// threshold. \p Component names the subsystem ("serve", "jit", ...).
/// The thread-local current request ID, when set, is added as
/// "request_id" automatically.
void logEvent(LogLevel L, const std::string &Component,
              const std::string &Msg,
              const std::vector<LogField> &Fields = {});

//===----------------------------------------------------------------------===//
// Request-ID propagation
//===----------------------------------------------------------------------===//

/// The request ID bound to the calling thread ("" when outside any
/// request scope).
const std::string &currentRequestId();

/// RAII: binds a request ID to the calling thread for the scope's
/// lifetime, restoring the previous binding on exit. Everything recorded
/// on this thread inside the scope — log lines, spans, provenance
/// records — carries the ID.
class RequestIdScope {
public:
  explicit RequestIdScope(std::string Rid);
  RequestIdScope(const RequestIdScope &) = delete;
  RequestIdScope &operator=(const RequestIdScope &) = delete;
  ~RequestIdScope();

private:
  std::string Saved;
};

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_LOG_H
