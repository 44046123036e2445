//===- Server.cpp - Unix-domain NDJSON request server ---------------------===//

#include "serve/Server.h"

#include "obs/FlightRecorder.h"
#include "obs/JsonWriter.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ltp;
using namespace ltp::serve;

namespace {

obs::Counter &connectionsCounter() {
  static obs::Counter &C = obs::counter("serve.connections");
  return C;
}

/// Writes all of \p Data (plus newline) to \p Fd; false on error.
bool writeLine(int Fd, const std::string &Data) {
  std::string Line = Data + "\n";
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N = ::write(Fd, Line.data() + Off, Line.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

std::string statsJson() {
  obs::MetricsSnapshot Snap = obs::snapshot();
  obs::JsonWriter W;
  W.beginObject().key("ok").boolean(true).key("counters").beginObject();
  for (const auto &[Name, Value] : Snap.Counters)
    W.key(Name).integer(Value);
  W.endObject().key("gauges").beginObject();
  for (const auto &[Name, Value] : Snap.Gauges)
    W.key(Name).integer(Value);
  return W.endObject().endObject().take();
}

/// Opens an inline-op reply with its common members: ok, the echoed id
/// and the request ID minted for this line. The caller adds its own
/// members and closes the object.
obs::JsonWriter responseHead(const Request &Req) {
  obs::JsonWriter W;
  W.beginObject().key("ok").boolean(true);
  if (!Req.Id.empty())
    W.key("id").string(Req.Id);
  if (!Req.RequestId.empty())
    W.key("request_id").string(Req.RequestId);
  return W;
}

} // namespace

Server::Server(std::string SocketPath, ServiceOptions Opts)
    : SocketPath(std::move(SocketPath)), Service(std::move(Opts)) {}

Server::~Server() { teardown(); }

bool Server::start(std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg + ": " + std::strerror(errno);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };

  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "socket path too long: " + SocketPath;
    return false;
  }
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof(Addr.sun_path) - 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Fail("socket");
  ::unlink(SocketPath.c_str()); // stale socket from a dead daemon
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Fail("bind " + SocketPath);
  if (::listen(ListenFd, 128) < 0)
    return Fail("listen");

  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::acceptLoop() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      // Closed listening socket (teardown) or fatal error: stop.
      return;
    }
    if (StopFlag.load()) {
      ::close(Fd);
      return;
    }
    connectionsCounter().add();
    std::lock_guard<std::mutex> Lock(ConnMu);
    OpenFds.push_back(Fd);
    Handlers.emplace_back([this, Fd] { handleConnection(Fd); });
  }
}

void Server::handleConnection(int Fd) {
  // Live-connection gauge updates unconditionally (not gated on
  // metricsEnabled) so the inc/dec pairing can never be split by a
  // mid-connection toggle.
  obs::Gauge &Live = obs::gauge("serve.live_connections");
  Live.add(1);
  if (obs::logEnabled(obs::LogLevel::Debug))
    obs::logEvent(obs::LogLevel::Debug, "server", "connection open",
                  {{"fd", static_cast<int64_t>(Fd)}});
  std::string Buffer;
  char Chunk[4096];
  bool Open = true;
  while (Open && !StopFlag.load()) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0)
      break;
    Buffer.append(Chunk, static_cast<size_t>(N));

    size_t Pos;
    while (Open && (Pos = Buffer.find('\n')) != std::string::npos) {
      std::string Line = Buffer.substr(0, Pos);
      Buffer.erase(0, Pos + 1);
      if (Line.empty())
        continue;

      ErrorOr<Request> Req = parseRequest(Line);
      if (!Req) {
        Response R;
        R.Kind = ErrorKind::BadRequest;
        R.Error = Req.getError();
        obs::counter("serve.errors").add();
        if (obs::logEnabled(obs::LogLevel::Warn))
          obs::logEvent(obs::LogLevel::Warn, "server", "bad request",
                        {{"error", Req.getError()}});
        Open = writeLine(Fd, renderResponse(R));
        continue;
      }

      // Mint the per-request ID here, at the protocol boundary, so
      // every downstream log line, span, provenance record, and flight
      // digest for this line shares one join key.
      Req->RequestId = mintRequestId();
      obs::RequestIdScope RidScope(Req->RequestId);

      if (Req->Op == "ping") {
        Open = writeLine(
            Fd, responseHead(*Req).key("pong").boolean(true).endObject().str());
      } else if (Req->Op == "stats") {
        Open = writeLine(Fd, statsJson());
      } else if (Req->Op == "metrics") {
        // The exposition text rides inside the NDJSON envelope as one
        // escaped string field, keeping the wire protocol uniformly
        // line-JSON; the client's --metrics flag unescapes it back to
        // scrapeable text.
        obs::JsonWriter W = responseHead(*Req);
        W.key("metrics").string(obs::renderPrometheusText()).endObject();
        Open = writeLine(Fd, W.str());
      } else if (Req->Op == "dump") {
        obs::JsonWriter W = responseHead(*Req);
        obs::flightRecorder().writeDump(W);
        Open = writeLine(Fd, W.endObject().str());
      } else if (Req->Op == "shutdown") {
        obs::JsonWriter W;
        W.beginObject().key("ok").boolean(true).key("stopping").boolean(true);
        writeLine(Fd, W.endObject().str());
        requestStop();
        Open = false;
      } else {
        Open = writeLine(Fd, renderResponse(Service.handle(*Req)));
      }
    }
  }
  {
    // Deregister before closing so teardown never shutdown()s a
    // recycled descriptor number.
    std::lock_guard<std::mutex> Lock(ConnMu);
    OpenFds.erase(std::remove(OpenFds.begin(), OpenFds.end(), Fd),
                  OpenFds.end());
  }
  ::close(Fd);
  Live.add(-1);
  if (obs::logEnabled(obs::LogLevel::Debug))
    obs::logEvent(obs::LogLevel::Debug, "server", "connection closed",
                  {{"fd", static_cast<int64_t>(Fd)}});
}

void Server::requestStop() {
  StopFlag.store(true);
  StopCv.notify_all();
}

void Server::wait(const std::atomic<bool> *SignalFlag,
                  const std::function<void()> &Poll) {
  std::unique_lock<std::mutex> Lock(StopMu);
  for (;;) {
    if (StopFlag.load())
      break;
    if (SignalFlag && SignalFlag->load()) {
      StopFlag.store(true);
      break;
    }
    if (Poll)
      Poll();
    StopCv.wait_for(Lock, std::chrono::milliseconds(100));
  }
  Lock.unlock();
  teardown();
}

void Server::teardown() {
  StopFlag.store(true);
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    if (TornDown)
      return;
    TornDown = true;
  }
  // shutdown() wakes the blocked accept(); close() alone does not on all
  // platforms. The descriptor is closed and cleared only after the accept
  // loop, which reads it, has been joined.
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (int Fd : OpenFds)
      ::shutdown(Fd, SHUT_RDWR); // unblocks handlers stuck in read()
    OpenFds.clear();
    ToJoin.swap(Handlers);
  }
  for (std::thread &T : ToJoin)
    T.join();
  ::unlink(SocketPath.c_str());
}
