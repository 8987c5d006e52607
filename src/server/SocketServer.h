//===- SocketServer.h - Unix-socket transport for igen --serve --*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport shell around ServerCore: a Unix-domain stream socket
/// speaking one JSON object per line. An acceptor thread multiplexes
/// all connections with poll() and slices the byte stream into frames;
/// complete frames go into a bounded admission queue (IGEN_SERVE_QUEUE,
/// default 128) and are handled by the process-wide runtime ThreadPool
/// via one long-lived parallelFor whose body is a queue-draining worker
/// loop. (The pool admits one parallelFor at a time, which is exactly
/// what a daemon wants: serving owns the pool for its lifetime, and the
/// scalar evaluator never nests another parallelFor inside it.)
///
/// When the queue is full the acceptor answers the frame immediately
/// with a typed "queue-full" error instead of blocking the reactor;
/// back-pressure is thus visible to clients rather than silent.
///
/// Resilience wiring added around that skeleton:
///  - every socket syscall goes through the injectable TransportOps
///    table, so IGEN_FAULT=accept|read|write|conreset|partial|stall can
///    simulate transport failures deterministically;
///  - SIGTERM/SIGINT trigger a graceful drain: ServerCore flips to
///    draining (mutating ops answer "shutting-down"), in-flight work
///    finishes within IGEN_SERVE_DRAIN_MS (default 5000), then the
///    socket is unlinked and runServer returns 0. SIGPIPE is ignored
///    (writes already use MSG_NOSIGNAL; a racing client close must
///    never kill the process);
///  - {"op":"health"} frames are answered on the reactor thread itself,
///    so liveness probes work even when every worker is wedged in a
///    long evaluation.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SERVER_SOCKETSERVER_H
#define IGEN_SERVER_SOCKETSERVER_H

#include "server/ServerCore.h"

#include <string>

namespace igen {
namespace server {

struct ServeConfig {
  std::string SocketPath;
  long CacheCapacity = 0; ///< 0 = IGEN_SERVE_CACHE / default
  /// Worker threads handling requests; 0 = the runtime pool's full
  /// participant count.
  unsigned Workers = 0;
  /// Print a "listening on <path>" line to stderr once ready (the CI
  /// smoke job and igen_client.py --wait key on it).
  bool Announce = true;
};

/// Binds \p Config.SocketPath, serves until a shutdown request, a
/// completed SIGTERM/SIGINT drain, or a serve-loop failure, then
/// unlinks the socket. Returns 0 on a clean shutdown- or
/// drain-initiated exit, 1 on a transport-level failure (bind, listen,
/// ...) with a message on stderr. Blocks the calling thread; installs
/// SIGTERM/SIGINT drain handlers and ignores SIGPIPE for the process.
int runServer(const ServeConfig &Config);

} // namespace server
} // namespace igen

#endif // IGEN_SERVER_SOCKETSERVER_H
