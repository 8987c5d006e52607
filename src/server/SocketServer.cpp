//===- SocketServer.cpp - Unix-socket transport for igen --serve -------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/SocketServer.h"

#include "runtime/ThreadPool.h"
#include "server/Json.h"
#include "server/TransportOps.h"
#include "support/Knobs.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace igen;
using namespace igen::server;

namespace {

/// SIGTERM/SIGINT land here; the reactor polls this flag every 50 ms
/// and turns it into a graceful drain. sig_atomic_t is the only thing
/// a handler may touch.
volatile std::sig_atomic_t DrainRequested = 0;

extern "C" void onDrainSignal(int) { DrainRequested = 1; }

/// One accepted client. Workers may outlive the reactor's interest in
/// the fd (a frame can still be in flight when the peer disconnects),
/// so connections are shared_ptr-owned by both sides and the fd is
/// closed exactly once, when the last owner drops it.
struct Connection {
  int Fd = -1;
  std::mutex WriteMu;
  std::atomic<bool> Open{true};
  std::string ReadBuf;
  /// Oversized-frame recovery: drop bytes until the next newline, then
  /// resume normal framing on the same connection.
  bool Discarding = false;

  ~Connection() {
    if (Fd >= 0)
      ::close(Fd);
  }

  /// Serializes whole lines onto the socket; concurrent workers for the
  /// same connection cannot interleave partial responses. Takes the line
  /// by value and terminates it in place: replies run to kilobytes, and
  /// callers hand over ones they no longer need.
  void writeLine(std::string Out) {
    Out.push_back('\n');
    std::lock_guard<std::mutex> G(WriteMu);
    if (!Open.load(std::memory_order_relaxed))
      return;
    size_t Off = 0;
    while (Off < Out.size()) {
      // MSG_NOSIGNAL + the process-wide SIGPIPE ignore: a peer that
      // closes mid-frame costs this connection, never the daemon. Short
      // counts (including injected "partial" faults) just resume here.
      ssize_t N = transportOps().Send(Fd, Out.data() + Off,
                                      Out.size() - Off, MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        Open.store(false, std::memory_order_relaxed);
        return;
      }
      Off += (size_t)N;
    }
  }
};

struct WorkItem {
  std::shared_ptr<Connection> Conn;
  std::string Frame;
  /// When the frame came off the wire; deadlines count from here, so
  /// time queued behind other requests is not free.
  std::chrono::steady_clock::time_point Arrival;
};

/// Bounded MPMC admission queue. push() never blocks (the reactor must
/// stay responsive); a full queue is the caller's signal to shed load.
class AdmissionQueue {
public:
  explicit AdmissionQueue(size_t Cap) : Cap(Cap) {}

  bool tryPush(WorkItem Item) {
    {
      std::lock_guard<std::mutex> G(Mu);
      if (Closed || Items.size() >= Cap)
        return false;
      Items.push_back(std::move(Item));
    }
    Ready.notify_one();
    return true;
  }

  /// Blocks until an item arrives or the queue is closed *and* drained.
  /// A successful pop counts as in-process until the worker calls
  /// done(), so idle() can tell "queue empty" from "work finished".
  bool pop(WorkItem &Out) {
    std::unique_lock<std::mutex> G(Mu);
    Ready.wait(G, [&] { return Closed || !Items.empty(); });
    if (Items.empty())
      return false;
    Out = std::move(Items.front());
    Items.pop_front();
    ++InProcess;
    return true;
  }

  /// The worker finished (response written) for one popped item.
  void done() {
    std::lock_guard<std::mutex> G(Mu);
    if (InProcess)
      --InProcess;
  }

  /// Nothing queued and nothing executing: safe to complete a drain.
  bool idle() {
    std::lock_guard<std::mutex> G(Mu);
    return Items.empty() && InProcess == 0;
  }

  void close() {
    {
      std::lock_guard<std::mutex> G(Mu);
      Closed = true;
    }
    Ready.notify_all();
  }

private:
  const size_t Cap;
  std::mutex Mu;
  std::condition_variable Ready;
  std::deque<WorkItem> Items;
  size_t InProcess = 0;
  bool Closed = false;
};

std::string typedErrorLine(const char *Code, const char *Msg) {
  std::string Out = "{\"ok\": false, \"error\": {\"code\": \"";
  Out += Code;
  Out += "\", \"message\": \"";
  Out += Msg;
  Out += "\"}}";
  return Out;
}

/// Reactor: accepts clients and slices their byte streams into frames.
class Reactor {
public:
  Reactor(int ListenFd, ServerCore &Core, AdmissionQueue &Queue,
          long long DrainMs)
      : ListenFd(ListenFd), Core(Core), Queue(Queue), DrainMs(DrainMs) {}

  void run() {
    while (!Core.shutdownRequested()) {
      pollDrain();
      std::vector<pollfd> Fds;
      Fds.push_back({ListenFd, POLLIN, 0});
      std::vector<std::shared_ptr<Connection>> Order;
      Order.reserve(Conns.size());
      for (auto &KV : Conns) {
        Order.push_back(KV.second);
        Fds.push_back({KV.first, POLLIN, 0});
      }
      // Short timeout: shutdown is signaled by a worker thread (or a
      // drain deadline), so the reactor has to wake up on its own to
      // observe it.
      int N = ::poll(Fds.data(), Fds.size(), 50);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        break;
      }
      if (Fds[0].revents & POLLIN)
        acceptOne();
      for (size_t I = 1; I < Fds.size(); ++I)
        if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR))
          serviceConnection(Order[I - 1]);
      // Drop connections the peer or a failed write closed.
      for (auto It = Conns.begin(); It != Conns.end();)
        if (!It->second->Open.load(std::memory_order_relaxed))
          It = Conns.erase(It);
        else
          ++It;
    }
  }

private:
  /// Drain state machine, one step per reactor iteration. SIGTERM/
  /// SIGINT flips ServerCore to draining (queued and new frames get
  /// typed "shutting-down" answers from the workers); the drain
  /// completes — and becomes a shutdown — when all in-flight work
  /// finishes or IGEN_SERVE_DRAIN_MS runs out, whichever is first.
  void pollDrain() {
    if (DrainRequested && !Core.draining()) {
      Core.beginDrain();
      DrainDeadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(DrainMs);
    }
    if (!Core.draining())
      return;
    bool Idle = Queue.idle();
    bool TimedOut = std::chrono::steady_clock::now() >= DrainDeadline;
    if (!Idle && !TimedOut)
      return;
    Core.log().event(Idle ? "drain_complete" : "drain_timeout",
                     Idle ? "all in-flight requests finished"
                          : "drain deadline expired with work in flight");
    Core.requestShutdown();
    Queue.close();
  }

  void acceptOne() {
    int Fd = transportOps().Accept(ListenFd);
    if (Fd < 0)
      return;
    auto Conn = std::make_shared<Connection>();
    Conn->Fd = Fd;
    Conns[Fd] = std::move(Conn);
  }

  void serviceConnection(const std::shared_ptr<Connection> &Conn) {
    char Buf[64 * 1024];
    ssize_t N = transportOps().Recv(Conn->Fd, Buf, sizeof(Buf), 0);
    if (N == 0 || (N < 0 && errno != EINTR && errno != EAGAIN)) {
      Conn->Open.store(false, std::memory_order_relaxed);
      return;
    }
    if (N < 0)
      return;
    size_t Start = 0;
    for (ssize_t I = 0; I < N; ++I) {
      if (Buf[I] != '\n')
        continue;
      if (Conn->Discarding) {
        Conn->Discarding = false;
      } else {
        Conn->ReadBuf.append(Buf + Start, (size_t)(I - Start));
        dispatchFrame(Conn, std::move(Conn->ReadBuf));
        Conn->ReadBuf.clear();
      }
      Start = (size_t)I + 1;
    }
    if (!Conn->Discarding) {
      Conn->ReadBuf.append(Buf + Start, (size_t)(N - Start));
      if (Conn->ReadBuf.size() > maxFrameBytes()) {
        // The frame can only grow; answer now and resynchronize at the
        // next newline so the connection keeps serving.
        Conn->writeLine(typedErrorLine(
            "frame-too-large",
            "request frame exceeds IGEN_SERVE_MAX_FRAME"));
        Conn->ReadBuf.clear();
        Conn->Discarding = true;
      }
    }
  }

  /// Health probes must not depend on worker availability — a daemon
  /// with every worker wedged in a long evaluation still has to answer
  /// "I'm alive, and here is how long the slowest request has been
  /// running". Small frames that could plausibly be health ops are
  /// parsed on the reactor thread; only a confirmed {"op":"health"} is
  /// handled inline (cheap: a counter scan), everything else takes the
  /// normal queue path.
  bool tryInlineHealth(const std::shared_ptr<Connection> &Conn,
                       const std::string &Frame,
                       std::chrono::steady_clock::time_point Arrival) {
    if (Frame.size() > 2048 || Frame.find("\"health\"") == std::string::npos)
      return false;
    JsonParseResult P = parseJson(Frame);
    if (!P.Ok || !P.Value.isObject())
      return false;
    const JsonValue *Op = P.Value.member("op");
    if (!Op || !Op->isString() || Op->stringValue() != "health")
      return false;
    Conn->writeLine(Core.handleFrame(Frame, Arrival));
    return true;
  }

  void dispatchFrame(const std::shared_ptr<Connection> &Conn,
                     std::string Frame) {
    // Trim a trailing '\r' so CRLF clients work.
    if (!Frame.empty() && Frame.back() == '\r')
      Frame.pop_back();
    if (Frame.empty())
      return;
    auto Arrival = std::chrono::steady_clock::now();
    if (tryInlineHealth(Conn, Frame, Arrival))
      return;
    if (!Queue.tryPush(WorkItem{Conn, std::move(Frame), Arrival}))
      Conn->writeLine(typedErrorLine(
          Core.draining() ? "shutting-down" : "queue-full",
          Core.draining()
              ? "daemon is draining; retry against a fresh instance"
              : "admission queue is full (IGEN_SERVE_QUEUE); retry "
                "later"));
  }

  int ListenFd;
  ServerCore &Core;
  AdmissionQueue &Queue;
  long long DrainMs;
  std::chrono::steady_clock::time_point DrainDeadline{};
  std::unordered_map<int, std::shared_ptr<Connection>> Conns;
};

} // namespace

int igen::server::runServer(const ServeConfig &Config) {
  if (Config.SocketPath.empty() ||
      Config.SocketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::fprintf(stderr, "igen: serve: invalid socket path\n");
    return 1;
  }

  int ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    std::fprintf(stderr, "igen: serve: socket(): %s\n",
                 std::strerror(errno));
    return 1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Config.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ::unlink(Config.SocketPath.c_str()); // stale socket from a crash
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) < 0 ||
      ::listen(ListenFd, 64) < 0) {
    std::fprintf(stderr, "igen: serve: bind/listen %s: %s\n",
                 Config.SocketPath.c_str(), std::strerror(errno));
    ::close(ListenFd);
    return 1;
  }

  ServerCore Core(Config.CacheCapacity);
  AdmissionQueue Queue(static_cast<size_t>(knobInt(Knob::ServeQueue)));
  long long DrainMs = knobInt(Knob::ServeDrainMs);

  // A client that disappears mid-response raises SIGPIPE on the next
  // send; MSG_NOSIGNAL covers our writes, this covers everything else
  // (and future code paths). SIGTERM/SIGINT start a graceful drain
  // instead of killing the process with responses half-written.
  ::signal(SIGPIPE, SIG_IGN);
  DrainRequested = 0;
  struct sigaction Sa{};
  Sa.sa_handler = onDrainSignal;
  ::sigemptyset(&Sa.sa_mask);
  Sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &Sa, nullptr);
  ::sigaction(SIGINT, &Sa, nullptr);

  if (Config.Announce) {
    std::fprintf(stderr, "igen: serving on %s\n",
                 Config.SocketPath.c_str());
    std::fflush(stderr);
  }

  std::thread Acceptor(
      [&] { Reactor(ListenFd, Core, Queue, DrainMs).run(); });

  // Request handling on the process-wide pool: one parallelFor whose
  // body is a worker loop, alive for the whole daemon lifetime. The
  // calling thread participates too, so --serve works even on a
  // single-core pool.
  runtime::ThreadPool &Pool = runtime::ThreadPool::instance();
  unsigned Workers = Config.Workers ? Config.Workers
                                    : Pool.maxParticipants();
  if (Workers == 0)
    Workers = 1;
  Pool.parallelFor(Workers, Workers, [&](size_t) {
    WorkItem Item;
    while (Queue.pop(Item)) {
      Item.Conn->writeLine(Core.handleFrame(Item.Frame, Item.Arrival));
      Item.Conn.reset(); // response is on the wire; release the fd ref
      Queue.done();      // only now may a drain observe "idle"
      if (Core.shutdownRequested())
        Queue.close(); // wake idle siblings; drains remaining items
    }
  });

  Queue.close();
  Acceptor.join();
  ::close(ListenFd);
  ::unlink(Config.SocketPath.c_str());
  return 0;
}
