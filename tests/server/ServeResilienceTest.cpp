//===- ServeResilienceTest.cpp - Daemon fault & recovery battery ----------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Production-hardening battery for `igen --serve`, run against the real
// binary over a real Unix socket:
//
//  * kill -9 mid-traffic, then a warm restart over IGEN_SERVE_CACHE_DIR:
//    previously compiled hashes must be served bit-identically from the
//    replayed journal;
//  * the IGEN_FAULT transport matrix (accept/read/write/conreset/
//    partial/stall): every fault class must leave the daemon serving
//    with a stable fd count;
//  * a client that disconnects mid-response (the SIGPIPE regression);
//  * SIGTERM graceful drain: exit 0, socket unlinked;
//  * health probes answered while a worker is wedged in a long eval,
//    and while every worker of the pool is, and a deadline that frees
//    those workers.
//
//===----------------------------------------------------------------------===//

#include "server/Json.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <dirent.h>
#include <errno.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

using namespace igen::server;

namespace {

struct EnvVar {
  std::string Name;
  std::string Value;
};

class ResilienceTest : public ::testing::Test {
protected:
  pid_t Pid = -1;
  std::string SocketPath;
  static int Counter;

  void SetUp() override {
    SocketPath = "/tmp/igen_resilience_" + std::to_string(::getpid()) +
                 "_" + std::to_string(Counter++) + ".sock";
  }

  void TearDown() override {
    stopHard();
    ::unlink(SocketPath.c_str());
  }

  /// Spawns `igen --serve` with extra environment variables and command
  /// line arguments. May be called again after stopHard() to model a
  /// restart.
  void start(const std::vector<EnvVar> &Env = {},
             const std::vector<std::string> &Args = {}) {
    std::vector<std::string> Argv = {"igen", "--serve=" + SocketPath};
    Argv.insert(Argv.end(), Args.begin(), Args.end());
    std::vector<char *> Ptrs;
    for (std::string &A : Argv)
      Ptrs.push_back(A.data());
    Ptrs.push_back(nullptr);
    Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      for (const EnvVar &E : Env)
        ::setenv(E.Name.c_str(), E.Value.c_str(), 1);
      ::execv(IGEN_DRIVER_PATH, Ptrs.data());
      _exit(127);
    }
    for (int I = 0; I < 400; ++I) {
      struct stat St;
      if (::stat(SocketPath.c_str(), &St) == 0)
        return;
      ::usleep(20 * 1000);
    }
    FAIL() << "daemon never created " << SocketPath;
  }

  void stopHard() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGKILL);
    int Status;
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
  }

  /// Waits for the daemon to exit on its own; returns the wait status.
  int awaitExit() {
    int Status = -1;
    for (int I = 0; I < 400; ++I) {
      pid_t W = ::waitpid(Pid, &Status, WNOHANG);
      if (W == Pid) {
        Pid = -1;
        return Status;
      }
      ::usleep(20 * 1000);
    }
    return -1;
  }

  int connectClient() {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                  SocketPath.c_str());
    EXPECT_EQ(
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
        0)
        << strerror(errno);
    return Fd;
  }

  void sendAll(int Fd, const std::string &Data) {
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t N =
          ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
      if (N <= 0)
        return; // faulted connections may legitimately die mid-send
      Off += (size_t)N;
    }
  }

  /// Reads one response line; "" means the daemon closed the connection
  /// (which some injected faults legitimately cause).
  std::string recvLine(int Fd) {
    std::string Line;
    char C;
    while (true) {
      ssize_t N = ::recv(Fd, &C, 1, 0);
      if (N <= 0)
        return Line;
      if (C == '\n')
        return Line;
      Line.push_back(C);
    }
  }

  JsonValue rpc(int Fd, const std::string &Frame) {
    sendAll(Fd, Frame + "\n");
    std::string Line = recvLine(Fd);
    JsonParseResult R = parseJson(Line);
    EXPECT_TRUE(R.Ok) << "bad response line: '" << Line << "'";
    return R.Value;
  }

  /// One-connection round-trip; proves the daemon is serving.
  void expectServing() {
    int Fd = connectClient();
    JsonValue V = rpc(Fd, "{\"op\":\"stats\"}");
    EXPECT_TRUE(V.member("ok") && V.member("ok")->boolValue());
    ::close(Fd);
  }

  size_t fdCount() {
    std::string Dir = "/proc/" + std::to_string(Pid) + "/fd";
    DIR *D = opendir(Dir.c_str());
    if (!D)
      return 0;
    size_t N = 0;
    while (struct dirent *E = readdir(D)) {
      if (std::strcmp(E->d_name, ".") && std::strcmp(E->d_name, ".."))
        ++N;
    }
    closedir(D);
    return N;
  }

  /// The reactor reaps dead connections on its next 50ms poll tick;
  /// wait for the fd table to settle back to \p Want.
  bool fdCountSettlesTo(size_t Want) {
    for (int I = 0; I < 100; ++I) {
      if (fdCount() == Want)
        return true;
      ::usleep(20 * 1000);
    }
    return false;
  }

  std::string makeTempDir() {
    char Tmpl[] = "/tmp/igen_resilience_cache_XXXXXX";
    const char *Dir = mkdtemp(Tmpl);
    EXPECT_NE(Dir, nullptr);
    return Dir ? Dir : "";
  }
};

int ResilienceTest::Counter = 0;

const char *kCompileFrame =
    "{\"op\":\"compile\",\"source\":\"double f(double x) { return x * x "
    "+ 0.1; }\",\"options\":{\"opt_level\":0,\"target\":\"ss\"}}";
const char *kRunawaySource =
    "double spin(double x) { while (x < 1.0e300) x = x + 1.0e-6; "
    "return x; }";

TEST_F(ResilienceTest, KillNineThenWarmRestartServesBitIdentically) {
  std::string CacheDir = makeTempDir();
  start({{"IGEN_SERVE_CACHE_DIR", CacheDir}});

  int Fd = connectClient();
  JsonValue C = rpc(Fd, kCompileFrame);
  ASSERT_TRUE(C.member("ok")->boolValue());
  std::string Handle = C.member("handle")->stringValue();
  std::string EvalFrame = "{\"op\":\"eval\",\"handle\":\"" + Handle +
                          "\",\"function\":\"f\",\"args\":[3.0]}";
  JsonValue E1 = rpc(Fd, EvalFrame);
  ASSERT_TRUE(E1.member("ok")->boolValue());
  std::string LoHex = E1.member("result")->member("lo_hex")->stringValue();
  std::string HiHex = E1.member("result")->member("hi_hex")->stringValue();
  // Mid-traffic: more requests in flight when the SIGKILL lands.
  sendAll(Fd, std::string(kCompileFrame) + "\n" + EvalFrame + "\n");
  stopHard();
  ::close(Fd);
  // SIGKILL leaves the stale socket file behind; remove it so the
  // restart wait below observes the *new* daemon's bind.
  ::unlink(SocketPath.c_str());

  // Warm restart over the same journal directory.
  start({{"IGEN_SERVE_CACHE_DIR", CacheDir}});
  int Fd2 = connectClient();
  JsonValue St = rpc(Fd2, "{\"op\":\"stats\"}");
  ASSERT_TRUE(St.member("ok")->boolValue());
  EXPECT_GE(St.member("stats")
                ->member("resilience")
                ->member("cache_replayed")
                ->numberValue(),
            1.0);
  // The very first compile of the old source is a cache hit with the
  // same handle...
  JsonValue C2 = rpc(Fd2, kCompileFrame);
  ASSERT_TRUE(C2.member("ok")->boolValue());
  EXPECT_TRUE(C2.member("cached")->boolValue());
  EXPECT_EQ(C2.member("handle")->stringValue(), Handle);
  // ...and evaluation through the replayed program is bit-identical.
  JsonValue E2 = rpc(Fd2, EvalFrame);
  ASSERT_TRUE(E2.member("ok")->boolValue());
  EXPECT_EQ(E2.member("result")->member("lo_hex")->stringValue(), LoHex);
  EXPECT_EQ(E2.member("result")->member("hi_hex")->stringValue(), HiHex);
  ::close(Fd2);

  std::string Cmd = "rm -rf " + CacheDir;
  (void)system(Cmd.c_str());
}

TEST_F(ResilienceTest, TransportFaultMatrixLeavesDaemonServing) {
  // One daemon per fault class; each fault fires exactly once on the
  // first client's traffic. read/conreset/write cost that client its
  // connection (it sees EOF); accept/stall/partial are absorbed and the
  // client is still answered. Either way the daemon must keep serving
  // and return to its idle fd count.
  struct FaultCase {
    const char *Spec;
    bool FirstClientAnswered;
  };
  const FaultCase Cases[] = {
      {"accept@0", true},   // EMFILE once; the pending connect is
                            // accepted on the next reactor tick
      {"read@0", false},    // EIO: connection dropped
      {"conreset@0", false}, // ECONNRESET: connection dropped
      {"stall@0", true},    // EAGAIN despite poll readiness: retried
      {"write@0", false},   // EPIPE on the response: connection dropped
      {"partial@0", true},  // short write: the write loop resumes
  };
  for (const FaultCase &FC : Cases) {
    SCOPED_TRACE(FC.Spec);
    start({{"IGEN_FAULT", FC.Spec}});
    size_t IdleFds = fdCount();
    ASSERT_GT(IdleFds, 0u);

    int Fd = connectClient();
    sendAll(Fd, "{\"op\":\"stats\"}\n");
    std::string Line = recvLine(Fd);
    if (FC.FirstClientAnswered) {
      JsonParseResult R = parseJson(Line);
      EXPECT_TRUE(R.Ok && R.Value.member("ok")->boolValue())
          << "got: '" << Line << "'";
    } else {
      EXPECT_TRUE(Line.empty())
          << "expected EOF from dropped connection, got: '" << Line
          << "'";
    }
    ::close(Fd);

    // The daemon survived and serves a fresh client.
    expectServing();
    // No leaked connection fds once the reactor reaps.
    EXPECT_TRUE(fdCountSettlesTo(IdleFds))
        << "fd count " << fdCount() << " never settled back to "
        << IdleFds;
    stopHard();
    ::unlink(SocketPath.c_str());
  }
}

TEST_F(ResilienceTest, ClientDisconnectMidResponseDoesNotKillDaemon) {
  start();
  // Fire-and-close: the worker's response hits a dead peer. Without
  // MSG_NOSIGNAL / SIG_IGN this raises SIGPIPE and kills the process.
  for (int I = 0; I < 5; ++I) {
    int Fd = connectClient();
    sendAll(Fd, std::string(kCompileFrame) + "\n");
    ::close(Fd); // gone before the response is written
  }
  ::usleep(300 * 1000); // let the workers run into the dead peers
  expectServing();

  // Clean shutdown still works afterwards — and proves the process was
  // never signaled.
  int Fd = connectClient();
  JsonValue R = rpc(Fd, "{\"op\":\"shutdown\"}");
  EXPECT_TRUE(R.member("ok")->boolValue());
  ::close(Fd);
  int Status = awaitExit();
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
}

TEST_F(ResilienceTest, SigtermDrainsExitsZeroAndUnlinksSocket) {
  start({{"IGEN_SERVE_DRAIN_MS", "3000"}});
  expectServing();
  ASSERT_EQ(::kill(Pid, SIGTERM), 0);
  int Status = awaitExit();
  ASSERT_TRUE(WIFEXITED(Status)) << "daemon must drain, not die";
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  struct stat St;
  EXPECT_NE(::stat(SocketPath.c_str(), &St), 0)
      << "socket must be unlinked after drain";
}

TEST_F(ResilienceTest, HealthAnswersDuringLongEvalAndDeadlineFreesWorker) {
  start();
  int A = connectClient();
  JsonValue C = rpc(A, std::string("{\"op\":\"compile\",\"source\":\"") +
                         kRunawaySource +
                         "\",\"options\":{\"opt_level\":0,\"target\":"
                         "\"ss\"}}");
  ASSERT_TRUE(C.member("ok")->boolValue());
  std::string Handle = C.member("handle")->stringValue();

  // A long evaluation with a 600ms deadline and a step limit far beyond
  // what that wall-clock budget can execute.
  sendAll(A, "{\"op\":\"eval\",\"handle\":\"" + Handle +
                 "\",\"function\":\"spin\",\"args\":[0.0],"
                 "\"deadline_ms\":600,"
                 "\"options\":{\"step_limit\":4000000000}}\n");
  ::usleep(100 * 1000); // ensure the eval is on a worker

  // Health must answer while that request is still running (the socket
  // layer handles it on the reactor thread, no worker needed).
  int B = connectClient();
  JsonValue H = rpc(B, "{\"op\":\"health\"}");
  ASSERT_TRUE(H.member("ok")->boolValue());
  EXPECT_EQ(H.member("state")->stringValue(), "serving");
  EXPECT_GE(H.member("in_flight")->numberValue(), 1.0);
  EXPECT_GT(H.member("slowest_in_flight_us")->numberValue(), 0.0);
  ::close(B);

  // The deadline frees the worker with a typed error, not a dead one.
  std::string Line = recvLine(A);
  JsonParseResult R = parseJson(Line);
  ASSERT_TRUE(R.Ok) << Line;
  EXPECT_FALSE(R.Value.member("ok")->boolValue());
  EXPECT_EQ(R.Value.member("error")->member("code")->stringValue(),
            "deadline-exceeded");
  ::close(A);
  expectServing();
}

TEST_F(ResilienceTest, HealthAnswersWithEveryWorkerWedged) {
  // Both workers of a two-worker pool run a runaway eval; health on a
  // third connection still answers, and sees both. Its in_flight also
  // counts the probe itself, which holds a heartbeat slot while it
  // renders (ServerCoreTest.HealthReportsStateAndInFlight).
  start({}, {"--serve-workers=2"});
  int Ctl = connectClient();
  JsonValue C = rpc(Ctl, std::string("{\"op\":\"compile\",\"source\":\"") +
                             kRunawaySource +
                             "\",\"options\":{\"opt_level\":0,\"target\":"
                             "\"ss\"}}");
  ASSERT_TRUE(C.member("ok")->boolValue());
  std::string Handle = C.member("handle")->stringValue();
  ::close(Ctl);

  int Wedged[2];
  for (int &Fd : Wedged) {
    Fd = connectClient();
    sendAll(Fd, "{\"op\":\"eval\",\"handle\":\"" + Handle +
                    "\",\"function\":\"spin\",\"args\":[0.0],"
                    "\"deadline_ms\":1500,"
                    "\"options\":{\"step_limit\":4000000000}}\n");
  }
  ::usleep(300 * 1000); // both evals are on their workers

  int Probe = connectClient();
  JsonValue H = rpc(Probe, "{\"op\":\"health\"}");
  ASSERT_TRUE(H.member("ok")->boolValue());
  EXPECT_EQ(H.member("state")->stringValue(), "serving");
  EXPECT_EQ(H.member("in_flight")->numberValue(), 2.0 + 1.0);
  ::close(Probe);

  for (int Fd : Wedged) {
    std::string Line = recvLine(Fd);
    JsonParseResult R = parseJson(Line);
    ASSERT_TRUE(R.Ok) << Line;
    EXPECT_FALSE(R.Value.member("ok")->boolValue());
    EXPECT_EQ(R.Value.member("error")->member("code")->stringValue(),
              "deadline-exceeded");
    ::close(Fd);
  }
  expectServing();
}

TEST_F(ResilienceTest, DefaultDeadlineFromEnvironment) {
  start({{"IGEN_SERVE_DEADLINE", "400"}});
  int Fd = connectClient();
  JsonValue C = rpc(Fd, std::string("{\"op\":\"compile\",\"source\":\"") +
                          kRunawaySource +
                          "\",\"options\":{\"opt_level\":0,\"target\":"
                          "\"ss\"}}");
  ASSERT_TRUE(C.member("ok")->boolValue());
  std::string Handle = C.member("handle")->stringValue();
  // No per-request deadline_ms: IGEN_SERVE_DEADLINE supplies the budget.
  JsonValue E = rpc(Fd, "{\"op\":\"eval\",\"handle\":\"" + Handle +
                            "\",\"function\":\"spin\",\"args\":[0.0],"
                            "\"options\":{\"step_limit\":4000000000}}");
  EXPECT_FALSE(E.member("ok")->boolValue());
  EXPECT_EQ(E.member("error")->member("code")->stringValue(),
            "deadline-exceeded");
  ::close(Fd);
  expectServing();
}

} // namespace
