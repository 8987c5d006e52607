//===- SocketServerTest.cpp - End-to-end Unix-socket daemon tests -------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Spawns the real `igen --serve` binary, talks to it over its socket,
// and verifies transport-level behavior the in-process ServerCore tests
// cannot see: framing across the wire, oversized-frame resync on a live
// connection, multiple clients, and clean shutdown (socket unlinked,
// exit code 0).
//
//===----------------------------------------------------------------------===//

#include "server/Json.h"

#include <cstdio>
#include <set>
#include <string>

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

class DaemonTest : public ::testing::Test {
protected:
  pid_t Pid = -1;
  std::string SocketPath;

  void SetUp() override {
    SocketPath = "/tmp/igen_serve_test_" + std::to_string(::getpid()) +
                 "_" + std::to_string(Counter++) + ".sock";
    Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      std::string Arg = "--serve=" + SocketPath;
      ::execl(IGEN_DRIVER_PATH, "igen", Arg.c_str(), (char *)nullptr);
      _exit(127);
    }
    // Wait for the socket to appear.
    for (int I = 0; I < 200; ++I) {
      struct stat St;
      if (::stat(SocketPath.c_str(), &St) == 0)
        return;
      ::usleep(20 * 1000);
    }
    FAIL() << "daemon never created " << SocketPath;
  }

  void TearDown() override {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      int Status;
      ::waitpid(Pid, &Status, 0);
    }
    ::unlink(SocketPath.c_str());
  }

  int connectClient() {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                  SocketPath.c_str());
    EXPECT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)),
              0)
        << strerror(errno);
    return Fd;
  }

  void sendAll(int Fd, const std::string &Data) {
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, 0);
      ASSERT_GT(N, 0);
      Off += (size_t)N;
    }
  }

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
    EXPECT_TRUE(R.Ok) << Line;
    return R.Value;
  }

  static int Counter;
};

int DaemonTest::Counter = 0;

TEST_F(DaemonTest, CompileEvalOverTheWire) {
  int Fd = connectClient();
  JsonValue C = rpc(Fd, "{\"op\":\"compile\",\"source\":\"double f(double "
                        "x) { return x * x; }\",\"options\":"
                        "{\"opt_level\":0,\"target\":\"ss\"}}");
  ASSERT_TRUE(C.member("ok")->boolValue());
  std::string H = C.member("handle")->stringValue();
  JsonValue E = rpc(Fd, "{\"op\":\"eval\",\"handle\":\"" + H +
                            "\",\"function\":\"f\",\"args\":[3.0]}");
  ASSERT_TRUE(E.member("ok")->boolValue());
  EXPECT_DOUBLE_EQ(E.member("result")->member("lo")->numberValue(), 9.0);
  ::close(Fd);
}

TEST_F(DaemonTest, TwoClientsShareTheCache) {
  int A = connectClient(), B = connectClient();
  const char *Compile = "{\"op\":\"compile\",\"source\":\"double f(double "
                        "x) { return x + 2.0; }\",\"options\":"
                        "{\"opt_level\":0,\"target\":\"ss\"}}";
  JsonValue R1 = rpc(A, Compile);
  ASSERT_TRUE(R1.member("ok")->boolValue());
  EXPECT_FALSE(R1.member("cached")->boolValue());
  JsonValue R2 = rpc(B, Compile);
  ASSERT_TRUE(R2.member("ok")->boolValue());
  EXPECT_TRUE(R2.member("cached")->boolValue());
  EXPECT_EQ(R1.member("handle")->stringValue(),
            R2.member("handle")->stringValue());
  ::close(A);
  ::close(B);
}

TEST_F(DaemonTest, PipelinedFramesInOneWrite) {
  // Two workers may answer pipelined frames in either order; the
  // protocol promises one reply per frame, matched by id.
  int Fd = connectClient();
  sendAll(Fd, "{\"op\":\"stats\",\"id\":1}\n{\"op\":\"stats\",\"id\":2}\n");
  JsonParseResult A = parseJson(recvLine(Fd));
  JsonParseResult B = parseJson(recvLine(Fd));
  ASSERT_TRUE(A.Ok && B.Ok);
  ASSERT_TRUE(A.Value.member("id") && B.Value.member("id"));
  std::set<double> Ids = {A.Value.member("id")->numberValue(),
                          B.Value.member("id")->numberValue()};
  EXPECT_EQ(Ids, (std::set<double>{1.0, 2.0}));
  EXPECT_TRUE(A.Value.member("ok")->boolValue());
  EXPECT_TRUE(B.Value.member("ok")->boolValue());
  ::close(Fd);
}

TEST_F(DaemonTest, GarbageFrameKeepsConnectionServing) {
  int Fd = connectClient();
  JsonValue Bad = rpc(Fd, "this is not json {{{");
  EXPECT_FALSE(Bad.member("ok")->boolValue());
  EXPECT_EQ(Bad.member("error")->member("code")->stringValue(),
            "bad-json");
  JsonValue Ok = rpc(Fd, "{\"op\":\"stats\"}");
  EXPECT_TRUE(Ok.member("ok")->boolValue());
  ::close(Fd);
}

TEST_F(DaemonTest, OversizedFrameGetsTypedErrorAndConnectionResyncs) {
  int Fd = connectClient();
  // 5 MiB without a newline: past the 4 MiB default frame cap. The
  // daemon must answer with a typed error, discard to the next newline,
  // and keep serving this same connection.
  std::string Blob(5u << 20, 'a');
  sendAll(Fd, Blob);
  JsonParseResult R = parseJson(recvLine(Fd));
  ASSERT_TRUE(R.Ok);
  EXPECT_FALSE(R.Value.member("ok")->boolValue());
  EXPECT_EQ(R.Value.member("error")->member("code")->stringValue(),
            "frame-too-large");
  sendAll(Fd, "tail-of-oversized-frame\n"); // terminator, then resync
  JsonValue Ok = rpc(Fd, "{\"op\":\"stats\"}");
  EXPECT_TRUE(Ok.member("ok")->boolValue());
  ::close(Fd);
}

TEST_F(DaemonTest, CleanShutdownUnlinksSocketAndExitsZero) {
  int Fd = connectClient();
  JsonValue R = rpc(Fd, "{\"op\":\"shutdown\"}");
  EXPECT_TRUE(R.member("ok")->boolValue());
  ::close(Fd);

  int Status = 0;
  for (int I = 0; I < 200; ++I) {
    pid_t W = ::waitpid(Pid, &Status, WNOHANG);
    if (W == Pid)
      break;
    ::usleep(20 * 1000);
  }
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  Pid = -1; // TearDown must not re-reap

  struct stat St;
  EXPECT_NE(::stat(SocketPath.c_str(), &St), 0)
      << "socket must be unlinked on clean shutdown";
}

} // namespace
