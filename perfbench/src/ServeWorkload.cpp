//===- ServeWorkload.cpp - serve-eval / serve-compile-mix over a socket ---===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Socket traffic against a spawned `igen --serve` daemon with two
/// workers. One client thread keeps one request outstanding on each of
/// two connections (a closed loop: clients of the daemon wait for each
/// reply). Every reply is matched to the request outstanding on its
/// connection — queue-full, shutting-down and frame-too-large errors
/// carry no `id` — and every eval result must contain the client's own
/// binary128 evaluation of the served formula.
///
///   serve-eval         handles compiled during setup; 60% horner, 25%
///                      henon (n in [10,50]), 15% dot over 64-element
///                      arrays. Reads only.
///   serve-compile-mix  IGEN_SERVE_CACHE=16; 30% compiles of never-seen
///                      variants (miss, insert, evict), 10% compiles of a
///                      recent variant (hit), 60% evals on one of the
///                      NewestHandles newest handles.
///
/// The traced run replays the frames it sent in-process to split a
/// request into its layers: serve-eval a seeded sample, stage by stage
/// (parseJson, cache lookup and argument marshalling, evalFunction,
/// rendering the reply) and whole (ServerCore::handleFrame);
/// serve-compile-mix all of them in order through a timed cache lookup and
/// ServerCore::handleFrame.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "interval/Interval.h"
#include "interval/Rounding.h"
#include "interval/Ulp.h"
#include "server/Evaluator.h"
#include "server/FunctionCache.h"
#include "server/Json.h"
#include "server/ServerCore.h"
#include "support/JsonWriter.h"

#include <quadmath.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace pb {
namespace {

using igen::Interval;
using Q = __float128;
using namespace igen::server;

/// The mix's hits and evals target this many of the most recently
/// registered handles (N), which must stay resident in the daemon's
/// 16-entry LRU. Between a handle's insert and the last request aimed at
/// it, the daemon can touch N older handles (registering it pushes one
/// out while a request to that one may be in flight), N - 1 newer ones
/// and one insert whose reply has not arrived (measure() sends a
/// never-seen compile only while nothing else is in flight): 2N + 1
/// entries with it. N = 6 gives 13, a margin of 3; N = 8 would reach 17.
constexpr size_t NewestHandles = 6;

//===----------------------------------------------------------------------===//
// Transport
//===----------------------------------------------------------------------===//

/// One client connection: whole-line writes, buffered line reads.
class Conn {
public:
  Conn() = default;
  ~Conn() { close(); }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool open(const std::string &Path) {
    close();
    Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un A{};
    A.sun_family = AF_UNIX;
    if (Fd < 0 || Path.size() >= sizeof(A.sun_path))
      return false;
    std::memcpy(A.sun_path, Path.c_str(), Path.size());
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0;
  }
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    Buf.clear();
    Pos = 0;
  }
  int fd() const { return Fd; }

  bool send(const std::string &Line) {
    std::string Out = Line + "\n";
    for (size_t Off = 0; Off < Out.size();) {
      ssize_t N = ::send(Fd, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }
  /// Reads what is available; false on EOF or error.
  bool readSome() {
    char Tmp[64 * 1024];
    ssize_t N;
    do
      N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    while (N < 0 && errno == EINTR);
    if (N <= 0)
      return false;
    Buf.append(Tmp, static_cast<size_t>(N));
    return true;
  }
  bool nextLine(std::string &Line) {
    size_t Nl = Buf.find('\n', Pos);
    if (Nl == std::string::npos) {
      Buf.erase(0, Pos);
      Pos = 0;
      return false;
    }
    Line.assign(Buf, Pos, Nl - Pos);
    Pos = Nl + 1;
    return true;
  }
  /// Blocking request/response (setup, stats and shutdown only).
  bool call(const std::string &Frame, std::string &Resp, int TimeoutMs) {
    if (!send(Frame))
      return false;
    while (!nextLine(Resp)) {
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, TimeoutMs) <= 0 || !readSome())
        return false;
    }
    return true;
  }

private:
  int Fd = -1;
  std::string Buf;
  size_t Pos = 0;
};

/// The spawned `igen --serve` process.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns the daemon and waits for its "serving on" line.
  bool start(const std::string &Socket, bool Mix, std::string &Err) {
    SocketPath = Socket;
    int P[2];
    if (::pipe2(P, O_CLOEXEC) != 0) {
      Err = "pipe failed";
      return false;
    }
    // Hermetic environment: no inherited IGEN_* knobs.
    std::vector<std::string> Env;
    for (char **E = environ; *E; ++E)
      if (std::strncmp(*E, "IGEN_", 5) != 0)
        Env.push_back(*E);
    if (Mix)
      Env.push_back("IGEN_SERVE_CACHE=16");
    std::vector<char *> EnvP;
    for (std::string &S : Env)
      EnvP.push_back(S.data());
    EnvP.push_back(nullptr);
    std::string SockArg = "--serve=" + Socket;
    std::string Cli = IGEN_CLI_PATH;
    char Workers[] = "--serve-workers=2";
    char *Argv[] = {Cli.data(), SockArg.data(), Workers, nullptr};
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_addopen(&FA, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_adddup2(&FA, P[1], 2);
    int Rc = posix_spawn(&Pid, Argv[0], &FA, nullptr, Argv, EnvP.data());
    posix_spawn_file_actions_destroy(&FA);
    ::close(P[1]);
    if (Rc != 0) {
      ::close(P[0]);
      Pid = -1;
      Err = "cannot spawn " + Cli;
      return false;
    }
    ErrFd = P[0];
    std::string Text;
    int64_t Deadline = nowNs() + 10'000'000'000LL;
    while (Text.find("serving on") == std::string::npos) {
      pollfd PF{ErrFd, POLLIN, 0};
      int Left = static_cast<int>((Deadline - nowNs()) / 1'000'000);
      char Buf[4096];
      ssize_t N = 0;
      if (Left <= 0 || ::poll(&PF, 1, Left) <= 0 ||
          (N = ::read(ErrFd, Buf, sizeof(Buf))) <= 0) {
        Err = "daemon did not announce itself: " + Text;
        return false;
      }
      Text.append(Buf, static_cast<size_t>(N));
    }
    // Keep draining the daemon's stderr so it can never block on it.
    Drain = std::thread([Fd = ErrFd] {
      char Buf[4096];
      while (::read(Fd, Buf, sizeof(Buf)) > 0) {
      }
    });
    return true;
  }

  /// Records the daemon's peak resident set, asks it to shut down, waits
  /// for it, and kills it if it has not exited within 5 s.
  void stop() {
    if (Pid > 0) {
      PeakRssMb = vmHwmMb();
      {
        Conn C;
        std::string Resp;
        if (C.open(SocketPath))
          C.call("{\"op\":\"shutdown\"}", Resp, 2000);
      }
      int Status = 0;
      int64_t Deadline = nowNs() + 5'000'000'000LL;
      while (::waitpid(Pid, &Status, WNOHANG) == 0) {
        if (nowNs() > Deadline) {
          ::kill(Pid, SIGKILL);
          ::waitpid(Pid, &Status, 0);
          break;
        }
        ::usleep(2000);
      }
      Pid = -1;
    }
    if (Drain.joinable())
      Drain.join();
    if (ErrFd >= 0)
      ::close(ErrFd);
    ErrFd = -1;
  }

  double PeakRssMb = 0; ///< set by stop()

private:
  /// The daemon's VmHWM. Not its ru_maxrss: Linux carries the peak
  /// resident set of the memory a program is exec'd from into it, and
  /// posix_spawn execs from this process's (see ChildProbe.cpp).
  double vmHwmMb() const {
    std::ifstream Status("/proc/" + std::to_string(Pid) + "/status");
    std::string Key;
    double Kb = 0;
    while (Status >> Key)
      if (Key == "VmHWM:" && Status >> Kb)
        break;
    return Kb / 1024.0;
  }

  pid_t Pid = -1;
  int ErrFd = -1;
  std::string SocketPath;
  std::thread Drain;
};

//===----------------------------------------------------------------------===//
// Served programs and their binary128 references
//===----------------------------------------------------------------------===//

enum class Tmpl { Horner, Henon, Dot };

/// One compiled program: a template instantiated with a function-name
/// suffix and decimal constants.
struct Variant {
  Tmpl K = Tmpl::Horner;
  std::vector<std::string> Consts;
  std::string Source, Function;
  int OptLevel = 0;
  std::string CompileBody; ///< compile frame without its leading `{"id":N,`
  std::string Handle;
};

std::string hornerSource(const std::string &Sfx,
                         const std::vector<std::string> &C) {
  return "double horner" + Sfx + "(double x) {\n  double c0 = " + C[0] +
         "; double c1 = " + C[1] + "; double c2 = " + C[2] +
         ";\n  double c3 = " + C[3] + "; double c4 = " + C[4] +
         ";\n  return (((c4 * x + c3) * x + c2) * x + c1) * x + c0;\n}\n";
}

std::string henonSource(const std::string &Sfx,
                        const std::vector<std::string> &C) {
  return "double henon" + Sfx +
         "(double x0, double y0, int n) {\n"
         "  double x = x0; double y = y0;\n"
         "  for (int i = 0; i < n; i = i + 1) {\n"
         "    double xn = 1.0 - " +
         C[0] + " * x * x + y;\n    y = " + C[1] +
         " * x;\n    x = xn;\n  }\n  return x;\n}\n";
}

/// A small BLAS-like module: services compile modules, and the eval calls
/// one entry point with two array arguments.
std::string dotSource(const std::string &Sfx) {
  return "double dot" + Sfx +
         "(double a[64], double b[64]) {\n"
         "  double s = 0.0;\n"
         "  for (int i = 0; i < 64; i = i + 1) { s = s + a[i] * b[i]; }\n"
         "  return s;\n}\n"
         "void axpy" +
         Sfx +
         "(double alpha, double x[64], double y[64]) {\n"
         "  for (int i = 0; i < 64; i = i + 1) { y[i] = alpha * x[i] + y[i]; "
         "}\n}\n"
         "double nrm2sq" +
         Sfx +
         "(double x[64]) {\n"
         "  double s = 0.0;\n"
         "  for (int i = 0; i < 64; i = i + 1) { s = s + x[i] * x[i]; }\n"
         "  return s;\n}\n"
         "double asum" +
         Sfx +
         "(double x[64]) {\n"
         "  double s = 0.0;\n"
         "  for (int i = 0; i < 64; i = i + 1) {\n"
         "    double v = x[i];\n"
         "    if (v < 0.0) { v = 0.0 - v; }\n"
         "    s = s + v;\n  }\n  return s;\n}\n";
}

Variant makeVariant(Tmpl K, const std::string &Sfx,
                    std::vector<std::string> Consts, int OptLevel) {
  Variant V;
  V.K = K;
  V.Consts = std::move(Consts);
  V.OptLevel = OptLevel;
  switch (K) {
  case Tmpl::Horner:
    V.Source = hornerSource(Sfx, V.Consts);
    V.Function = "horner" + Sfx;
    break;
  case Tmpl::Henon:
    V.Source = henonSource(Sfx, V.Consts);
    V.Function = "henon" + Sfx;
    break;
  case Tmpl::Dot:
    V.Source = dotSource(Sfx);
    V.Function = "dot" + Sfx;
    break;
  }
  V.CompileBody = "\"op\":\"compile\",\"source\":\"" + jsonEscape(V.Source) +
                  "\",\"options\":{\"opt_level\":" +
                  std::to_string(OptLevel) + ",\"target\":\"ss\"}}";
  return V;
}

const std::vector<std::string> HornerConsts = {"1.0", "-0.5", "0.25",
                                               "-0.125", "0.0625"};
const std::vector<std::string> HenonConsts = {"1.4", "0.3"};

/// Seeded perturbation of every constant by a multiple of 1/1024, written
/// as an exact decimal.
std::vector<std::string> perturb(const std::vector<std::string> &Base,
                                 Rng &G) {
  std::vector<std::string> Out;
  for (const std::string &C : Base) {
    char Buf[64];
    double V = std::strtod(C.c_str(), nullptr) + G.integer(-16, 16) / 1024.0;
    std::snprintf(Buf, sizeof(Buf), "%.10f", V);
    Out.push_back(Buf);
  }
  return Out;
}

/// Eval arguments: width-1-ulp intervals sent bit-exactly as hex endpoints.
struct EvalArgs {
  /// Lower endpoints: horner x; henon x0, y0; dot a[64] then b[64].
  std::vector<double> X;
  int N = 0; ///< henon iteration count
  std::string Json;
};

std::string hexInterval(double Lo) {
  uint64_t L, H;
  double Hi = igen::nextUp(Lo);
  std::memcpy(&L, &Lo, 8);
  std::memcpy(&H, &Hi, 8);
  char Buf[80];
  std::snprintf(Buf, sizeof(Buf),
                "{\"lo_hex\":\"%016llx\",\"hi_hex\":\"%016llx\"}",
                (unsigned long long)L, (unsigned long long)H);
  return Buf;
}

EvalArgs makeArgs(Tmpl K, Rng &G) {
  EvalArgs A;
  switch (K) {
  case Tmpl::Horner:
    A.X = {G.uniform(0.25, 0.75)};
    A.Json = "[" + hexInterval(A.X[0]) + "]";
    break;
  case Tmpl::Henon:
    A.X = {G.uniform(-0.1, 0.1), G.uniform(-0.1, 0.1)};
    A.N = G.integer(10, 50);
    A.Json = "[" + hexInterval(A.X[0]) + "," + hexInterval(A.X[1]) +
             ",{\"int\":" + std::to_string(A.N) + "}]";
    break;
  case Tmpl::Dot:
    A.Json = "[";
    for (int Arr = 0; Arr < 2; ++Arr) {
      A.Json += Arr ? ",{\"array\":[" : "{\"array\":[";
      for (int I = 0; I < 64; ++I) {
        A.X.push_back(G.uniform(-1.0, 1.0));
        A.Json += (I ? "," : "") + hexInterval(A.X.back());
      }
      A.Json += "]}";
    }
    A.Json += "]";
    break;
  }
  return A;
}

/// The served formula in binary128 at the arguments' lower endpoints.
Q reference(const Variant &V, const EvalArgs &A) {
  igen::RoundNearestScope RN;
  auto C = [&](size_t I) { return strtoflt128(V.Consts[I].c_str(), nullptr); };
  switch (V.K) {
  case Tmpl::Horner: {
    Q X = A.X[0];
    return (((C(4) * X + C(3)) * X + C(2)) * X + C(1)) * X + C(0);
  }
  case Tmpl::Henon: {
    Q X = A.X[0], Y = A.X[1], Av = C(0), Bv = C(1);
    for (int I = 0; I < A.N; ++I) {
      Q Xn = 1 - Av * X * X + Y;
      Y = Bv * X;
      X = Xn;
    }
    return X;
  }
  case Tmpl::Dot: {
    Q S = 0;
    for (int I = 0; I < 64; ++I)
      S += static_cast<Q>(A.X[I]) * static_cast<Q>(A.X[64 + I]);
    return S;
  }
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

enum class Kind { Horner, Henon, Dot, CompileMiss, CompileHit };
const char *const KindNames[] = {"horner", "henon", "dot", "compile_miss",
                                 "compile_hit"};

Kind evalKind(Tmpl K) {
  return K == Tmpl::Horner ? Kind::Horner
         : K == Tmpl::Henon ? Kind::Henon
                            : Kind::Dot;
}
bool isCompile(Kind K) {
  return K == Kind::CompileMiss || K == Kind::CompileHit;
}

struct Request {
  Kind K = Kind::Horner;
  int Var = -1;     ///< index of the variant compiled or evaluated
  std::string Body; ///< frame without its leading `{"id":N,`
  Q Ref = 0;        ///< evals: the reference result
};

std::string evalBody(const Variant &V, const EvalArgs &A) {
  return "\"op\":\"eval\",\"handle\":\"" + V.Handle + "\",\"function\":\"" +
         V.Function + "\",\"args\":" + A.Json + "}";
}

/// Field value after `"Name": ` in a flat response line.
std::string_view fieldAt(std::string_view Line, std::string_view Name,
                         size_t From = 0) {
  std::string Key = "\"" + std::string(Name) + "\": ";
  size_t P = Line.find(Key, From);
  if (P == std::string_view::npos)
    return {};
  P += Key.size();
  if (P < Line.size() && Line[P] == '"') {
    size_t E = Line.find('"', P + 1);
    return E == std::string_view::npos ? std::string_view()
                                       : Line.substr(P + 1, E - P - 1);
  }
  size_t E = Line.find_first_of(",}", P);
  return Line.substr(P, E == std::string_view::npos ? E : E - P);
}

bool hexDouble(std::string_view S, double &D) {
  uint64_t Bits;
  if (!parseHandle(S, Bits))
    return false;
  std::memcpy(&D, &Bits, 8);
  return true;
}

//===----------------------------------------------------------------------===//
// Sessions
//===----------------------------------------------------------------------===//

struct StatsSnap {
  double Count = 0, TotalUs = 0, Hits = 0, Misses = 0, Evictions = 0,
         Compiles = 0;

  /// Adds the traffic between snapshots \p Before and \p After.
  void addDelta(const StatsSnap &After, const StatsSnap &Before) {
    Count += After.Count - Before.Count;
    TotalUs += After.TotalUs - Before.TotalUs;
    Hits += After.Hits - Before.Hits;
    Misses += After.Misses - Before.Misses;
    Evictions += After.Evictions - Before.Evictions;
    Compiles += After.Compiles - Before.Compiles;
  }
};

/// One set-up daemon with its two client connections and request sources.
struct Session {
  Daemon D; // declared first: destroyed after the connections close
  Conn C[2];
  std::string Socket;
  bool Mix = false;
  Rng G{0};
  uint64_t ArgSeed = 0, VariantSeed = 0;
  uint64_t NextId = 0;

  std::vector<Variant> Variants;
  std::vector<std::string> SetupFrames;
  /// Frames sent after setup, in order, for the traced run's replay.
  std::vector<std::pair<Kind, std::string>> Sent;
  size_t KeepSent = 0;
  // serve-eval: a fixed pool of requests, each built with its reference
  // on first use (in the untimed warm-up, not in setup).
  std::vector<Request> Pool;
  size_t PoolPos = 0;
  // serve-compile-mix: the newest handles and 64 argument sets per
  // template (also built on first use).
  std::deque<int> Newest;
  std::vector<Kind> Block; ///< the rest of the current block of ten
  std::vector<EvalArgs> Args[3];

  std::string frame(const std::string &Body) {
    return "{\"id\":" + std::to_string(++NextId) + "," + Body;
  }

  /// Blocking compile during setup; records the handle.
  bool compile(Variant &V, std::string &Err) {
    std::string F = frame(V.CompileBody), Resp;
    SetupFrames.push_back(F);
    if (!C[0].call(F, Resp, 10000) || Resp.rfind("{\"ok\": true", 0) != 0) {
      Err = "setup compile failed: " + Resp.substr(0, 300);
      return false;
    }
    V.Handle = std::string(fieldAt(Resp, "handle"));
    return V.Handle.size() == 16;
  }

  template <class V> void shuffle(std::vector<V> &Xs) {
    for (size_t I = Xs.size(); I > 1; --I)
      std::swap(Xs[I - 1], Xs[G.next() % I]);
  }

  /// Argument set \p I of template \p K, from its own seed so that the
  /// order of first use does not change it.
  EvalArgs makeArgsAt(Tmpl K, size_t I) const {
    Rng R(ArgSeed + 3 * I + static_cast<size_t>(K));
    return makeArgs(K, R);
  }

  /// The mix's never-seen variant \p N: templates take turns, opt levels
  /// alternate, constants come from the variant's own seed.
  Variant variantAt(size_t N) const {
    Rng R(VariantSeed + N);
    Tmpl K = static_cast<Tmpl>(N % 3);
    return makeVariant(K, "_v" + std::to_string(N),
                       K == Tmpl::Horner  ? perturb(HornerConsts, R)
                       : K == Tmpl::Henon ? perturb(HenonConsts, R)
                                          : std::vector<std::string>(),
                       static_cast<int>(N % 2));
  }

  void remember(int V) {
    Newest.push_front(V);
    if (Newest.size() > NewestHandles) {
      // No request will name it again: drop its text.
      Variant &Old = Variants[Newest.back()];
      std::string().swap(Old.Source);
      std::string().swap(Old.CompileBody);
      Newest.pop_back();
    }
  }

  bool setUp(const Options &Opts, bool IsMix, int Rep, std::string &Err) {
    Mix = IsMix;
    Socket = Opts.WorkDir + "/d" + std::to_string(::getpid()) + "-" +
             std::to_string(Rep) + ".sock";
    G = Rng(subSeed(Opts.Seed, Mix ? "serve.mix" : "serve.eval"));
    ArgSeed = subSeed(Opts.Seed, "serve.args");
    VariantSeed = subSeed(Opts.Seed, "serve.variants");
    if (!D.start(Socket, Mix, Err))
      return false;
    for (Conn &X : C)
      if (!X.open(Socket)) {
        Err = "cannot connect to " + Socket;
        return false;
      }
    if (!Mix) {
      Variants.push_back(makeVariant(Tmpl::Horner, "", HornerConsts, 0));
      Variants.push_back(makeVariant(Tmpl::Henon, "", HenonConsts, 0));
      Variants.push_back(makeVariant(Tmpl::Dot, "", {}, 0));
      for (Variant &V : Variants)
        if (!compile(V, Err))
          return false;
      // 60% horner, 25% henon, 15% dot.
      for (int I = 0; I < 1000; ++I) {
        Tmpl K = I < 600 ? Tmpl::Horner : I < 850 ? Tmpl::Henon : Tmpl::Dot;
        Pool.push_back({evalKind(K), static_cast<int>(K), "", 0});
      }
      shuffle(Pool);
      return true;
    }
    for (std::vector<EvalArgs> &A : Args)
      A.resize(64);
    for (size_t I = 0; I < NewestHandles; ++I) {
      Variants.push_back(variantAt(Variants.size()));
      if (!compile(Variants.back(), Err))
        return false;
      remember(static_cast<int>(Variants.size()) - 1);
    }
    return true;
  }

  /// The next request. Both mixes hold their proportions exactly (a
  /// shuffled pool, or shuffled blocks of ten), so a seed changes which
  /// inputs are sent but not how much work they are.
  Request next() {
    if (!Mix) {
      size_t I = PoolPos++ % Pool.size();
      Request &R = Pool[I];
      if (R.Body.empty()) {
        const Variant &V = Variants[R.Var];
        EvalArgs A = makeArgsAt(V.K, I);
        R.Body = evalBody(V, A);
        R.Ref = reference(V, A);
      }
      return R;
    }
    if (Block.empty()) {
      Block = {Kind::CompileMiss, Kind::CompileMiss, Kind::CompileMiss,
               Kind::CompileHit};
      Block.resize(10, Kind::Horner); // evals
      shuffle(Block);
    }
    Kind Slot = Block.back();
    Block.pop_back();
    if (Slot == Kind::CompileMiss) {
      Variants.push_back(variantAt(Variants.size()));
      int V = static_cast<int>(Variants.size()) - 1;
      return {Kind::CompileMiss, V, Variants[V].CompileBody, 0};
    }
    int V = Newest[G.integer(0, static_cast<int>(Newest.size()) - 1)];
    if (Slot == Kind::CompileHit)
      return {Kind::CompileHit, V, Variants[V].CompileBody, 0};
    const Variant &Var = Variants[V];
    size_t I = G.integer(0, 63);
    EvalArgs &A = Args[static_cast<int>(Var.K)][I];
    if (A.Json.empty())
      A = makeArgsAt(Var.K, I);
    return {evalKind(Var.K), V, evalBody(Var, A), reference(Var, A)};
  }

  bool stats(StatsSnap &S) {
    std::string Resp;
    if (!C[0].call(frame("\"op\":\"stats\"}"), Resp, 10000))
      return false;
    JsonParseResult P = parseJson(Resp);
    const JsonValue *St = P.Ok ? P.Value.member("stats") : nullptr;
    if (!St)
      return false;
    auto Num = [](const JsonValue *V,
                  std::initializer_list<const char *> Path) {
      for (const char *K : Path)
        V = V ? V->member(K) : nullptr;
      return V && V->isNumber() ? V->numberValue() : 0.0;
    };
    for (const char *Ep : {"compile", "eval"}) {
      S.Count += Num(St, {"latency_us", Ep, "count"});
      S.TotalUs += Num(St, {"latency_us", Ep, "total_us"});
    }
    S.Hits = Num(St, {"cache", "hits"});
    S.Misses = Num(St, {"cache", "misses"});
    S.Evictions = Num(St, {"cache", "evictions"});
    S.Compiles = Num(St, {"requests", "compile", "count"});
    return true;
  }
};

//===----------------------------------------------------------------------===//
// The closed loop
//===----------------------------------------------------------------------===//

struct Window {
  std::vector<double> LatNs; ///< the latency metrics' samples
  double Replies = 0, LatSumNs = 0, Ns = 0;
  /// Per slice of at least half the slice length: reply rate and median
  /// latency.
  std::vector<double> SliceRps, SliceP50Ns;

  void add(const Window &O) {
    LatNs.insert(LatNs.end(), O.LatNs.begin(), O.LatNs.end());
    Replies += O.Replies;
    LatSumNs += O.LatSumNs;
    Ns += O.Ns;
    SliceRps.insert(SliceRps.end(), O.SliceRps.begin(), O.SliceRps.end());
    SliceP50Ns.insert(SliceP50Ns.end(), O.SliceP50Ns.begin(),
                      O.SliceP50Ns.end());
  }
  bool empty() const { return SliceRps.empty(); }
  /// The median over slices of the reply rate.
  double rps() const { return median(SliceRps); }
};

/// Checks one reply against its request; updates the mix's newest handles.
void checkReply(Session &S, const Request &Req, uint64_t Id,
                const std::string &Line, Outcome &O) {
  std::string What = std::string(KindNames[static_cast<int>(Req.K)]) +
                     " request " + std::to_string(Id);
  if (Line.rfind("{\"ok\": true", 0) != 0) {
    O.fail(What + " answered " + Line.substr(0, 300));
    return;
  }
  if (fieldAt(Line, "id") != std::to_string(Id)) {
    O.fail(What + " answered with another id: " + Line.substr(0, 120));
    return;
  }
  if (isCompile(Req.K)) {
    std::string_view Handle = fieldAt(Line, "handle");
    std::string_view Cached = fieldAt(Line, "cached");
    bool WantCached = Req.K == Kind::CompileHit;
    if (Handle.size() != 16 || Cached != (WantCached ? "true" : "false")) {
      O.fail(What + " expected cached=" + (WantCached ? "true" : "false") +
             ": " + Line.substr(0, 300));
      return;
    }
    if (Req.K == Kind::CompileMiss) {
      S.Variants[Req.Var].Handle = std::string(Handle);
      S.remember(Req.Var);
    }
    return;
  }
  size_t R = Line.find("\"result\": {");
  double Lo, Hi;
  if (R == std::string::npos || !hexDouble(fieldAt(Line, "lo_hex", R), Lo) ||
      !hexDouble(fieldAt(Line, "hi_hex", R), Hi)) {
    O.fail(What + " has no interval result: " + Line.substr(0, 300));
    return;
  }
  if (!(static_cast<Q>(Lo) <= Req.Ref && Req.Ref <= static_cast<Q>(Hi))) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "[%.17g, %.17g]", Lo, Hi);
    O.fail(What + " result " + Buf +
           " does not contain the binary128 reference " + quadString(Req.Ref));
  }
}

/// Runs the closed loop for \p Seconds. Every InterleaveSlices slices it
/// lets the replies in flight arrive, runs a round of \p Check when one is
/// given, and resumes with a new slice.
void measure(Session &S, double Seconds, Outcome &O, Tracer &T,
             Gated<Window> &P, AotCheck *Check) {
  struct Slot {
    bool Busy = false;
    bool Waiting = false; ///< holds a never-seen compile until the other
                          ///< connection's request has completed
    int64_t SentNs = 0;
    uint64_t Id = 0;
    Request Req;
  } Slots[2];
  int64_t Start = nowNs();
  int64_t End = Start + static_cast<int64_t>(Seconds * 1e9);
  StealGate Gate;
  Window W;
  int64_t SliceStart = Start;
  int Slices = 0;
  bool Pausing = false; ///< no new requests until Check has run
  auto CloseSlice = [&](int64_t Now) {
    W.Ns = static_cast<double>(Now - SliceStart);
    if (W.Ns >= SliceNs / 2 && !W.LatNs.empty()) {
      W.SliceRps = {W.Replies * 1e9 / W.Ns};
      W.SliceP50Ns = {median(W.LatNs)};
    }
    P.add(W, Gate);
    W = Window();
    SliceStart = Now;
  };
  auto Transmit = [&](int C) {
    Slot &Sl = Slots[C];
    Sl.Waiting = false;
    std::string F = S.frame(Sl.Req.Body);
    Sl.Id = S.NextId;
    if (S.Sent.size() < S.KeepSent)
      S.Sent.emplace_back(Sl.Req.K, F);
    Sl.SentNs = nowNs();
    Sl.Busy = S.C[C].send(F);
    if (!Sl.Busy)
      O.fail("send failed on connection " + std::to_string(C));
  };
  // A never-seen compile goes out only while nothing else is in flight.
  // An insert can evict, and a request in flight may be aimed at the
  // oldest handle the client still uses (its worker may even be
  // preempted while the other connection inserts again and again); with
  // at most one insert per request in flight, the 16-entry LRU always
  // keeps the handles the mix aims at (see NewestHandles).
  auto Send = [&](int C) {
    Slots[C].Req = S.next();
    if (Slots[C].Req.K == Kind::CompileMiss && Slots[1 - C].Busy)
      Slots[C].Waiting = true;
    else
      Transmit(C);
  };
  Send(0);
  Send(1);
  std::string Line;
  while (true) {
    if (!Slots[0].Busy && !Slots[1].Busy) {
      if (!Pausing || nowNs() >= End)
        break;
      Check->round();
      Pausing = false;
      W = Window(); // the replies that arrived while pausing are not timed
      Gate.clean();
      SliceStart = nowNs();
      Send(0);
      Send(1);
      continue;
    }
    pollfd P[2] = {{S.C[0].fd(), POLLIN, 0}, {S.C[1].fd(), POLLIN, 0}};
    // The client spins instead of sleeping in poll(): waking an idle vCPU
    // costs tens of microseconds on a virtual machine, varies from run to
    // run with the host, and is the client's cost, not the daemon's.
    int N;
    int64_t Deadline = nowNs() + 10'000'000'000LL;
    while ((N = ::poll(P, 2, 0)) == 0 && nowNs() < Deadline) {
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      O.fail("no reply from the daemon within 10 s");
      return;
    }
    for (int C = 0; C < 2; ++C) {
      if (!(P[C].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      if (!S.C[C].readSome()) {
        O.fail("daemon closed connection " + std::to_string(C));
        Slots[C].Busy = false;
        continue;
      }
      while (S.C[C].nextLine(Line)) {
        Slot &Sl = Slots[C];
        int64_t Now = nowNs();
        O.attempt();
        if (!Sl.Busy) {
          O.fail("unsolicited reply on connection " + std::to_string(C));
          continue;
        }
        T.record("client.request", Sl.SentNs, Now, Sl.Id, C);
        checkReply(S, Sl.Req, Sl.Id, Line, O);
        double Lat = static_cast<double>(Now - Sl.SentNs);
        W.Replies += 1;
        W.LatSumNs += Lat;
        if (!S.Mix || isCompile(Sl.Req.K))
          W.LatNs.push_back(Lat);
        if (Now - SliceStart >= SliceNs) {
          CloseSlice(Now);
          Pausing = Check && ++Slices % InterleaveSlices == 0;
        }
        Sl.Busy = false;
        if (Now < End && Slots[1 - C].Waiting)
          Transmit(1 - C);
        if (Now < End && !Pausing)
          Send(C);
      }
    }
  }
  CloseSlice(nowNs());
}

//===----------------------------------------------------------------------===//
// In-process replay (traced run)
//===----------------------------------------------------------------------===//

Interval intervalArg(const JsonValue &V) {
  double Lo = 0, Hi = 0;
  const JsonValue *L = V.member("lo_hex"), *H = V.member("hi_hex");
  if (L && H) {
    hexDouble(L->stringValue(), Lo);
    hexDouble(H->stringValue(), Hi);
  }
  return Interval::fromEndpoints(Lo, Hi);
}

/// The argument forms this benchmark sends, marshalled as the daemon does.
std::vector<EvalArg> marshal(const JsonValue &Args) {
  std::vector<EvalArg> Out;
  for (const JsonValue &A : Args.arrayValue()) {
    EvalArg E;
    if (const JsonValue *I = A.member("int")) {
      E.K = EvalArg::Kind::Int;
      E.IntValue = static_cast<long long>(I->numberValue());
    } else if (const JsonValue *Arr = A.member("array")) {
      E.K = EvalArg::Kind::Array;
      for (const JsonValue &X : Arr->arrayValue())
        E.Elements.push_back(intervalArg(X));
    } else {
      E.Scalar = intervalArg(A);
    }
    Out.push_back(std::move(E));
  }
  return Out;
}

/// JSON document text in the daemon's line format. JsonWriter
/// pretty-prints; the daemon drops every newline and the indent after it.
std::string oneLine(const std::string &Pretty) {
  std::string Out;
  Out.reserve(Pretty.size());
  for (size_t I = 0; I < Pretty.size(); ++I) {
    if (Pretty[I] != '\n') {
      Out.push_back(Pretty[I]);
      continue;
    }
    while (I + 1 < Pretty.size() && Pretty[I + 1] == ' ')
      ++I;
  }
  return Out;
}

void writeHexField(igen::JsonWriter &W, const char *Name, double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, 8);
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)Bits);
  W.field(Name, std::string_view(Buf));
}

void writeIntervalFields(igen::JsonWriter &W, const Interval &I) {
  W.field("lo", I.lo());
  W.field("hi", I.hi());
  writeHexField(W, "lo_hex", I.lo());
  writeHexField(W, "hi_hex", I.hi());
}

/// The reply the daemon renders for a successful scalar eval: the same
/// fields, written through the same JsonWriter (the render stage of the
/// staged replay).
std::string renderEval(uint64_t Id, const EvalResult &ER) {
  igen::JsonWriter W;
  W.beginObject();
  W.field("ok", true);
  W.key("id");
  W.value(static_cast<int64_t>(Id));
  W.field("op", std::string_view("eval"));
  W.key("result");
  W.beginObject();
  W.field("kind", std::string_view("interval"));
  writeIntervalFields(W, ER.Return);
  W.endObject();
  W.key("arrays");
  W.beginArray();
  for (const std::vector<Interval> &Arr : ER.ArrayOutputs) {
    W.beginArray();
    for (const Interval &I : Arr) {
      W.beginObject();
      writeIntervalFields(W, I);
      W.endObject();
    }
    W.endArray();
  }
  W.endArray();
  W.field("poisoned", false);
  W.field("wide", false);
  W.field("aot_exact", true);
  W.field("ops", static_cast<uint64_t>(ER.OpsExecuted));
  W.endObject();
  return oneLine(W.take());
}

/// serve-eval: a seeded sample of the sent frames, each replayed twice in
/// process: staged (parseJson, cache lookup, argument marshalling,
/// evalFunction, rendering the reply) and whole (ServerCore::handleFrame).
/// The stages must account for handleFrame's time within 10%.
void replayEvals(const Options &Opts, const Session &S, Report &R,
                 Outcome &O, Tracer &T) {
  ServerCoreConfig Cfg;
  Cfg.CacheCapacity = 64;
  ServerCore Core(Cfg);
  for (const std::string &F : S.SetupFrames)
    Core.handleFrame(F);

  double ParseNs = 0, Bytes = 0, EvalNs = 0, EvalOps = 0, DispatchNs = 0,
         HandleNs = 0;
  std::vector<double> EvalUs[3], HandleUs[3];
  Rng G(subSeed(Opts.Seed, "serve.replay"));
  size_t N = S.Sent.size();
  for (size_t I = 0; I < N; ++I) {
    const auto &[K, Frame] = S.Sent[G.next() % N];
    uint64_t Id = I + 1;
    // The two replays alternate which goes first, so that neither is
    // always the one that finds the frame's data in cache.
    double HandleOne = 0;
    auto Whole = [&] {
      int64_t T5 = nowNs();
      std::string Resp = Core.handleFrame(Frame);
      int64_t T6 = nowNs();
      T.record("server.handle_frame", T5, T6, Id);
      if (Resp.rfind("{\"ok\": true", 0) != 0)
        O.fail("replayed frame failed: " + Resp.substr(0, 200));
      HandleOne = static_cast<double>(T6 - T5);
    };
    if (I % 2)
      Whole();
    int Staged = T.begin("server.staged");
    int64_t T0 = nowNs();
    JsonParseResult P = parseJson(Frame);
    int64_t T1 = nowNs();
    if (!P.Ok) {
      T.end(Staged);
      O.fail("replayed frame does not parse");
      continue;
    }
    const JsonValue &Req = P.Value;
    uint64_t H = 0;
    parseHandle(Req.member("handle")->stringValue(), H);
    std::shared_ptr<const igen::InMemoryProgram> Prog =
        Core.cache().lookup(H, /*CountMiss=*/false);
    std::vector<EvalArg> Args;
    if (Prog)
      Args = marshal(*Req.member("args"));
    int64_t T2 = nowNs();
    if (!Prog) {
      T.end(Staged);
      O.fail("replayed eval has no resident program");
      continue;
    }
    EvalResult ER;
    int64_t T3;
    {
      igen::RoundUpwardScope Up;
      ER = evalFunction(*Prog, Req.member("function")->stringValue(), Args,
                        EvalOptions());
      T3 = nowNs();
    }
    std::string Rendered = renderEval(Id, ER);
    // Keeps the compiler from dropping the unused reply.
    asm volatile("" : : "r"(Rendered.data()) : "memory");
    int64_t T4 = nowNs();
    T.end(Staged);
    T.record("server.json_parse", T0, T1, Id);
    T.record("server.dispatch", T1, T2, Id);
    T.record("server.eval", T2, T3, Id);
    T.record("server.render", T3, T4, Id);
    if (!ER.Ok)
      O.fail("replayed eval failed: " + ER.Error.Code);

    if (I % 2 == 0)
      Whole();

    ParseNs += T1 - T0;
    Bytes += Frame.size();
    EvalNs += T3 - T2;
    EvalOps += ER.OpsExecuted;
    DispatchNs += (T2 - T1) + (T4 - T3);
    HandleNs += HandleOne;
    EvalUs[static_cast<int>(K)].push_back((T3 - T2) * 1e-3);
    HandleUs[static_cast<int>(K)].push_back(HandleOne * 1e-3);
  }
  if (N == 0 || HandleNs == 0) {
    O.fail("no eval was replayed");
    return;
  }
  R.set("server.json_parse_ns_per_byte", ParseNs / Bytes);
  R.set("server.eval_ns_per_op", EvalNs / EvalOps);
  R.set("server.dispatch_render_us", DispatchNs / N * 1e-3);
  for (int K = 0; K < 3; ++K) {
    std::string Name = KindNames[K];
    R.set("server.eval_us." + Name, median(EvalUs[K]));
    R.set("server.handle_frame_us." + Name, median(HandleUs[K]));
  }
  double Sum = ParseNs + EvalNs + DispatchNs;
  double Ratio = Sum / HandleNs;
  bool Ok = std::fabs(Ratio - 1.0) <= 0.10;
  std::printf("trace_check serve_split evals=%zu parse_us=%.1f eval_us=%.1f "
              "dispatch_render_us=%.1f handle_frame_us=%.1f ratio=%.3f %s\n",
              N, ParseNs * 1e-3, EvalNs * 1e-3, DispatchNs * 1e-3,
              HandleNs * 1e-3, Ratio, Ok ? "ok" : "FAIL");
  if (!Ok)
    O.fail("trace check serve_split: parse + eval + dispatch_render is " +
           std::to_string(Ratio) + " x handle_frame");
}

/// serve-compile-mix: the sent frames in order (compiles before the hits
/// and evals that use them) through ServerCore::handleFrame, each after a
/// timed cache lookup of its program.
void replayMix(const Session &S, Report &R, Outcome &O, Tracer &T) {
  ServerCoreConfig Cfg;
  Cfg.CacheCapacity = 16;
  ServerCore Core(Cfg);
  for (const std::string &F : S.SetupFrames)
    Core.handleFrame(F);

  double LookupNs = 0;
  std::vector<double> HandleUs[5];
  for (size_t I = 0; I < S.Sent.size(); ++I) {
    const auto &[K, Frame] = S.Sent[I];
    uint64_t Id = I + 1;
    JsonParseResult P = parseJson(Frame);
    if (!P.Ok) {
      O.fail("replayed frame does not parse");
      continue;
    }
    const JsonValue &Req = P.Value;
    int64_t T0 = nowNs();
    if (isCompile(K)) {
      igen::TransformOptions CO;
      CO.OptLevel = static_cast<int>(
          Req.member("options")->member("opt_level")->numberValue());
      CO.ScalarLibrary = true;
      CO.SourceName = "<serve>";
      Core.cache().lookup(
          hashCompileRequest(Req.member("source")->stringValue(), CO));
    } else {
      uint64_t H = 0;
      parseHandle(Req.member("handle")->stringValue(), H);
      Core.cache().lookup(H, /*CountMiss=*/false);
    }
    int64_t T1 = nowNs();
    std::string Resp = Core.handleFrame(Frame);
    int64_t T2 = nowNs();
    T.record("server.cache_lookup", T0, T1, Id);
    T.record("server.handle_frame", T1, T2, Id);
    if (Resp.rfind("{\"ok\": true", 0) != 0)
      O.fail("replayed frame failed: " + Resp.substr(0, 200));
    LookupNs += T1 - T0;
    HandleUs[static_cast<int>(K)].push_back((T2 - T1) * 1e-3);
  }
  if (HandleUs[static_cast<int>(Kind::CompileMiss)].empty() ||
      HandleUs[static_cast<int>(Kind::CompileHit)].empty()) {
    O.fail("the replay holds no compile hit or miss");
    return;
  }
  R.set("server.cache_lookup_ns", LookupNs / S.Sent.size());
  for (Kind K : {Kind::CompileHit, Kind::CompileMiss})
    R.set(std::string("server.handle_frame_us.") +
              KindNames[static_cast<int>(K)],
          median(HandleUs[static_cast<int>(K)]));
}

} // namespace

void runServe(const Options &Opts, bool Mix, Report &R, Outcome &O,
              Tracer &T, AotCheck *Check) {
  std::unique_ptr<Session> S;
  SetupTimes Setups(Opts);
  while (Setups.more()) {
    S.reset(); // the previous daemon stops outside the timed setup
    S = std::make_unique<Session>();
    std::string Err;
    int Rep = Setups.count();
    Setups.start();
    bool Ok = S->setUp(Opts, Mix, Rep, Err);
    Setups.stop();
    if (!Ok) {
      O.fail(Err);
      return;
    }
  }
  R.set("setup_s", Setups.median());

  // Warm-up traffic (allocator, caches, the mix's LRU reaching its
  // steady state), checked but not timed.
  S->KeepSent = Opts.traced() ? 4000 : 0;
  Gated<Window> Warm, Plain, Traced;
  measure(*S, std::min(1.0, Opts.Seconds / 10), O, T, Warm, nullptr);
  // The daemon's own accounting of the traced segments.
  StatsSnap Served;
  bool HaveStats = true;
  runTimed(Opts, T, [&](double Seconds, bool InTrace) {
    StatsSnap Before, After;
    HaveStats = HaveStats && (!InTrace || S->stats(Before));
    measure(*S, Seconds, O, T, InTrace ? Traced : Plain, Check);
    HaveStats = HaveStats && (!InTrace || S->stats(After));
    if (InTrace)
      Served.addDelta(After, Before);
  });
  S->D.stop();
  if (!Opts.traced()) {
    const Window &M = Plain.measured();
    // Rate and median are medians over 100 ms slices: other load on the
    // host for part of a run moves them only if it covers half of it. The
    // p99 is over every request of the run, so stalls confined to a few
    // slices still show in it.
    R.set("ops_per_s", M.rps());
    R.set("latency_p50_us", median(M.SliceP50Ns) * 1e-3);
    R.set("latency_tail_us", quantile(M.LatNs, 0.99) * 1e-3);
    R.set("peak_rss_mb", S->D.PeakRssMb);
    return;
  }

  R.set(std::string("trace_overhead_pct.") +
            (Mix ? "serve-compile-mix" : "serve-eval"),
        (Plain.measured().rps() / Traced.measured().rps() - 1.0) * 100.0);
  if (!HaveStats)
    O.fail("daemon stats request failed");
  T.setActive(true);
  if (Mix) {
    if (Served.Hits + Served.Misses == 0 || Served.Compiles == 0)
      O.fail("the daemon counted no compile in the traced segments");
    else {
      R.set("server.cache_hit_ratio",
            Served.Hits / (Served.Hits + Served.Misses));
      R.set("server.evictions_per_compile",
            Served.Evictions / Served.Compiles);
    }
    replayMix(*S, R, O, T);
  } else {
    // stats keeps latency histograms for compile and eval only, so the
    // stats requests themselves are not in these deltas.
    if (Served.Count == 0)
      O.fail("the daemon counted no request in the traced segments");
    else {
      double Service = Served.TotalUs / Served.Count;
      R.set("server.service_us_mean", Service);
      R.set("server.transport_queue_us_mean",
            Traced.All.LatSumNs / Traced.All.Replies * 1e-3 - Service);
    }
    replayEvals(Opts, *S, R, O, T);
  }
  T.setActive(false);
}

} // namespace pb
