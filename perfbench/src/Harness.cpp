//===- Harness.cpp - Shared infrastructure of igen_benchmark --------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/JsonWriter.h"

#include <quadmath.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace pb {

//===----------------------------------------------------------------------===//
// Metrics and correctness
//===----------------------------------------------------------------------===//

void Report::set(const std::string &Name, double Value) {
  for (const auto *Defs : {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricDef &D : *Defs)
      if (D.Name == Name) {
        Values[Name] = Value;
        return;
      }
  std::fprintf(stderr, "igen_benchmark: metric '%s' is not listed\n",
               Name.c_str());
  std::abort();
}

double Report::get(const std::string &Name) const {
  auto It = Values.find(Name);
  return It == Values.end() ? 0.0 : It->second;
}

void Outcome::fail(const std::string &What) {
  if (Failed < 10)
    std::fprintf(stderr, "igen_benchmark: FAIL: %s\n", What.c_str());
  else if (Failed == 10)
    std::fprintf(stderr, "igen_benchmark: further failures not shown\n");
  ++Failed;
}

//===----------------------------------------------------------------------===//
// Timing and statistics
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / V.size();
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / V.size());
}

bool SetupTimes::more() const {
  if (Traced)
    return All.empty();
  double Spent = 0;
  for (double S : Clean)
    Spent += S;
  return All.size() < 99 && (Clean.size() < 9 || Spent < 1.0);
}

void SetupTimes::start() {
  Gate.clean();
  StartNs = nowNs();
}

void SetupTimes::stop() {
  double S = (nowNs() - StartNs) * 1e-9;
  if (Speed)
    S *= Speed();
  All.push_back(S);
  if (Gate.clean())
    Clean.push_back(S);
}

double SetupTimes::median() const {
  return pb::median(Clean.empty() ? All : Clean);
}

double timedSetups(const Options &Opts, const std::function<void()> &Setup,
                   SpeedProbe Speed) {
  SetupTimes Times(Opts, std::move(Speed));
  while (Times.more()) {
    Times.start();
    Setup();
    Times.stop();
  }
  return Times.median();
}

uint64_t StealGate::stealTicks() {
  // cpu  user nice system idle iowait irq softirq steal ...
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  uint64_t Field[8] = {};
  Stat >> Cpu;
  for (uint64_t &F : Field)
    Stat >> F;
  return Stat && Cpu == "cpu" ? Field[7] : 0;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

int Tracer::begin(const char *Name) {
  if (!Active)
    return -1;
  int Parent = Stack.empty() ? -1 : Stack.back();
  Spans.push_back(Span{Name, nowNs(), 0, Parent, 0, 0});
  Stack.push_back(static_cast<int>(Spans.size() - 1));
  return Stack.back();
}

void Tracer::end(int Index) {
  if (Index < 0)
    return;
  Spans[Index].EndNs = nowNs();
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
}

int Tracer::record(const char *Name, int64_t StartNs, int64_t EndNs,
                   uint64_t RequestId, int Lane, int Parent) {
  if (!Active)
    return -1;
  if (Parent < 0 && !Stack.empty())
    Parent = Stack.back();
  Spans.push_back(Span{Name, StartNs, EndNs, Parent, RequestId, Lane});
  return static_cast<int>(Spans.size() - 1);
}

std::vector<double> Tracer::selfTimes(const char *Name) const {
  std::vector<double> Child(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Child[S.Parent] += static_cast<double>(S.EndNs - S.StartNs);
  std::vector<double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (std::strcmp(Spans[I].Name, Name) == 0)
      Out.push_back(static_cast<double>(Spans[I].EndNs - Spans[I].StartNs) -
                    Child[I]);
  return Out;
}

void runTimed(const Options &Opts, Tracer &T,
              const std::function<void(double Seconds, bool Traced)> &Segment) {
  if (!Opts.traced()) {
    Segment(Opts.Seconds, false);
    return;
  }
  for (bool Traced : {false, true, true, false, false, true, true, false}) {
    T.setActive(Traced);
    Segment(Opts.Seconds / 8, Traced);
  }
  T.setActive(false);
}

bool Tracer::writeChrome(const std::string &Path) const {
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    Origin = std::min(Origin, S.StartNs);
  igen::JsonWriter W;
  W.beginObject();
  W.field("displayTimeUnit", "ns");
  W.key("traceEvents");
  W.beginArray();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    W.beginObject();
    W.field("name", S.Name);
    W.field("ph", "X");
    W.field("pid", static_cast<int64_t>(1));
    W.field("tid", static_cast<int64_t>(S.Lane));
    W.field("ts", (S.StartNs - Origin) * 1e-3);
    W.field("dur", (S.EndNs - S.StartNs) * 1e-3);
    W.key("args");
    W.beginObject();
    W.field("span", static_cast<int64_t>(I));
    W.field("parent", static_cast<int64_t>(S.Parent));
    W.field("request", S.RequestId);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.writeTo(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

uint64_t subSeed(uint64_t Seed, const char *Purpose) {
  uint64_t H = 0xcbf29ce484222325ull ^ Seed;
  for (const char *P = Purpose; *P; ++P) {
    H ^= static_cast<unsigned char>(*P);
    H *= 0x100000001b3ull;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Sources
//===----------------------------------------------------------------------===//

std::string quadString(__float128 V) {
  char Buf[64];
  quadmath_snprintf(Buf, sizeof(Buf), "%.36Qg", V);
  return Buf;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream S;
  S << In.rdbuf();
  Out = S.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream O(Path, std::ios::binary | std::ios::trunc);
  O << Data;
  return static_cast<bool>(O);
}

std::vector<KernelSource> loadKernelSources() {
  namespace fs = std::filesystem;
  std::vector<KernelSource> Out;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(
           fs::path(IGEN_SOURCE_ROOT) / "bench" / "kernels", EC)) {
    if (E.path().extension() != ".c")
      continue;
    KernelSource K;
    K.Name = E.path().stem().string();
    if (readFile(E.path().string(), K.Text))
      Out.push_back(std::move(K));
  }
  std::sort(Out.begin(), Out.end(),
            [](const KernelSource &A, const KernelSource &B) {
              return A.Name < B.Name;
            });
  return Out;
}

bool isIdentChar(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
         (C >= '0' && C <= '9') || C == '_';
}

//===----------------------------------------------------------------------===//
// Child processes
//===----------------------------------------------------------------------===//

ChildResult runChild(const std::vector<std::string> &Argv) {
  ChildResult R;
  std::vector<char *> Args = {const_cast<char *>(IGEN_CHILD_PROBE_PATH)};
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  int P[2];
  if (::pipe2(P, O_CLOEXEC) != 0)
    return R;
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_adddup2(&FA, P[1], 1);
  posix_spawn_file_actions_addopen(&FA, 2, "/dev/null", O_WRONLY, 0);
  pid_t Pid = -1;
  int Err = posix_spawn(&Pid, Args[0], &FA, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  ::close(P[1]);
  std::string Out;
  char Buf[256];
  ssize_t N;
  while (Err == 0 && ((N = ::read(P[0], Buf, sizeof(Buf))) > 0 ||
                      (N < 0 && errno == EINTR)))
    if (N > 0)
      Out.append(Buf, static_cast<size_t>(N));
  ::close(P[0]);
  if (Err != 0)
    return R;
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  int Code;
  long MaxRssKb;
  long long Ns;
  if (WIFEXITED(Status) && WEXITSTATUS(Status) == 0 &&
      std::sscanf(Out.c_str(), "%d %ld %lld", &Code, &MaxRssKb, &Ns) == 3) {
    R.ExitCode = Code;
    R.MaxRssMb = MaxRssKb / 1024.0;
    R.ElapsedNs = static_cast<double>(Ns);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Metric names
//===----------------------------------------------------------------------===//

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {{"setup_s", "s"},
                                              {"ops_per_s", "1/s"},
                                              {"latency_p50_us", "us"},
                                              {"latency_tail_us", "us"},
                                              {"peak_rss_mb", "MB"},
                                              {"aot_slowdown_f64", "x"},
                                              {"aot_slowdown_dd", "x"},
                                              {"aot_slowdown_batch", "x"},
                                              {"aot_accuracy_bits", "bits"}};
  return Defs;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = [] {
    std::vector<MetricDef> D;
    for (const char *W : WorkloadNames)
      D.push_back({std::string("trace_overhead_pct.") + W, "%"});
    std::vector<MetricDef> Compiler = {
        {"frontend.lex_ns_per_token", "ns/token"},
        {"frontend.parse_ns_per_token", "ns/token"},
        {"frontend.sema_ns_per_token", "ns/token"},
        {"opt.analyze_ns_per_token", "ns/token"},
        {"transform.lower_ns_per_token", "ns/token"},
        {"pipeline.compile_us_small", "us"},
        {"pipeline.compile_us_large", "us"},
        {"transform.out_bytes_per_src_byte", "ratio"},
        {"transform.ia_calls", "count"},
        {"transform.ia_fma_calls", "count"},
        {"transform.ia_signspec_calls", "count"},
        {"opt.facts", "count"},
        {"opt.fma_hazards", "count"},
    };
    D.insert(D.end(), Compiler.begin(), Compiler.end());
    for (std::string K : {"fft", "potrf", "ffnn", "gemm", "mvm", "henon",
                          "horner", "pade", "gauss"}) {
      D.push_back({"aot." + K + ".slowdown_f64", "x"});
      D.push_back({"aot." + K + ".iops_per_cycle", "iops/cycle"});
      D.push_back({"aot." + K + ".accuracy_bits", "bits"});
    }
    for (std::string K : {"fft", "potrf", "ffnn", "gemm", "mvm", "henon"}) {
      D.push_back({"aot." + K + ".slowdown_dd", "x"});
      D.push_back({"aot." + K + ".accuracy_bits_dd", "bits"});
    }
    for (std::string Op : {"add", "mul", "div", "sqrt", "exp", "dot"}) {
      D.push_back({"aot.iarr_" + Op + ".slowdown_batch", "x"});
      D.push_back({"runtime.iarr_" + Op + ".ns_per_elem", "ns/elem"});
    }
    std::vector<MetricDef> Server = {
        {"server.json_parse_ns_per_byte", "ns/byte"},
        {"server.cache_lookup_ns", "ns"},
        {"server.eval_us.horner", "us"},
        {"server.eval_us.henon", "us"},
        {"server.eval_us.dot", "us"},
        {"server.eval_ns_per_op", "ns/op"},
        {"server.handle_frame_us.horner", "us"},
        {"server.handle_frame_us.henon", "us"},
        {"server.handle_frame_us.dot", "us"},
        {"server.handle_frame_us.compile_hit", "us"},
        {"server.handle_frame_us.compile_miss", "us"},
        {"server.dispatch_render_us", "us"},
        {"server.service_us_mean", "us"},
        {"server.transport_queue_us_mean", "us"},
        {"server.cache_hit_ratio", "ratio"},
        {"server.evictions_per_compile", "ratio"},
    };
    D.insert(D.end(), Server.begin(), Server.end());
    return D;
  }();
  return Defs;
}

} // namespace pb
