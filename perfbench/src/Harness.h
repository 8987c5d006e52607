//===- Harness.h - Shared infrastructure of igen_benchmark ------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the command
/// line, metric collection, correctness accounting, the in-memory span
/// recorder behind the traced run, timing, order statistics, seeded
/// inputs, and child-process handling.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_PERFBENCH_HARNESS_H
#define IGEN_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace pb {

/// The workloads, in the order a traced run covers them.
constexpr const char *WorkloadNames[] = {"aot-kernels", "compile-corpus",
                                         "serve-eval", "serve-compile-mix"};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  /// Non-empty: traced run. Per-layer metrics are printed and the spans
  /// are written there as Chrome trace-event JSON.
  std::string TracePath;
  /// Working directory for sockets, corpus files and CLI outputs.
  std::string WorkDir = ".bench_build/perfbench-run";

  bool traced() const { return !TracePath.empty(); }
};

//===----------------------------------------------------------------------===//
// Metrics and correctness
//===----------------------------------------------------------------------===//

class Report {
public:
  /// Records \p Value for \p Name, which must be a listed metric
  /// (endToEndMetrics / perLayerMetrics, which also give its unit).
  void set(const std::string &Name, double Value);
  bool has(const std::string &Name) const { return Values.count(Name); }
  /// The value of \p Name; 0 when the workload did not set it.
  double get(const std::string &Name) const;

private:
  std::map<std::string, double> Values;
};

/// Operations attempted and failed in the timed phase. Every failure is
/// counted; the first few are described on stderr.
class Outcome {
public:
  void attempt() { ++Attempted; }
  void fail(const std::string &What);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

//===----------------------------------------------------------------------===//
// Timing and statistics
//===----------------------------------------------------------------------===//

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of \p V (copied and sorted); 0 for empty input.
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }
double mean(const std::vector<double> &V);
/// Geometric mean of positive values; 0 for empty input.
double geomean(const std::vector<double> &V);

/// Tells whether the hypervisor let this guest run undisturbed: the steal
/// column of /proc/stat (time a vCPU was ready to run while the host ran
/// something else, summed over CPUs) must not have grown since the
/// previous call. On a shared host steal comes in bursts of seconds; the
/// timed phases are cut into slices, and their end-to-end metrics are
/// read from the slices clean() accepted (README.md, "Steal time").
class StealGate {
public:
  StealGate() : Last(stealTicks()) {}
  bool clean() {
    uint64_t Now = stealTicks();
    bool Clean = Now == Last;
    Last = Now;
    return Clean;
  }

private:
  /// 0 where /proc/stat cannot be read: then every slice is clean.
  static uint64_t stealTicks();
  uint64_t Last;
};

/// Host speed (README.md, "Host speed"). Besides steal, the calibration
/// host changed speed by up to 1.5 times for seconds at a time. The
/// CPU-bound workloads (aot-kernels, compile-corpus) therefore report
/// their times and rates at a reference speed: every measurement is
/// multiplied by a speed factor, ReferenceNativeNs over the geometric mean
/// of the call times of the native twins of aot-kernels (plain double
/// code that no change to the compiler or its runtime touches) timed right
/// after it. A SpeedProbe times them and returns that factor.
constexpr double ReferenceNativeNs = 57'000;
using SpeedProbe = std::function<double()>;

/// The setup repetitions of a run. An untraced run sets up until 9
/// setups ran in steal-free stretches and they took 1 s in all (at most
/// 99 setups): setup_s is their median, because one setup, a daemon spawn
/// in particular, varies by tens of percent on a shared host. A traced run
/// reports no setup_s and sets up once.
class SetupTimes {
public:
  /// \p Speed, when given, runs after every setup; the setup's time is
  /// multiplied by the factor it returns.
  explicit SetupTimes(const Options &Opts, SpeedProbe Speed = {})
      : Traced(Opts.traced()), Speed(std::move(Speed)) {}
  bool more() const;
  /// Setups started so far.
  int count() const { return static_cast<int>(All.size()); }
  /// Bracket one setup.
  void start();
  void stop();
  /// The median setup time in seconds: of the steal-free setups, or of
  /// all when none was.
  double median() const;

private:
  bool Traced;
  SpeedProbe Speed;
  StealGate Gate;
  int64_t StartNs = 0;
  std::vector<double> All, Clean;
};

/// Sets up with \p Setup as often as SetupTimes asks and returns the
/// median. Every repetition must leave the workload fully set up; the last
/// one's state is what the timed phase uses.
double timedSetups(const Options &Opts, const std::function<void()> &Setup,
                   SpeedProbe Speed = {});

/// Slice length of the steal-gated timed phases (aot-kernels uses its
/// rounds, 20-80 ms each).
constexpr int64_t SliceNs = 100'000'000;

/// The samples of a timed phase: those of its steal-free slices, and all.
template <class Window> struct Gated {
  Window Clean, All;
  /// Adds one slice of samples.
  void add(const Window &Slice, StealGate &Gate) {
    All.add(Slice);
    if (Gate.clean())
      Clean.add(Slice);
  }
  /// The steal-free samples, or all of them when no slice was steal-free.
  const Window &measured() const { return Clean.empty() ? All : Clean; }
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Spans go around calls into the repository's
/// public functions; the program under test is not instrumented.
class Tracer {
public:
  struct Span {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int Parent;          ///< index of the enclosing span, -1 for a root
    uint64_t RequestId;  ///< 0 when the span belongs to no request
    int Lane;            ///< trace-viewer row (e.g. a client connection)
  };

  explicit Tracer(bool Enabled) : On(Enabled) {}
  /// Spans are recorded only while active (the traced segments and the
  /// replays of a traced run).
  void setActive(bool A) { Active = On && A; }

  /// A span name that lives as long as the tracer (for names built at
  /// run time; spans keep only the pointer).
  const char *intern(const std::string &Name) {
    return Names.insert(Name).first->c_str();
  }

  /// Opens a span that later spans nest in until end(); returns its
  /// index or -1 when inactive.
  int begin(const char *Name);
  void end(int Index);
  /// Records a span whose endpoints were measured by the caller.
  int record(const char *Name, int64_t StartNs, int64_t EndNs,
             uint64_t RequestId = 0, int Lane = 0, int Parent = -1);

  /// Self times (duration minus the parts covered by child spans) of
  /// every span called \p Name, in recording order.
  std::vector<double> selfTimes(const char *Name) const;

  bool writeChrome(const std::string &Path) const;

private:
  bool On;
  bool Active = false;
  std::set<std::string> Names;
  std::vector<Span> Spans;
  std::vector<int> Stack; ///< open spans, innermost last
};

/// The timed phase: `Segment(Opts.Seconds, false)`, or in a traced run
/// eight segments, untraced and traced (spans recorded) in the order
/// U T T U U T T U, so that drift over the run cancels out of
/// trace_overhead_pct.
void runTimed(const Options &Opts, Tracer &T,
              const std::function<void(double Seconds, bool Traced)> &Segment);

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

class Rng {
public:
  explicit Rng(uint64_t Seed) : Gen(Seed) {}
  double uniform(double Lo, double Hi) {
    return std::uniform_real_distribution<double>(Lo, Hi)(Gen);
  }
  int integer(int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Gen);
  }
  uint64_t next() { return Gen(); }

private:
  std::mt19937_64 Gen;
};

/// Per-purpose seed derived from the run seed, so one input set never
/// depends on how many draws another one made.
uint64_t subSeed(uint64_t Seed, const char *Purpose);

//===----------------------------------------------------------------------===//
// Sources
//===----------------------------------------------------------------------===//

/// \p V with all its binary128 digits (failure messages).
std::string quadString(__float128 V);

bool readFile(const std::string &Path, std::string &Out);
bool writeFile(const std::string &Path, const std::string &Data);

/// The bench/kernels/*.c sources, sorted by file name.
struct KernelSource {
  std::string Name; ///< file stem, e.g. "gemm_avx"
  std::string Text;
};
std::vector<KernelSource> loadKernelSources();

/// A character of a C identifier.
bool isIdentChar(char C);

//===----------------------------------------------------------------------===//
// Child processes
//===----------------------------------------------------------------------===//

struct ChildResult {
  int ExitCode = -1;
  double MaxRssMb = 0;
  double ElapsedNs = 0;
};
/// Runs \p Argv to completion (stdout/stderr discarded) through
/// igen_child_probe (ChildProbe.cpp, which says why) and reports its exit
/// code, peak RSS and wall time; exit code -1 if it could not be run.
ChildResult runChild(const std::vector<std::string> &Argv);

/// The metrics the benchmark reports, in BENCHMARK.json order.
struct MetricDef {
  std::string Name;
  std::string Unit;
};
const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &perLayerMetrics();

/// The aot_* end-to-end metrics of an untraced run of another workload
/// than aot-kernels, which must report them too. Its workload calls
/// round() every InterleaveSlices slices, between them: every aot-kernels
/// kernel and its native twin once, with the same containment checks. The
/// rounds thus spread over the whole run, as aot-kernels' own do, and see
/// the host as it was through the run rather than during one stretch of
/// it. The same native twins are the compile workload's SpeedProbe.
class AotCheck {
public:
  /// Builds the kernels from \p Seed and runs one untimed round.
  AotCheck(uint64_t Seed, Outcome &O);
  ~AotCheck();
  AotCheck(const AotCheck &) = delete;
  AotCheck &operator=(const AotCheck &) = delete;

  void round();
  /// Times every native twin once; returns the speed factor (see
  /// ReferenceNativeNs).
  double speedFactor();
  /// Runs rounds until there are AotCheckMinRounds (a short run), then
  /// reports the slowdowns and aot_accuracy_bits.
  void report(Report &R);

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};
constexpr size_t AotCheckMinRounds = 10;
constexpr int InterleaveSlices = 3;

/// Workload entry points. Each sets up (see SetupTimes), measures for
/// `Opts.Seconds`, and fills \p R: untraced, with its end-to-end metrics
/// (all but the aot_* ones, which only runAotKernels measures itself);
/// traced, with the per-layer metrics taken from it (README.md lists
/// which). The compile and serve workloads get \p Check in an untraced run
/// and nullptr in a traced one.
void runAotKernels(const Options &Opts, Report &R, Outcome &O, Tracer &T);
void runCompileCorpus(const Options &Opts, Report &R, Outcome &O, Tracer &T,
                      AotCheck *Check);
void runServe(const Options &Opts, bool Mix, Report &R, Outcome &O,
              Tracer &T, AotCheck *Check);

} // namespace pb

#endif // IGEN_PERFBENCH_HARNESS_H
