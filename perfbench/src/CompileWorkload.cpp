//===- CompileWorkload.cpp - compile-corpus: compiler throughput ----------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiler throughput as program size grows. A closed loop runs
/// compileToProgram round-robin over (translation unit, flags) pairs; every
/// fourth step also runs one `igen` CLI process on the next pair. The
/// units are the bench/kernels sources plus seeded concatenations of 8 and
/// 64 renamed kernel copies with perturbed constants. Every output must be
/// byte-identical to the pair's reference, and the CLI's to the in-process
/// one.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "opt/OptAnalysis.h"
#include "transform/Pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

namespace pb {
namespace {

/// The igen CLI flag spellings the benchmark compiles with, and the
/// in-process options each one selects.
struct CompileFlag {
  const char *Cli;
  igen::TransformOptions Opts;
};

const std::vector<CompileFlag> &compileFlags() {
  static const std::vector<CompileFlag> Flags = [] {
    using igen::TransformOptions;
    std::vector<CompileFlag> F;
    auto Add = [&](const char *Cli, auto Edit) {
      TransformOptions O;
      Edit(O);
      F.push_back({Cli, O});
    };
    Add("-O", [](TransformOptions &) {});
    Add("-O0", [](TransformOptions &O) { O.OptLevel = 0; });
    Add("--target=ss", [](TransformOptions &O) { O.ScalarLibrary = true; });
    Add("--precision=dd", [](TransformOptions &O) {
      O.Prec = TransformOptions::Precision::DoubleDouble;
    });
    Add("--tier", [](TransformOptions &O) { O.Tier = true; });
    Add("--profile", [](TransformOptions &O) { O.Profile = true; });
    Add("--reductions",
        [](TransformOptions &O) { O.EnableReductions = true; });
    return F;
  }();
  return Flags;
}

/// Phase times of a compile replayed stage by stage around the public
/// entry points, plus the compileToProgram time of the same input.
struct PhaseTimes {
  double LexNs = 0, ParseNs = 0, SemaNs = 0, OptNs = 0, TransformNs = 0;
  double PipelineNs = 0;
  uint64_t Tokens = 0;
  void add(const PhaseTimes &O);
};

void PhaseTimes::add(const PhaseTimes &O) {
  LexNs += O.LexNs;
  ParseNs += O.ParseNs;
  SemaNs += O.SemaNs;
  OptNs += O.OptNs;
  TransformNs += O.TransformNs;
  PipelineNs += O.PipelineNs;
  Tokens += O.Tokens;
}

/// Replays one compile of \p Source under \p T (spans "compile.replay" >
/// frontend.lex / frontend.parse / frontend.sema / opt.analyze /
/// transform.lower, then "pipeline.compileToProgram"). Returns false if
/// any stage fails.
bool replayCompile(Tracer &T, std::string_view Source,
                   const igen::TransformOptions &Opts, PhaseTimes &Out) {
  using namespace igen;
  PhaseTimes P;
  // One untimed compile first, so the staged replay and the
  // compileToProgram it is compared with both run warm.
  {
    DiagnosticsEngine D;
    if (!compileToProgram(Source, Opts, D))
      return false;
  }
  bool Ok = true;
  int Root = T.begin("compile.replay");
  auto Timed = [&](const char *Name, auto &&Fn) {
    int64_t T0 = nowNs();
    Fn();
    int64_t T1 = nowNs();
    T.record(Name, T0, T1, 0, 0, Root);
    return static_cast<double>(T1 - T0);
  };
  {
    DiagnosticsEngine D;
    P.LexNs = Timed("frontend.lex", [&] {
      Lexer L(Source, D);
      P.Tokens = L.lexAll().size();
    });
  }
  ASTContext Ctx;
  DiagnosticsEngine Diags;
  P.ParseNs = Timed("frontend.parse", [&] {
    Parser Ps(Source, Ctx, Diags);
    Ok = Ps.parseTranslationUnit();
  });
  if (Ok)
    P.SemaNs = Timed("frontend.sema", [&] { Ok = Sema(Ctx, Diags).run(); });
  if (Ok && Opts.OptLevel > 0)
    P.OptNs = Timed("opt.analyze", [&] {
      OptOptions OO;
      OO.GuardFacts =
          Opts.Branches == TransformOptions::BranchPolicy::Exception;
      for (const TopLevelItem &Item : Ctx.TU.Items)
        if (Item.Function && Item.Function->Body)
          analyzeFunctionForOpt(*Item.Function, OO);
    });
  if (Ok)
    P.TransformNs = Timed("transform.lower", [&] {
      SiteTable Sites;
      transformToIntervals(Ctx, Diags, Opts, &Sites);
      Ok = !Diags.hasErrors();
    });
  T.end(Root);
  // The program outlives the timed call, like the staged replay's AST.
  std::unique_ptr<InMemoryProgram> Prog;
  DiagnosticsEngine PDiags;
  if (Ok)
    P.PipelineNs = Timed("pipeline.compileToProgram", [&] {
      Prog = compileToProgram(Source, Opts, PDiags);
    });
  Ok = Ok && Prog;
  Out.add(P);
  return Ok;
}

/// Per-token phase metrics, and the compile-phase trace check: the phase
/// self times must sum to within 10% of the compileToProgram time of the
/// same inputs, else the run fails.
void reportPhases(Report &R, Outcome &O, const PhaseTimes &P) {
  if (P.Tokens == 0) {
    O.fail("no compile was replayed stage by stage");
    return;
  }
  double Tok = static_cast<double>(P.Tokens);
  R.set("frontend.lex_ns_per_token", P.LexNs / Tok);
  R.set("frontend.parse_ns_per_token", (P.ParseNs - P.LexNs) / Tok);
  R.set("frontend.sema_ns_per_token", P.SemaNs / Tok);
  R.set("opt.analyze_ns_per_token", P.OptNs / Tok);
  R.set("transform.lower_ns_per_token", (P.TransformNs - P.OptNs) / Tok);
  // Consistency: the phase self times (parse minus lex, transform minus
  // analyze, plus lex and analyze themselves) must account for the
  // compileToProgram time of the same inputs.
  double Sum = P.ParseNs + P.SemaNs + P.TransformNs;
  double Ratio = P.PipelineNs > 0 ? Sum / P.PipelineNs : 0.0;
  bool Ok = std::fabs(Ratio - 1.0) <= 0.10;
  std::printf("trace_check compile_phases phase_self_sum_us=%.1f "
              "compileToProgram_us=%.1f ratio=%.3f %s\n",
              Sum * 1e-3, P.PipelineNs * 1e-3, Ratio, Ok ? "ok" : "FAIL");
  if (!Ok)
    O.fail("trace check compile_phases: phase self times sum to " +
           std::to_string(Ratio) + " x the compileToProgram time");
}

struct Unit {
  std::string Name;
  std::string Source;
  enum Size { Small, Medium, Large } Class = Small;
};

struct Pair {
  const Unit *U = nullptr;
  const char *Flag = nullptr;
  igen::TransformOptions Opts;
  std::string InPath, OutPath;
  std::string Ref; ///< emitted C of the first compile
};

/// One kernel copy: functions k_x / kv_x renamed to k_x_c<N>, and every
/// nonzero decimal literal moved by a seeded multiple of 1/1024.
std::string mutateCopy(const std::string &Src, int N, Rng &G) {
  std::string Out;
  for (size_t I = 0; I < Src.size();) {
    char C = Src[I];
    bool Boundary = I == 0 || !isIdentChar(Src[I - 1]);
    if (Boundary && (Src.compare(I, 2, "k_") == 0 ||
                     Src.compare(I, 3, "kv_") == 0)) {
      size_t J = I;
      while (J < Src.size() && isIdentChar(Src[J]))
        ++J;
      Out.append(Src, I, J - I);
      Out += "_c" + std::to_string(N);
      I = J;
      continue;
    }
    if (Boundary && (I == 0 || Src[I - 1] != '.') && C >= '0' && C <= '9') {
      size_t J = I;
      while (J < Src.size() && (isIdentChar(Src[J]) || Src[J] == '.'))
        ++J;
      std::string Lit = Src.substr(I, J - I);
      double V = std::strtod(Lit.c_str(), nullptr);
      if (Lit.find('.') != std::string::npos && V != 0.0) {
        char Buf[64];
        std::snprintf(Buf, sizeof(Buf), "%.10f", V + G.integer(1, 8) / 1024.0);
        Out += Buf;
      } else {
        Out += Lit;
      }
      I = J;
      continue;
    }
    Out.push_back(C);
    ++I;
  }
  return Out;
}

/// The bench/kernels sources plus three concatenations of renamed copies.
/// Which kernels the copies are is fixed (kernel i % 14 for copy i), so
/// the corpus size does not depend on the seed; the seed orders the copies
/// and perturbs their constants.
std::vector<Unit> buildCorpus(uint64_t Seed) {
  std::vector<KernelSource> Kernels = loadKernelSources();
  std::vector<Unit> Units;
  for (const KernelSource &K : Kernels)
    Units.push_back({K.Name, K.Text, Unit::Small});
  if (Kernels.empty())
    return Units;
  Rng G(subSeed(Seed, "compile.corpus"));
  int Copy = 0;
  auto Concat = [&](const char *Name, int First, int Copies,
                    Unit::Size Class) {
    std::vector<int> Order;
    for (int I = 0; I < Copies; ++I)
      Order.push_back((First + I) % static_cast<int>(Kernels.size()));
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[G.next() % I]);
    Unit U{Name, "", Class};
    for (int K : Order)
      U.Source += mutateCopy(Kernels[K].Text, Copy++, G) + "\n";
    Units.push_back(std::move(U));
  };
  Concat("cat8a", 0, 8, Unit::Medium);
  Concat("cat8b", 8, 8, Unit::Medium);
  Concat("cat64", 0, 64, Unit::Large);
  return Units;
}

struct Corpus {
  std::vector<Unit> Units;
  std::vector<Pair> Pairs;
};

/// Builds the corpus, writes the CLI inputs and compiles every pair once
/// for its reference output.
bool setUp(const Options &Opts, Corpus &C, Outcome &O) {
  namespace fs = std::filesystem;
  C.Units = buildCorpus(Opts.Seed);
  C.Pairs.clear();
  fs::path In = fs::path(Opts.WorkDir) / "corpus";
  fs::path Out = fs::path(Opts.WorkDir) / "out";
  fs::create_directories(In);
  fs::create_directories(Out);
  for (const Unit &U : C.Units) {
    std::string InPath = (In / (U.Name + ".c")).string();
    if (!writeFile(InPath, U.Source)) {
      O.fail("cannot write " + InPath);
      return false;
    }
    int F = 0;
    for (const CompileFlag &Flag : compileFlags()) {
      Pair P;
      P.U = &U;
      P.Flag = Flag.Cli;
      P.Opts = Flag.Opts;
      P.InPath = InPath;
      P.OutPath = (Out / (U.Name + "_f" + std::to_string(F++) + ".cpp"))
                      .string();
      // The CLI names profile/tier modules after the output file and
      // records the input path; the in-process compile must match.
      if (P.Opts.Profile || P.Opts.Tier) {
        P.Opts.SourceName = P.InPath;
        P.Opts.ModuleName = fs::path(P.OutPath).stem().string();
      }
      C.Pairs.push_back(std::move(P));
    }
  }
  for (Pair &P : C.Pairs) {
    igen::DiagnosticsEngine Diags;
    igen::SiteTable Sites;
    auto Prog = igen::compileToProgram(P.U->Source, P.Opts, Diags, &Sites);
    if (!Prog) {
      O.fail("reference compile of " + P.U->Name + " " + P.Flag + " failed");
      return false;
    }
    P.Ref = std::move(Prog->EmittedC);
  }
  return !C.Pairs.empty();
}

struct Window {
  double CompileNs = 0, Compiles = 0; ///< in-process compileToProgram
  std::vector<double> CliNs, SmallNs, LargeNs;
  double MaxChildRssMb = 0;

  void add(const Window &O) {
    CompileNs += O.CompileNs;
    Compiles += O.Compiles;
    CliNs.insert(CliNs.end(), O.CliNs.begin(), O.CliNs.end());
    SmallNs.insert(SmallNs.end(), O.SmallNs.begin(), O.SmallNs.end());
    LargeNs.insert(LargeNs.end(), O.LargeNs.begin(), O.LargeNs.end());
    MaxChildRssMb = std::max(MaxChildRssMb, O.MaxChildRssMb);
  }
  bool empty() const { return Compiles == 0; }
  /// Converts the window's times by speed factor \p F.
  void scale(double F) {
    CompileNs *= F;
    for (std::vector<double> *V : {&CliNs, &SmallNs, &LargeNs})
      for (double &X : *V)
        X *= F;
  }
  /// In-process compiles per second of compile time.
  double compileRate() const {
    return CompileNs > 0 ? Compiles * 1e9 / CompileNs : 0.0;
  }
};

/// Runs the closed loop for \p Seconds, continuing the round-robin at
/// pair \p I (in-process) and \p J (CLI). Every slice ends with \p Speed,
/// when one is given, whose factor converts the slice's times; after it,
/// outside the slices, comes \p Between when one is given.
void measure(const Corpus &C, double Seconds, size_t &I, size_t &J,
             Outcome &O, Tracer &T, Gated<Window> &Phase,
             const SpeedProbe &Speed, const std::function<void()> &Between) {
  const size_t N = C.Pairs.size();
  int64_t SliceStart = nowNs();
  int64_t End = SliceStart + static_cast<int64_t>(Seconds * 1e9);
  StealGate Gate;
  Window W;
  auto Close = [&] {
    if (Speed)
      W.scale(Speed());
    Phase.add(W, Gate);
  };
  do {
    if (nowNs() - SliceStart >= SliceNs) {
      Close();
      W = Window();
      if (Between) {
        Between();
        Gate.clean(); // the next slice starts now
      }
      SliceStart = nowNs();
    }
    const Pair &P = C.Pairs[I++ % N];
    igen::DiagnosticsEngine Diags;
    igen::SiteTable Sites;
    int64_t T0 = nowNs();
    auto Prog = igen::compileToProgram(P.U->Source, P.Opts, Diags, &Sites);
    int64_t T1 = nowNs();
    T.record("pipeline.compileToProgram", T0, T1);
    O.attempt();
    if (!Prog || Prog->EmittedC != P.Ref)
      O.fail("in-process compile of " + P.U->Name + " " + P.Flag +
             (Prog ? " differs from its first compile" : " failed"));
    double Ns = static_cast<double>(T1 - T0);
    W.CompileNs += Ns;
    W.Compiles += 1;
    if (P.U->Class == Unit::Small)
      W.SmallNs.push_back(Ns);
    else if (P.U->Class == Unit::Large)
      W.LargeNs.push_back(Ns);

    if (I % 4 != 0)
      continue;
    const Pair &Q = C.Pairs[J++ % N];
    int64_t C0 = nowNs();
    ChildResult R =
        runChild({IGEN_CLI_PATH, Q.InPath, "-o", Q.OutPath, Q.Flag});
    T.record("cli.igen", C0, nowNs());
    O.attempt();
    std::string Out;
    if (R.ExitCode != 0 || !readFile(Q.OutPath, Out) || Out != Q.Ref)
      O.fail("igen CLI on " + Q.U->Name + " " + Q.Flag +
             (R.ExitCode != 0 ? " exited " + std::to_string(R.ExitCode)
                              : std::string(" differs from in-process")));
    W.CliNs.push_back(R.ElapsedNs);
    W.MaxChildRssMb = std::max(W.MaxChildRssMb, R.MaxRssMb);
  } while (nowNs() < End);
  Close();
}

} // namespace

void runCompileCorpus(const Options &Opts, Report &R, Outcome &O, Tracer &T,
                      AotCheck *Check) {
  // Compiling is CPU-bound: untraced, every time is read at the reference
  // speed of the host (see ReferenceNativeNs).
  SpeedProbe Speed;
  if (Check)
    Speed = [Check] { return Check->speedFactor(); };
  Corpus C;
  SetupTimes Setups(Opts, Speed);
  while (Setups.more()) {
    Setups.start();
    bool Ok = setUp(Opts, C, O);
    Setups.stop();

    if (!Ok)
      return;
  }
  // One setup is one pass of compiles, 50 ms: the repetitions before the
  // timed phase all fall into one stretch of the host's speed, which on
  // the calibration host changed by 1.5 times every few seconds. An
  // untraced run therefore also sets up a scratch corpus once a second
  // during the timed phase, outside its slices, and setup_s is the median
  // of all setups.
  std::function<void()> Between;
  int Slices = 0;
  if (!Opts.traced())
    Between = [&] {
      ++Slices;
      if (Check && Slices % InterleaveSlices == 0)
        Check->round();
      if (Slices % 10 == 0) {
        Corpus Scratch;
        Setups.start();
        setUp(Opts, Scratch, O);
        Setups.stop();
      }
    };

  size_t I = 0, J = 0;
  Gated<Window> Plain, Traced;
  runTimed(Opts, T, [&](double Seconds, bool InTrace) {
    measure(C, Seconds, I, J, O, T, InTrace ? Traced : Plain, Speed,
            Between);
  });
  if (!Opts.traced()) {
    R.set("setup_s", Setups.median());
    const Window &M = Plain.measured();
    R.set("ops_per_s", M.compileRate());
    R.set("latency_p50_us", median(M.CliNs) * 1e-3);
    R.set("latency_tail_us", quantile(M.CliNs, 0.99) * 1e-3);
    R.set("peak_rss_mb", Plain.All.MaxChildRssMb);
    return;
  }

  R.set("trace_overhead_pct.compile-corpus",
        (Plain.measured().compileRate() / Traced.measured().compileRate() -
         1.0) *
            100.0);
  R.set("pipeline.compile_us_small", median(Traced.measured().SmallNs) * 1e-3);
  R.set("pipeline.compile_us_large", median(Traced.measured().LargeNs) * 1e-3);

  // Stage-by-stage replay of the whole corpus: per-token phase costs and
  // the compile-phase consistency check.
  PhaseTimes Phases;
  T.setActive(true);
  for (int Pass = 0; Pass < 3; ++Pass)
    for (const Pair &P : C.Pairs)
      if (!replayCompile(T, P.U->Source, P.Opts, Phases))
        O.fail("stage replay of " + P.U->Name + " " + P.Flag + " failed");
  T.setActive(false);
  reportPhases(R, O, Phases);
}

} // namespace pb
