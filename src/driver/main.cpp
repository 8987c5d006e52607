//===- main.cpp - The igen command-line driver --------------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Usage: igen [options] input.c -o igen_input.c
//
// Translates a C function using floating-point (possibly with Intel SIMD
// intrinsics) into an equivalent sound C function using interval
// arithmetic (Fig. 1).
//
//===----------------------------------------------------------------------===//

#include "frontend/ASTDumper.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "server/SocketServer.h"
#include "support/Knobs.h"
#include "support/StringExtras.h"
#include "transform/Pipeline.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

using namespace igen;

namespace {

void printUsage() {
  std::fprintf(
      stderr,
      "usage: igen [options] <input.c>\n"
      "\n"
      "Translates floating-point C code into sound interval C code.\n"
      "\n"
      "options:\n"
      "  -o <file>             output file (default: igen_<input>)\n"
      "  --precision=<p>       interval endpoint precision: 'double'\n"
      "                        (default) or 'dd' (double-double,\n"
      "                        Section VI-A)\n"
      "  --target=<t>          'sv' (default): intervals in SIMD\n"
      "                        registers; 'ss': scalar intervals\n"
      "  --reductions          enable the reduction accuracy\n"
      "                        transformation (Section VI-B)\n"
      "  --batch-loops         route recognized elementwise array loops\n"
      "                        (d[i] = a[i] OP b[i], d[i] = sqrt(a[i]))\n"
      "                        onto the batched ia_arr_* runtime\n"
      "  --branch=<policy>     'exception' (default): unknown branch\n"
      "                        conditions signal; 'join': compute both\n"
      "                        branches and join when safe\n"
      "  -O, -O1               enable the mid-end optimizer (default):\n"
      "                        sign-specialized multiplies/divides,\n"
      "                        interval CSE/hoisting, FMA fusion,\n"
      "                        innermost loops versioned on the run-time\n"
      "                        sign of an invariant multiplier, and f64\n"
      "                        axpy/dot inner loops lowered to one\n"
      "                        bit-identical row-kernel call each\n"
      "  -O0                   disable the mid-end optimizer; emit the\n"
      "                        naive one-op-per-call translation\n"
      "  --runtime-header=<h>  header providing the ia_* runtime\n"
      "                        (default: interval/igen_lib.h)\n"
      "  --profile             emit precision-profiling instrumentation:\n"
      "                        interval ops report per-site width\n"
      "                        statistics to the igen_profile runtime;\n"
      "                        the site table is also written next to\n"
      "                        the output as <output>.sites.json\n"
      "  --tier                emit adaptive precision tiering: eligible\n"
      "                        functions run at f64i speed, check a blowup\n"
      "                        predicate on their result, and re-execute a\n"
      "                        double-double clone from a live-in snapshot\n"
      "                        only when the result is wide AND provably\n"
      "                        improvable (movability analysis). The\n"
      "                        region table is written as\n"
      "                        <output>.sites.json. Incompatible with\n"
      "                        --profile and --precision=dd\n"
      "  --harden              emit FP-environment sentinel checks at\n"
      "                        sound-region entry and after external\n"
      "                        calls; violations are repaired, poisoned\n"
      "                        or fatal per the run-time policy\n"
      "  --dump-ast            print the type-checked AST instead of\n"
      "                        translating\n"
      "  --serve=<socket>      run as a persistent compile+evaluate\n"
      "                        daemon on a Unix socket speaking\n"
      "                        newline-delimited JSON (ops: compile,\n"
      "                        eval, stats, evict, health, shutdown).\n"
      "                        Compiled programs are cached by the\n"
      "                        request bytes (source, options). Requests\n"
      "                        may carry deadline_ms; SIGTERM/SIGINT\n"
      "                        drain gracefully. The environment section\n"
      "                        below sizes, journals and logs it. See\n"
      "                        tools/igen_client.py\n"
      "  --serve-workers=<n>   worker threads for --serve (default: the\n"
      "                        runtime thread pool's participant count)\n"
      "\n"
      "exit codes: 0 success, 2 usage error, 3 parse error, 4 type/sema\n"
      "error, 5 transform error, 6 file I/O error\n"
      "\n"
      "environment (read by the runtime, generated code and --serve on\n"
      "first use; an invalid value warns once and keeps the default):\n");
  for (unsigned K = 0; K < NumKnobs; ++K) {
    const KnobInfo &I = knobInfo(static_cast<Knob>(K));
    std::fprintf(stderr, "  %-22s default: %s\n", I.Name,
                 knobDefaultText(static_cast<Knob>(K)).c_str());
    // The doc and the accepted values, wrapped at 78 columns.
    std::string Text = std::string(I.Doc) + "; accepts " + I.Accepts;
    std::string_view Rest = Text;
    while (!Rest.empty()) {
      size_t Cut = Rest.size() <= 53 ? Rest.size() : Rest.rfind(' ', 53);
      std::fprintf(stderr, "%25s%.*s\n", "", int(Cut), Rest.data());
      Rest.remove_prefix(std::min(Rest.size(), Cut + 1));
    }
  }
}

/// Distinct exit codes so scripts and tests can tell failure classes
/// apart (1 is left unused: it is what an uncaught crash path or assert
/// typically yields, so a clean diagnostic is distinguishable from one).
enum ExitCode {
  ExitSuccess = 0,
  ExitUsage = 2,
  ExitParse = 3,
  ExitSema = 4,
  ExitTransform = 5,
  ExitIO = 6,
};

int exitCodeFor(igen::PipelineStage Stage) {
  switch (Stage) {
  case igen::PipelineStage::Parse:
    return ExitParse;
  case igen::PipelineStage::Sema:
    return ExitSema;
  case igen::PipelineStage::Transform:
    return ExitTransform;
  case igen::PipelineStage::Cancelled: // serve-mode only; not reachable
    return ExitTransform;              // from the one-shot CLI
  case igen::PipelineStage::None:
    break;
  }
  return ExitSuccess;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string InputPath;
  std::string OutputPath;
  TransformOptions Opts;
  bool DumpAst = false;
  std::string ServeSocket;
  unsigned ServeWorkers = 0;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "-h" || Arg == "--help") {
      printUsage();
      return 0;
    }
    if (Arg == "-o") {
      if (++I >= Argc) {
        std::fprintf(stderr, "igen: error: -o requires an argument\n");
        return ExitUsage;
      }
      OutputPath = Argv[I];
      continue;
    }
    if (startsWith(Arg, "--precision=")) {
      std::string Value = Arg.substr(12);
      if (Value == "double")
        Opts.Prec = TransformOptions::Precision::Double;
      else if (Value == "dd" || Value == "double-double")
        Opts.Prec = TransformOptions::Precision::DoubleDouble;
      else {
        std::fprintf(stderr, "igen: error: unknown precision '%s'\n",
                     Value.c_str());
        return ExitUsage;
      }
      continue;
    }
    if (startsWith(Arg, "--target=")) {
      std::string Value = Arg.substr(9);
      if (Value == "ss")
        Opts.ScalarLibrary = true;
      else if (Value == "sv" || Value == "vv")
        Opts.ScalarLibrary = false;
      else {
        std::fprintf(stderr, "igen: error: unknown target '%s'\n",
                     Value.c_str());
        return ExitUsage;
      }
      continue;
    }
    if (Arg == "--reductions") {
      Opts.EnableReductions = true;
      continue;
    }
    if (Arg == "--batch-loops") {
      Opts.EnableBatchLoops = true;
      continue;
    }
    if (Arg == "--dump-ast") {
      DumpAst = true;
      continue;
    }
    if (startsWith(Arg, "--branch=")) {
      std::string Value = Arg.substr(9);
      if (Value == "exception")
        Opts.Branches = TransformOptions::BranchPolicy::Exception;
      else if (Value == "join")
        Opts.Branches = TransformOptions::BranchPolicy::Join;
      else {
        std::fprintf(stderr, "igen: error: unknown branch policy '%s'\n",
                     Value.c_str());
        return ExitUsage;
      }
      continue;
    }
    if (startsWith(Arg, "--runtime-header=")) {
      Opts.RuntimeHeader = Arg.substr(17);
      continue;
    }
    if (Arg == "--profile") {
      Opts.Profile = true;
      continue;
    }
    if (Arg == "--tier") {
      Opts.Tier = true;
      continue;
    }
    if (Arg == "--harden") {
      Opts.Harden = true;
      continue;
    }
    if (startsWith(Arg, "--serve=")) {
      ServeSocket = Arg.substr(8);
      continue;
    }
    if (Arg == "--serve") {
      if (++I >= Argc) {
        std::fprintf(stderr,
                     "igen: error: --serve requires a socket path\n");
        return ExitUsage;
      }
      ServeSocket = Argv[I];
      continue;
    }
    if (startsWith(Arg, "--serve-workers=")) {
      ServeWorkers =
          (unsigned)std::strtoul(Arg.c_str() + 16, nullptr, 10);
      continue;
    }
    if (Arg == "-O" || Arg == "-O1") {
      Opts.OptLevel = 1;
      continue;
    }
    if (Arg == "-O0") {
      Opts.OptLevel = 0;
      continue;
    }
    if (startsWith(Arg, "-")) {
      std::fprintf(stderr, "igen: error: unknown option '%s'\n",
                   Arg.c_str());
      printUsage();
      return ExitUsage;
    }
    if (!InputPath.empty()) {
      std::fprintf(stderr, "igen: error: multiple input files\n");
      return ExitUsage;
    }
    InputPath = Arg;
  }

  if (!ServeSocket.empty()) {
    if (!InputPath.empty() || !OutputPath.empty() || DumpAst) {
      std::fprintf(stderr, "igen: error: --serve takes no input file; "
                           "sources arrive over the socket\n");
      return ExitUsage;
    }
    server::ServeConfig Config;
    Config.SocketPath = ServeSocket;
    Config.Workers = ServeWorkers;
    return server::runServer(Config) == 0 ? ExitSuccess : ExitIO;
  }

  if (InputPath.empty()) {
    printUsage();
    return ExitUsage;
  }
  if (OutputPath.empty()) {
    size_t Slash = InputPath.find_last_of('/');
    std::string Dir =
        Slash == std::string::npos ? "" : InputPath.substr(0, Slash + 1);
    std::string Base =
        Slash == std::string::npos ? InputPath : InputPath.substr(Slash + 1);
    OutputPath = Dir + "igen_" + Base;
  }

  std::string Source;
  if (!readFile(InputPath, Source)) {
    std::fprintf(stderr, "igen: error: cannot read '%s'\n",
                 InputPath.c_str());
    return ExitIO;
  }

  DiagnosticsEngine Diags;
  if (DumpAst) {
    ASTContext Ctx;
    Parser P(Source, Ctx, Diags);
    bool Parsed = P.parseTranslationUnit();
    if (Parsed) {
      Sema S(Ctx, Diags);
      S.run(); // annotate types; dump even with sema errors
    }
    std::fputs(Diags.render(InputPath).c_str(), stderr);
    if (!Parsed)
      return ExitParse;
    std::fputs(dumpAST(Ctx.TU).c_str(), stdout);
    return Diags.hasErrors() ? ExitSema : ExitSuccess;
  }
  if (Opts.Tier && Opts.Profile) {
    std::fprintf(stderr, "igen: error: --tier cannot be combined with "
                         "--profile (one instrumentation layer per TU)\n");
    return ExitUsage;
  }
  if (Opts.Tier && Opts.Prec == TransformOptions::Precision::DoubleDouble) {
    std::fprintf(stderr,
                 "igen: error: --tier requires --precision=double (the "
                 "double-double tier is what it escalates to)\n");
    return ExitUsage;
  }
  if (Opts.Profile || Opts.Tier) {
    Opts.SourceName = InputPath;
    // Module name: output file's basename without extension.
    size_t Slash = OutputPath.find_last_of('/');
    std::string Stem = Slash == std::string::npos
                           ? OutputPath
                           : OutputPath.substr(Slash + 1);
    size_t Dot = Stem.find_last_of('.');
    if (Dot != std::string::npos && Dot > 0)
      Stem.resize(Dot);
    Opts.ModuleName = Stem;
  }

  SiteTable Sites;
  PipelineStage Failed = PipelineStage::None;
  std::optional<std::string> Output = compileToIntervals(
      Source, Opts, Diags,
      Opts.Profile || Opts.Tier ? &Sites : nullptr, &Failed);
  std::fputs(Diags.render(InputPath).c_str(), stderr);
  if (!Output)
    return exitCodeFor(Failed);

  if (!writeFile(OutputPath, *Output)) {
    std::fprintf(stderr, "igen: error: cannot write '%s'\n",
                 OutputPath.c_str());
    return ExitIO;
  }

  if (Opts.Profile || Opts.Tier) {
    // Sidecar with the compile-time site/region table, so tooling can map
    // IDs in runtime reports back to source without executing anything.
    std::string SidecarPath = OutputPath + ".sites.json";
    if (!writeSiteSidecar(SidecarPath, Sites)) {
      std::fprintf(stderr, "igen: error: cannot write '%s'\n",
                   SidecarPath.c_str());
      return ExitIO;
    }
  }
  return ExitSuccess;
}
