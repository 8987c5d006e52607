//===- main.cpp - igen_benchmark command line -----------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Usage: igen_benchmark --workload <name> --seed <n> [--duration-s <s>]
//                       [--trace <file>]
//
// Workloads: aot-kernels, compile-corpus, serve-eval, serve-compile-mix
// (README.md in this directory). Prints every metric as `name value unit`,
// then one JSON line {"correct", "attempted", "failed", "metrics"}: the
// workload's end-to-end metrics, or with --trace the per-layer metrics of
// a traced run over all four workloads. Exits 1 when any output was wrong
// or a trace check failed, 2 on a usage or environment error.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "runtime/CpuDispatch.h"

#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

using namespace pb;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "igen_benchmark: %s\n"
               "usage: igen_benchmark --workload <aot-kernels|compile-corpus|"
               "serve-eval|serve-compile-mix> --seed <n> [--duration-s <s>] "
               "[--trace <file>]\n",
               Msg);
  return 2;
}

/// The processor brand string (CPUID leaves 0x80000002-4).
std::string cpuModel() {
  unsigned Regs[12] = {};
  for (unsigned L = 0; L < 3; ++L)
    if (!__get_cpuid(0x80000002 + L, &Regs[4 * L], &Regs[4 * L + 1],
                     &Regs[4 * L + 2], &Regs[4 * L + 3]))
      return "unknown";
  std::string Brand(reinterpret_cast<const char *>(Regs), sizeof(Regs));
  Brand.resize(std::strlen(Brand.c_str()));
  return Brand;
}

void printJsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  std::printf("%.17g", V);
}

using WorkloadFn = void (*)(const Options &, Report &, Outcome &, Tracer &,
                            AotCheck *);
struct Workload {
  const char *Name;
  WorkloadFn Run;
};
const Workload Workloads[] = {
    {"aot-kernels",
     [](const Options &O, Report &R, Outcome &Out, Tracer &T, AotCheck *) {
       runAotKernels(O, R, Out, T);
     }},
    {"compile-corpus", runCompileCorpus},
    {"serve-eval",
     [](const Options &O, Report &R, Outcome &Out, Tracer &T, AotCheck *C) {
       runServe(O, /*Mix=*/false, R, Out, T, C);
     }},
    {"serve-compile-mix",
     [](const Options &O, Report &R, Outcome &Out, Tracer &T, AotCheck *C) {
       runServe(O, /*Mix=*/true, R, Out, T, C);
     }},
};

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--workload" && (V = Next()))
      Opts.Workload = V;
    else if (A == "--seed" && (V = Next()))
      Opts.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--duration-s" && (V = Next()))
      Opts.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace" && (V = Next()))
      Opts.TracePath = V;
    else
      return usage(("bad argument '" + A + "'").c_str());
  }
  if (!(Opts.Seconds > 0))
    return usage("--duration-s must be positive");

  std::error_code EC;
  std::filesystem::create_directories(Opts.WorkDir, EC);
  if (EC)
    return usage(("cannot create " + Opts.WorkDir).c_str());

  std::fprintf(stderr, "igen_benchmark: host cpu=\"%s\" nproc=%u isa=%s "
               "compiler=\"%s\"\n",
               cpuModel().c_str(), std::thread::hardware_concurrency(),
               igen::runtime::isaName(igen::runtime::activeIsa()),
               __VERSION__);

  const Workload *W = nullptr;
  for (const Workload &X : Workloads)
    if (Opts.Workload == X.Name)
      W = &X;
  if (!W)
    return usage(("unknown workload '" + Opts.Workload + "'").c_str());

  Report R;
  Outcome O;
  if (!Opts.traced()) {
    Tracer Off(/*Enabled=*/false);
    if (Opts.Workload == "aot-kernels") {
      W->Run(Opts, R, O, Off, nullptr);
    } else {
      AotCheck Check(Opts.Seed, O);
      W->Run(Opts, R, O, Off, &Check);
      Check.report(R);
    }
  } else {
    // A traced run covers every workload for an equal share of the time,
    // in a fixed order, whichever --workload names: each per-layer metric
    // comes from the one workload that exercises its layer, the same way
    // in every traced run.
    Tracer T(/*Enabled=*/true);
    Options Each = Opts;
    Each.Seconds = Opts.Seconds / std::size(Workloads);
    for (const Workload &X : Workloads) {
      std::printf("traced %s\n", X.Name);
      Each.Workload = X.Name;
      Report One;
      X.Run(Each, One, O, T, nullptr);
      for (const MetricDef &D : perLayerMetrics())
        if (One.has(D.Name))
          R.set(D.Name, One.get(D.Name));
    }
    if (!T.writeChrome(Opts.TracePath))
      std::fprintf(stderr, "igen_benchmark: cannot write %s\n",
                   Opts.TracePath.c_str());
  }
  const std::vector<MetricDef> &Defs =
      Opts.traced() ? perLayerMetrics() : endToEndMetrics();
  for (const MetricDef &D : Defs)
    if (!R.has(D.Name))
      O.fail("metric " + D.Name + " was not measured");

  std::printf("ops %llu count\nops_failed %llu count\n",
              (unsigned long long)O.attempted(),
              (unsigned long long)O.failed());
  for (const MetricDef &D : Defs)
    std::printf("%s %.9g %s\n", D.Name.c_str(), R.get(D.Name),
                D.Unit.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              O.failed() == 0 ? "true" : "false",
              (unsigned long long)O.attempted(),
              (unsigned long long)O.failed());
  for (size_t I = 0; I < Defs.size(); ++I) {
    std::printf("%s\"%s\": {\"value\": ", I ? ", " : "", Defs[I].Name.c_str());
    printJsonNumber(R.get(Defs[I].Name));
    std::printf(", \"unit\": \"%s\"}", Defs[I].Unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return O.failed() == 0 && O.attempted() > 0 ? 0 : 1;
}
