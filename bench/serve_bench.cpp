//===- serve_bench.cpp - igen-as-a-service amortization benchmark ---------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the persistent daemon buys over one-shot compilation
/// (DESIGN.md, "igen-as-a-service"). Frame-path rows drive ServerCore
/// in-process through the same handleFrame path the socket transport
/// uses, so they capture JSON parse + dispatch + response rendering but
/// not kernel/socket noise:
///
///   serve-compile-cold  full compile transaction (cache evicted
///                       between requests)
///   serve-compile-hit   identical request answered from the
///                       content-hash cache
///   serve-eval-hot      eval against a resident handle
///   serve-eval-deadline serve-eval-hot with a (large) deadline_ms
///                       attached — the price of the cooperative
///                       deadline checks, gated loosely at <= 5%
///   serve-restart-hit   compile hit against a daemon warm-restarted
///                       from IGEN_SERVE_CACHE_DIR (replayed journal
///                       must retain the >= 50x amortization)
///   cli-oneshot         spawning the igen binary for the same source —
///                       the one-shot CLI round-trip the daemon
///                       replaces (and that still omits the C-compiler
///                       round-trip a CLI user needs before evaluating)
///
/// The binary enforces the service's reason to exist:
///   * compile transaction: answering from the cache (content hash +
///     LRU lookup) must be >= 50x cheaper than running the pipeline,
///     measured at the transaction layer both request kinds share the
///     JSON framing above.
///   * evaluation: a hot serve-mode eval must be >= 10x cheaper than
///     the one-shot CLI round-trip on repeated small kernels.
/// It exits 1 when either amortization claim fails, so CI gates on it.
/// --json writes the rows in the igen_bench schema (iops_per_cycle =
/// requests per cycle) for tools/bench_trend.py.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "server/FunctionCache.h"
#include "server/Json.h"
#include "server/PersistCache.h"
#include "server/ServerCore.h"
#include "transform/Pipeline.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace igen;
using namespace igen::bench;
using namespace igen::server;

namespace {

struct ServeKernel {
  const char *Name;
  const char *Source;
  const char *Function;
  const char *EvalArgs; // JSON array text
};

const ServeKernel Kernels[] = {
    {"horner",
     "double horner(double x) {\n"
     "  double c0 = 1.0; double c1 = -0.5; double c2 = 0.25;\n"
     "  double c3 = -0.125; double c4 = 0.0625;\n"
     "  return (((c4 * x + c3) * x + c2) * x + c1) * x + c0;\n"
     "}\n",
     "horner", "[{\"lo\":0.25,\"hi\":0.75}]"},
    {"henon",
     "double henon(double x0, double y0, int n) {\n"
     "  double x = x0; double y = y0;\n"
     "  for (int i = 0; i < n; i = i + 1) {\n"
     "    double xn = 1.0 - 1.4 * x * x + y;\n"
     "    y = 0.3 * x;\n"
     "    x = xn;\n"
     "  }\n"
     "  return x;\n"
     "}\n",
     "henon", "[0.1,0.1,{\"int\":20}]"},
    // A small BLAS-ish translation unit: services compile modules, not
    // single functions, so the compile rows measure a multi-function TU
    // while the eval row exercises one entry point with array inputs.
    {"dot",
     "double dot(double a[64], double b[64]) {\n"
     "  double s = 0.0;\n"
     "  for (int i = 0; i < 64; i = i + 1) { s = s + a[i] * b[i]; }\n"
     "  return s;\n"
     "}\n"
     "void axpy(double alpha, double x[64], double y[64]) {\n"
     "  for (int i = 0; i < 64; i = i + 1) { y[i] = alpha * x[i] + y[i]; }\n"
     "}\n"
     "double nrm2sq(double x[64]) {\n"
     "  double s = 0.0;\n"
     "  for (int i = 0; i < 64; i = i + 1) { s = s + x[i] * x[i]; }\n"
     "  return s;\n"
     "}\n"
     "double gemv_row(double a[64], double x[64], double beta, double y0) "
     "{\n"
     "  double s = beta * y0;\n"
     "  for (int i = 0; i < 64; i = i + 1) { s = s + a[i] * x[i]; }\n"
     "  return s;\n"
     "}\n"
     "double asum(double x[64]) {\n"
     "  double s = 0.0;\n"
     "  for (int i = 0; i < 64; i = i + 1) {\n"
     "    double v = x[i];\n"
     "    if (v < 0.0) { v = 0.0 - v; }\n"
     "    s = s + v;\n"
     "  }\n"
     "  return s;\n"
     "}\n",
     "dot", nullptr /* built below: two 64-element arrays */},
};

std::string arrayArg64() {
  std::string S = "{\"array\":[";
  for (int I = 0; I < 64; ++I) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%s0.%02d", I ? "," : "", I + 1);
    S += Buf;
  }
  S += "]}";
  return S;
}

std::string compileFrame(const ServeKernel &K) {
  return "{\"op\":\"compile\",\"source\":\"" + jsonEscape(K.Source) +
         "\",\"options\":{\"opt_level\":0,\"target\":\"ss\"}}";
}

std::string evalFrame(const ServeKernel &K, const std::string &Handle) {
  std::string Args = K.EvalArgs ? K.EvalArgs
                                : "[" + arrayArg64() + "," + arrayArg64() +
                                      "]";
  return "{\"op\":\"eval\",\"handle\":\"" + Handle + "\",\"function\":\"" +
         K.Function + "\",\"args\":" + Args + "}";
}

/// The same eval with a far-future deadline attached: measures the cost
/// of the deadline bookkeeping, not of ever hitting one.
std::string evalFrameWithDeadline(const ServeKernel &K,
                                  const std::string &Handle) {
  std::string Frame = evalFrame(K, Handle);
  const std::string Prefix = "{\"op\":\"eval\",";
  return Prefix + "\"deadline_ms\":3600000," + Frame.substr(Prefix.size());
}

/// Sends \p Frame and aborts the benchmark on an error response: a row
/// timed against a failing request would be meaningless.
std::string mustOk(ServerCore &Core, const std::string &Frame) {
  std::string Resp = Core.handleFrame(Frame);
  if (Resp.find("\"ok\":true") == std::string::npos &&
      Resp.find("\"ok\": true") == std::string::npos) {
    std::fprintf(stderr, "serve_bench: request failed: %s\n", Resp.c_str());
    std::exit(2);
  }
  return Resp;
}

std::string handleOf(const std::string &CompileResp) {
  JsonParseResult R = parseJson(CompileResp);
  const JsonValue *H = R.Ok ? R.Value.member("handle") : nullptr;
  if (!H || !H->isString()) {
    std::fprintf(stderr, "serve_bench: no handle in: %s\n",
                 CompileResp.c_str());
    std::exit(2);
  }
  return std::string(H->stringValue());
}

/// Transaction-layer cost of a cold compile: the full pipeline to an
/// in-memory program. This is exactly the work a cache hit avoids.
uint64_t coldTransactionCycles(const ServeKernel &K) {
  TransformOptions Opts;
  Opts.OptLevel = 0;
  Opts.ScalarLibrary = true;
  return minCycles([&] {
    DiagnosticsEngine Diags;
    auto P = compileToProgram(K.Source, Opts, Diags);
    if (!P)
      std::exit(2);
  });
}

/// The daemon's compile-hit path: the request bytes, their hash, the
/// LRU lookup and the byte comparison. True when \p K is a hit.
bool isCompileHit(FunctionCache &Cache, const ServeKernel &K,
                  const TransformOptions &Opts) {
  std::string Req = compileRequestBytes(K.Source, Opts);
  return Cache.lookupRequest(hashRequestBytes(Req), Req).Prog != nullptr;
}

/// Transaction-layer cost of a cache hit: request bytes, content hash,
/// LRU lookup and byte comparison.
uint64_t hitTransactionCycles(const ServeKernel &K) {
  TransformOptions Opts;
  Opts.OptLevel = 0;
  Opts.ScalarLibrary = true;
  DiagnosticsEngine Diags;
  FunctionCache Cache(4);
  std::shared_ptr<const InMemoryProgram> P =
      compileToProgram(K.Source, Opts, Diags);
  if (!P)
    std::exit(2);
  std::string Req = compileRequestBytes(K.Source, Opts);
  Cache.insert(hashRequestBytes(Req), P, Req);
  // A hit runs in hundreds of cycles; batch it so the rdtsc fencing
  // overhead does not dominate the per-transaction cost.
  constexpr int Batch = 256;
  uint64_t Total = minCycles([&] {
    for (int I = 0; I < Batch; ++I)
      if (!isCompileHit(Cache, K, Opts))
        std::exit(2);
  });
  return Total / Batch > 0 ? Total / Batch : 1;
}

/// One-shot CLI round-trip: exec the igen driver on the same source.
uint64_t cliOneShotCycles(const ServeKernel &K, const char *Driver) {
  char SrcPath[] = "/tmp/igen_serve_bench_XXXXXX";
  int Fd = mkstemp(SrcPath);
  if (Fd < 0)
    std::exit(2);
  FILE *F = fdopen(Fd, "w");
  std::fputs(K.Source, F);
  std::fclose(F);
  std::string Cmd = std::string(Driver) + " " + SrcPath + " -o " + SrcPath +
                    ".out.cpp --target=ss -O0 > /dev/null 2>&1";
  uint64_t Best = minCycles(
      [&] {
        if (std::system(Cmd.c_str()) != 0)
          std::exit(2);
      },
      /*Reps=*/5);
  std::remove(SrcPath);
  std::string Out = std::string(SrcPath) + ".out.cpp";
  std::remove(Out.c_str());
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = jsonPathArg(Argc, Argv);
  JsonReport Report;
  bool AmortizationOk = true;

  for (const ServeKernel &K : Kernels) {
    ServerCore Core(16);
    const std::string Compile = compileFrame(K);
    const std::string Handle = handleOf(mustOk(Core, Compile));
    const std::string Eval = evalFrame(K, Handle);
    const std::string EvictAll = "{\"op\":\"evict\",\"all\":true}";

    // Frame-path rows: what a client observes over the wire (minus the
    // socket). Evictions happen outside the timed region.
    uint64_t ColdCycles = ~uint64_t{0};
    for (int R = 0; R < 11; ++R) {
      mustOk(Core, EvictAll);
      uint64_t T0 = readCycles();
      mustOk(Core, Compile);
      ColdCycles = std::min(ColdCycles, readCycles() - T0);
    }
    uint64_t HitCycles = minCycles([&] { mustOk(Core, Compile); });
    // The deadline gate is a few-percent ratio, so it needs two
    // controls: (a) the comparison baseline is a frame of *identical
    // length* carrying an ignored field where `deadline_ms` sits, so
    // the diff isolates deadline bookkeeping (budget resolution at
    // dispatch + evaluator cancellation polls) rather than the cost of
    // parsing 22 more bytes of JSON; (b) all three variants are
    // measured interleaved, because frequency drift between
    // back-to-back minCycles blocks would swamp the difference.
    const std::string EvalDl = evalFrameWithDeadline(K, Handle);
    std::string EvalPad = EvalDl;
    size_t DlPos = EvalPad.find("\"deadline_ms\"");
    EvalPad.replace(DlPos, 13, "\"x_padding_f\"");
    uint64_t EvalCycles = ~uint64_t{0};
    uint64_t EvalPadCycles = ~uint64_t{0};
    uint64_t EvalDlCycles = ~uint64_t{0};
    for (int R = 0; R < 33; ++R) {
      uint64_t T0 = readCycles();
      mustOk(Core, Eval);
      uint64_t T1 = readCycles();
      mustOk(Core, EvalPad);
      uint64_t T2 = readCycles();
      mustOk(Core, EvalDl);
      uint64_t T3 = readCycles();
      EvalCycles = std::min(EvalCycles, T1 - T0);
      EvalPadCycles = std::min(EvalPadCycles, T2 - T1);
      EvalDlCycles = std::min(EvalDlCycles, T3 - T2);
    }
    uint64_t CliCycles = cliOneShotCycles(K, IGEN_DRIVER_PATH);

    reportRow(&Report, K.Name, "serve-compile-cold", 1, ColdCycles, 1.0);
    reportRow(&Report, K.Name, "serve-compile-hit", 1, HitCycles, 1.0);
    reportRow(&Report, K.Name, "serve-eval-hot", 1, EvalCycles, 1.0);
    reportRow(&Report, K.Name, "serve-eval-deadline", 1, EvalDlCycles, 1.0);
    reportRow(&Report, K.Name, "cli-oneshot", 1, CliCycles, 1.0);

    // Deadline bookkeeping must be invisible on the hot path: the check
    // is amortized over evaluator steps, so a generous deadline should
    // cost low single digits of a percent at worst. The gate is looser
    // than the design target (<1%) to keep CI off the noise floor.
    double DeadlinePct = 100.0 *
                         (static_cast<double>(EvalDlCycles) -
                          static_cast<double>(EvalPadCycles)) /
                         static_cast<double>(EvalPadCycles);
    std::printf("# %s: deadline bookkeeping costs %.2f%% on the hot eval\n",
                K.Name, DeadlinePct);
    if (DeadlinePct > 5.0) {
      std::fprintf(stderr,
                   "serve_bench: FAIL %s: deadline checks cost %.1f%% on "
                   "the hot eval (want <= 5%%)\n",
                   K.Name, DeadlinePct);
      AmortizationOk = false;
    }

    // Amortization claims.
    uint64_t TxnCold = coldTransactionCycles(K);
    uint64_t TxnHit = hitTransactionCycles(K);
    double CompileSpeedup =
        static_cast<double>(TxnCold) / static_cast<double>(TxnHit);
    double EvalSpeedup =
        static_cast<double>(CliCycles) / static_cast<double>(EvalCycles);
    std::printf("# %s: cache lookup %.0fx cheaper than pipeline, hot eval "
                "%.0fx cheaper than CLI round-trip\n",
                K.Name, CompileSpeedup, EvalSpeedup);
    if (CompileSpeedup < 50.0) {
      std::fprintf(stderr,
                   "serve_bench: FAIL %s: cache hit only %.1fx cheaper "
                   "than cold compile (want >= 50x)\n",
                   K.Name, CompileSpeedup);
      AmortizationOk = false;
    }
    if (EvalSpeedup < 10.0) {
      std::fprintf(stderr,
                   "serve_bench: FAIL %s: hot eval only %.1fx cheaper "
                   "than one-shot CLI round-trip (want >= 10x)\n",
                   K.Name, EvalSpeedup);
      AmortizationOk = false;
    }
  }

  // Warm restart: a daemon brought back up over the same
  // IGEN_SERVE_CACHE_DIR must answer previously compiled requests from
  // the replayed journal, and those replayed hits must retain the same
  // >= 50x amortization as in-process hits.
  {
    char DirTmpl[] = "/tmp/igen_serve_bench_cache_XXXXXX";
    if (!mkdtemp(DirTmpl)) {
      std::perror("serve_bench: mkdtemp");
      return 2;
    }
    ServerCoreConfig Cfg;
    Cfg.CacheCapacity = 16;
    Cfg.CacheDir = DirTmpl;
    {
      ServerCore First(Cfg);
      for (const ServeKernel &K : Kernels)
        mustOk(First, compileFrame(K));
    }
    ServerCore Restarted(Cfg); // constructor replays the journal
    for (const ServeKernel &K : Kernels) {
      std::string Resp = mustOk(Restarted, compileFrame(K));
      if (Resp.find("\"cached\": true") == std::string::npos &&
          Resp.find("\"cached\":true") == std::string::npos) {
        std::fprintf(stderr,
                     "serve_bench: FAIL %s: warm restart answered a known "
                     "request without the replayed cache\n",
                     K.Name);
        AmortizationOk = false;
      }
    }

    const ServeKernel &K = Kernels[0];
    uint64_t RestartHitCycles =
        minCycles([&] { mustOk(Restarted, compileFrame(K)); });
    reportRow(&Report, K.Name, "serve-restart-hit", 1, RestartHitCycles, 1.0);

    // Transaction-layer gate against a cache populated purely by journal
    // replay — the same hit-path measurement as the in-process gate.
    FunctionCache Replayed(16);
    PersistentCacheDir Persist(DirTmpl);
    PersistentCacheDir::ReplayStats RS = Persist.replay(Replayed, 16);
    TransformOptions Opts;
    Opts.OptLevel = 0;
    Opts.ScalarLibrary = true;
    if (RS.Replayed == 0 || !isCompileHit(Replayed, K, Opts)) {
      std::fprintf(stderr,
                   "serve_bench: FAIL: journal replay restored %zu entries "
                   "and misses kernel %s\n",
                   RS.Replayed, K.Name);
      AmortizationOk = false;
    } else {
      constexpr int Batch = 256;
      uint64_t Total = minCycles([&] {
        for (int I = 0; I < Batch; ++I)
          if (!isCompileHit(Replayed, K, Opts))
            std::exit(2);
      });
      uint64_t ReplayHit = Total / Batch > 0 ? Total / Batch : 1;
      uint64_t TxnCold = coldTransactionCycles(K);
      double Speedup =
          static_cast<double>(TxnCold) / static_cast<double>(ReplayHit);
      std::printf("# %s: replayed cache hit %.0fx cheaper than pipeline "
                  "after warm restart\n",
                  K.Name, Speedup);
      if (Speedup < 50.0) {
        std::fprintf(stderr,
                     "serve_bench: FAIL %s: replayed hit only %.1fx cheaper "
                     "than cold compile (want >= 50x)\n",
                     K.Name, Speedup);
        AmortizationOk = false;
      }
    }
    std::string Cleanup = std::string("rm -rf ") + DirTmpl;
    if (std::system(Cleanup.c_str()) != 0)
      std::fprintf(stderr, "serve_bench: warning: cannot remove %s\n",
                   DirTmpl);
  }

  if (JsonPath && !Report.writeTo(JsonPath)) {
    std::fprintf(stderr, "serve_bench: cannot write %s\n", JsonPath);
    return 2;
  }
  return AmortizationOk ? 0 : 1;
}
