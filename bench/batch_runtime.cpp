//===- batch_runtime.cpp - Batched array runtime: scalar vs SIMD vs par ---===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Measures the batched interval array runtime (src/runtime/) against
// hand-written scalar-Interval loops:
//
//   scalar-loop        per-element iAdd/iMul/iDiv/iSqrt/... over
//                      Interval; the dot baseline accumulates with
//                      SumAccumulatorF64; the dd-* baselines loop the
//                      scalar ddi operations
//   scalar/sse2/avx/avx2/avx512
//                      the dispatched iarr_*/ddarr_* kernels pinned to
//                      one ISA tier via forceIsa() (the per-size loop is
//                      the ISA sweep: every tier the CPU supports gets
//                      its own rows)
//   par-t1/t2/t4       iarr_sum_par / iarr_dot_par at a fixed thread
//                      count (bit-identical to each other by design)
//   loop/row           dd-axpy-s0/-s30: ten rows Y += a * X over ddi,
//                      as the per-element loop igen emits at -O0 and as
//                      the -O row kernel ia_axpy_dd (igen_lib.h), with
//                      0% or 30% of the X elements and of the ten
//                      multipliers straddling zero
//
// The div rows divide by strictly positive divisors: a benign pack of
// one divisor class keeps every tier on its sign-specialized fast path,
// which is the case the transformer emits after value-range analysis.
//
// Rows are "kernel,config,size,iops_per_cycle" on stdout; --json <path>
// additionally writes machine-readable rows (BENCH_batch.json in CI).
// Interval op counts: add/sub/scale = N, mul/fma/div/sqrt = N, sum = N,
// dot = 2N; dd rows count ddi operations the same way.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "interval/Accumulator.h"
#include "interval/Rounding.h"
#include "interval/igen_lib.h"
#include "runtime/BatchKernels.h"
#include "runtime/DdBatch.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace igen;
using namespace igen::bench;
using namespace igen::runtime;

namespace {

JsonReport *Report = nullptr;

/// Cache-line-aligned interval array (the runtime's streaming-store path
/// engages on aligned destinations).
struct AlignedArray {
  Interval *P = nullptr;
  explicit AlignedArray(int N)
      : P(static_cast<Interval *>(
            std::aligned_alloc(64, static_cast<size_t>(N) * sizeof(Interval)))) {}
  ~AlignedArray() { std::free(P); }
  AlignedArray(const AlignedArray &) = delete;
  AlignedArray &operator=(const AlignedArray &) = delete;
};

struct Inputs {
  AlignedArray X, Y, C, Dst;

  explicit Inputs(int N, uint64_t Seed) : X(N), Y(N), C(N), Dst(N) {
    Rng R(Seed);
    // Benign centers (|c| in [0.25, 2]): no overflow, no zero products,
    // so every ISA tier takes its fast path.
    for (int K = 0; K < N; ++K) {
      double A = R.uniform(0.25, 2.0) * (R.uniform(-1.0, 1.0) < 0 ? -1 : 1);
      double B = R.uniform(0.25, 2.0) * (R.uniform(-1.0, 1.0) < 0 ? -1 : 1);
      double D = R.uniform(0.25, 2.0);
      X.P[K] = Interval::fromEndpoints(A, nextUp(A));
      Y.P[K] = Interval::fromEndpoints(B, nextUp(B));
      C.P[K] = Interval::fromEndpoints(D, nextUp(D));
    }
  }
};

volatile double Sink; // defeats dead-code elimination of reductions

void benchRow(const char *Kernel, const char *Config, int N, double Iops,
              const std::function<void()> &Fn) {
  // Best-of-N rather than the paper's median: these rows feed ratio
  // checks, and on single-vCPU hosts the median still carries ±15%
  // one-sided scheduling noise.
  uint64_t Cycles = minCycles(Fn, 15);
  reportRow(Report, Kernel, Config, N, Cycles, Iops);
}

/// Hand-written baselines: the status quo this runtime replaces.
void runScalarLoops(Inputs &In, int N) {
  Interval *Dst = In.Dst.P;
  const Interval *X = In.X.P, *Y = In.Y.P, *C = In.C.P;
  benchRow("batch-add", "scalar-loop", N, N, [&] {
    RoundUpwardScope Up;
    for (int K = 0; K < N; ++K)
      Dst[K] = iAdd(X[K], Y[K]);
  });
  benchRow("batch-mul", "scalar-loop", N, N, [&] {
    RoundUpwardScope Up;
    for (int K = 0; K < N; ++K)
      Dst[K] = iMul(X[K], Y[K]);
  });
  benchRow("batch-fma", "scalar-loop", N, N, [&] {
    RoundUpwardScope Up;
    for (int K = 0; K < N; ++K)
      Dst[K] = iAdd(iMul(X[K], Y[K]), C[K]);
  });
  benchRow("batch-sum", "scalar-loop", N, N, [&] {
    RoundUpwardScope Up;
    SumAccumulatorF64 Acc;
    Acc.init(X[0]);
    for (int K = 1; K < N; ++K)
      Acc.accumulate(X[K]);
    Sink = Acc.reduce().Hi;
  });
  benchRow("batch-dot", "scalar-loop", N, 2.0 * N, [&] {
    RoundUpwardScope Up;
    SumAccumulatorF64 Acc;
    Acc.init(iMul(X[0], Y[0]));
    for (int K = 1; K < N; ++K)
      Acc.accumulate(iMul(X[K], Y[K]));
    Sink = Acc.reduce().Hi;
  });
  // The generic iDiv is the status quo a compiler without sign analysis
  // emits; C is strictly positive, so this measures its full candidate
  // set against the kernels' classified path.
  benchRow("batch-div", "scalar-loop", N, N, [&] {
    RoundUpwardScope Up;
    for (int K = 0; K < N; ++K)
      Dst[K] = iDiv(X[K], C[K]);
  });
  benchRow("batch-sqrt", "scalar-loop", N, N, [&] {
    RoundUpwardScope Up;
    for (int K = 0; K < N; ++K)
      Dst[K] = iSqrt(C[K]);
  });
}

/// The dispatched kernels, pinned to one ISA tier.
void runDispatched(Inputs &In, int N, Isa Tier) {
  forceIsa(Tier);
  const char *Config = isaName(Tier);
  Interval *Dst = In.Dst.P;
  const Interval *X = In.X.P, *Y = In.Y.P, *C = In.C.P;
  benchRow("batch-add", Config, N, N,
           [&] { iarr_add(Dst, X, Y, N); });
  benchRow("batch-mul", Config, N, N,
           [&] { iarr_mul(Dst, X, Y, N); });
  benchRow("batch-fma", Config, N, N,
           [&] { iarr_fma(Dst, X, Y, C, N); });
  benchRow("batch-sum", Config, N, N,
           [&] { Sink = iarr_sum(X, N).Hi; });
  benchRow("batch-dot", Config, N, 2.0 * N,
           [&] { Sink = iarr_dot(X, Y, N).Hi; });
  benchRow("batch-div", Config, N, N,
           [&] { iarr_div(Dst, X, C, N); });
  benchRow("batch-sqrt", Config, N, N,
           [&] { iarr_sqrt(Dst, C, N); });
  clearForcedIsa();
}

/// The batched ddi tier against per-element scalar ddi loops. Only the
/// tiers that map to distinct dd kernel tables get their own rows.
void runDdRows(Inputs &In, int N) {
  std::vector<DdInterval> X(N), Y(N), C(N), Dst(N);
  {
    RoundUpwardScope Up;
    for (int K = 0; K < N; ++K) {
      // Products of the f64i inputs populate the full dd precision.
      X[K] = ddiMul(DdInterval::fromInterval(In.X.P[K]),
                    DdInterval::fromInterval(In.C.P[K]));
      Y[K] = ddiMul(DdInterval::fromInterval(In.Y.P[K]),
                    DdInterval::fromInterval(In.C.P[K]));
      C[K] = DdInterval::fromInterval(In.C.P[K]);
    }
  }
  DdInterval *D = Dst.data();
  const DdInterval *XP = X.data(), *YP = Y.data(), *CP = C.data();

  benchRow("dd-add", "scalar-loop", N, N, [&] {
    RoundUpwardScope Up;
    for (int K = 0; K < N; ++K)
      D[K] = ddiAdd(XP[K], YP[K]);
  });
  benchRow("dd-mul", "scalar-loop", N, N, [&] {
    RoundUpwardScope Up;
    for (int K = 0; K < N; ++K)
      D[K] = ddiMul(XP[K], YP[K]);
  });
  for (Isa Tier : {Isa::Scalar, Isa::Avx2Fma}) {
    if (!isaSupported(Tier))
      continue;
    forceIsa(Tier);
    const char *Config = isaName(Tier);
    benchRow("dd-add", Config, N, N, [&] { ddarr_add(D, XP, YP, N); });
    benchRow("dd-mul", Config, N, N, [&] { ddarr_mul(D, XP, YP, N); });
    benchRow("dd-fma", Config, N, N,
             [&] { ddarr_fma(D, XP, YP, CP, N); });
    clearForcedIsa();
  }
  benchRow("dd-sum", "fixed", N, N,
           [&] { Sink = ddarr_sum(XP, N).Hi.H; });
  benchRow("dd-dot", "fixed", N, 2.0 * N,
           [&] { Sink = ddarr_dot(XP, YP, N).Hi.H; });
}

/// Y[j] = Y[j] + a * X[j] over ddi as igen emits it without the row
/// kernel.
[[gnu::noinline]] void ddAxpyLoop(ddi *Y, ddi A, const ddi *X, int N) {
  for (int J = 0; J < N; J++)
    Y[J] = ia_add_dd(Y[J], ia_mul_dd(A, X[J]));
}

/// The dd axpy row kernel against the loop it replaces: ten multipliers
/// over one row pair, with \p StraddlePct percent of the X elements and
/// of the multipliers straddling zero.
void runDdAxpyRows(int N, int StraddlePct) {
  Rng R(benchSeed("batch", "dd-axpy", N * 100 + StraddlePct));
  RoundUpwardScope Up;
  auto Element = [&](bool Straddle) {
    const double C = R.uniform(0.25, 2.0);
    if (Straddle)
      return ddi::fromScalar(
          DdInterval::fromEndpoints(Dd(-C), Dd(R.uniform(0.25, 2.0))));
    const double S = R.uniform(-1.0, 1.0) < 0 ? -C : C;
    return ddi::fromScalar(DdInterval::fromEndpoints(
        Dd(S, -std::fabs(S) * 0x1p-60), Dd(nextUp(S), std::fabs(S) * 0x1p-58)));
  };
  std::vector<ddi> X(N), Y(N), A(10);
  for (int K = 0; K < N; ++K) {
    X[K] = Element(R.uniform(0.0, 100.0) < StraddlePct);
    Y[K] = Element(false);
  }
  for (int K = 0; K < 10; ++K)
    A[K] = Element(K * 10 < StraddlePct);
  const std::string Kernel = "dd-axpy-s" + std::to_string(StraddlePct);
  benchRow(Kernel.c_str(), "loop", N, 20.0 * N, [&] {
    RoundUpwardScope Up;
    for (const ddi &M : A)
      ddAxpyLoop(Y.data(), M, X.data(), N);
  });
  benchRow(Kernel.c_str(), "row", N, 20.0 * N, [&] {
    RoundUpwardScope Up;
    for (const ddi &M : A)
      ia_axpy_dd(Y.data(), M, X.data(), static_cast<unsigned long>(N));
  });
}

/// Sentinel overhead: the same kernels with the iarr_* entry checks
/// (fenv sentinel, aliasing guard, fault-injection gate) bypassed by
/// calling the dispatched kernel table directly. The nosentinel rows
/// exist only as the denominator for the <1% overhead claim in
/// DESIGN.md; production code must never skip the wrappers.
void runSentinelOverhead(Inputs &In, int N) {
  Interval *Dst = In.Dst.P;
  const Interval *X = In.X.P, *Y = In.Y.P, *C = In.C.P;
  benchRow("batch-add", "nosentinel", N, N, [&] {
    RoundUpwardScope Up;
    kernels().Add(Dst, X, Y, N);
  });
  benchRow("batch-mul", "nosentinel", N, N, [&] {
    RoundUpwardScope Up;
    kernels().Mul(Dst, X, Y, N);
  });
  benchRow("batch-fma", "nosentinel", N, N, [&] {
    RoundUpwardScope Up;
    kernels().Fma(Dst, X, Y, C, N);
  });
  // The guarded counterparts on the same (auto-detected) tier, labeled
  // distinctly so the JSON consumer can pair them up.
  benchRow("batch-add", "sentinel", N, N, [&] { iarr_add(Dst, X, Y, N); });
  benchRow("batch-mul", "sentinel", N, N, [&] { iarr_mul(Dst, X, Y, N); });
  benchRow("batch-fma", "sentinel", N, N,
           [&] { iarr_fma(Dst, X, Y, C, N); });
}

/// Parallel reductions on the auto-detected tier.
void runParallel(Inputs &In, int N) {
  const Interval *X = In.X.P, *Y = In.Y.P;
  for (unsigned T : {1u, 2u, 4u}) {
    char Config[16];
    std::snprintf(Config, sizeof(Config), "par-t%u", T);
    benchRow("batch-sum", Config, N, N,
             [&] { Sink = iarr_sum_par(X, N, T).Hi; });
    benchRow("batch-dot", Config, N, 2.0 * N,
             [&] { Sink = iarr_dot_par(X, Y, N, T).Hi; });
  }
}

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = jsonPathArg(Argc, Argv);
  JsonReport Json;
  if (JsonPath)
    Report = &Json;

  std::printf("kernel,config,size,iops_per_cycle\n");
  for (int N : {1 << 12, 1 << 16, 1 << 18}) {
    Inputs In(N, benchSeed("batch", "inputs", N));
    runScalarLoops(In, N);
    for (int T = 0; T < NumIsas; ++T)
      if (isaSupported(static_cast<Isa>(T)))
        runDispatched(In, N, static_cast<Isa>(T));
    if (N == 1 << 16)
      runSentinelOverhead(In, N);
    runDdRows(In, N);
    runParallel(In, N);
  }
  for (int N : {64, 4096})
    for (int StraddlePct : {0, 30})
      runDdAxpyRows(N, StraddlePct);

  if (JsonPath && !Json.writeTo(JsonPath)) {
    std::fprintf(stderr, "batch_runtime: cannot write %s\n", JsonPath);
    return 1;
  }
  return 0;
}
