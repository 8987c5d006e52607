//===- microops_bench.cpp - Interval operation micro-benchmarks ----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark latencies/throughputs of the individual interval
// operations across implementations: the ablation behind the Fig. 8
// design choices (scalar vs SSE vs precompiled vs branchy multiplication,
// double vs double-double; the dd multiply on sign-known and on
// straddling operands).
//
//===----------------------------------------------------------------------===//

#include "baselines/BaselineIntervals.h"
#include "interval/DdSimd.h"
#include "interval/Interval.h"
#include "interval/IntervalSimd.h"

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

using namespace igen;

namespace {

// One shared upward-rounding scope for the whole binary (benchmark
// runs everything on the main thread).
RoundUpwardScope *Up = new RoundUpwardScope();

template <typename I> std::vector<I> makeInputs(int N) {
  std::vector<I> V;
  V.reserve(N);
  std::mt19937_64 Gen(99);
  std::uniform_real_distribution<double> D(-2.0, 2.0);
  for (int K = 0; K < N; ++K) {
    double C = D(Gen);
    V.push_back(I::fromEndpoints(C, nextUp(C)));
  }
  return V;
}

/// Intervals [-u, v] with u, v in [0.5, 2): both factors straddle zero.
template <typename I> std::vector<I> makeStraddlingInputs(int N) {
  std::vector<I> V;
  V.reserve(N);
  std::mt19937_64 Gen(98);
  std::uniform_real_distribution<double> D(0.5, 2.0);
  for (int K = 0; K < N; ++K) {
    double U = D(Gen);
    V.push_back(I::fromEndpoints(-U, D(Gen)));
  }
  return V;
}

constexpr int N = 1024;

template <typename I, typename Op>
void runOp(benchmark::State &State, Op O,
           std::vector<I> (*Make)(int) = makeInputs<I>) {
  auto A = Make(N);
  auto B = Make(N);
  for (auto _ : State) {
    for (int K = 0; K < N; ++K) {
      I R = O(A[K], B[K]);
      benchmark::DoNotOptimize(R);
    }
  }
  State.SetItemsProcessed(State.iterations() * N);
}

void BM_AddScalar(benchmark::State &S) {
  runOp<Interval>(S, [](const Interval &A, const Interval &B) {
    return iAdd(A, B);
  });
}
void BM_AddSse(benchmark::State &S) {
  runOp<IntervalSse>(S, [](const IntervalSse &A, const IntervalSse &B) {
    return iAdd(A, B);
  });
}
void BM_AddDd(benchmark::State &S) {
  runOp<DdIntervalAvx>(
      S, [](const DdIntervalAvx &A, const DdIntervalAvx &B) {
        return ddiAdd(A, B);
      });
}
void BM_MulScalar(benchmark::State &S) {
  runOp<Interval>(S, [](const Interval &A, const Interval &B) {
    return iMul(A, B);
  });
}
void BM_MulSse(benchmark::State &S) {
  runOp<IntervalSse>(S, [](const IntervalSse &A, const IntervalSse &B) {
    return iMul(A, B);
  });
}
void BM_MulDd(benchmark::State &S) {
  runOp<DdIntervalAvx>(
      S, [](const DdIntervalAvx &A, const DdIntervalAvx &B) {
        return ddiMul(A, B);
      });
}
void BM_MulDdStraddle(benchmark::State &S) {
  runOp<DdIntervalAvx>(
      S,
      [](const DdIntervalAvx &A, const DdIntervalAvx &B) {
        return ddiMul(A, B);
      },
      makeStraddlingInputs<DdIntervalAvx>);
}
void BM_MulBoostLike(benchmark::State &S) {
  runOp<BoostLikeInterval>(
      S, [](const BoostLikeInterval &A, const BoostLikeInterval &B) {
        return A * B;
      });
}
void BM_MulFilibLike(benchmark::State &S) {
  runOp<FilibLikeInterval>(
      S, [](const FilibLikeInterval &A, const FilibLikeInterval &B) {
        return A * B;
      });
}
void BM_MulGaolLike(benchmark::State &S) {
  runOp<GaolLikeInterval>(
      S, [](const GaolLikeInterval &A, const GaolLikeInterval &B) {
        return A * B;
      });
}
void BM_DivScalar(benchmark::State &S) {
  runOp<Interval>(S, [](const Interval &A, const Interval &B) {
    return iDiv(A, B);
  });
}
void BM_DivSse(benchmark::State &S) {
  runOp<IntervalSse>(S, [](const IntervalSse &A, const IntervalSse &B) {
    return iDiv(A, B);
  });
}
void BM_DivDd(benchmark::State &S) {
  runOp<DdIntervalAvx>(
      S, [](const DdIntervalAvx &A, const DdIntervalAvx &B) {
        return ddiDiv(A, B);
      });
}

} // namespace

BENCHMARK(BM_AddScalar);
BENCHMARK(BM_AddSse);
BENCHMARK(BM_AddDd);
BENCHMARK(BM_MulScalar);
BENCHMARK(BM_MulSse);
BENCHMARK(BM_MulDd);
BENCHMARK(BM_MulDdStraddle);
BENCHMARK(BM_MulBoostLike);
BENCHMARK(BM_MulFilibLike);
BENCHMARK(BM_MulGaolLike);
BENCHMARK(BM_DivScalar);
BENCHMARK(BM_DivSse);
BENCHMARK(BM_DivDd);

BENCHMARK_MAIN();
