//===- AotWorkload.cpp - aot-kernels: generated code vs native twins ------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's own use of IGen: kernels compiled ahead of time to interval
/// code, timed against the same source compiled natively on double
/// (Table V slowdown, Fig. 8 iops/cycle, Fig. 9 accuracy). Each round runs
/// every interval kernel once, checks that every output encloses the
/// binary128 evaluation of the same kernel at the inputs' lower
/// endpoints, and then runs the kernel's native twin. Accuracy is read
/// once per run, on inputs that do not depend on the seed.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "interval/Accuracy.h"
#include "interval/DdSimd.h"
#include "interval/IntervalSimd.h"
#include "interval/Rounding.h"
#include "interval/Ulp.h"
#include "runtime/BatchKernels.h"
#include "opt/OptAnalysis.h"
#include "transform/Pipeline.h"

#include <quadmath.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <x86intrin.h>

#include <sys/resource.h>

using igen::Dd;
using igen::DdInterval;
using igen::DdIntervalAvx;
using igen::Interval;
using igen::IntervalSse;
using Q = __float128;

// Kernel variants generated at build time from bench/kernels/: sv_, svdd_
// and base_ by bench/CMakeLists.txt, base_gauss and ref_ by
// perfbench/CMakeLists.txt.
void sv_fft(IntervalSse *, IntervalSse *, IntervalSse *, IntervalSse *, int *,
            int);
void sv_potrf(IntervalSse *, int);
void sv_ffnn(IntervalSse *, IntervalSse *, IntervalSse *, IntervalSse *, int,
             int);
void sv_gemm(IntervalSse *, IntervalSse *, IntervalSse *, int);
void sv_mvm(IntervalSse *, IntervalSse *, IntervalSse *, int, int);
IntervalSse sv_henon(IntervalSse, IntervalSse, int);
IntervalSse sv_horner(IntervalSse *, IntervalSse, int);
IntervalSse sv_pade(IntervalSse *, IntervalSse *, int);
IntervalSse sv_gauss(IntervalSse *, IntervalSse *, int);

void svdd_fft(DdIntervalAvx *, DdIntervalAvx *, DdIntervalAvx *,
              DdIntervalAvx *, int *, int);
void svdd_potrf(DdIntervalAvx *, int);
void svdd_ffnn(DdIntervalAvx *, DdIntervalAvx *, DdIntervalAvx *,
               DdIntervalAvx *, int, int);
void svdd_gemm(DdIntervalAvx *, DdIntervalAvx *, DdIntervalAvx *, int);
void svdd_mvm(DdIntervalAvx *, DdIntervalAvx *, DdIntervalAvx *, int, int);
DdIntervalAvx svdd_henon(DdIntervalAvx, DdIntervalAvx, int);

void base_fft(double *, double *, const double *, const double *, int *, int);
void base_potrf(double *, int);
void base_ffnn(const double *, const double *, double *, double *, int, int);
void base_gemm(double *, const double *, const double *, int);
void base_mvm(const double *, const double *, double *, int, int);
double base_henon(double, double, int);
double base_horner(const double *, double, int);
double base_pade(const double *, double *, int);
double base_gauss(const double *, double *, int);

void ref_fft(Q *, Q *, const Q *, const Q *, int *, int);
void ref_potrf(Q *, int);
void ref_ffnn(const Q *, const Q *, Q *, Q *, int, int);
void ref_gemm(Q *, const Q *, const Q *, int);
void ref_mvm(const Q *, const Q *, Q *, int, int);
Q ref_henon(Q, Q, int);
Q ref_horner(const Q *, Q, int);
Q ref_pade(const Q *, Q *, int);
Q ref_gauss(const Q *, Q *, int);

namespace pb {
namespace {

/// TSC ticks per nanosecond, measured once against the steady clock
/// (converts kernel times to the cycles of Fig. 8's iops/cycle).
double tscPerNs() {
  static const double V = [] {
    int64_t T0 = nowNs();
    uint64_t C0 = __rdtsc();
    while (nowNs() - T0 < 20'000'000) {
    }
    uint64_t C1 = __rdtsc();
    int64_t T1 = nowNs();
    return static_cast<double>(C1 - C0) / static_cast<double>(T1 - T0);
  }();
  return V;
}

/// Peak resident set of this process in MB.
double selfPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0;
}

std::string showPair(double Lo, double Hi) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "[%.17g, %.17g]", Lo, Hi);
  return Buf;
}

// Interval spaces: how inputs become intervals, where the reference input
// lies, and how an output is checked against the binary128 reference.

/// Width-1-ulp double intervals in SSE registers (the paper's input
/// distribution; the sv_ kernels).
struct F64 {
  using T = IntervalSse;
  static constexpr const char *Prefix = "sv_";
  static T ulp(double X) { return T::fromEndpoints(X, igen::nextUp(X)); }
  static T point(double X) { return T::fromPoint(X); }
  static Q lower(double X) { return X; }
  static bool contains(const T &I, Q R) {
    return static_cast<Q>(I.lo()) <= R && R <= static_cast<Q>(I.hi());
  }
  static double bits(const T &I) { return igen::accuracyBits(I.toInterval()); }
  static std::string show(const T &I) { return showPair(I.lo(), I.hi()); }
};

/// The same intervals as plain igen::Interval (the batched runtime).
struct Batch {
  using T = Interval;
  static constexpr const char *Prefix = "";
  static T ulp(double X) { return T::fromEndpoints(X, igen::nextUp(X)); }
  static T point(double X) { return T::fromPoint(X); }
  static Q lower(double X) { return X; }
  static bool contains(const T &I, Q R) {
    return static_cast<Q>(I.lo()) <= R && R <= static_cast<Q>(I.hi());
  }
  static double bits(const T &I) { return igen::accuracyBits(I); }
  static std::string show(const T &I) { return showPair(I.lo(), I.hi()); }
};

/// Double-double intervals one ulp of the low word wide (the paper's
/// double-double input protocol; the svdd_ kernels).
struct DdF {
  using T = DdIntervalAvx;
  static constexpr const char *Prefix = "svdd_";
  static Dd lowWord(double X) { return Dd(X, X * 0x1.3p-55); }
  static T ulp(double X) {
    Dd Lo = lowWord(X), Hi = Lo;
    Hi.L = igen::nextUp(Hi.L);
    return T::fromScalar(DdInterval::fromEndpoints(Lo, Hi));
  }
  static T point(double X) { return T::fromPoint(X); }
  static Q toQ(const Dd &D) {
    return static_cast<Q>(D.H) + static_cast<Q>(D.L);
  }
  static Q lower(double X) { return toQ(lowWord(X)); }
  static bool contains(const T &I, Q R) {
    DdInterval S = I.toScalar();
    return !S.hasNaN() && toQ(S.lo()) <= R && R <= toQ(S.hi());
  }
  static double bits(const T &I) { return igen::accuracyBits(I.toScalar()); }
  static std::string show(const T &I) {
    DdInterval S = I.toScalar();
    return "[" + quadString(toQ(S.lo())) + ", " + quadString(toQ(S.hi())) + "]";
  }
};

enum class Family { F64, Dd, Batch };

/// One timed kernel: an interval variant, its native double twin, and the
/// containment check of the interval variant's last outputs.
struct AotKernel {
  std::string Name; ///< kernel name, e.g. "gemm" or "iarr_add"
  Family Fam = Family::F64;
  double Iops = 0;  ///< interval operations per call (Fig. 8)
  double Elems = 0; ///< elements per call (batch kernels)
  std::function<void()> ResetI, RunI, ResetN, RunN;
  /// Returns the minimum accuracy bits over the outputs; reports an
  /// enclosure miss to \p O.
  std::function<double(Outcome &O)> Check;
  const char *SpanI = "", *SpanN = ""; ///< span names (traced run)
};

/// How a kernel argument array is made from its seeded values.
enum class Role {
  Ulp,   ///< read-only width-1-ulp intervals
  Point, ///< read-only point intervals (FFT twiddles)
  InOut, ///< width-1-ulp intervals the kernel updates; checked
  Out,   ///< zero-initialized output; checked
};
struct Arg {
  Role R;
  std::vector<double> V;
};

/// A kernel over argument arrays. \p CallI / \p CallN / \p CallR receive
/// the arrays as interval, double and binary128 vectors and make the
/// interval, native and reference call. The reference runs once, on the
/// lower endpoints; InOut and Out arrays are reset before every call.
template <class S, class FI, class FN, class FR>
AotKernel arrayKernel(const char *Name, Family F, double Iops,
                      std::vector<Arg> Args, FI CallI, FN CallN, FR CallR) {
  using T = typename S::T;
  struct St {
    std::vector<Arg> Args;
    std::vector<std::vector<T>> I0, I;
    std::vector<std::vector<double>> N;
    std::vector<std::vector<Q>> Ref;
  };
  auto D = std::make_shared<St>();
  D->Args = std::move(Args);
  for (const Arg &A : D->Args) {
    std::vector<T> IV(A.V.size(), S::point(0.0));
    std::vector<Q> QV(A.V.size(), 0);
    std::vector<double> NV(A.V.size(), 0.0);
    for (size_t K = 0; K < A.V.size() && A.R != Role::Out; ++K) {
      IV[K] = A.R == Role::Point ? S::point(A.V[K]) : S::ulp(A.V[K]);
      QV[K] = A.R == Role::Point ? static_cast<Q>(A.V[K]) : S::lower(A.V[K]);
      NV[K] = A.V[K];
    }
    D->I0.push_back(std::move(IV));
    D->Ref.push_back(std::move(QV));
    D->N.push_back(std::move(NV));
  }
  D->I = D->I0;
  {
    igen::RoundNearestScope RN;
    CallR(D->Ref.data());
  }
  auto Mutable = [](Role R) { return R == Role::InOut || R == Role::Out; };
  for (size_t A = 0; A < D->Args.size(); ++A)
    if (!Mutable(D->Args[A].R)) // only checked arrays need a reference
      std::vector<Q>().swap(D->Ref[A]);
  AotKernel K;
  K.Name = Name;
  K.Fam = F;
  K.Iops = Iops;
  K.ResetI = [D, Mutable] {
    for (size_t A = 0; A < D->Args.size(); ++A)
      if (Mutable(D->Args[A].R))
        D->I[A] = D->I0[A];
  };
  K.ResetN = [D, Mutable] {
    for (size_t A = 0; A < D->Args.size(); ++A)
      if (Mutable(D->Args[A].R))
        D->N[A] = D->Args[A].V; // Out arrays are given as zeros
  };
  K.RunI = [D, CallI] { CallI(D->I.data()); };
  K.RunN = [D, CallN] { CallN(D->N.data()); };
  std::string Label = std::string(S::Prefix) + Name;
  K.Check = [D, Mutable, Label](Outcome &O) {
    double Bits = 1e9;
    for (size_t A = 0; A < D->Args.size(); ++A) {
      if (!Mutable(D->Args[A].R))
        continue;
      const std::vector<T> &Out = D->I[A];
      const std::vector<Q> &Ref = D->Ref[A];
      for (size_t K = 0; K < Out.size(); ++K) {
        if (!S::contains(Out[K], Ref[K])) {
          O.fail(Label + " argument " + std::to_string(A) + " element " +
                 std::to_string(K) + " = " + S::show(Out[K]) +
                 " does not contain the binary128 reference " +
                 quadString(Ref[K]));
          return 0.0;
        }
        Bits = std::min(Bits, S::bits(Out[K]));
      }
    }
    return Bits;
  };
  return K;
}

std::vector<double> uniforms(Rng &G, size_t N, double Lo, double Hi) {
  std::vector<double> V(N);
  for (double &X : V)
    X = G.uniform(Lo, Hi);
  return V;
}

// ---- the Table V / Fig. 8 kernels ------------------------------------------

constexpr int FftN = 64, FfnnN = 104, FfnnL = 9, HenonP = 256,
              HenonIters = 40, HornerDeg = 30,
              HornerP = 2048, PointwiseN = 8192;

struct FftTables {
  std::vector<double> Wre, Wim;
  std::vector<int> Rev;
  FftTables() : Rev(FftN) {
    for (int I = 0; I < FftN; ++I)
      for (int B = 0; B < 6; ++B)
        if (I & (1 << B))
          Rev[I] |= 1 << (5 - B);
    for (int Len = 2; Len <= FftN; Len <<= 1)
      for (int J = 0; J < Len / 2; ++J) {
        long double Ang = -2.0L * 3.14159265358979323846L * J / Len;
        Wre.push_back(static_cast<double>(cosl(Ang)));
        Wim.push_back(static_cast<double>(sinl(Ang)));
      }
  }
};

/// Well-conditioned SPD input for potrf: B*B^T + n*I.
std::vector<double> spd(Rng &G, int N) {
  std::vector<double> B = uniforms(G, size_t(N) * N, -1, 1);
  std::vector<double> A(size_t(N) * N);
  for (int I = 0; I < N; ++I)
    for (int J = 0; J <= I; ++J) {
      double Sum = 0;
      for (int K = 0; K < N; ++K)
        Sum += B[I * N + K] * B[J * N + K];
      A[I * N + J] = A[J * N + I] = Sum + (I == J ? N : 0);
    }
  return A;
}

/// The kernels shared by the f64 and dd sets, in space \p S with the
/// interval variants \p Fns, at the given potrf/gemm/mvm sizes.
template <class S, class Fns>
void addShared(std::vector<AotKernel> &Ks, Family F, uint64_t Seed,
               int PotrfN, int GemmN, int MvmN) {
  auto Gen = [&](const char *P) { return Rng(subSeed(Seed, P)); };
  {
    Rng G = Gen("fft");
    FftTables Tb;
    auto Rev = std::make_shared<std::vector<int>>(Tb.Rev);
    Ks.push_back(arrayKernel<S>(
        "fft", F, 10.0 * (FftN / 2) * 6,
        {{Role::InOut, uniforms(G, FftN, -1, 1)},
         {Role::InOut, uniforms(G, FftN, -1, 1)},
         {Role::Point, Tb.Wre},
         {Role::Point, Tb.Wim}},
        [Rev](auto *X) {
          Fns::fft(X[0].data(), X[1].data(), X[2].data(), X[3].data(),
                   Rev->data(), FftN);
        },
        [Rev](auto *X) {
          base_fft(X[0].data(), X[1].data(), X[2].data(), X[3].data(),
                   Rev->data(), FftN);
        },
        [Rev](auto *X) {
          ref_fft(X[0].data(), X[1].data(), X[2].data(), X[3].data(),
                  Rev->data(), FftN);
        }));
  }
  {
    Rng G = Gen("potrf");
    Ks.push_back(arrayKernel<S>(
        "potrf", F, PotrfN * double(PotrfN) * PotrfN / 3.0,
        {{Role::InOut, spd(G, PotrfN)}},
        [PotrfN](auto *X) { Fns::potrf(X[0].data(), PotrfN); },
        [PotrfN](auto *X) { base_potrf(X[0].data(), PotrfN); },
        [PotrfN](auto *X) { ref_potrf(X[0].data(), PotrfN); }));
  }
  {
    Rng G = Gen("ffnn");
    double Scale = 1.0 / std::sqrt(double(FfnnN));
    Ks.push_back(arrayKernel<S>(
        "ffnn", F, 2.0 * FfnnL * FfnnN * double(FfnnN),
        {{Role::Ulp, uniforms(G, size_t(FfnnL) * FfnnN * FfnnN, -Scale, Scale)},
         {Role::Ulp, uniforms(G, size_t(FfnnL) * FfnnN, -0.1, 0.1)},
         {Role::InOut, uniforms(G, FfnnN, 0.0, 1.0)},
         {Role::Out, std::vector<double>(FfnnN)}},
        [](auto *X) {
          Fns::ffnn(X[0].data(), X[1].data(), X[2].data(), X[3].data(),
                    FfnnN, FfnnL);
        },
        [](auto *X) {
          base_ffnn(X[0].data(), X[1].data(), X[2].data(), X[3].data(),
                    FfnnN, FfnnL);
        },
        [](auto *X) {
          ref_ffnn(X[0].data(), X[1].data(), X[2].data(), X[3].data(), FfnnN,
                   FfnnL);
        }));
  }
  {
    Rng G = Gen("gemm");
    size_t NN = size_t(GemmN) * GemmN;
    Ks.push_back(arrayKernel<S>(
        "gemm", F, 2.0 * GemmN * double(GemmN) * GemmN,
        {{Role::Ulp, uniforms(G, NN, -1, 1)},
         {Role::Ulp, uniforms(G, NN, -1, 1)},
         {Role::InOut, uniforms(G, NN, -1, 1)}},
        [GemmN](auto *X) {
          Fns::gemm(X[2].data(), X[0].data(), X[1].data(), GemmN);
        },
        [GemmN](auto *X) {
          base_gemm(X[2].data(), X[0].data(), X[1].data(), GemmN);
        },
        [GemmN](auto *X) {
          ref_gemm(X[2].data(), X[0].data(), X[1].data(), GemmN);
        }));
  }
  {
    Rng G = Gen("mvm");
    Ks.push_back(arrayKernel<S>(
        "mvm", F, 2.0 * MvmN * double(MvmN),
        {{Role::Ulp, uniforms(G, size_t(MvmN) * MvmN, -1, 1)},
         {Role::Ulp, uniforms(G, MvmN, -1, 1)},
         {Role::InOut, uniforms(G, MvmN, -1, 1)}},
        [MvmN](auto *X) {
          Fns::mvm(X[0].data(), X[1].data(), X[2].data(), MvmN, MvmN);
        },
        [MvmN](auto *X) {
          base_mvm(X[0].data(), X[1].data(), X[2].data(), MvmN, MvmN);
        },
        [MvmN](auto *X) {
          ref_mvm(X[0].data(), X[1].data(), X[2].data(), MvmN, MvmN);
        }));
  }
  {
    Rng G = Gen("henon");
    auto PerPoint = [](auto Fn) {
      return [Fn](auto *X) {
        for (int P = 0; P < HenonP; ++P)
          X[2][P] = Fn(X[0][P], X[1][P], HenonIters);
      };
    };
    Ks.push_back(arrayKernel<S>(
        "henon", F, 5.0 * HenonIters * HenonP,
        {{Role::Ulp, uniforms(G, HenonP, -0.5, 0.5)},
         {Role::Ulp, uniforms(G, HenonP, -0.5, 0.5)},
         {Role::Out, std::vector<double>(HenonP)}},
        PerPoint(Fns::henon), PerPoint(base_henon), PerPoint(ref_henon)));
  }
}

struct SvFns {
  static constexpr auto fft = sv_fft;
  static constexpr auto potrf = sv_potrf;
  static constexpr auto ffnn = sv_ffnn;
  static constexpr auto gemm = sv_gemm;
  static constexpr auto mvm = sv_mvm;
  static constexpr auto henon = sv_henon;
};
struct SvddFns {
  static constexpr auto fft = svdd_fft;
  static constexpr auto potrf = svdd_potrf;
  static constexpr auto ffnn = svdd_ffnn;
  static constexpr auto gemm = svdd_gemm;
  static constexpr auto mvm = svdd_mvm;
  static constexpr auto henon = svdd_henon;
};

/// f64-only kernels: horner over 2048 points, and the pointwise pade and
/// gauss over 8192 points (out[] and the returned sum are both checked).
void addF64Only(std::vector<AotKernel> &Ks, uint64_t Seed) {
  {
    Rng G(subSeed(Seed, "horner"));
    auto PerPoint = [](auto Fn) {
      return [Fn](auto *X) {
        for (int P = 0; P < HornerP; ++P)
          X[2][P] = Fn(X[0].data(), X[1][P], HornerDeg);
      };
    };
    Ks.push_back(arrayKernel<F64>(
        "horner", Family::F64, 2.0 * HornerDeg * HornerP,
        {{Role::Ulp, uniforms(G, HornerDeg + 1, -2.0, 2.0)},
         {Role::Ulp, uniforms(G, HornerP, 0.001, 1.5)},
         {Role::Out, std::vector<double>(HornerP)}},
        PerPoint(sv_horner), PerPoint(base_horner), PerPoint(ref_horner)));
  }
  auto Pointwise = [&](const char *Name, double IopsPerPoint, double Lo,
                       double Hi, auto FnI, auto FnN, auto FnR) {
    Rng G(subSeed(Seed, Name));
    auto Call = [](auto Fn) {
      return [Fn](auto *X) {
        X[2][0] = Fn(X[0].data(), X[1].data(), PointwiseN);
      };
    };
    Ks.push_back(arrayKernel<F64>(
        Name, Family::F64, IopsPerPoint * PointwiseN,
        {{Role::Ulp, uniforms(G, PointwiseN, Lo, Hi)},
         {Role::Out, std::vector<double>(PointwiseN)},
         {Role::Out, std::vector<double>(1)}},
        Call(FnI), Call(FnN), Call(FnR)));
  };
  Pointwise("pade", 8, 0.001, 50.0, sv_pade, base_pade, ref_pade);
  Pointwise("gauss", 10, -3.0, 3.0, sv_gauss, base_gauss, ref_gauss);
}

// ---- the batched runtime at n = 2^16 ---------------------------------------

constexpr int BatchN = 1 << 16;

// Native twins: the same elementwise loop on double.
__attribute__((noinline)) void nativeAdd(double *D, const double *X,
                                         const double *Y) {
  for (int I = 0; I < BatchN; ++I)
    D[I] = X[I] + Y[I];
}
__attribute__((noinline)) void nativeMul(double *D, const double *X,
                                         const double *Y) {
  for (int I = 0; I < BatchN; ++I)
    D[I] = X[I] * Y[I];
}
__attribute__((noinline)) void nativeDiv(double *D, const double *X,
                                         const double *Y) {
  for (int I = 0; I < BatchN; ++I)
    D[I] = X[I] / Y[I];
}
__attribute__((noinline)) void nativeSqrt(double *D, const double *X) {
  for (int I = 0; I < BatchN; ++I)
    D[I] = std::sqrt(X[I]);
}
__attribute__((noinline)) void nativeExp(double *D, const double *X) {
  for (int I = 0; I < BatchN; ++I)
    D[I] = std::exp(X[I]);
}
__attribute__((noinline)) double nativeDot(const double *X, const double *Y) {
  double S = 0;
  for (int I = 0; I < BatchN; ++I)
    S += X[I] * Y[I];
  return S;
}

void addBatch(std::vector<AotKernel> &Ks, uint64_t Seed) {
  using namespace igen::runtime;
  Rng G(subSeed(Seed, "batch"));
  // x, y in [-1, 1]; p in [0.5, 2] is the positive operand of div/sqrt.
  std::vector<double> X = uniforms(G, BatchN, -1, 1);
  std::vector<double> Y = uniforms(G, BatchN, -1, 1);
  std::vector<double> P = uniforms(G, BatchN, 0.5, 2.0);
  std::vector<double> Zero(BatchN);
  auto Binary = [&](const char *Name, const std::vector<double> &B, auto FnI,
                    auto FnN, auto FnR) {
    AotKernel K = arrayKernel<Batch>(
        Name, Family::Batch, BatchN,
        {{Role::Ulp, X}, {Role::Ulp, B}, {Role::Out, Zero}},
        [FnI](auto *V) { FnI(V[2].data(), V[0].data(), V[1].data(), BatchN); },
        [FnN](auto *V) { FnN(V[2].data(), V[0].data(), V[1].data()); },
        [FnR](auto *V) {
          for (int I = 0; I < BatchN; ++I)
            V[2][I] = FnR(V[0][I], V[1][I]);
        });
    K.Elems = BatchN;
    Ks.push_back(std::move(K));
  };
  auto Unary = [&](const char *Name, const std::vector<double> &A, auto FnI,
                   auto FnN, auto FnR) {
    AotKernel K = arrayKernel<Batch>(
        Name, Family::Batch, BatchN, {{Role::Ulp, A}, {Role::Out, Zero}},
        [FnI](auto *V) { FnI(V[1].data(), V[0].data(), BatchN); },
        [FnN](auto *V) { FnN(V[1].data(), V[0].data()); },
        [FnR](auto *V) {
          for (int I = 0; I < BatchN; ++I)
            V[1][I] = FnR(V[0][I]);
        });
    K.Elems = BatchN;
    Ks.push_back(std::move(K));
  };
  using IFn = void (*)(Interval *, const Interval *, const Interval *, size_t);
  using UFn = void (*)(Interval *, const Interval *, size_t);
  Binary("iarr_add", Y, static_cast<IFn>(iarr_add), nativeAdd,
         [](Q A, Q B) { return A + B; });
  Binary("iarr_mul", Y, static_cast<IFn>(iarr_mul), nativeMul,
         [](Q A, Q B) { return A * B; });
  Binary("iarr_div", P, static_cast<IFn>(iarr_div), nativeDiv,
         [](Q A, Q B) { return A / B; });
  Unary("iarr_sqrt", P, static_cast<UFn>(iarr_sqrt), nativeSqrt,
        [](Q A) { return sqrtq(A); });
  Unary("iarr_exp", X, static_cast<UFn>(iarr_exp), nativeExp,
        [](Q A) { return expq(A); });
  AotKernel Dot = arrayKernel<Batch>(
      "iarr_dot", Family::Batch, 2.0 * BatchN,
      {{Role::Ulp, X}, {Role::Ulp, Y}, {Role::Out, {0.0}}},
      [](auto *V) { V[2][0] = iarr_dot(V[0].data(), V[1].data(), BatchN); },
      [](auto *V) { V[2][0] = nativeDot(V[0].data(), V[1].data()); },
      [](auto *V) {
        for (int I = 0; I < BatchN; ++I)
          V[2][0] += V[0][I] * V[1][I];
      });
  Dot.Elems = BatchN;
  Ks.push_back(std::move(Dot));
}

/// The kernels on inputs from \p Seed; the batched ones only when
/// \p WithBatch (they carry no accuracy metric).
std::vector<AotKernel> buildKernels(uint64_t Seed, bool WithBatch = true) {
  std::vector<AotKernel> K;
  addShared<F64, SvFns>(K, Family::F64, Seed, /*PotrfN=*/124, /*GemmN=*/120,
                        /*MvmN=*/400);
  addF64Only(K, Seed);
  // Smaller cubic/quadratic double-double kernels: at the f64 sizes
  // dd gemm alone took 60% of a round, leaving few rounds for the
  // round-latency percentiles and weighting one kernel over the others.
  addShared<DdF, SvddFns>(K, Family::Dd, Seed, /*PotrfN=*/64, /*GemmN=*/64,
                          /*MvmN=*/200);
  if (WithBatch)
    addBatch(K, Seed);
  return K;
}

/// Accuracy is measured on one input set that no --seed changes: the
/// accuracy metrics are then the same in every run of a build, and any
/// loosening of an enclosure shows in them however small it is.
constexpr uint64_t AccuracySeed = 0;

/// The f64 and dd kernels on the accuracy inputs, each run once and
/// checked, and their minimum accuracy bits over the outputs.
struct Accuracy {
  std::vector<AotKernel> Ks;
  std::vector<double> Bits;
};

Accuracy measureAccuracy(Outcome &O) {
  Accuracy A;
  A.Ks = buildKernels(AccuracySeed, /*WithBatch=*/false);
  for (AotKernel &K : A.Ks) {
    K.ResetI();
    {
      igen::RoundUpwardScope Up;
      K.RunI();
    }
    O.attempt();
    A.Bits.push_back(K.Check(O));
  }
  return A;
}

/// The speed factor (see ReferenceNativeNs) of native call times \p Ns.
double speedFactor(const std::vector<double> &Ns) {
  return ReferenceNativeNs / geomean(Ns);
}

/// Times every native twin of \p Ks once; returns the speed factor.
double nativeSpeedFactor(std::vector<AotKernel> &Ks) {
  std::vector<double> Ns;
  for (AotKernel &A : Ks) {
    A.ResetN();
    igen::RoundNearestScope RN;
    int64_t T0 = nowNs();
    A.RunN();
    Ns.push_back(static_cast<double>(nowNs() - T0));
  }
  return speedFactor(Ns);
}

/// Interval and native call times, one entry per round.
struct Samples {
  std::vector<std::vector<double>> I, N; ///< per kernel
  std::vector<double> Rounds;            ///< interval time per round
  std::vector<double> Speed;             ///< speed factor per round

  void add(const Samples &O) {
    I.resize(O.I.size());
    N.resize(O.N.size());
    for (size_t K = 0; K < O.I.size(); ++K) {
      I[K].insert(I[K].end(), O.I[K].begin(), O.I[K].end());
      N[K].insert(N[K].end(), O.N[K].begin(), O.N[K].end());
    }
    Rounds.insert(Rounds.end(), O.Rounds.begin(), O.Rounds.end());
    Speed.insert(Speed.end(), O.Speed.begin(), O.Speed.end());
  }
  bool empty() const { return Rounds.empty(); }
  /// Geometric mean over kernels of interval calls per second (1 / median
  /// time), at the reference speed.
  double kernelRate() const {
    std::vector<double> Rates;
    for (const std::vector<double> &V : I) {
      std::vector<double> Ref(V.size());
      for (size_t R = 0; R < V.size(); ++R)
        Ref[R] = V[R] * Speed[R];
      Rates.push_back(1e9 / median(Ref));
    }
    return geomean(Rates);
  }
  /// Interval time per round at the reference speed.
  std::vector<double> referenceRounds() const {
    std::vector<double> Ref(Rounds.size());
    for (size_t R = 0; R < Rounds.size(); ++R)
      Ref[R] = Rounds[R] * Speed[R];
    return Ref;
  }
};

/// Runs interleaved rounds for \p Seconds, and until \p MinRounds of its
/// rounds were steal-free (but at most 4 * MinRounds). Every round is a
/// slice of \p P; its native calls give its speed factor.
void measure(std::vector<AotKernel> &Ks, double Seconds, int MinRounds,
             Outcome &O, Tracer &T, Gated<Samples> &P) {
  StealGate Gate;
  int64_t End = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  const size_t Clean0 = P.Clean.Rounds.size();
  auto Short = [&](int Round) {
    return P.Clean.Rounds.size() - Clean0 < static_cast<size_t>(MinRounds) &&
           Round < 4 * MinRounds;
  };
  for (int Round = 0; Short(Round) || nowNs() < End; ++Round) {
    Samples One;
    One.I.resize(Ks.size());
    One.N.resize(Ks.size());
    double RoundNs = 0;
    for (size_t K = 0; K < Ks.size(); ++K) {
      AotKernel &A = Ks[K];
      A.ResetI();
      int64_t T0, T1;
      {
        igen::RoundUpwardScope Up;
        T0 = nowNs();
        A.RunI();
        T1 = nowNs();
      }
      T.record(A.SpanI, T0, T1);
      O.attempt();
      A.Check(O);
      One.I[K].push_back(static_cast<double>(T1 - T0));
      RoundNs += static_cast<double>(T1 - T0);

      A.ResetN();
      {
        igen::RoundNearestScope RN;
        T0 = nowNs();
        A.RunN();
        T1 = nowNs();
      }
      T.record(A.SpanN, T0, T1);
      One.N[K].push_back(static_cast<double>(T1 - T0));
    }
    std::vector<double> Native;
    for (const std::vector<double> &V : One.N)
      Native.push_back(V.back());
    One.Rounds.push_back(RoundNs);
    One.Speed.push_back(speedFactor(Native));
    P.add(One, Gate);
  }
}

/// The aot_* end-to-end metrics: per family, the geometric mean over
/// kernels of median interval time / median native time from untraced
/// rounds (Table V); the mean over the f64 kernels of their minimum
/// certified bits on the accuracy inputs (Fig. 9b).
void reportQuality(const std::vector<AotKernel> &Ks, const Samples &S,
                   const Accuracy &A, Report &R) {
  std::vector<double> Slow[3], F64Bits;
  for (size_t K = 0; K < Ks.size(); ++K)
    Slow[static_cast<int>(Ks[K].Fam)].push_back(median(S.I[K]) /
                                                median(S.N[K]));
  for (size_t K = 0; K < A.Ks.size(); ++K)
    if (A.Ks[K].Fam == Family::F64)
      F64Bits.push_back(A.Bits[K]);
  R.set("aot_slowdown_f64", geomean(Slow[static_cast<int>(Family::F64)]));
  R.set("aot_slowdown_dd", geomean(Slow[static_cast<int>(Family::Dd)]));
  R.set("aot_slowdown_batch", geomean(Slow[static_cast<int>(Family::Batch)]));
  R.set("aot_accuracy_bits", mean(F64Bits));
}

/// The per-layer optimisation counters, summed over compiles: counts read
/// from the emitted interval C text and from the mid-end analysis.
struct CodeCounts {
  uint64_t SrcBytes = 0, OutBytes = 0;
  uint64_t IaCalls = 0, IaFmaCalls = 0, IaSignSpecCalls = 0;
  uint64_t Facts = 0, FmaHazards = 0;
};

bool startsWith(std::string_view S, std::string_view P) {
  return S.substr(0, P.size()) == P;
}

/// The sign-specialized runtime entry points the mid-end's facts select
/// (src/transform/IntervalTransform.cpp: specializedMul/Div, tryFuseFma).
bool isSignSpecialized(std::string_view Name) {
  for (std::string_view P :
       {"ia_mul_pp_", "ia_mul_pn_", "ia_mul_nn_", "ia_mul_pu_", "ia_mul_nu_",
        "ia_fma_pp_", "ia_fma_pn_", "ia_fma_nn_", "ia_fma_pu_", "ia_fma_nu_",
        "ia_div_p_", "ia_div_n_"})
    if (startsWith(Name, P))
      return true;
  return false;
}

void countEmitted(const std::string &Emitted, CodeCounts &C) {
  C.OutBytes += Emitted.size();
  for (size_t I = 0; I < Emitted.size(); ++I) {
    if (Emitted[I] != 'i')
      continue;
    if (I > 0 && isIdentChar(Emitted[I - 1]))
      continue;
    size_t J = I;
    while (J < Emitted.size() && isIdentChar(Emitted[J]))
      ++J;
    std::string_view Name(Emitted.data() + I, J - I);
    if (startsWith(Name, "ia_") && J < Emitted.size() && Emitted[J] == '(') {
      ++C.IaCalls;
      if (startsWith(Name, "ia_fma"))
        ++C.IaFmaCalls;
      if (isSignSpecialized(Name))
        ++C.IaSignSpecCalls;
    }
    I = J;
  }
}

/// Adds the analyzeFunctionForOpt facts and FMA hazards of \p Prog.
void countOptFacts(const igen::InMemoryProgram &Prog, CodeCounts &C) {
  if (Prog.Opts.OptLevel == 0 || !Prog.Ast)
    return;
  igen::OptOptions OO;
  OO.GuardFacts =
      Prog.Opts.Branches == igen::TransformOptions::BranchPolicy::Exception;
  for (const igen::TopLevelItem &Item : Prog.Ast->TU.Items) {
    if (!Item.Function || !Item.Function->Body)
      continue;
    igen::OptFunctionInfo Info =
        igen::analyzeFunctionForOpt(*Item.Function, OO);
    C.Facts += Info.Facts.size();
    C.FmaHazards += Info.FmaLoopHazards.size();
  }
}

/// The counters of the programs this workload runs: the sv_ and svdd_
/// kernels as igen compiles them.
void reportCodeCounts(Report &R) {
  const std::set<std::string> Shared = {"fft",  "potrf", "ffnn",
                                        "gemm", "mvm",   "henon"};
  const std::set<std::string> F64Only = {"horner", "pade", "gauss"};
  igen::TransformOptions F64Opts, DdOpts;
  DdOpts.Prec = igen::TransformOptions::Precision::DoubleDouble;
  CodeCounts C;
  auto Add = [&](const KernelSource &K, const igen::TransformOptions &Opts) {
    igen::DiagnosticsEngine Diags;
    if (auto P = igen::compileToProgram(K.Text, Opts, Diags)) {
      C.SrcBytes += K.Text.size();
      countEmitted(P->EmittedC, C);
      countOptFacts(*P, C);
    }
  };
  for (const KernelSource &K : loadKernelSources()) {
    if (Shared.count(K.Name) || F64Only.count(K.Name))
      Add(K, F64Opts);
    if (Shared.count(K.Name))
      Add(K, DdOpts);
  }
  R.set("transform.out_bytes_per_src_byte",
        C.SrcBytes ? static_cast<double>(C.OutBytes) / C.SrcBytes : 0.0);
  R.set("transform.ia_calls", C.IaCalls);
  R.set("transform.ia_fma_calls", C.IaFmaCalls);
  R.set("transform.ia_signspec_calls", C.IaSignSpecCalls);
  R.set("opt.facts", C.Facts);
  R.set("opt.fma_hazards", C.FmaHazards);
}

} // namespace

void runAotKernels(const Options &Opts, Report &R, Outcome &O, Tracer &T) {
  std::vector<AotKernel> Ks;
  R.set("setup_s", timedSetups(
                       Opts,
                       [&] {
                         Ks.clear();
                         Ks = buildKernels(Opts.Seed);
                       },
                       [&] { return nativeSpeedFactor(Ks); }));
  for (AotKernel &A : Ks) {
    std::string Fam = A.Fam == Family::F64  ? "f64"
                      : A.Fam == Family::Dd ? "dd"
                                            : "batch";
    A.SpanI = T.intern("aot." + A.Name + "." + Fam);
    A.SpanN = T.intern("aot." + A.Name + "." + Fam + ".native");
  }

  // One untimed round first: caches, lazily built dispatch tables.
  Gated<Samples> Warm, Plain, Traced;
  measure(Ks, 0.0, 1, O, T, Warm);
  runTimed(Opts, T, [&](double Seconds, bool InTrace) {
    measure(Ks, Seconds, 1, O, T, InTrace ? Traced : Plain);
  });
  Accuracy Acc = measureAccuracy(O);

  if (!Opts.traced()) {
    const Samples &M = Plain.measured();
    R.set("ops_per_s", M.kernelRate());
    std::vector<double> Rounds = M.referenceRounds();
    R.set("latency_p50_us", median(Rounds) * 1e-3);
    // About 1000 rounds in 20 s: the p99 rests on ten of them and spread
    // by 11-19% over ten seeds on the calibration host; the p90 is steady.
    R.set("latency_tail_us", quantile(Rounds, 0.9) * 1e-3);
    R.set("peak_rss_mb", selfPeakRssMb());
    reportQuality(Ks, M, Acc, R);
    return;
  }

  // Per-layer numbers come from the traced segments' span self times, and
  // accuracy from the accuracy inputs (whose kernels are those of Ks in
  // the same order, without the batched ones).
  R.set("trace_overhead_pct.aot-kernels",
        (Plain.measured().kernelRate() / Traced.measured().kernelRate() -
         1.0) *
            100.0);
  for (size_t K = 0; K < Ks.size(); ++K) {
    const AotKernel &A = Ks[K];
    double I = median(T.selfTimes(A.SpanI));
    double Slow = I / median(T.selfTimes(A.SpanN));
    std::string P = "aot." + A.Name;
    switch (A.Fam) {
    case Family::F64:
      R.set(P + ".slowdown_f64", Slow);
      R.set(P + ".iops_per_cycle", A.Iops / (I * tscPerNs()));
      R.set(P + ".accuracy_bits", Acc.Bits[K]);
      break;
    case Family::Dd:
      R.set(P + ".slowdown_dd", Slow);
      R.set(P + ".accuracy_bits_dd", Acc.Bits[K]);
      break;
    case Family::Batch:
      R.set(P + ".slowdown_batch", Slow);
      R.set("runtime." + A.Name + ".ns_per_elem", I / A.Elems);
      break;
    }
  }
  reportCodeCounts(R);
}

struct AotCheck::Impl {
  Impl(uint64_t Seed, Outcome &O) : O(O), Ks(buildKernels(Seed)) {}
  Outcome &O;
  std::vector<AotKernel> Ks;
  Tracer Off{/*Enabled=*/false};
  Gated<Samples> Rounds;
};

AotCheck::AotCheck(uint64_t Seed, Outcome &O)
    : P(std::make_unique<Impl>(Seed, O)) {
  Gated<Samples> Warm;
  measure(P->Ks, 0.0, 1, O, P->Off, Warm);
}

AotCheck::~AotCheck() = default;

void AotCheck::round() { measure(P->Ks, 0.0, 1, P->O, P->Off, P->Rounds); }

double AotCheck::speedFactor() { return nativeSpeedFactor(P->Ks); }

void AotCheck::report(Report &R) {
  while (P->Rounds.All.Rounds.size() < AotCheckMinRounds)
    round();
  reportQuality(P->Ks, P->Rounds.measured(), measureAccuracy(P->O), R);
}

} // namespace pb
