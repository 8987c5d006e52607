//===- ExecOptCompareTest.cpp - -O vs -O0 enclosure comparison ---------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Inputs/optk.c is compiled by the igen driver twice -- at the default
// optimization level and at -O0 -- and both results are linked here (see
// OptkO1Tu.cpp / OptkO0Tu.cpp). For every kernel and many random inputs
// the optimized enclosure must be contained in (equal to or tighter
// than) the naive one, and both must contain the long double reference.
// The sign-versioned kernels (gemm, axpy, axmy, scale) run with their
// loop-invariant multiplier in every sign class the run-time test can
// meet, so each of the three loop copies is checked; gemm's and axpy's
// loops run through the axpy row kernel at -O. The dot-shaped kernels
// (mvm, an ffnn row, potrf's diagonal) run through the dot kernels.
//
//===----------------------------------------------------------------------===//

#include "interval/igen_lib.h"

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

f64i opt_horner_O1(f64i *coef, f64i x, int d);
f64i opt_horner_O0(f64i *coef, f64i x, int d);
f64i opt_pade_O1(f64i x);
f64i opt_pade_O0(f64i x);
f64i opt_henon_O1(f64i x, f64i y, int n);
f64i opt_henon_O0(f64i x, f64i y, int n);
f64i opt_invsq_O1(f64i x);
f64i opt_invsq_O0(f64i x);
f64i opt_negsq_O1(f64i x, f64i y);
f64i opt_negsq_O0(f64i x, f64i y);
f64i opt_cse_O1(f64i *v, f64i a, f64i b, int n);
f64i opt_cse_O0(f64i *v, f64i a, f64i b, int n);
f64i opt_elem_O1(f64i x);
f64i opt_elem_O0(f64i x);
void opt_gemm_O1(f64i *C, f64i *A, f64i *B, int n);
void opt_gemm_O0(f64i *C, f64i *A, f64i *B, int n);
void opt_axpy_O1(f64i alpha, f64i *x, f64i *y, int n);
void opt_axpy_O0(f64i alpha, f64i *x, f64i *y, int n);
void opt_axmy_O1(f64i alpha, f64i *x, f64i *y, int n);
void opt_axmy_O0(f64i alpha, f64i *x, f64i *y, int n);
void opt_scale_O1(f64i alpha, f64i *x, f64i *y, int n);
void opt_scale_O0(f64i alpha, f64i *x, f64i *y, int n);
void opt_mvm_O1(f64i *A, f64i *x, f64i *y, int m, int n);
void opt_mvm_O0(f64i *A, f64i *x, f64i *y, int m, int n);
f64i opt_ffnn_row_O1(f64i *W, f64i *b, f64i *x, int n);
f64i opt_ffnn_row_O0(f64i *W, f64i *b, f64i *x, int n);
f64i opt_potrf_diag_O1(f64i *A, int n, int j);
f64i opt_potrf_diag_O0(f64i *A, int n, int j);

namespace {

using igen::Interval;

Interval toI(f64i V) {
#if defined(IGEN_F64I_SCALAR)
  return V;
#else
  return V.toInterval();
#endif
}

bool containsLd(const Interval &I, long double V) {
  if (I.hasNaN())
    return true;
  return -static_cast<long double>(I.NegLo) <= V &&
         V <= static_cast<long double>(I.Hi);
}

/// Optimized vs naive: tightened-or-equal, and NaN states agree (a
/// rewrite may never turn a valid enclosure into NaN or vice versa).
void expectTightened(const Interval &O1, const Interval &O0) {
  EXPECT_EQ(O1.hasNaN(), O0.hasNaN());
  if (!O0.hasNaN()) {
    EXPECT_TRUE(O0.containsInterval(O1))
        << "O1=[" << O1.lo() << "," << O1.hi() << "] O0=[" << O0.lo()
        << "," << O0.hi() << "]";
  }
}

/// A loop-invariant multiplier for the sign-versioned kernels, and a
/// finite point inside it for the long double reference.
struct Multiplier {
  Interval I;
  double Point;
};

/// One multiplier per sign class the versioned loops can meet: positive,
/// negative, straddling, zero with every signed-zero spelling, [0,b] and
/// [a,0] with either zero, infinite endpoints, and NaN.
std::vector<Multiplier> multiplierCases() {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Ends[][2] = {
      {0.5, 3.0},  {-3.0, -0.5}, {-1.0, 2.0},  {0.0, 0.0},   {-0.0, -0.0},
      {-0.0, 0.0}, {0.0, -0.0},  {0.0, 2.0},   {-0.0, 2.0},  {-2.0, 0.0},
      {-2.0, -0.0}, {0.0, Inf},  {-Inf, -0.0}, {1.0, Inf},   {-Inf, -1.0},
      {-1.0, Inf}, {-Inf, 1.0},  {-Inf, Inf},  {NaN, NaN}};
  std::vector<Multiplier> Out;
  for (const auto &E : Ends) {
    double P = std::isfinite(E[0]) ? E[0] : std::isfinite(E[1]) ? E[1] : 0.0;
    Out.push_back({Interval::fromEndpoints(E[0], E[1]), P});
  }
  return Out;
}

f64i toF(const Interval &I) {
#if defined(IGEN_F64I_SCALAR)
  return I;
#else
  return f64i::fromInterval(I);
#endif
}

class ExecOptTest : public ::testing::Test {
protected:
  igen::RoundUpwardScope Up;
  std::mt19937_64 Gen{2026};
  double uniform(double Lo, double Hi) {
    return std::uniform_real_distribution<double>(Lo, Hi)(Gen);
  }
};

} // namespace

TEST_F(ExecOptTest, HornerTightenedAndSound) {
  for (int It = 0; It < 500; ++It) {
    int D = 1 + static_cast<int>(uniform(1.0, 12.0));
    std::vector<f64i> Coef;
    std::vector<long double> CoefLd;
    for (int K = 0; K <= D; ++K) {
      double C = uniform(-2.0, 2.0);
      Coef.push_back(f64i::fromPoint(C));
      CoefLd.push_back(C);
    }
    double X = uniform(0.001, 3.0);
    Interval R1 = toI(opt_horner_O1(Coef.data(), f64i::fromPoint(X), D));
    Interval R0 = toI(opt_horner_O0(Coef.data(), f64i::fromPoint(X), D));
    expectTightened(R1, R0);
    long double Ref = CoefLd[D];
    for (int K = D - 1; K >= 0; --K)
      Ref = Ref * static_cast<long double>(X) + CoefLd[K];
    EXPECT_TRUE(containsLd(R1, Ref)) << X;
    EXPECT_TRUE(containsLd(R0, Ref)) << X;
  }
}

TEST_F(ExecOptTest, PadeTightenedAndSound) {
  for (int It = 0; It < 3000; ++It) {
    double X = uniform(0.0, 50.0);
    Interval R1 = toI(opt_pade_O1(f64i::fromPoint(X)));
    Interval R0 = toI(opt_pade_O0(f64i::fromPoint(X)));
    expectTightened(R1, R0);
    long double L = X;
    long double Ref =
        X > 0.0 ? (0.125L + L * (2.0L + L)) / (2.0L + L * (0.5L + L)) : 0.0L;
    EXPECT_TRUE(containsLd(R1, Ref)) << X;
  }
}

TEST_F(ExecOptTest, HenonTightenedAndSound) {
  for (int It = 0; It < 300; ++It) {
    double X = uniform(-0.5, 0.5), Y = uniform(-0.5, 0.5);
    int N = 1 + static_cast<int>(uniform(0.0, 12.0));
    Interval R1 = toI(opt_henon_O1(f64i::fromPoint(X), f64i::fromPoint(Y), N));
    Interval R0 = toI(opt_henon_O0(f64i::fromPoint(X), f64i::fromPoint(Y), N));
    expectTightened(R1, R0);
    long double Lx = X, Ly = Y;
    for (int I = 0; I < N; ++I) {
      long double Nx = 1.0L - 1.05L * Lx * Lx + Ly;
      Ly = 0.3L * Lx;
      Lx = Nx;
    }
    EXPECT_TRUE(containsLd(R1, Lx)) << X << " " << Y;
    EXPECT_TRUE(containsLd(R0, Lx)) << X << " " << Y;
  }
}

TEST_F(ExecOptTest, InvsqAndNegsqTightened) {
  for (int It = 0; It < 3000; ++It) {
    double X = uniform(1.0 + 1e-9, 100.0);
    expectTightened(toI(opt_invsq_O1(f64i::fromPoint(X))),
                    toI(opt_invsq_O0(f64i::fromPoint(X))));
    double Xn = uniform(-10.0, -0.001);
    double Yn = Xn - uniform(0.001, 10.0);
    expectTightened(
        toI(opt_negsq_O1(f64i::fromPoint(Xn), f64i::fromPoint(Yn))),
        toI(opt_negsq_O0(f64i::fromPoint(Xn), f64i::fromPoint(Yn))));
  }
}

TEST_F(ExecOptTest, CseTightenedAndSound) {
  for (int It = 0; It < 200; ++It) {
    int N = 1 + static_cast<int>(uniform(0.0, 40.0));
    std::vector<f64i> V;
    std::vector<long double> Vl;
    for (int I = 0; I < N; ++I) {
      double E = uniform(-1.0, 1.0);
      V.push_back(f64i::fromPoint(E));
      Vl.push_back(E);
    }
    double A = uniform(-2.0, 2.0), B = uniform(-2.0, 2.0);
    Interval R1 = toI(
        opt_cse_O1(V.data(), f64i::fromPoint(A), f64i::fromPoint(B), N));
    Interval R0 = toI(
        opt_cse_O0(V.data(), f64i::fromPoint(A), f64i::fromPoint(B), N));
    expectTightened(R1, R0);
    long double T = static_cast<long double>(A) * B + 1.0L;
    long double Ref = 0.0L;
    for (int I = 0; I < N; ++I)
      Ref = Ref + T * Vl[I] + T;
    EXPECT_TRUE(containsLd(R1, Ref));
    EXPECT_TRUE(containsLd(R0, Ref));
  }
}

TEST_F(ExecOptTest, IntervalInputsStayTightened) {
  // Width > 0 exercises the non-degenerate corner selection in the
  // specialized variants.
  for (int It = 0; It < 3000; ++It) {
    double C = uniform(0.5, 20.0);
    double W = uniform(0.0, 0.1);
    f64i X = f64i::fromEndpoints(C - W, C + W);
    expectTightened(toI(opt_pade_O1(X)), toI(opt_pade_O0(X)));
    f64i X2 = f64i::fromEndpoints(1.0 + 1e-6, 1.0 + 1e-6 + W);
    expectTightened(toI(opt_invsq_O1(X2)), toI(opt_invsq_O0(X2)));
  }
}

TEST_F(ExecOptTest, ElemFastPathSoundWithBoundedExtraWidth) {
  // -O lowers exp/log/sin/cos to the certified polynomial fast path.
  // Its enclosure carries the statically certified 2^-48 relative margin
  // per call, which is a few ulps *wider* than the empirical 4-ulp libm
  // band of the -O0 path (the price of removing fesetround from the hot
  // path; DESIGN.md "Certified polynomial kernels"). So instead of
  // strict containment the exec comparison checks the guarantees that do
  // hold: both levels enclose the long double reference, the two
  // enclosures overlap, and the fast path's extra width stays within its
  // certified per-call budget (3 calls and an add: well under 2^-44
  // relative; a fast-path regression past its certificate fails here).
  for (int It = 0; It < 4000; ++It) {
    double X = uniform(0.0001, 100.0);
    Interval R1 = toI(opt_elem_O1(f64i::fromPoint(X)));
    Interval R0 = toI(opt_elem_O0(f64i::fromPoint(X)));
    long double Ref;
    {
      igen::RoundNearestScope Near;
      long double L = X;
      Ref = expl(0.5L * sinl(L)) + logl(2.0L + cosl(L));
    }
    EXPECT_TRUE(containsLd(R1, Ref)) << X;
    EXPECT_TRUE(containsLd(R0, Ref)) << X;
    EXPECT_TRUE(R1.lo() <= R0.hi() && R0.lo() <= R1.hi())
        << "disjoint enclosures at x=" << X;
    double W1 = R1.Hi + R1.NegLo; // hi - lo, exactly representable here
    double W0 = R0.Hi + R0.NegLo;
    EXPECT_LE(W1, W0 + std::fabs(R0.Hi) * 0x1p-44) << X;
  }
}

TEST_F(ExecOptTest, SignVersionedGemmSoundInEveryCopy) {
  // Every A entry is the case's multiplier (one copy per run), then a mix
  // of all cases (the copy changes from one k iteration to the next).
  const int N = 5;
  const std::vector<Multiplier> Cases = multiplierCases();
  for (size_t Run = 0; Run <= Cases.size(); ++Run) {
    for (int Rep = 0; Rep < 20; ++Rep) {
      std::vector<f64i> A, B, C1, C0;
      std::vector<long double> ARef, BRef, CRef;
      for (int I = 0; I < N * N; ++I) {
        const Multiplier &M =
            Run < Cases.size()
                ? Cases[Run]
                : Cases[static_cast<size_t>(uniform(0.0, Cases.size())) %
                        Cases.size()];
        A.push_back(toF(M.I));
        ARef.push_back(M.Point);
        // Every fifth B entry is an exact zero (the 0 * inf corner),
        // every third has width: with point operands the wrong copy
        // would still pick the right products.
        double Bv = I % 5 == 0 ? 0.0 : uniform(-2.0, 2.0);
        double W = I % 3 == 0 ? uniform(0.0, 0.25) : 0.0;
        B.push_back(f64i::fromEndpoints(Bv - W, Bv + W));
        BRef.push_back(Bv);
        double Cv = uniform(-2.0, 2.0);
        C1.push_back(f64i::fromPoint(Cv));
        C0.push_back(f64i::fromPoint(Cv));
        CRef.push_back(Cv);
      }
      opt_gemm_O1(C1.data(), A.data(), B.data(), N);
      opt_gemm_O0(C0.data(), A.data(), B.data(), N);
      for (int I = 0; I < N; ++I)
        for (int K = 0; K < N; ++K)
          for (int J = 0; J < N; ++J)
            CRef[I * N + J] += ARef[I * N + K] * BRef[K * N + J];
      for (int E = 0; E < N * N; ++E) {
        Interval R1 = toI(C1[E]), R0 = toI(C0[E]);
        expectTightened(R1, R0);
        EXPECT_TRUE(containsLd(R1, CRef[E])) << "case " << Run;
        EXPECT_TRUE(containsLd(R0, CRef[E])) << "case " << Run;
      }
    }
  }
}

TEST_F(ExecOptTest, SignVersionedVectorKernelsSoundInEveryCopy) {
  // axpy (fused pu/nu), axmy (fused with the negated multiplier: the
  // copies swap) and scale (unfused pu/nu, operands swapped).
  using Kernel = void (*)(f64i, f64i *, f64i *, int);
  struct Pair {
    const char *Name;
    Kernel O1, O0;
    int Mode; // y + a*x, y - a*x, x*a
  } Pairs[] = {{"axpy", opt_axpy_O1, opt_axpy_O0, 0},
               {"axmy", opt_axmy_O1, opt_axmy_O0, 1},
               {"scale", opt_scale_O1, opt_scale_O0, 2}};
  const int N = 16;
  for (const Pair &P : Pairs)
    for (const Multiplier &M : multiplierCases())
      for (int Rep = 0; Rep < 20; ++Rep) {
        std::vector<f64i> X, Y1, Y0;
        std::vector<long double> Ref;
        for (int I = 0; I < N; ++I) {
          double Xv = I % 5 == 0 ? 0.0 : uniform(-2.0, 2.0);
          double W = I % 3 == 0 ? uniform(0.0, 0.25) : 0.0;
          X.push_back(f64i::fromEndpoints(Xv - W, Xv + W));
          double Yv = uniform(-2.0, 2.0);
          Y1.push_back(f64i::fromPoint(Yv));
          Y0.push_back(f64i::fromPoint(Yv));
          long double Ax = static_cast<long double>(M.Point) * Xv;
          Ref.push_back(P.Mode == 0 ? Yv + Ax : P.Mode == 1 ? Yv - Ax : Ax);
        }
        P.O1(toF(M.I), X.data(), Y1.data(), N);
        P.O0(toF(M.I), X.data(), Y0.data(), N);
        for (int I = 0; I < N; ++I) {
          Interval R1 = toI(Y1[I]), R0 = toI(Y0[I]);
          expectTightened(R1, R0);
          EXPECT_TRUE(containsLd(R1, Ref[I]))
              << P.Name << " [" << M.I.lo() << "," << M.I.hi() << "]";
          EXPECT_TRUE(containsLd(R0, Ref[I]))
              << P.Name << " [" << M.I.lo() << "," << M.I.hi() << "]";
        }
      }
}

TEST_F(ExecOptTest, DotRowKernelsSoundAndWithinO0) {
  // mvm accumulates into an array element, the ffnn row into a scalar,
  // potrf's diagonal subtracts squares. Lengths cover empty rows and
  // every tail of a four-interval pack; every fourth entry has width and
  // every seventh is an exact zero.
  for (int It = 0; It < 300; ++It) {
    const int M = 1 + It % 3, N = It % 13;
    std::vector<f64i> A, X, Y1, Y0;
    std::vector<long double> ARef, XRef, YRef;
    auto entry = [&](int I, std::vector<f64i> &V, std::vector<long double> &R) {
      double C = I % 7 == 0 ? 0.0 : uniform(-2.0, 2.0);
      double W = I % 4 == 0 ? uniform(0.0, 0.25) : 0.0;
      V.push_back(f64i::fromEndpoints(C - W, C + W));
      R.push_back(C);
    };
    for (int I = 0; I < M * N + 1; ++I)
      entry(I, A, ARef);
    for (int I = 0; I < N + 1; ++I)
      entry(I + 1, X, XRef);
    for (int I = 0; I < M; ++I) {
      double Yv = uniform(-2.0, 2.0);
      Y1.push_back(f64i::fromPoint(Yv));
      Y0.push_back(f64i::fromPoint(Yv));
      YRef.push_back(Yv);
    }
    opt_mvm_O1(A.data(), X.data(), Y1.data(), M, N);
    opt_mvm_O0(A.data(), X.data(), Y0.data(), M, N);
    for (int I = 0; I < M; ++I) {
      long double Ref = YRef[I];
      for (int J = 0; J < N; ++J)
        Ref += ARef[I * N + J] * XRef[J];
      expectTightened(toI(Y1[I]), toI(Y0[I]));
      EXPECT_TRUE(containsLd(toI(Y1[I]), Ref)) << "mvm n=" << N;
      EXPECT_TRUE(containsLd(toI(Y0[I]), Ref)) << "mvm n=" << N;
    }

    // ffnn row: s = b[0] + sum W[i] * x[i].
    Interval R1 = toI(opt_ffnn_row_O1(A.data(), X.data() + N, X.data(), N));
    Interval R0 = toI(opt_ffnn_row_O0(A.data(), X.data() + N, X.data(), N));
    long double Ref = XRef[N];
    for (int J = 0; J < N; ++J)
      Ref += ARef[J] * XRef[J];
    expectTightened(R1, R0);
    EXPECT_TRUE(containsLd(R1, Ref)) << "ffnn n=" << N;
    EXPECT_TRUE(containsLd(R0, Ref)) << "ffnn n=" << N;

    // potrf: s = A[j][j] - sum_k A[j][k]^2 on a square matrix.
    const int Dim = 1 + N;
    std::vector<f64i> S;
    std::vector<long double> SRef;
    for (int I = 0; I < Dim * Dim; ++I)
      entry(I, S, SRef);
    const int Row = Dim - 1;
    R1 = toI(opt_potrf_diag_O1(S.data(), Dim, Row));
    R0 = toI(opt_potrf_diag_O0(S.data(), Dim, Row));
    Ref = SRef[Row * Dim + Row];
    for (int K = 0; K < Row; ++K)
      Ref -= SRef[Row * Dim + K] * SRef[Row * Dim + K];
    expectTightened(R1, R0);
    EXPECT_TRUE(containsLd(R1, Ref)) << "potrf n=" << Dim;
    EXPECT_TRUE(containsLd(R0, Ref)) << "potrf n=" << Dim;
  }
}
