//===- ExecDdOptCompareTest.cpp - dd -O vs dd -O0, bit for bit ------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Inputs/optk.c is compiled with --precision=dd at -O and at -O0 and both
// builds are linked here (OptkDdO1Tu.cpp / OptkDdO0Tu.cpp). Under
// double-double, -O changes no operation: it hoists and shares
// enclosures and routes the axpy loops (opt_gemm, opt_axpy) to
// ia_axpy_dd, all of which keep the bits. So every kernel must return
// identical bits at both levels, compared by memcmp, for multipliers of
// every sign case (positive, negative, straddling, [0, 0], -0.0, an
// infinite endpoint, NaN). The axpy kernels also run with their rows
// identical, disjoint and overlapping. A NaN word matches any NaN word
// (see canonicalNaN); every other bit must match.
//
//===----------------------------------------------------------------------===//

#include "interval/igen_lib.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#define IGEN_DD_OPT_PAIR(Ret, Name, ...)                                       \
  Ret Name##_dd1(__VA_ARGS__);                                                 \
  Ret Name##_dd0(__VA_ARGS__);
IGEN_DD_OPT_PAIR(ddi, opt_horner, ddi *coef, ddi x, int d)
IGEN_DD_OPT_PAIR(ddi, opt_pade, ddi x)
IGEN_DD_OPT_PAIR(ddi, opt_henon, ddi x, ddi y, int n)
IGEN_DD_OPT_PAIR(ddi, opt_invsq, ddi x)
IGEN_DD_OPT_PAIR(ddi, opt_negsq, ddi x, ddi y)
IGEN_DD_OPT_PAIR(ddi, opt_elem, ddi x)
IGEN_DD_OPT_PAIR(ddi, opt_cse, ddi *v, ddi a, ddi b, int n)
IGEN_DD_OPT_PAIR(void, opt_gemm, ddi *C, ddi *A, ddi *B, int n)
IGEN_DD_OPT_PAIR(void, opt_axpy, ddi alpha, ddi *x, ddi *y, int n)
IGEN_DD_OPT_PAIR(void, opt_axmy, ddi alpha, ddi *x, ddi *y, int n)
IGEN_DD_OPT_PAIR(void, opt_scale, ddi alpha, ddi *x, ddi *y, int n)
IGEN_DD_OPT_PAIR(void, opt_mvm, ddi *A, ddi *x, ddi *y, int m, int n)
IGEN_DD_OPT_PAIR(ddi, opt_ffnn_row, ddi *W, ddi *b, ddi *x, int n)
IGEN_DD_OPT_PAIR(ddi, opt_potrf_diag, ddi *A, int n, int j)
#undef IGEN_DD_OPT_PAIR

namespace {

using igen::Dd;
using igen::DdInterval;

constexpr double Inf = std::numeric_limits<double>::infinity();
constexpr double NaN = std::numeric_limits<double>::quiet_NaN();

ddi dd(double Lo, double Hi) {
  return ddi::fromScalar(DdInterval(Dd(-Lo), Dd(Hi)));
}

/// \p A with every NaN word replaced by one quiet NaN. Which NaN a dd
/// addition of two NaN words returns follows its operand order, which
/// the compiler picks per inlining context: the per-element loops of the
/// -O and -O0 builds already return NaN words of either sign (opt_cse,
/// which differs only by a hoisted temp, does).
ddi canonicalNaN(const ddi &A) {
  DdInterval S = A.toScalar();
  for (double *W : {&S.NegLo.H, &S.NegLo.L, &S.Hi.H, &S.Hi.L})
    if (std::isnan(*W))
      *W = NaN;
  return ddi::fromScalar(S);
}

/// Bit for bit (memcmp), NaN words aside.
bool same(const ddi &A, const ddi &B) {
  const ddi CA = canonicalNaN(A), CB = canonicalNaN(B);
  return std::memcmp(&CA, &CB, sizeof(ddi)) == 0;
}
bool same(const std::vector<ddi> &A, const std::vector<ddi> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!same(A[I], B[I]))
      return false;
  return true;
}

/// Multipliers of every sign case the kernels meet.
std::vector<ddi> multipliers() {
  const double Ends[][2] = {{0.5, 3.0},   {-3.0, -0.5}, {-1.0, 2.0},
                            {0.0, 0.0},   {-0.0, -0.0}, {-0.0, 0.0},
                            {0.0, 2.0},   {-2.0, -0.0}, {1.0, Inf},
                            {-Inf, -1.0}, {-1.0, Inf},  {-Inf, Inf},
                            {NaN, NaN},   {NaN, 1.0}};
  std::vector<ddi> Out;
  for (const auto &E : Ends)
    Out.push_back(dd(E[0], E[1]));
  return Out;
}

class ExecDdOpt : public ::testing::Test {
protected:
  // A guard on a straddling or NaN operand is unknown; both builds then
  // take the then-branch, so they stay comparable.
  void SetUp() override {
    Prev = igen::setUnknownBranchHandler(igen::countingUnknownBranchHandler);
  }
  void TearDown() override { igen::setUnknownBranchHandler(Prev); }
  igen::UnknownBranchHandler Prev = nullptr;
  igen::RoundUpwardScope Up;
  std::mt19937_64 Gen{0xdd0b7};

  /// A narrow interval around a value in [-4, 4] (one in five
  /// straddling zero), with a nonzero low word.
  ddi value() {
    std::uniform_real_distribution<double> U(-4.0, 4.0);
    const double C = U(Gen);
    if (Gen() % 5 == 0)
      return dd(-std::fabs(C), std::fabs(C) + 0.25);
    return ddi::fromScalar(
        DdInterval::fromEndpoints(Dd(C, -C * 0x1p-60), Dd(C, C * 0x1p-58)));
  }
  std::vector<ddi> values(size_t N) {
    std::vector<ddi> V;
    for (size_t I = 0; I < N; ++I)
      V.push_back(value());
    return V;
  }
  /// A row of \p N values, each one of the multipliers in one of five.
  std::vector<ddi> mixedRow(size_t N) {
    const std::vector<ddi> M = multipliers();
    std::vector<ddi> V = values(N);
    for (size_t I = 0; I < N; I += 5)
      V[I] = M[Gen() % M.size()];
    return V;
  }
};

} // namespace

TEST_F(ExecDdOpt, ScalarKernelsMatchBitForBit) {
  for (const ddi &M : multipliers())
    for (int Rep = 0; Rep < 20; ++Rep) {
      const ddi X = Rep % 2 ? M : value(), Y = value();
      EXPECT_TRUE(same(opt_pade_dd1(X), opt_pade_dd0(X)));
      EXPECT_TRUE(same(opt_henon_dd1(X, Y, 6), opt_henon_dd0(X, Y, 6)));
      EXPECT_TRUE(same(opt_invsq_dd1(X), opt_invsq_dd0(X)));
      EXPECT_TRUE(same(opt_negsq_dd1(X, Y), opt_negsq_dd0(X, Y)));
      EXPECT_TRUE(same(opt_negsq_dd1(Y, X), opt_negsq_dd0(Y, X)));
      EXPECT_TRUE(same(opt_elem_dd1(X), opt_elem_dd0(X)));
      std::vector<ddi> C = values(6);
      EXPECT_TRUE(same(opt_horner_dd1(C.data(), X, 5),
                       opt_horner_dd0(C.data(), X, 5)));
      std::vector<ddi> V = mixedRow(9);
      EXPECT_TRUE(
          same(opt_cse_dd1(V.data(), X, Y, 9), opt_cse_dd0(V.data(), X, Y, 9)));
    }
}

TEST_F(ExecDdOpt, VectorKernelsMatchBitForBit) {
  for (const ddi &M : multipliers())
    for (int N : {1, 7, 8, 9, 17, 24}) {
      std::vector<ddi> X = mixedRow(N), Y1 = values(N), Y0 = Y1;
      opt_axmy_dd1(M, X.data(), Y1.data(), N);
      opt_axmy_dd0(M, X.data(), Y0.data(), N);
      EXPECT_TRUE(same(Y1, Y0)) << "axmy n=" << N;
      opt_scale_dd1(M, X.data(), Y1.data(), N);
      opt_scale_dd0(M, X.data(), Y0.data(), N);
      EXPECT_TRUE(same(Y1, Y0)) << "scale n=" << N;
      std::vector<ddi> A = mixedRow(N * N), V1 = values(N), V0 = V1;
      A[0] = M;
      opt_mvm_dd1(A.data(), X.data(), V1.data(), N, N);
      opt_mvm_dd0(A.data(), X.data(), V0.data(), N, N);
      EXPECT_TRUE(same(V1, V0)) << "mvm n=" << N;
      std::vector<ddi> B = values(1);
      EXPECT_TRUE(same(opt_ffnn_row_dd1(A.data(), B.data(), X.data(), N),
                       opt_ffnn_row_dd0(A.data(), B.data(), X.data(), N)));
      EXPECT_TRUE(same(opt_potrf_diag_dd1(A.data(), N, N - 1),
                       opt_potrf_diag_dd0(A.data(), N, N - 1)));
    }
}

TEST_F(ExecDdOpt, AxpyRowsIdenticalDisjointAndOverlapping) {
  // y at offset 8 of one buffer; x in a second buffer (disjoint), at y
  // (identical) or at y + D, D in [-8, 8] (overlapping).
  for (const ddi &M : multipliers())
    for (int N : {0, 1, 5, 8, 13, 16, 24})
      for (int D = -8; D <= 9; ++D) {
        const bool Disjoint = D == 9;
        std::vector<ddi> Buf1 = mixedRow(N + 16), Buf0 = Buf1;
        std::vector<ddi> X1 = mixedRow(N), X0 = X1;
        ddi *Y1p = Buf1.data() + 8, *Y0p = Buf0.data() + 8;
        opt_axpy_dd1(M, Disjoint ? X1.data() : Y1p + D, Y1p, N);
        opt_axpy_dd0(M, Disjoint ? X0.data() : Y0p + D, Y0p, N);
        EXPECT_TRUE(same(Buf1, Buf0)) << "axpy n=" << N << " offset=" << D;
        EXPECT_TRUE(same(X1, X0));
      }
}

TEST_F(ExecDdOpt, GemmRowsIdenticalDisjointAndOverlapping) {
  // B separate (rows of C and B disjoint), B == C (row k of B is row i
  // of C when k == i) or B == C + D (every pair of rows overlaps).
  for (const ddi &M : multipliers())
    for (int N : {3, 8, 11})
      for (int D = -1; D <= 5; ++D) {
        const size_t NN = size_t(N) * N;
        std::vector<ddi> A = mixedRow(NN);
        A[NN / 2] = M;
        std::vector<ddi> Buf1 = values(NN + 16), Buf0 = Buf1;
        std::vector<ddi> B1 = mixedRow(NN), B0 = B1;
        ddi *C1 = Buf1.data() + 8, *C0 = Buf0.data() + 8;
        ddi *Bp1 = D < 0 ? B1.data() : C1 + D;
        ddi *Bp0 = D < 0 ? B0.data() : C0 + D;
        opt_gemm_dd1(C1, A.data(), Bp1, N);
        opt_gemm_dd0(C0, A.data(), Bp0, N);
        EXPECT_TRUE(same(Buf1, Buf0)) << "gemm n=" << N << " offset=" << D;
        EXPECT_TRUE(same(B1, B0));
      }
}
