//===- ExecReduceTest.cpp - Execute reduction-pragma loops --------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Links against Inputs/reducek.c as `igen --reductions` compiles it and
// runs its loops on small integers, where every sum is exact: each
// returned interval and each array element written must contain the
// exact result. Three of the loops carry no reduction (a shadowing local,
// a target moved by another variable, a running sum read in the loop)
// and must run as written; the control `dot` must still accumulate.
// Built twice: with the SIMD-backed f64i (sv) and, with IGEN_F64I_SCALAR
// defined, the scalar f64i (ss).
//
//===----------------------------------------------------------------------===//

#include "interval/igen_lib.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

f64i shadowed(f64i *x, int n);
void moving(f64i *y, f64i *x, int n);
f64i prefix(f64i *y, f64i *x, int n);
f64i dot(f64i *a, f64i *b, int n);

namespace {

using igen::Interval;

constexpr int N = 8;

Interval toI(f64i V) {
#if defined(IGEN_F64I_SCALAR)
  return V;
#else
  return V.toInterval();
#endif
}
f64i fromI(const Interval &V) {
#if defined(IGEN_F64I_SCALAR)
  return V;
#else
  return f64i::fromInterval(V);
#endif
}

/// x[i] = i + 1.
std::vector<f64i> ramp(int Count) {
  std::vector<f64i> V;
  for (int I = 0; I < Count; ++I)
    V.push_back(fromI(Interval::fromPoint(I + 1.0)));
  return V;
}

bool contains(f64i V, double Exact) {
  const Interval I = toI(V);
  return I.lo() <= Exact && Exact <= I.hi();
}

class ExecReduceTest : public ::testing::Test {
protected:
  igen::RoundUpwardScope Up;
};

} // namespace

TEST_F(ExecReduceTest, ShadowingLocalLeavesThePragmaVariable) {
  std::vector<f64i> X = ramp(N);
  // The block's s doubles x[i]; the function's s stays 0.
  EXPECT_TRUE(contains(shadowed(X.data(), N), 0.0));
  for (int I = 0; I < N; ++I)
    EXPECT_TRUE(contains(X[I], 2.0 * (I + 1))) << "x[" << I << "]";
}

TEST_F(ExecReduceTest, MovingTargetUpdatesEachElement) {
  std::vector<f64i> X = ramp(N);
  // y[0..N-1] = 10 * (i + 1), plus one guard element past n.
  std::vector<f64i> Y;
  for (int I = 0; I <= N; ++I)
    Y.push_back(fromI(Interval::fromPoint(10.0 * (I + 1))));
  moving(Y.data(), X.data(), N);
  for (int I = 0; I < N; ++I)
    EXPECT_TRUE(contains(Y[I], 11.0 * (I + 1))) << "y[" << I << "]";
  const Interval Guard = toI(Y[N]);
  EXPECT_EQ(Guard.lo(), 10.0 * (N + 1));
  EXPECT_EQ(Guard.hi(), 10.0 * (N + 1));
}

TEST_F(ExecReduceTest, RunningSumReadInTheLoop) {
  std::vector<f64i> X = ramp(N), Y = ramp(N);
  EXPECT_TRUE(contains(prefix(Y.data(), X.data(), N), N * (N + 1) / 2.0));
  for (int I = 0; I < N; ++I)
    EXPECT_TRUE(contains(Y[I], (I + 1) * (I + 2) / 2.0)) << "y[" << I << "]";
}

TEST_F(ExecReduceTest, DotStillAccumulates) {
  std::vector<f64i> A = ramp(N), B = ramp(N);
  // 1^2 + ... + 8^2.
  EXPECT_TRUE(contains(dot(A.data(), B.data(), N), 204.0));
  // The generated source: only the control feeds an accumulator.
  std::ifstream In(IGEN_REDUCEK_OUT);
  ASSERT_TRUE(In) << IGEN_REDUCEK_OUT;
  std::stringstream Text;
  Text << In.rdbuf();
  const std::string Src = Text.str();
  const size_t Dot = Src.find("f64i dot(");
  ASSERT_NE(Dot, std::string::npos);
  EXPECT_NE(Src.find("isum_accumulate_f64(", Dot), std::string::npos);
  EXPECT_EQ(Src.find("isum_"), Src.find("isum_", Dot));
}
