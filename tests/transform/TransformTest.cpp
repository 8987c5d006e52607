//===- TransformTest.cpp - Interval transformation unit tests ---------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

using namespace igen;

namespace {

std::string compile(std::string_view Src, TransformOptions Opts = {}) {
  DiagnosticsEngine Diags;
  auto Out = compileToIntervals(Src, Opts, Diags);
  EXPECT_TRUE(Out.has_value()) << Diags.render("test");
  return Out.value_or("");
}

bool fails(std::string_view Src, TransformOptions Opts = {}) {
  DiagnosticsEngine Diags;
  return !compileToIntervals(Src, Opts, Diags).has_value();
}

using ::testing::HasSubstr;
using ::testing::Not;

} // namespace

TEST(Transform, PaperFigure2) {
  std::string Out = compile("double foo(double a, double b) {\n"
                            "  double c;\n"
                            "  c = a + b + 0.1;\n"
                            "  if (c > a) {\n"
                            "    c = a * c;\n"
                            "  }\n"
                            "  return c;\n"
                            "}\n");
  EXPECT_THAT(Out, HasSubstr("#include \"interval/igen_lib.h\""));
  EXPECT_THAT(Out, HasSubstr("f64i foo(f64i a, f64i b)"));
  EXPECT_THAT(Out, HasSubstr("ia_add_f64(a, b)"));
  // The constant 0.1 is lifted to its neighbouring doubles.
  EXPECT_THAT(Out, HasSubstr("ia_set_f64(0.09999999999999999"));
  EXPECT_THAT(Out, HasSubstr("tbool _t1 = ia_cmpgt_f64(c, a);"));
  EXPECT_THAT(Out, HasSubstr("if (ia_cvt2bool_tb(_t1))"));
  EXPECT_THAT(Out, HasSubstr("ia_mul_f64(a, c)"));
}

TEST(Transform, PaperFigure3Tolerances) {
  std::string Out = compile("double read_sensor(double:0.125 a) {\n"
                            "  double c = 5.0 + 0.25t;\n"
                            "  return a + c;\n"
                            "}\n");
  // Parameter keeps its scalar type; an interval shadow is introduced.
  EXPECT_THAT(Out, HasSubstr("f64i read_sensor(double a)"));
  EXPECT_THAT(Out, HasSubstr("f64i _a = ia_set_tol_f64(a, 0.125"));
  // 5.0 + 0.25t folds to a single constant interval ~ [4.75, 5.25].
  EXPECT_THAT(Out, HasSubstr("ia_set_f64(4.74"));
  EXPECT_THAT(Out, HasSubstr("ia_add_f64(_a, c)"));
}

TEST(Transform, IntegerConstantsAreExact) {
  std::string Out =
      compile("double f(double x) { return x + 1.0 + 2.0; }");
  EXPECT_THAT(Out, HasSubstr("ia_cst_f64(1")); // point interval
  EXPECT_THAT(Out, Not(HasSubstr("ia_set_f64(1")));
}

TEST(Transform, ConstantFolding) {
  std::string Out = compile("double f(double x) { return x * (2.0 + 0.1); }");
  // 2.0 + 0.1 folds into one interval constant around 2.1.
  EXPECT_THAT(Out, HasSubstr("ia_set_f64(2.09999999"));
  EXPECT_THAT(Out, Not(HasSubstr("ia_add_f64(ia_cst")));
}

TEST(Transform, IntLiteralMixesWithIntervals) {
  std::string Out = compile("double f(double x) { return 1 - x; }");
  EXPECT_THAT(Out, HasSubstr("ia_sub_f64(ia_cst_f64("));
}

TEST(Transform, IntExpressionsUntouched) {
  std::string Out = compile("int f(int a, int b) { return a * b + 3; }");
  EXPECT_THAT(Out, HasSubstr("return (a * b) + 3;"));
  EXPECT_THAT(Out, Not(HasSubstr("ia_")));
}

TEST(Transform, IndexLiftingAndPointers) {
  std::string Out = compile(
      "void axpy(double alpha, double *x, double *y, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    y[i] = y[i] + alpha * x[i];\n"
      "}\n");
  EXPECT_THAT(Out, HasSubstr("void axpy(f64i alpha, f64i *x, f64i *y"));
  // y[i] moves with the loop counter, so the update carries nothing from
  // one iteration to the next and fuses; alpha's sign would version the
  // loop. The whole axpy loop is one row-kernel call, which makes the
  // sign test and runs the fused copy it picks.
  EXPECT_THAT(Out, HasSubstr("  if (0 < n)\n"
                             "  {\n"
                             "    ia_axpy_f64(&y[0], alpha, &x[0], "
                             "(unsigned long)n);\n"
                             "  }\n"));
  EXPECT_THAT(Out, Not(HasSubstr("for (")));

  // -O0 keeps the per-element loop.
  TransformOptions O0;
  O0.OptLevel = 0;
  EXPECT_THAT(compile("void axpy(double alpha, double *x, double *y, int n) {\n"
                      "  for (int i = 0; i < n; i++)\n"
                      "    y[i] = y[i] + alpha * x[i];\n"
                      "}\n",
                      O0),
              HasSubstr("y[i] = ia_add_f64(y[i], ia_mul_f64(alpha, x[i]))"));
}

TEST(Transform, MathFunctionsMap) {
  // Default -O1: the transcendentals with certified polynomial kernels
  // lower to the _fast variants; sqrt/abs have no polynomial version.
  std::string Out =
      compile("double f(double x) { return sin(x) + sqrt(fabs(x)); }");
  EXPECT_THAT(Out, HasSubstr("ia_sin_fast_f64(x)"));
  EXPECT_THAT(Out, HasSubstr("ia_sqrt_f64(ia_abs_f64(x))"));
}

TEST(Transform, MathFunctionsKeepLibmPathAtO0) {
  TransformOptions Opts;
  Opts.OptLevel = 0;
  std::string Out = compile(
      "double f(double x) { return exp(x) + log(x) + sin(x) + cos(x); }",
      Opts);
  EXPECT_THAT(Out, HasSubstr("ia_exp_f64(x)"));
  EXPECT_THAT(Out, HasSubstr("ia_log_f64(x)"));
  EXPECT_THAT(Out, HasSubstr("ia_sin_f64(x)"));
  EXPECT_THAT(Out, HasSubstr("ia_cos_f64(x)"));
  EXPECT_THAT(Out, Not(HasSubstr("_fast_f64")));
}

TEST(Transform, MathFunctionsUseFastKernelsAtO1) {
  std::string Out = compile(
      "double f(double x) { return exp(x) + log(x) + sin(x) + cos(x); }");
  EXPECT_THAT(Out, HasSubstr("ia_exp_fast_f64(x)"));
  EXPECT_THAT(Out, HasSubstr("ia_log_fast_f64(x)"));
  EXPECT_THAT(Out, HasSubstr("ia_sin_fast_f64(x)"));
  EXPECT_THAT(Out, HasSubstr("ia_cos_fast_f64(x)"));
  // tan has no certified polynomial kernel; it stays on the libm path
  // at every level.
  std::string Tan = compile("double g(double x) { return tan(x); }");
  EXPECT_THAT(Tan, HasSubstr("ia_tan_f64(x)"));
}

TEST(Transform, CompoundAssignments) {
  std::string Out = compile("void f(double *s, double x) {\n"
                            "  *s += x;\n"
                            "  *s *= 2.0;\n"
                            "}\n");
  EXPECT_THAT(Out, HasSubstr("*s = ia_add_f64(*s, x);"));
  // 2.0 is provably positive, so -O specializes (and commutes) the
  // multiply.
  EXPECT_THAT(Out, HasSubstr("*s = ia_mul_pu_f64(ia_cst_f64(2"));
}

TEST(Transform, DdTarget) {
  TransformOptions Opts;
  Opts.Prec = TransformOptions::Precision::DoubleDouble;
  std::string Out = compile("double f(double a, double b) {\n"
                            "  double c = a * b + 0.1;\n"
                            "  return c / b;\n"
                            "}\n",
                            Opts);
  EXPECT_THAT(Out, HasSubstr("ddi f(ddi a, ddi b)"));
  EXPECT_THAT(Out, HasSubstr("ia_mul_dd(a, b)"));
  EXPECT_THAT(Out, HasSubstr("ia_div_dd(c, b)"));
  // 0.1 gets a double-double-tight enclosure: four endpoint words.
  EXPECT_THAT(Out, HasSubstr("ia_set_ddc(0.099999999999999992, "));
}

TEST(Transform, DdElementaryHullFallback) {
  // sqrt is native at dd accuracy; the transcendentals lower to the
  // ia_*_dd hull fallbacks (f64 kernel on the outer double hull), which
  // is what lets --tier clones of transcendental kernels compile.
  TransformOptions Opts;
  Opts.Prec = TransformOptions::Precision::DoubleDouble;
  EXPECT_THAT(compile("double f(double x) { return sin(x); }", Opts),
              HasSubstr("ia_sin_dd(x)"));
  EXPECT_THAT(compile("double f(double x) { return sqrt(x); }", Opts),
              HasSubstr("ia_sqrt_dd(x)"));
}

TEST(Transform, ScalarLibraryDefine) {
  TransformOptions Opts;
  Opts.ScalarLibrary = true;
  std::string Out = compile("double f(double x) { return x; }", Opts);
  EXPECT_THAT(Out, HasSubstr("#define IGEN_F64I_SCALAR 1"));
}

TEST(Transform, SimdIntrinsicsHandOptimized) {
  std::string Out = compile(
      "#include <immintrin.h>\n"
      "void vaxpy(double *x, double *y) {\n"
      "  __m256d a = _mm256_loadu_pd(x);\n"
      "  __m256d b = _mm256_loadu_pd(y);\n"
      "  _mm256_storeu_pd(y, _mm256_add_pd(a, b));\n"
      "}\n");
  EXPECT_THAT(Out, HasSubstr("m256di_2 a = ia_loadu_m256di_2(x)"));
  EXPECT_THAT(Out,
              HasSubstr("ia_storeu_m256di_2(y, ia_add_m256di_2(a, b))"));
  // Hand-optimized set only: no generated-intrinsics include needed.
  EXPECT_THAT(Out, Not(HasSubstr("igen_simd.h")));
}

TEST(Transform, SimdIntrinsicsGeneratedFallback) {
  std::string Out = compile(
      "#include <immintrin.h>\n"
      "__m256d f(__m256d a, __m256d b) {\n"
      "  return _mm256_unpacklo_pd(a, b);\n"
      "}\n");
  EXPECT_THAT(Out, HasSubstr("_ci_mm256_unpacklo_pd(a, b)"));
  EXPECT_THAT(Out, HasSubstr("#include \"igen_simd.h\""));
}

TEST(Transform, SimdDdUsesAutomaticPath) {
  TransformOptions Opts;
  Opts.Prec = TransformOptions::Precision::DoubleDouble;
  std::string Out = compile(
      "#include <immintrin.h>\n"
      "void f(double *x, double *y) {\n"
      "  __m256d a = _mm256_loadu_pd(x);\n"
      "  _mm256_storeu_pd(y, _mm256_mul_pd(a, a));\n"
      "}\n",
      Opts);
  EXPECT_THAT(Out, HasSubstr("ddi_4 a = ia_loadu_ddi_4(x)"));
  EXPECT_THAT(Out, HasSubstr("ia_mul_ddi_4(a, a)"));
}

TEST(Transform, ReductionTransformation) {
  TransformOptions Opts;
  Opts.EnableReductions = true;
  std::string Out = compile(
      "void mvm(double *A, double *x, double *y) {\n"
      "  #pragma igen reduce y\n"
      "  for (int i = 0; i < 100; i++)\n"
      "    for (int j = 0; j < 500; j++)\n"
      "      y[i] = y[i] + A[i * 500 + j] * x[j];\n"
      "}\n",
      Opts);
  // Fig. 7: accumulator around the inner loop.
  EXPECT_THAT(Out, HasSubstr("acc_f64 _acc1;"));
  EXPECT_THAT(Out, HasSubstr("isum_init_f64(&_acc1, y[i]);"));
  EXPECT_THAT(
      Out, HasSubstr("isum_accumulate_f64(&_acc1, "
                     "ia_mul_f64(A[(i * 500) + j], x[j]));"));
  EXPECT_THAT(Out, HasSubstr("y[i] = isum_reduce_f64(&_acc1);"));
  // The original update must be gone.
  EXPECT_THAT(Out, Not(HasSubstr("y[i] = ia_add_f64")));
}

TEST(Transform, ReductionDisabledByDefault) {
  std::string Out = compile(
      "void mvm(double *A, double *x, double *y) {\n"
      "  #pragma igen reduce y\n"
      "  for (int i = 0; i < 4; i++)\n"
      "    y[0] = y[0] + A[i] * x[i];\n"
      "}\n");
  EXPECT_THAT(Out, Not(HasSubstr("acc_f64")));
}

TEST(Transform, ReductionDdUsesDdAccumulator) {
  TransformOptions Opts;
  Opts.EnableReductions = true;
  Opts.Prec = TransformOptions::Precision::DoubleDouble;
  std::string Out = compile("double dot(double *a, double *b, int n) {\n"
                            "  double s = 0.0;\n"
                            "  #pragma igen reduce s\n"
                            "  for (int i = 0; i < n; i++)\n"
                            "    s = s + a[i] * b[i];\n"
                            "  return s;\n"
                            "}\n",
                            Opts);
  EXPECT_THAT(Out, HasSubstr("acc_dd _acc1;"));
  EXPECT_THAT(Out, HasSubstr("isum_init_dd"));
  EXPECT_THAT(Out, HasSubstr("isum_reduce_dd"));
}

TEST(Transform, JoinModeBranches) {
  TransformOptions Opts;
  Opts.Branches = TransformOptions::BranchPolicy::Join;
  std::string Out = compile("double f(double a, double b) {\n"
                            "  double r = 0.0;\n"
                            "  if (a > b) { r = a; } else { r = b; }\n"
                            "  return r;\n"
                            "}\n",
                            Opts);
  EXPECT_THAT(Out, HasSubstr("ia_istrue_tb"));
  EXPECT_THAT(Out, HasSubstr("ia_isfalse_tb"));
  EXPECT_THAT(Out, HasSubstr("f64i _sav_r = r;"));
  EXPECT_THAT(Out, HasSubstr("r = ia_join_f64(r, _res_r);"));
}

TEST(Transform, JoinModeHullsAToleranceShadow) {
  // Assignments to a tolerance parameter store to its interval shadow, so
  // the join must save, restore and hull the shadow, not the scalar.
  TransformOptions Opts;
  Opts.Branches = TransformOptions::BranchPolicy::Join;
  std::string Out = compile("double f(double:0.1 a, double b) {\n"
                            "  if (b > 0.0) { a = 1.0; }\n"
                            "  return a;\n"
                            "}\n",
                            Opts);
  EXPECT_THAT(Out, HasSubstr("f64i _sav__a = _a;"));
  EXPECT_THAT(Out, HasSubstr("_a = ia_join_f64(_a, _res__a);"));
  EXPECT_THAT(Out, Not(HasSubstr("_sav_a = a;")));
}

TEST(Transform, JoinModeFallsBackOnArrayStores) {
  TransformOptions Opts;
  Opts.Branches = TransformOptions::BranchPolicy::Join;
  std::string Out = compile("void f(double *p, double a, double b) {\n"
                            "  if (a > b) { p[0] = a; }\n"
                            "}\n",
                            Opts);
  // Paper: not implemented when arrays are modified -> exception path.
  EXPECT_THAT(Out, HasSubstr("ia_cvt2bool_tb"));
  EXPECT_THAT(Out, Not(HasSubstr("ia_join_f64")));
}

TEST(Transform, FloatPromotesToDoubleIntervals) {
  std::string Out = compile("float f(float x) { return x * 0.5f; }");
  EXPECT_THAT(Out, HasSubstr("f64i f(f64i x)"));
  EXPECT_THAT(Out, HasSubstr("ia_mul_pu_f64(ia_set_f64("));
}

TEST(Transform, CastsBehave) {
  std::string Out =
      compile("double f(int n) { return (double)n * 0.5; }");
  EXPECT_THAT(Out, HasSubstr("ia_cst_f64((double)(n))"));
  std::string Out2 =
      compile("float g(double x) { return (float)x; }");
  EXPECT_THAT(Out2, HasSubstr("ia_f32cast_f64(x)"));
}

TEST(Transform, WhileAndDoLoops) {
  std::string Out = compile("double f(double x, int n) {\n"
                            "  int i = 0;\n"
                            "  while (i < n) { x = x * x; i++; }\n"
                            "  do { x = x + 1.0; i--; } while (i > 0);\n"
                            "  return x;\n"
                            "}\n");
  EXPECT_THAT(Out, HasSubstr("while (i < n)"));
  EXPECT_THAT(Out, HasSubstr("x = ia_mul_f64(x, x);"));
  EXPECT_THAT(Out, HasSubstr("while (i > 0);"));
}

TEST(Transform, UserFunctionCallsKeepNames) {
  std::string Out = compile("double g(double x) { return x * x; }\n"
                            "double f(double x) { return g(x + 1.0); }\n");
  EXPECT_THAT(Out, HasSubstr("f64i g(f64i x)"));
  EXPECT_THAT(Out, HasSubstr("g(ia_add_f64(x, ia_cst_f64(1"));
}

TEST(Transform, LogicalOpsOnIntervals) {
  std::string Out = compile("double f(double a, double b) {\n"
                            "  if (a > 0.0 && b > 0.0) return a;\n"
                            "  return b;\n"
                            "}\n");
  EXPECT_THAT(Out, HasSubstr("ia_and_tb(ia_cmpgt_f64"));
}

TEST(Transform, MixedIntAndIntervalConditions) {
  std::string Out = compile("double f(double a, int n) {\n"
                            "  if (n > 0 && a > 0.0) return a;\n"
                            "  return a + 1.0;\n"
                            "}\n");
  EXPECT_THAT(Out, HasSubstr("ia_bool2tb(n > 0)"));
}

TEST(Transform, DirectivesPassThrough) {
  std::string Out = compile("#include <math.h>\n"
                            "double f(double x) { return x; }\n");
  EXPECT_THAT(Out, HasSubstr("#include <math.h>"));
}

TEST(Transform, TernaryWithPlainCondition) {
  std::string Out =
      compile("double f(int n, double a, double b) { return n > 0 ? a : "
              "b; }");
  EXPECT_THAT(Out, HasSubstr("(n > 0 ? a : b)"));
}

TEST(Transform, TernaryWithIntervalConditionRejected) {
  EXPECT_TRUE(
      fails("double f(double a, double b) { return a > b ? a : b; }"));
}

TEST(Transform, InverseTrigMap) {
  std::string Out = compile(
      "double f(double x) { return atan(x) + asin(x) - acos(x); }");
  EXPECT_THAT(Out, HasSubstr("ia_atan_f64(x)"));
  EXPECT_THAT(Out, HasSubstr("ia_asin_f64(x)"));
  EXPECT_THAT(Out, HasSubstr("ia_acos_f64(x)"));
  TransformOptions Opts;
  Opts.Prec = TransformOptions::Precision::DoubleDouble;
  EXPECT_THAT(compile("double f(double x) { return atan(x); }", Opts),
              HasSubstr("ia_atan_dd(x)"));
}

TEST(Transform, ChainedAssignmentsEmitValidC) {
  std::string Out = compile("double f(double a) {\n"
                            "  double b = 0.0;\n"
                            "  double c = 0.0;\n"
                            "  b = c = a + 1.0;\n"
                            "  return b;\n"
                            "}\n");
  EXPECT_THAT(Out, HasSubstr("b = c = ia_add_f64(a, ia_cst_f64(1"));
}

TEST(Transform, JoinModeNestedIfs) {
  TransformOptions Opts;
  Opts.Branches = TransformOptions::BranchPolicy::Join;
  std::string Out = compile("double f(double a, double b) {\n"
                            "  double r = 0.0;\n"
                            "  if (a > b) {\n"
                            "    if (a > 0.0) { r = a; } else { r = b; }\n"
                            "  } else { r = b - a; }\n"
                            "  return r;\n"
                            "}\n",
                            Opts);
  // The outer join must collect r through the nested if as well.
  EXPECT_THAT(Out, HasSubstr("_sav_r"));
  EXPECT_THAT(Out, HasSubstr("ia_join_f64(r, _res_r)"));
}

TEST(Transform, WhileWithIntervalConditionWrapsCvt) {
  std::string Out = compile("double f(double x) {\n"
                            "  while (x < 10.0) { x = x * 2.0; }\n"
                            "  return x;\n"
                            "}\n");
  EXPECT_THAT(Out,
              HasSubstr("while (ia_cvt2bool_tb(ia_cmplt_f64(x, "));
}

//===----------------------------------------------------------------------===//
// Mid-end optimizer golden tests (-O vs -O0)
//===----------------------------------------------------------------------===//

namespace {

const char *SignKernel = "double f(double x) {\n"
                         "  double r = 0.0;\n"
                         "  if (x > 1.0) {\n"
                         "    r = 1.0 / (x * x);\n"
                         "  }\n"
                         "  return r;\n"
                         "}\n";

const char *MacKernel =
    "void mac(double *y, double *a, double *b, int m, int n) {\n"
    "  for (int i = 0; i < m; i++)\n"
    "    for (int j = 0; j < n; j++)\n"
    "      y[i] = y[i] + a[i * n + j] * b[j];\n"
    "}\n";

} // namespace

TEST(Optimizer, SignProvableKernelSpecializesUnderO1) {
  std::string Out = compile(SignKernel);
  // x > 1.0 proves x (and hence x*x) strictly positive.
  EXPECT_THAT(Out, HasSubstr("ia_mul_pp_f64(x, x)"));
  EXPECT_THAT(Out, HasSubstr("ia_div_p_f64("));
  EXPECT_THAT(Out, Not(HasSubstr("ia_mul_f64")));
  EXPECT_THAT(Out, Not(HasSubstr("ia_div_f64")));
}

TEST(Optimizer, O0EmitsGenericCalls) {
  TransformOptions Opts;
  Opts.OptLevel = 0;
  std::string Out = compile(SignKernel, Opts);
  EXPECT_THAT(Out, HasSubstr("ia_mul_f64(x, x)"));
  EXPECT_THAT(Out, HasSubstr("ia_div_f64("));
  EXPECT_THAT(Out, Not(HasSubstr("ia_mul_pp")));
  EXPECT_THAT(Out, Not(HasSubstr("ia_div_p")));
}

TEST(Optimizer, LoopCarriedMulAddStaysUnfused) {
  // y[i] = y[i] + a[i*n+j]*b[j] inside the j-loop: y[i] is the same
  // element on every iteration, the add is the loop-carried recurrence,
  // so FMA fusion is suppressed — fused, every iteration's multiply
  // would sit on the recurrence's critical path.
  // At -O the unfused loop is one dot row-kernel call.
  const char *Carried =
      "y[i] = ia_add_f64(y[i], ia_mul_f64(a[(i * n) + j], b[j]))";
  std::string Out = compile(MacKernel);
  EXPECT_THAT(Out, HasSubstr("ia_dot_f64(&y[i], &a[i * n], &b[0], "
                             "(unsigned long)n);"));
  EXPECT_THAT(Out, Not(HasSubstr("ia_fma")));

  // The same update in an i-loop moves every iteration and fuses.
  std::string Moving =
      compile("void mac1(double *y, double *a, double *b, int n) {\n"
              "  for (int i = 0; i < n; i++)\n"
              "    y[i] = y[i] + a[i] * b[i];\n"
              "}\n");
  EXPECT_THAT(Moving, HasSubstr("y[i] = ia_fma_f64(a[i], b[i], y[i])"));

  // Outside a loop the same shape fuses as before.
  std::string Straight =
      compile("double g(double y, double a, double b) {\n"
              "  y = y + a * b;\n"
              "  return y;\n"
              "}\n");
  EXPECT_THAT(Straight, HasSubstr("y = ia_fma_f64(a, b, y)"));

  // A compound accumulation inside a loop is suppressed too.
  std::string Compound =
      compile("double h(double *a, double *b, int n) {\n"
              "  double s = 0.0;\n"
              "  for (int i = 0; i < n; i++)\n"
              "    s += a[i] * b[i];\n"
              "  return s;\n"
              "}\n");
  EXPECT_THAT(Compound,
              HasSubstr("ia_dot_f64(&s, &a[0], &b[0], (unsigned long)n);"));
  EXPECT_THAT(Compound, Not(HasSubstr("ia_fma")));

  TransformOptions Opts;
  Opts.OptLevel = 0;
  std::string Naive = compile(MacKernel, Opts);
  EXPECT_THAT(Naive, HasSubstr(Carried));
  EXPECT_THAT(Naive, Not(HasSubstr("ia_fma")));
}

namespace {

const char *GemmKernel =
    "void gemm(double *C, const double *A, const double *B, int n) {\n"
    "  for (int i = 0; i < n; i++)\n"
    "    for (int k = 0; k < n; k++) {\n"
    "      double a = A[i * n + k];\n"
    "      for (int j = 0; j < n; j++)\n"
    "        C[i * n + j] = C[i * n + j] + a * B[k * n + j];\n"
    "    }\n"
    "}\n";

const char *GemmMinusKernel =
    "void gemm(double *C, const double *A, const double *B, int n) {\n"
    "  for (int i = 0; i < n; i++)\n"
    "    for (int k = 0; k < n; k++) {\n"
    "      double a = A[i * n + k];\n"
    "      for (int j = 0; j < n; j++)\n"
    "        C[i * n + j] = C[i * n + j] - a * B[k * n + j];\n"
    "    }\n"
    "}\n";

} // namespace

TEST(Optimizer, SignVersioningCopiesTheInnermostLoop) {
  // a's sign is unknown statically: one test per k iteration picks the
  // copy whose multiply by a is specialized for it. Only the innermost
  // loop is copied. (The `+` form of this loop is an axpy row kernel.)
  std::string Out = compile(GemmMinusKernel);
  EXPECT_THAT(Out, HasSubstr("      f64i a = A[(i * n) + k];\n"
                             "      if (ia_inf_f64(a) >= 0.0)\n"
                             "      {\n"
                             "        for (int j = 0; j < n; j++)\n"
                             "        {\n"
                             "          C[(i * n) + j] = ia_fma_nu_f64("
                             "ia_neg_f64(a), B[(k * n) + j], C[(i * n) + j]);\n"
                             "        }\n"
                             "      }\n"
                             "      else if (ia_sup_f64(a) <= 0.0)\n"
                             "      {\n"
                             "        for (int j = 0; j < n; j++)\n"
                             "        {\n"
                             "          C[(i * n) + j] = ia_fma_pu_f64("
                             "ia_neg_f64(a), B[(k * n) + j], C[(i * n) + j]);\n"
                             "        }\n"
                             "      }\n"
                             "      else\n"
                             "      {\n"
                             "        for (int j = 0; j < n; j++)\n"
                             "        {\n"
                             "          C[(i * n) + j] = ia_fma_f64("
                             "ia_neg_f64(a), B[(k * n) + j], C[(i * n) + j]);\n"
                             "        }\n"
                             "      }\n"));
  // Scalar library too.
  TransformOptions Ss;
  Ss.ScalarLibrary = true;
  EXPECT_THAT(compile(GemmMinusKernel, Ss),
              HasSubstr("ia_fma_nu_f64(ia_neg_f64(a), "));

  // A hoisted invariant is computed once, ahead of the test.
  std::string Hoist = compile(
      "void f(double al, double b, double c, double *x, double *y, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    y[i] = y[i] + al * x[i] * (b * c);\n"
      "}\n");
  EXPECT_THAT(Hoist, HasSubstr("  f64i _hoist1 = ia_mul_f64(b, c);\n"
                               "  if (ia_inf_f64(al) >= 0.0)\n"));
  EXPECT_THAT(Hoist,
              HasSubstr("ia_fma_f64(ia_mul_nu_f64(al, x[i]), _hoist1, y[i])"));
}

TEST(Optimizer, SignVersionedLoopWarnsOnce) {
  // The join policy cannot join a branch that stores to memory and
  // warns. The loop body is lowered three times; the warning is not.
  TransformOptions Opts;
  Opts.Branches = TransformOptions::BranchPolicy::Join;
  DiagnosticsEngine Diags;
  auto Out = compileToIntervals("void f(double a, double *x, int n) {\n"
                                "  for (int i = 0; i < n; i++)\n"
                                "    if (x[i] > 0.0)\n"
                                "      x[i] = a * x[i];\n"
                                "}\n",
                                Opts, Diags);
  ASSERT_TRUE(Out.has_value()) << Diags.render("test");
  EXPECT_THAT(*Out, HasSubstr("ia_mul_nu_f64(a, x[i])"));
  EXPECT_EQ(Diags.diagnostics().size(), 1u) << Diags.render("test");
}

TEST(Optimizer, SignVersioningStaysOffWhereSpecializationDoes) {
  // -O0, double-double and --profile emit the loop once.
  TransformOptions O0;
  O0.OptLevel = 0;
  TransformOptions Dd;
  Dd.Prec = TransformOptions::Precision::DoubleDouble;
  TransformOptions Prof;
  Prof.Profile = true;
  for (const TransformOptions &Opts : {O0, Dd, Prof}) {
    std::string Out = compile(GemmKernel, Opts);
    EXPECT_THAT(Out, Not(HasSubstr("ia_inf_f64")));
    EXPECT_THAT(Out, Not(HasSubstr("ia_sup_f64")));
  }
}

TEST(Optimizer, AxpyAndDotLoopsBecomeRowKernelCalls) {
  // gemm's j-loop is an axpy on the k-loop's a; the call sits behind the
  // loop's own entry test and replaces the three versioned copies.
  std::string Gemm = compile(GemmKernel);
  EXPECT_THAT(Gemm, HasSubstr("      f64i a = A[(i * n) + k];\n"
                              "      if (0 < n)\n"
                              "      {\n"
                              "        ia_axpy_f64(&C[i * n], a, &B[k * n], "
                              "(unsigned long)n);\n"
                              "      }\n"));
  EXPECT_THAT(Gemm, Not(HasSubstr("ia_inf_f64")));

  // potrf's k-loops: squared and mixed subtracting dots, scalar
  // accumulators; a loop that starts past 0 offsets every row and counts
  // U - L without signed arithmetic.
  std::string Potrf = compile(
      "void potrf(double *A, int n, int j, long m) {\n"
      "  double s = A[j * n + j];\n"
      "  for (int k = 0; k < j; k++)\n"
      "    s = s - A[j * n + k] * A[j * n + k];\n"
      "  for (int k = j + 1; k < n; ++k)\n"
      "    s -= A[k + j * n] * A[k];\n"
      "  for (long k = 2; k < m; k += 1)\n"
      "    s = s + A[k] * A[k + 1];\n"
      "  A[0] = s;\n"
      "}\n");
  EXPECT_THAT(Potrf, HasSubstr("  if (0 < j)\n  {\n"
                               "    ia_dotsub_f64(&s, &A[j * n], &A[j * n], "
                               "(unsigned long)j);\n"));
  EXPECT_THAT(Potrf, HasSubstr("  if ((j + 1) < n)\n  {\n"
                               "    ia_dotsub_f64(&s, &A[(j * n) + (j + 1)], "
                               "&A[j + 1], (unsigned long)n - "
                               "(unsigned long)(j + 1));\n"));
  EXPECT_THAT(Potrf, HasSubstr("    ia_dot_f64(&s, &A[2], &A[1 + 2], "
                               "(unsigned long)m - (unsigned long)2);\n"));
  EXPECT_THAT(Potrf, Not(HasSubstr("for (")));

  // Loops that keep their per-element code: two statements, a nested
  // loop, a break, a reduce pragma, a strided row, a float row, a
  // down-counting loop, a bound the body writes through the index, an
  // accumulator that moves, and a product the range analysis signs.
  const char *Kept[] = {
      "void f(double *y, double *x, double a, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    y[i] = y[i] + a * x[i];\n"
      "    x[i] = 0.0;\n"
      "  }\n"
      "}\n",
      "double f(double *x, double *z, int n) {\n"
      "  double s = 0.0;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      s = s + x[i] * z[j];\n"
      "  return s;\n"
      "}\n",
      "double f(double *x, double *z, int n) {\n"
      "  double s = 0.0;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i > 3)\n"
      "      break;\n"
      "    s = s + x[i] * z[i];\n"
      "  }\n"
      "  return s;\n"
      "}\n",
      "double f(double *x, double *z, int n) {\n"
      "  double s = 0.0;\n"
      "  #pragma igen reduce s\n"
      "  for (int i = 0; i < n; i++)\n"
      "    s = s + x[i] * z[i];\n"
      "  return s;\n"
      "}\n",
      "double f(double *x, double *z, int n) {\n"
      "  double s = 0.0;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    s = s + x[2 * i] * z[i];\n"
      "  return s;\n"
      "}\n",
      "void f(float *y, float *x, float a, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    y[i] = y[i] + a * x[i];\n"
      "}\n",
      "double f(double *x, double *z, int n) {\n"
      "  double s = 0.0;\n"
      "  for (int i = n - 1; i >= 0; i--)\n"
      "    s = s + x[i] * z[i];\n"
      "  return s;\n"
      "}\n",
      "double f(double *x, double *z, int *len) {\n"
      "  double s = 0.0;\n"
      "  for (int i = 0; i < len[0]; i++)\n"
      "    s = s + x[i] * z[i];\n"
      "  return s;\n"
      "}\n",
      "void f(double *y, double *x, double *z, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    y[i] = y[i] + x[i] * z[i];\n"
      "}\n",
      "double f(double *x, double *z, int n) {\n"
      "  double s = 0.0;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    s = s + x[i] * 2.0 * z[i];\n"
      "  return s;\n"
      "}\n",
  };
  for (const char *Src : Kept) {
    std::string Out = compile(Src);
    EXPECT_THAT(Out, Not(HasSubstr("ia_axpy_f64"))) << Src;
    EXPECT_THAT(Out, Not(HasSubstr("ia_dot"))) << Src;
  }

  // -O0, --profile and --batch-loops keep the loops; double-double emits
  // no f64 kernel (its axpy is ia_axpy_dd, see below).
  TransformOptions O0;
  O0.OptLevel = 0;
  TransformOptions Dd;
  Dd.Prec = TransformOptions::Precision::DoubleDouble;
  TransformOptions Prof;
  Prof.Profile = true;
  TransformOptions Batch;
  Batch.EnableBatchLoops = true;
  for (const TransformOptions &Opts : {O0, Dd, Prof, Batch})
    for (const char *Src : {GemmKernel, MacKernel}) {
      std::string Out = compile(Src, Opts);
      EXPECT_THAT(Out, Not(HasSubstr("ia_axpy_f64")));
      EXPECT_THAT(Out, Not(HasSubstr("ia_dot")));
    }

  // The scalar library gets the same calls.
  TransformOptions Ss;
  Ss.ScalarLibrary = true;
  EXPECT_THAT(compile(GemmKernel, Ss), HasSubstr("ia_axpy_f64(&C[i * n], a"));
}

TEST(Optimizer, DdAxpyLoopsBecomeIaAxpyDd) {
  // Under double-double only the axpy shape routes, with the source's
  // add order Y + a * X (or +=); the dot shapes, a * X + Y (a dd add is
  // not bitwise commutative), -O0 and --profile keep the loop.
  TransformOptions Dd;
  Dd.Prec = TransformOptions::Precision::DoubleDouble;
  EXPECT_THAT(compile(GemmKernel, Dd),
              HasSubstr("      ddi a = A[(i * n) + k];\n"
                        "      if (0 < n)\n"
                        "      {\n"
                        "        ia_axpy_dd(&C[i * n], a, &B[k * n], "
                        "(unsigned long)n);\n"
                        "      }\n"));
  EXPECT_THAT(compile("void f(double *y, double *x, double a, int n) {\n"
                      "  for (int i = 0; i < n; i++)\n"
                      "    y[i] += a * x[i];\n"
                      "}\n",
                      Dd),
              HasSubstr("ia_axpy_dd(&y[0], a, &x[0], (unsigned long)n);"));
  const std::string ProductFirst =
      compile("void f(double *y, double *x, double a, int n) {\n"
              "  for (int i = 0; i < n; i++)\n"
              "    y[i] = a * x[i] + y[i];\n"
              "}\n",
              Dd);
  EXPECT_THAT(ProductFirst,
              HasSubstr("y[i] = ia_add_dd(ia_mul_dd(a, x[i]), y[i]);"));
  EXPECT_THAT(compile(MacKernel, Dd), Not(HasSubstr("ia_dot")));
  TransformOptions DdO0 = Dd;
  DdO0.OptLevel = 0;
  TransformOptions DdProf = Dd;
  DdProf.Profile = true;
  for (const TransformOptions &Opts : {DdO0, DdProf})
    EXPECT_THAT(compile(GemmKernel, Opts), Not(HasSubstr("ia_axpy_dd")));
  // The f64 build of that product-first loop still routes: its fma adds
  // in one rounding, whatever the order.
  EXPECT_THAT(compile("void f(double *y, double *x, double a, int n) {\n"
                      "  for (int i = 0; i < n; i++)\n"
                      "    y[i] = a * x[i] + y[i];\n"
                      "}\n"),
              HasSubstr("ia_axpy_f64(&y[0], a, &x[0]"));
}

TEST(Optimizer, NonCarriedMulAddInLoopStillFuses) {
  // Horner shape: r = r*x + c[k]. The addend c[k] is not the target r —
  // the recurrence already runs through the multiply, so fusing costs
  // nothing on the critical path and saves the separate add.
  std::string Out = compile("double horner(const double *c, double x, int n) {\n"
                            "  double r = c[0];\n"
                            "  for (int k = 1; k < n; k++)\n"
                            "    r = r * x + c[k];\n"
                            "  return r;\n"
                            "}\n");
  EXPECT_THAT(Out, HasSubstr("r = ia_fma_f64(r, x, c[k])"));
}

TEST(Optimizer, SubtractionFusesWithNegation) {
  // a*b - c = fma(a, b, -c); c - a*b = fma(-a, b, c).
  std::string Out = compile("double f(double a, double b, double c) {\n"
                            "  return a * b - c;\n"
                            "}\n");
  EXPECT_THAT(Out, HasSubstr("ia_fma_f64(a, b, ia_neg_f64(c))"));
  Out = compile("double f(double a, double b, double c) {\n"
                "  return c - a * b;\n"
                "}\n");
  EXPECT_THAT(Out, HasSubstr("ia_fma_f64(ia_neg_f64(a), b, c)"));
}

TEST(Optimizer, CseAndHoistingIntroduceTemps) {
  std::string Src = "double f(const double *v, double a, double b, int n) {\n"
                    "  double s = 0.0;\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    s = s + (a * b + 1.0) * v[i] + (a * b + 1.0);\n"
                    "  }\n"
                    "  return s;\n"
                    "}\n";
  std::string Out = compile(Src);
  // The loop-invariant a*b + 1.0 is computed once ahead of the loop. The
  // accumulation into s stays unfused (loop-carried FMA suppression).
  EXPECT_THAT(Out, HasSubstr("f64i _hoist1 = ia_fma_f64(a, b, ia_cst_f64(1));"));
  EXPECT_THAT(Out, HasSubstr("ia_add_f64(s, ia_mul_f64(_hoist1, v[i]))"));

  TransformOptions Opts;
  Opts.OptLevel = 0;
  std::string Naive = compile(Src, Opts);
  EXPECT_THAT(Naive, Not(HasSubstr("_hoist")));
  EXPECT_THAT(Naive, Not(HasSubstr("_cse")));
}

TEST(Optimizer, CseWithinOneStatement) {
  std::string Out = compile("double f(double a, double b, double c) {\n"
                            "  return (a * b + c) * (a * b + c) + a * b;\n"
                            "}\n");
  EXPECT_THAT(Out, HasSubstr("f64i _cse1 = ia_mul_f64(a, b);"));
  EXPECT_THAT(Out, HasSubstr("f64i _cse2 = ia_add_f64(_cse1, c);"));
  EXPECT_THAT(Out, HasSubstr("return ia_fma_f64(_cse2, _cse2, _cse1);"));
}

TEST(Optimizer, CseKeepsLiteralsThatLowerDifferently) {
  // 0.25t is the interval [-0.25, 0.25] and 0.25 a point: one temp for
  // both products would drop the tolerance. The double-double target
  // lifts the decimal spelling, so 0.1 and 0.10000000000000001 (one
  // double) are different enclosures too.
  std::string Out = compile("double f(double a) {\n"
                            "  return (a * 0.25) * (a * 0.25t);\n"
                            "}\n"
                            "double g(double a) {\n"
                            "  return (a * 0.1) * (a * 0.10000000000000001);\n"
                            "}\n");
  EXPECT_THAT(Out, Not(HasSubstr("_cse")));
  EXPECT_THAT(Out, HasSubstr("ia_set_f64(-0.25000000000000005, "
                             "0.25000000000000006)"));
}

TEST(Optimizer, DdTargetStaysGeneric) {
  // The specialized entry points exist for f64 only; dd lowering must
  // not change under -O.
  TransformOptions Opts;
  Opts.Prec = TransformOptions::Precision::DoubleDouble;
  std::string Out = compile(SignKernel, Opts);
  EXPECT_THAT(Out, HasSubstr("ia_mul_dd(x, x)"));
  EXPECT_THAT(Out, Not(HasSubstr("ia_mul_pp")));
  EXPECT_THAT(Out, Not(HasSubstr("ia_fma")));
}

TEST(Optimizer, VectorIntrinsicAddMulFuses) {
  std::string Src =
      "void vmac(__m256d *y, __m256d *a, __m256d *b, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    y[i] = _mm256_add_pd(_mm256_mul_pd(a[i], b[i]), y[i]);\n"
      "}\n";
  std::string Out = compile(Src);
  EXPECT_THAT(Out, HasSubstr("ia_fma_m256di_2("));

  TransformOptions Opts;
  Opts.OptLevel = 0;
  std::string Naive = compile(Src, Opts);
  EXPECT_THAT(Naive, HasSubstr("ia_add_m256di_2("));
  EXPECT_THAT(Naive, Not(HasSubstr("ia_fma")));
}

TEST(Optimizer, GuardFactsDisabledUnderJoinPolicy) {
  // Under the join policy both sides of a branch execute, so the guard
  // cannot prove signs; only guard-independent facts may specialize.
  TransformOptions Opts;
  Opts.Branches = TransformOptions::BranchPolicy::Join;
  std::string Out = compile(SignKernel, Opts);
  EXPECT_THAT(Out, Not(HasSubstr("ia_mul_pp")));
  EXPECT_THAT(Out, Not(HasSubstr("ia_div_p_f64")));
}

//===----------------------------------------------------------------------===//
// Batched array loops (--batch-loops)
//===----------------------------------------------------------------------===//

namespace {
TransformOptions batchOpts() {
  TransformOptions Opts;
  Opts.EnableBatchLoops = true;
  return Opts;
}
} // namespace

TEST(BatchLoops, ElementwiseBinaryLoopsCollapseToOneCall) {
  std::string Out = compile(
      "void vadd(double *d, double *a, double *b, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    d[i] = a[i] + b[i];\n"
      "}\n"
      "void vdiv(double *d, double *a, double *b, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    d[i] = a[i] / b[i];\n"
      "}\n",
      batchOpts());
  EXPECT_THAT(Out, HasSubstr("ia_arr_add_f64(d, a, b, (unsigned long)(n));"));
  EXPECT_THAT(Out, HasSubstr("ia_arr_div_f64(d, a, b, (unsigned long)(n));"));
  // The per-element loop is gone entirely.
  EXPECT_THAT(Out, Not(HasSubstr("ia_add_f64")));
  EXPECT_THAT(Out, Not(HasSubstr("ia_div_f64")));
  EXPECT_THAT(Out, Not(HasSubstr("for (")));
}

TEST(BatchLoops, SqrtLoopCollapses) {
  std::string Out = compile("void vsqrt(double *d, double *a, int n) {\n"
                            "  for (int i = 0; i < n; i++)\n"
                            "    d[i] = sqrt(a[i]);\n"
                            "}\n",
                            batchOpts());
  EXPECT_THAT(Out, HasSubstr("ia_arr_sqrt_f64(d, a, (unsigned long)(n));"));
  EXPECT_THAT(Out, Not(HasSubstr("ia_sqrt_f64")));
}

TEST(BatchLoops, OffByDefault) {
  std::string Out =
      compile("void vadd(double *d, double *a, double *b, int n) {\n"
              "  for (int i = 0; i < n; i++)\n"
              "    d[i] = a[i] + b[i];\n"
              "}\n");
  EXPECT_THAT(Out, Not(HasSubstr("ia_arr_")));
  EXPECT_THAT(Out, HasSubstr("ia_add_f64(a[i], b[i])"));
}

TEST(BatchLoops, DdPrecisionStaysElementwise) {
  TransformOptions Opts = batchOpts();
  Opts.Prec = TransformOptions::Precision::DoubleDouble;
  std::string Out =
      compile("void vadd(double *d, double *a, double *b, int n) {\n"
              "  for (int i = 0; i < n; i++)\n"
              "    d[i] = a[i] + b[i];\n"
              "}\n",
              Opts);
  EXPECT_THAT(Out, Not(HasSubstr("ia_arr_")));
  EXPECT_THAT(Out, HasSubstr("ia_add_dd(a[i], b[i])"));
}

TEST(BatchLoops, ProfileModeStaysElementwise) {
  // --profile wants per-site instrumentation on every interval op; a
  // collapsed ia_arr_ call would lose the site attribution.
  TransformOptions Opts = batchOpts();
  Opts.Profile = true;
  std::string Out =
      compile("void vadd(double *d, double *a, double *b, int n) {\n"
              "  for (int i = 0; i < n; i++)\n"
              "    d[i] = a[i] + b[i];\n"
              "}\n",
              Opts);
  EXPECT_THAT(Out, Not(HasSubstr("ia_arr_")));
}

TEST(BatchLoops, NonMatchingLoopsAreLeftAlone) {
  // Broadcast operand, strided access, accumulation, two-statement
  // bodies: none match the d[i] = a[i] OP b[i] shape.
  std::string Out = compile(
      "void broadcast(double *d, double *a, double *b, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    d[i] = a[i] + b[0];\n"
      "}\n"
      "void strided(double *d, double *a, double *b, int n) {\n"
      "  for (int i = 0; i < n; i += 2)\n"
      "    d[i] = a[i] + b[i];\n"
      "}\n"
      "double accum(double *a, int n) {\n"
      "  double s = 0.0;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    s = s + a[i];\n"
      "  return s;\n"
      "}\n",
      batchOpts());
  EXPECT_THAT(Out, Not(HasSubstr("ia_arr_")));
}

TEST(BatchLoops, LiteralTripCountAndCompoundBodyMatch) {
  std::string Out = compile("void vmul8(double *d, double *a, double *b) {\n"
                            "  for (int i = 0; i < 8; i++) {\n"
                            "    d[i] = a[i] * b[i];\n"
                            "  }\n"
                            "}\n",
                            batchOpts());
  EXPECT_THAT(Out, HasSubstr("ia_arr_mul_f64(d, a, b, (unsigned long)(8));"));
}
