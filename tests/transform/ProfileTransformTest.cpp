//===- ProfileTransformTest.cpp - --profile instrumentation unit tests -------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Compiler-side tests of the precision-profiling instrumentation: with
// Profile off the output must be byte-identical to the historical
// translation (no iap_*, no profile header, no site table); with it on,
// every scalar interval op carries a site ID and stripping the
// instrumentation back out reproduces the unprofiled output exactly.
//
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <regex>

using namespace igen;

namespace {

using ::testing::HasSubstr;
using ::testing::Not;

const char *Kernel = "double f(double a, double b) {\n"
                     "  double c = a * b + 0.5;\n"
                     "  double d = c - a;\n"
                     "  if (d > 0.0) {\n"
                     "    d = sqrt(d) / d;\n"
                     "  }\n"
                     "  return -d;\n"
                     "}\n";

std::string compileWith(std::string_view Src, TransformOptions Opts,
                        ProfileSiteTable *Sites = nullptr) {
  DiagnosticsEngine Diags;
  auto Out = compileToIntervals(Src, Opts, Diags, Sites);
  EXPECT_TRUE(Out.has_value()) << Diags.render("test");
  return Out.value_or("");
}

/// Reverses the instrumentation textually: drops the profile include and
/// the embedded site table, and rewrites iap_op(_igen_prof_base + K, ...)
/// back to ia_op(...). If this round-trips to the unprofiled output, the
/// instrumentation provably changed nothing but the call names.
std::string stripInstrumentation(std::string In) {
  In = std::regex_replace(
      In, std::regex("#include \"profile/igen_prof\\.h\"\n"), "");
  In = std::regex_replace(
      In,
      std::regex("static const igen_prof_site[^;]*;\n"
                 "static const unsigned _igen_prof_base =[^;]*;\n\n"),
      "");
  In = std::regex_replace(
      In, std::regex("iap_(\\w+)\\(_igen_prof_base \\+ \\d+u, "), "ia_$1(");
  return In;
}

} // namespace

TEST(Profile, OffByDefaultAndByteIdentical) {
  TransformOptions Plain;
  std::string Default = compileWith(Kernel, Plain);
  EXPECT_THAT(Default, Not(HasSubstr("iap_")));
  EXPECT_THAT(Default, Not(HasSubstr("igen_prof")));

  TransformOptions Off;
  Off.Profile = false;
  EXPECT_EQ(Default, compileWith(Kernel, Off));
}

TEST(Profile, InstrumentsEveryScalarOpWithSiteIds) {
  TransformOptions Opts;
  Opts.Profile = true;
  Opts.ModuleName = 't';
  ProfileSiteTable Sites;
  std::string Out = compileWith(Kernel, Opts, &Sites);

  EXPECT_THAT(Out, HasSubstr("#include \"profile/igen_prof.h\""));
  EXPECT_THAT(Out, HasSubstr("static const igen_prof_site _igen_prof_sites"));
  EXPECT_THAT(Out, HasSubstr("igen_prof_register_sites(\"t\""));
  EXPECT_THAT(Out, HasSubstr("iap_fma_f64(_igen_prof_base + 0u, a, b"));
  // No bare arithmetic calls remain (constant lifts ia_cst/ia_set and the
  // comparison stay uninstrumented by design).
  EXPECT_THAT(Out, Not(HasSubstr(" ia_mul_f64(")));
  EXPECT_THAT(Out, Not(HasSubstr(" ia_sub_f64(")));
  EXPECT_THAT(Out, HasSubstr("iap_sub_f64("));
  EXPECT_THAT(Out, HasSubstr("iap_sqrt_f64("));
  EXPECT_THAT(Out, HasSubstr("iap_neg_f64("));

  // The compile-time table matches what was embedded, with source
  // locations and reconstructed text.
  ASSERT_EQ(Sites.Sites.size(), 5u); // fma, sub, sqrt, div_p, neg
  EXPECT_EQ(Sites.Sites[0].Op, "fma");
  EXPECT_EQ(Sites.Sites[0].Func, "f");
  EXPECT_EQ(Sites.Sites[0].Line, 2u);
  EXPECT_EQ(Sites.Sites[0].Text, "a * b + 0.5");
  EXPECT_EQ(Sites.Sites[1].Op, "sub");
  EXPECT_EQ(Sites.Sites[1].Text, "c - a");
  EXPECT_EQ(Sites.Sites[2].Op, "sqrt");
  // d > 0.0 proves d positive inside the branch: the division keeps its
  // sign specialization, and the site records the specialized op name.
  EXPECT_EQ(Sites.Sites[3].Op, "div_p");
  EXPECT_EQ(Sites.Sites[4].Op, "neg");
}

TEST(Profile, StrippingInstrumentationRoundTrips) {
  TransformOptions Plain;
  TransformOptions Prof;
  Prof.Profile = true;
  EXPECT_EQ(stripInstrumentation(compileWith(Kernel, Prof)),
            compileWith(Kernel, Plain));

  // A strided dot keeps its loop at -O; the unit-stride one below is a
  // row-kernel call there, while --profile keeps the per-element loop
  // whose operations it instruments.
  const char *Loop = "double dot(const double *a, const double *b, int n) {\n"
                     "  double s = 0.0;\n"
                     "  for (int i = 0; i < n; i++)\n"
                     "    s = s + a[2 * i] * b[i];\n"
                     "  return s;\n"
                     "}\n";
  EXPECT_EQ(stripInstrumentation(compileWith(Loop, Prof)),
            compileWith(Loop, Plain));
  const char *Dot = "double dot(const double *a, const double *b, int n) {\n"
                    "  double s = 0.0;\n"
                    "  for (int i = 0; i < n; i++)\n"
                    "    s = s + a[i] * b[i];\n"
                    "  return s;\n"
                    "}\n";
  EXPECT_THAT(stripInstrumentation(compileWith(Dot, Prof)),
              HasSubstr("s = ia_add_f64(s, ia_mul_f64(a[i], b[i]));"));
  EXPECT_THAT(compileWith(Dot, Plain),
              HasSubstr("ia_dot_f64(&s, &a[0], &b[0], (unsigned long)n);"));
}

TEST(Profile, DoubleDoubleTargetInstruments) {
  TransformOptions Opts;
  Opts.Profile = true;
  Opts.Prec = TransformOptions::Precision::DoubleDouble;
  ProfileSiteTable Sites;
  std::string Out = compileWith("double f(double a, double b) {\n"
                                "  return a * b - a;\n"
                                "}\n",
                                Opts, &Sites);
  EXPECT_THAT(Out, HasSubstr("iap_mul_dd(_igen_prof_base + 0u"));
  EXPECT_THAT(Out, HasSubstr("iap_sub_dd(_igen_prof_base + 1u"));
  ASSERT_EQ(Sites.Sites.size(), 2u);
  EXPECT_EQ(Sites.Sites[0].Op, "mul");
  EXPECT_EQ(Sites.Sites[1].Op, "sub");
}

TEST(Profile, VectorOpsStayUninstrumented) {
  // The iap_* wrappers only exist for the scalar runtime; SIMD-vector
  // interval ops must pass through untouched even under --profile.
  TransformOptions Opts;
  Opts.Profile = true;
  ProfileSiteTable Sites;
  std::string Out = compileWith(
      "__m256d vmul(__m256d a, __m256d b) { return _mm256_mul_pd(a, b); }\n",
      Opts, &Sites);
  EXPECT_THAT(Out, HasSubstr("ia_mul_m256di_2("));
  EXPECT_THAT(Out, Not(HasSubstr("iap_")));
  EXPECT_TRUE(Sites.Sites.empty());
}
