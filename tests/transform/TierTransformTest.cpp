//===- TierTransformTest.cpp - Adaptive tiering emission tests ---------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// String-level tests of the --tier emission: the ddi clone, the f64i
// wrapper with live-in snapshots and the region-exit escalate/meet
// sequence, movability pruning, the uniform f64i memory ABI in the
// clone, the region table, and the ineligibility fallback.
//
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

using namespace igen;

namespace {

TransformOptions tierOpts() {
  TransformOptions Opts;
  Opts.Tier = true;
  return Opts;
}

std::string compile(std::string_view Src, TransformOptions Opts,
                    ProfileSiteTable *Sites = nullptr,
                    std::string *DiagText = nullptr) {
  DiagnosticsEngine Diags;
  auto Out = compileToIntervals(Src, Opts, Diags, Sites);
  EXPECT_TRUE(Out.has_value()) << Diags.render("test");
  if (DiagText)
    *DiagText = Diags.render("test");
  return Out.value_or("");
}

using ::testing::HasSubstr;
using ::testing::Not;

} // namespace

TEST(TierTransform, EmitsCloneThenWrapper) {
  std::string Out = compile("double f(double a, double b) {\n"
                            "  return a * b + 0.1;\n"
                            "}\n",
                            tierOpts());
  // The ddi clone is a full double-double translation under <name>__dd.
  EXPECT_THAT(Out, HasSubstr("ddi f__dd(ddi a, ddi b)"));
  EXPECT_THAT(Out, HasSubstr("ia_mul_dd(a, b)"));
  // The wrapper keeps the plain f64i translation under the source name.
  EXPECT_THAT(Out, HasSubstr("f64i f(f64i a, f64i b)"));
  // Live-ins are snapshotted at entry, at f64i cost (plain copies).
  EXPECT_THAT(Out, HasSubstr("f64i _tier_in_a = a;"));
  EXPECT_THAT(Out, HasSubstr("f64i _tier_in_b = b;"));
  // Region exit: predicate, then rerun-and-meet on blowup.
  EXPECT_THAT(Out, HasSubstr("if (igen_tier_escalate(_tier_ret, "
                             "_igen_tier_base + 0u))"));
  EXPECT_THAT(
      Out, HasSubstr("ia_meet_f64(_tier_ret, ia_narrow_dd_f64(f__dd("
                     "ia_promote_f64_dd(_tier_in_a), "
                     "ia_promote_f64_dd(_tier_in_b))))"));
  EXPECT_THAT(Out, HasSubstr("#include \"profile/igen_tier.h\""));
}

TEST(TierTransform, RegionTableRegistersModule) {
  ProfileSiteTable Sites;
  std::string Out = compile("double f(double a) { return a + 0.5; }\n"
                            "double g(double a) { return -fabs(a); }\n",
                            tierOpts(), &Sites);
  EXPECT_THAT(Out,
              HasSubstr("static const igen_tier_region _igen_tier_regions[2]"));
  EXPECT_THAT(Out, HasSubstr("igen_tier_register_regions("));
  EXPECT_THAT(Out, HasSubstr("{\"f\", 1u, 1},"));
  EXPECT_THAT(Out, HasSubstr("{\"g\", 2u, 0},"));
  ASSERT_EQ(Sites.Regions.size(), 2u);
  EXPECT_EQ(Sites.Regions[0].Func, "f");
  EXPECT_TRUE(Sites.Regions[0].Movable);
  EXPECT_EQ(Sites.Regions[1].Func, "g");
  EXPECT_FALSE(Sites.Regions[1].Movable);
}

TEST(TierTransform, ImmovableRegionSkipsRerun) {
  std::string Out = compile("double g(double x, double y) {\n"
                            "  double m = fmax(fabs(x), fabs(y));\n"
                            "  return -m;\n"
                            "}\n",
                            tierOpts());
  // The clone is still emitted (callers may want the ddi entry point),
  // but the wrapper never calls it: the predicate only feeds counters.
  EXPECT_THAT(Out, HasSubstr("ddi g__dd(ddi x, ddi y)"));
  EXPECT_THAT(Out, HasSubstr("igen_tier_note_immovable(_tier_ret, "
                             "_igen_tier_base + 0u);"));
  EXPECT_THAT(Out, Not(HasSubstr("ia_narrow_dd_f64(g__dd(")));
  EXPECT_THAT(Out, Not(HasSubstr("igen_tier_escalate")));
  // Nothing reads an entry snapshot, so none is taken.
  EXPECT_THAT(Out, Not(HasSubstr("_tier_in_")));
}

TEST(TierTransform, CloneUsesUniformF64MemoryAbi) {
  std::string Out = compile("double h(double *xs, double *out, int n) {\n"
                            "  double s = 0.0;\n"
                            "  for (int i = 0; i < n; i++) {\n"
                            "    double v = xs[i] * xs[i];\n"
                            "    out[i] = v;\n"
                            "    s = s + v;\n"
                            "  }\n"
                            "  return s;\n"
                            "}\n",
                            tierOpts());
  // Pointer element types stay f64i in the clone; only scalars widen.
  EXPECT_THAT(Out, HasSubstr("ddi h__dd(f64i *xs, f64i *out, int n)"));
  EXPECT_THAT(Out, HasSubstr("ia_promote_f64_dd(xs[i])"));
  EXPECT_THAT(Out, HasSubstr("out[i] = ia_narrow_dd_f64(v)"));
  // The wrapper passes pointer and int snapshots through unpromoted.
  EXPECT_THAT(Out, HasSubstr("h__dd(_tier_in_xs, _tier_in_out, _tier_in_n)"));
}

TEST(TierTransform, WrapperKeepsF64FastPathsCloneDoesNot) {
  TransformOptions Opts = tierOpts();
  std::string Out = compile("double f(double a, double b, double c) {\n"
                            "  return a * b + c;\n"
                            "}\n",
                            Opts);
  // The f64i tier keeps its fused kernels; the dd tier decomposes.
  EXPECT_THAT(Out, HasSubstr("ia_fma_f64("));
  EXPECT_THAT(Out, HasSubstr("ia_add_dd(ia_mul_dd(a, b), c)"));
}

TEST(TierTransform, IneligibleFunctionFallsBackWithWarning) {
  std::string DiagText;
  std::string Out = compile("double q(double x, double y) {\n"
                            "  if (x == y) { return x; }\n"
                            "  return y;\n"
                            "}\n",
                            tierOpts(), nullptr, &DiagText);
  EXPECT_THAT(DiagText, HasSubstr("not tier-eligible"));
  EXPECT_THAT(Out, HasSubstr("f64i q(f64i x, f64i y)"));
  EXPECT_THAT(Out, Not(HasSubstr("q__dd")));
  EXPECT_THAT(Out, Not(HasSubstr("igen_tier_escalate")));
}

TEST(TierTransform, ReductionsAnalyzedOncePerFunction) {
  // The clone and the wrapper lower one analysis: a pragma loop without
  // a reduction warns once, not once per emitted copy.
  TransformOptions Opts = tierOpts();
  Opts.EnableReductions = true;
  std::string DiagText;
  std::string Out = compile("double f(double *x, int n) {\n"
                            "  double s = 0.0;\n"
                            "  #pragma igen reduce s\n"
                            "  for (int i = 0; i < n; i++)\n"
                            "    s = x[i] * 2.0;\n"
                            "  return s;\n"
                            "}\n",
                            Opts, nullptr, &DiagText);
  EXPECT_THAT(Out, HasSubstr("f__dd"));
  size_t Warnings = 0;
  for (size_t At = DiagText.find("no reduction statement");
       At != std::string::npos;
       At = DiagText.find("no reduction statement", At + 1))
    ++Warnings;
  EXPECT_EQ(Warnings, 1u) << DiagText;
}

TEST(TierTransform, MixedEligibilityStillNumbersRegionsDensely) {
  ProfileSiteTable Sites;
  std::string Out = compile(
      // eligible
      "double a1(double x) { return x * 2.5; }\n"
      // ineligible: float equality
      "double a2(double x) { if (x == 0.0) { return x; } return x; }\n"
      // eligible
      "double a3(double x) { return x / 3.0; }\n",
      tierOpts(), &Sites);
  ASSERT_EQ(Sites.Regions.size(), 2u);
  EXPECT_EQ(Sites.Regions[0].Func, "a1");
  EXPECT_EQ(Sites.Regions[1].Func, "a3");
  EXPECT_THAT(Out, HasSubstr("_igen_tier_base + 0u"));
  EXPECT_THAT(Out, HasSubstr("_igen_tier_base + 1u"));
}

TEST(TierTransform, TierOffEmitsNoTierMachinery) {
  TransformOptions Opts; // Tier off
  std::string Out =
      compile("double f(double a) { return a + 0.1; }\n", Opts);
  EXPECT_THAT(Out, Not(HasSubstr("igen_tier")));
  EXPECT_THAT(Out, Not(HasSubstr("__dd")));
  EXPECT_THAT(Out, Not(HasSubstr("_tier_in_")));
}
