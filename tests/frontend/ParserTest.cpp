//===- ParserTest.cpp - Parser unit tests -------------------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "CPrinter.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

using namespace igen;

namespace {

struct ParseResult {
  std::unique_ptr<ASTContext> Ctx;
  DiagnosticsEngine Diags;
  bool OK = false;
};

ParseResult parse(std::string_view Src) {
  ParseResult R;
  R.Ctx = std::make_unique<ASTContext>();
  Parser P(Src, *R.Ctx, R.Diags);
  R.OK = P.parseTranslationUnit();
  return R;
}

/// Parse then print; also verifies the printed output reparses to the same
/// print (fixed point).
std::string roundTrip(std::string_view Src) {
  ParseResult R = parse(Src);
  EXPECT_TRUE(R.OK) << R.Diags.render("test");
  CPrinter Printer;
  std::string Once = Printer.print(R.Ctx->TU);
  ParseResult R2 = parse(Once);
  EXPECT_TRUE(R2.OK) << "reparse failed:\n" << Once;
  CPrinter Printer2;
  std::string Twice = Printer2.print(R2.Ctx->TU);
  EXPECT_EQ(Once, Twice) << "printer not a fixed point";
  return Once;
}

} // namespace

TEST(Parser, SimpleFunction) {
  ParseResult R = parse("double foo(double a, double b) {\n"
                        "  double c;\n"
                        "  c = a + b + 0.1;\n"
                        "  return c;\n"
                        "}\n");
  ASSERT_TRUE(R.OK) << R.Diags.render("test");
  FunctionDecl *F = R.Ctx->TU.findFunction("foo");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Params.size(), 2u);
  EXPECT_EQ(F->RetTy->kind(), Type::Kind::Double);
  ASSERT_NE(F->Body, nullptr);
  EXPECT_EQ(F->Body->Body.size(), 3u);
}

TEST(Parser, PrecedenceAndAssociativity) {
  ParseResult R = parse("int f(int a, int b, int c) { return a + b * c; }");
  ASSERT_TRUE(R.OK);
  auto *Ret = cast<ReturnStmt>(
      R.Ctx->TU.findFunction("f")->Body->Body.front());
  auto *Add = dynCast<BinaryExpr>(Ret->Value);
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add->O, BinaryExpr::Op::Add);
  auto *Mul = dynCast<BinaryExpr>(Add->RHS);
  ASSERT_NE(Mul, nullptr);
  EXPECT_EQ(Mul->O, BinaryExpr::Op::Mul);
}

TEST(Parser, AssignmentIsRightAssociative) {
  ParseResult R = parse("void f(double a, double b) { a = b = 1.0; }");
  ASSERT_TRUE(R.OK);
  auto *St = cast<ExprStmt>(R.Ctx->TU.findFunction("f")->Body->Body[0]);
  auto *Outer = dynCast<BinaryExpr>(St->E);
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->O, BinaryExpr::Op::Assign);
  EXPECT_NE(dynCast<BinaryExpr>(Outer->RHS), nullptr);
}

TEST(Parser, ToleranceParameterExtension) {
  ParseResult R = parse("double read(double:0.125 a) { return a; }");
  ASSERT_TRUE(R.OK) << R.Diags.render("test");
  VarDecl *P = R.Ctx->TU.findFunction("read")->Params[0];
  EXPECT_TRUE(P->HasTolerance);
  EXPECT_EQ(P->Tolerance, 0.125);
}

TEST(Parser, ToleranceConstantExtension) {
  ParseResult R = parse("double f(void) { double c = 5.0 + 0.25t; "
                        "return c; }");
  ASSERT_TRUE(R.OK);
  auto *DS =
      cast<DeclStmt>(R.Ctx->TU.findFunction("f")->Body->Body.front());
  auto *Add = dynCast<BinaryExpr>(DS->Decls[0]->Init);
  ASSERT_NE(Add, nullptr);
  auto *Tol = dynCast<FloatLiteralExpr>(Add->RHS);
  ASSERT_NE(Tol, nullptr);
  EXPECT_TRUE(Tol->IsTolerance);
}

TEST(Parser, PragmaIgenReduceAttachesToLoop) {
  ParseResult R = parse(
      "void mvm(double *A, double *x, double *y) {\n"
      "  #pragma igen reduce y\n"
      "  for (int i = 0; i < 100; i++)\n"
      "    for (int j = 0; j < 500; j++)\n"
      "      y[i] = y[i] + A[i * 500 + j] * x[j];\n"
      "}\n");
  ASSERT_TRUE(R.OK) << R.Diags.render("test");
  auto *For =
      dynCast<ForStmt>(R.Ctx->TU.findFunction("mvm")->Body->Body.front());
  ASSERT_NE(For, nullptr);
  ASSERT_EQ(For->ReduceVars.size(), 1u);
  EXPECT_EQ(For->ReduceVars[0], "y");
  // The pragma must not leak onto the inner loop.
  auto *Inner = dynCast<ForStmt>(For->Body);
  ASSERT_NE(Inner, nullptr);
  EXPECT_TRUE(Inner->ReduceVars.empty());
}

TEST(Parser, SimdTypesAndIntrinsics) {
  ParseResult R = parse(
      "#include <immintrin.h>\n"
      "void axpy(double *x, double *y) {\n"
      "  __m256d a = _mm256_loadu_pd(x);\n"
      "  __m256d b = _mm256_loadu_pd(y);\n"
      "  _mm256_storeu_pd(y, _mm256_add_pd(a, b));\n"
      "}\n");
  ASSERT_TRUE(R.OK) << R.Diags.render("test");
  EXPECT_EQ(R.Ctx->TU.Items.size(), 2u);
  EXPECT_EQ(R.Ctx->TU.Items[0].Directive, "#include <immintrin.h>");
  auto *DS = cast<DeclStmt>(
      R.Ctx->TU.findFunction("axpy")->Body->Body.front());
  EXPECT_EQ(DS->Decls[0]->Ty->kind(), Type::Kind::M256D);
  EXPECT_NE(dynCast<CallExpr>(DS->Decls[0]->Init), nullptr);
}

TEST(Parser, ArraysAndPointers) {
  ParseResult R = parse("void f(void) {\n"
                        "  double a[4][8];\n"
                        "  double *p = &a[0][0];\n"
                        "  *p = 1.0;\n"
                        "  p[3] = 2.0;\n"
                        "}\n");
  ASSERT_TRUE(R.OK) << R.Diags.render("test");
  auto *DS = cast<DeclStmt>(R.Ctx->TU.findFunction("f")->Body->Body[0]);
  const Type *T = DS->Decls[0]->Ty;
  ASSERT_TRUE(T->isArray());
  EXPECT_EQ(T->arraySize(), 4);
  ASSERT_TRUE(T->element()->isArray());
  EXPECT_EQ(T->element()->arraySize(), 8);
  EXPECT_EQ(T->element()->element()->kind(), Type::Kind::Double);
}

TEST(Parser, CastsAndConditionals) {
  ParseResult R = parse("double f(int n) { return n > 0 ? (double)n : "
                        "-1.0; }");
  ASSERT_TRUE(R.OK) << R.Diags.render("test");
  auto *Ret = cast<ReturnStmt>(R.Ctx->TU.findFunction("f")->Body->Body[0]);
  auto *Cond = dynCast<ConditionalExpr>(Ret->Value);
  ASSERT_NE(Cond, nullptr);
  EXPECT_NE(dynCast<CastExpr>(Cond->Then), nullptr);
}

TEST(Parser, ControlFlowStatements) {
  ParseResult R = parse(
      "int f(int n) {\n"
      "  int s = 0;\n"
      "  while (n > 0) { s += n; n--; }\n"
      "  do { s++; } while (s < 10);\n"
      "  for (;;) { break; }\n"
      "  if (s > 5) return s; else return -s;\n"
      "}\n");
  ASSERT_TRUE(R.OK) << R.Diags.render("test");
}

TEST(Parser, RoundTripFixedPoint) {
  roundTrip("#include <math.h>\n"
            "static double henon(double x, double y, int n) {\n"
            "  double a = 1.05;\n"
            "  double b = 0.3;\n"
            "  for (int i = 0; i < n; i++) {\n"
            "    double xi = x;\n"
            "    x = 1 - a * xi * xi + y;\n"
            "    y = b * xi;\n"
            "  }\n"
            "  return x;\n"
            "}\n");
}

TEST(Parser, RoundTripPreservesPragma) {
  std::string Out = roundTrip(
      "void f(double *y, double *x) {\n"
      "  #pragma igen reduce s\n"
      "  for (int i = 0; i < 4; i++) { x[i] = y[i]; }\n"
      "}\n");
  EXPECT_NE(Out.find("#pragma igen reduce s"), std::string::npos);
}

TEST(Parser, ErrorRecovery) {
  ParseResult R = parse("double f( { return 1.0; }\n"
                        "double g(void) { return 2.0; }\n");
  EXPECT_FALSE(R.OK);
  EXPECT_TRUE(R.Diags.hasErrors());
  // g must still have been parsed despite the error in f.
  EXPECT_NE(R.Ctx->TU.findFunction("g"), nullptr);
}

TEST(Parser, SizeofRejected) {
  ParseResult R =
      parse("int f(void) { return (int)sizeof(double); }");
  EXPECT_FALSE(R.OK);
}

TEST(Parser, UnaryOperators) {
  ParseResult R = parse("double f(double a) { return -a + +a - -(-a); }");
  ASSERT_TRUE(R.OK);
  roundTrip("double f(double a) { return -a + +a - -(-a); }");
}
