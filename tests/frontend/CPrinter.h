//===- CPrinter.h - AST-to-C pretty printer for tests -----------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints the AST back to compilable C, for the frontend tests' parse /
/// print / parse round trips (ParserTest, FuzzTest). The interval
/// transformer does not use it; it emits C through its own lowering.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_TESTS_FRONTEND_CPRINTER_H
#define IGEN_TESTS_FRONTEND_CPRINTER_H

#include "frontend/AST.h"

#include <string>

namespace igen {

class CPrinter {
public:
  /// Prints the whole translation unit.
  std::string print(const TranslationUnit &TU);

  /// Prints a single function definition or prototype.
  void printFunction(const FunctionDecl *F);

  /// Prints one statement at the current indentation.
  void printStmt(const Stmt *S);

  /// Returns the printed expression.
  std::string exprToString(const Expr *E);

private:
  std::string declToString(const VarDecl *D);
  std::string functionHeader(const FunctionDecl *F);
  /// Emits a raw line at the current indentation.
  void line(const std::string &Text);
  void append(const std::string &Text) { Out += Text; }
  std::string indentStr() const { return std::string(Indent * 2, ' '); }

  std::string typeAndName(const Type *Ty, const std::string &Name) const;

  std::string Out;
  int Indent = 0;
};

} // namespace igen

#endif // IGEN_TESTS_FRONTEND_CPRINTER_H
